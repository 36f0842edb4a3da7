import gc
import random
import time

import pytest

from gquadforms import funcfield, quadform
from gquadforms.funcfield import LocalUnit, Place, Poly, RatFunc, square_class
from gquadforms.linalg import Mat
from gquadforms.localsolve import local_isotropic
from gquadforms.quadform import (
    QuadForm,
    equivalent_global,
    equivalent_local,
    hyperbolic_form,
    invariants_report,
    is_hyperbolic,
    is_isotropic,
    is_isotropic_local,
)

P = 3


def rf(s):
    return RatFunc.from_string(P, s)


def diag(*entries):
    return QuadForm.from_diagonal(P, [rf(e) for e in entries])


def _random_rf(rng, maxdeg=2):
    while True:
        num = Poly(P, [rng.randrange(P) for _ in range(rng.randrange(1, maxdeg + 2))])
        den = Poly(P, [rng.randrange(P) for _ in range(rng.randrange(1, maxdeg + 2))])
        if not num.is_zero() and not den.is_zero():
            return RatFunc(num, den)


def _random_form(rng, n):
    return QuadForm.from_diagonal(P, [_random_rf(rng) for _ in range(n)])


def _direct_sum(q1, q2):
    """Orthogonal sum of two forms built by `from_diagonal`."""
    return QuadForm.from_diagonal(P, q1.diagonal() + q2.diagonal())


# ---------------------------------------------------------------------
# diagonalization
# ---------------------------------------------------------------------


def test_diagonalize_spec_examples():
    q = QuadForm(Mat.identity(P, 3))
    entries, Pm = q.diagonalize()
    assert entries == [RatFunc.one(P)] * 3
    assert Pm == Mat.identity(P, 3)
    # hyperbolic plane
    h = QuadForm(Mat.from_int_rows(P, [[0, 1], [1, 0]]))
    assert equivalent_global(h, diag("1", "-1"))
    q2 = QuadForm(Mat(P, [[rf("t"), rf("0")], [rf("0"), rf("1")]]))
    assert q2.diagonal() == [rf("t"), rf("1")]


def test_degenerate_rejected():
    with pytest.raises(ValueError):
        QuadForm(Mat.from_int_rows(P, [[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        QuadForm(Mat.from_int_rows(P, [[0, 1], [0, 0]]))  # not symmetric


def test_congruence_identity_random():
    rng = random.Random(0)
    for n in (2, 3, 4):
        M = Mat(P, [[_random_rf(rng) for _ in range(n)] for _ in range(n)])
        G = M + M.T
        try:
            q = QuadForm(G)
        except ValueError:
            continue
        entries, Pm = q.diagonalize()
        D = Mat(P, [[entries[i] if i == j else RatFunc.zero(P) for j in range(n)] for i in range(n)])
        assert Pm.T * G * Pm == D


# ---------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------


def test_disc_spec_examples():
    assert str(diag("1", "-1").disc()) == "2"
    assert diag("t", "t").disc().is_trivial()
    assert str(diag("1", "t").disc()) == "t"


def test_hasse_spec_examples():
    vt = Place.from_string(P, "t")
    v1 = Place.from_string(P, "t-1")
    assert diag("1", "1").hasse_invariant(vt) == 1
    assert diag("-1", "t").hasse_invariant(vt) == -1
    assert diag("-1", "t").hasse_invariant(v1) == 1


def test_hasse_invariant_calls_symbol_once_per_pair(monkeypatch):
    # the benchmark pins the hilbert_symbol count of a counterexample run,
    # so the memo may make each call cheaper but never skip one
    calls = []
    symbol = quadform.hilbert_symbol

    def counting(a, b, v, memo=None):
        calls.append(memo)
        return symbol(a, b, v, memo)

    monkeypatch.setattr(quadform, "hilbert_symbol", counting)
    rng = random.Random(12)
    for n in (1, 2, 5, 9):
        q = _random_form(rng, n)
        for v in q.bad_places():
            for _ in range(2):  # cold memo, then warm
                calls.clear()
                q.hasse_invariant(v)
                assert len(calls) == n * (n - 1) // 2
                assert all(m is q._local for m in calls)


def _live_local_units():
    return sum(isinstance(o, LocalUnit) for o in gc.get_objects())


def test_symbol_memo_lives_and_dies_with_its_form():
    entries = [rf(s) for s in ("t", "t+1", "2*t^2+1", "t/t^2+1", "2")]
    gc.collect()
    before = _live_local_units()
    q1 = QuadForm.from_diagonal(P, entries)
    q2 = QuadForm.from_diagonal(P, entries)
    assert q1._local is not q2._local
    h = [q1.hasse_invariant(v) for v in q1.bad_places()]
    assert q1._local and not q2._local
    assert [q2.hasse_invariant(v) for v in q2.bad_places()] == h
    del q1, q2
    gc.collect()
    assert _live_local_units() == before
    # no module-level symbol cache: the only cached helpers take integers
    cached = {name for name, obj in vars(funcfield).items() if hasattr(obj, "cache_info")}
    assert cached <= {"smallest_nonsquare", "_prime_divisors"}
    assert not [
        name
        for name, obj in vars(funcfield).items()
        if isinstance(obj, (dict, list, set)) and not name.startswith("__")
    ]


def test_disc_is_cached():
    q = diag("t", "2", "t^2+1")
    assert q.disc() is q.disc()
    assert str(q.disc()) == "2*t^3+2*t"


def test_bad_places_spec_examples():
    assert [str(v) for v in diag("1", "1", "1").bad_places()] == ["inf"]
    assert [str(v) for v in diag("-1", "t").bad_places()] == ["t", "inf"]
    assert [str(v) for v in diag("t", "t-1").bad_places()] == ["t", "t+2", "inf"]


def test_hasse_independent_of_diagonalization():
    rng = random.Random(1)
    for _ in range(6):
        n = rng.choice([2, 3, 4])
        q = _random_form(rng, n)
        # congruate by a random invertible matrix and rediagonalize
        while True:
            Pm = Mat(P, [[RatFunc.from_int(P, rng.randrange(P)) for _ in range(n)] for _ in range(n)])
            try:
                Pm.inverse()
                break
            except ValueError:
                continue
        q2 = QuadForm(Pm.T * q.gram * Pm)
        places = set(q.bad_places()) | set(q2.bad_places())
        for v in places:
            assert q.hasse_invariant(v) == q2.hasse_invariant(v)
        assert q.disc() == q2.disc()


def test_hasse_product_formula():
    rng = random.Random(2)
    for _ in range(10):
        q = _random_form(rng, 4)
        prod = 1
        for v in q.bad_places():
            prod *= q.hasse_invariant(v)
        assert prod == 1


# ---------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------


def test_equivalent_spec_examples():
    vt = Place.from_string(P, "t")
    q = diag("1", "2", "t")
    assert equivalent_local(q, q, vt)
    assert equivalent_local(diag("1", "-1"), diag("t", "-t"), vt)
    assert equivalent_local(diag("1", "1"), diag("-1", "-1"), vt)
    assert equivalent_global(diag("1", "-1"), diag("t", "-t"))
    assert not equivalent_global(diag("1", "1"), diag("1", "-1"))
    # norm form of a split quaternion vs rank-4 hyperbolic
    split_norm = diag("1", "-1", "-t", "t")
    assert equivalent_global(split_norm, hyperbolic_form(P, 4))


def test_congruent_forms_always_equivalent():
    rng = random.Random(3)
    for _ in range(5):
        n = rng.choice([2, 3, 4, 5])
        q = _random_form(rng, n)
        while True:
            Pm = Mat(P, [[RatFunc.from_int(P, rng.randrange(P)) for _ in range(n)] for _ in range(n)])
            try:
                Pm.inverse()
                break
            except ValueError:
                continue
        q2 = QuadForm(Pm.T * q.gram * Pm)
        assert equivalent_global(q, q2)


def test_equivalence_is_equivalence_relation():
    rng = random.Random(4)
    qs = [_random_form(rng, 3) for _ in range(4)]
    for q in qs:
        assert equivalent_global(q, q)
    for a in qs:
        for b in qs:
            assert equivalent_global(a, b) == equivalent_global(b, a)


def test_witt_cancellation_through_invariants():
    rng = random.Random(5)
    for _ in range(5):
        q1, q2 = _random_form(rng, 2), _random_form(rng, 2)
        r = _random_form(rng, 2)
        lhs = equivalent_global(_direct_sum(q1, r), _direct_sum(q2, r))
        rhs = equivalent_global(q1, q2)
        assert lhs == rhs


def test_one_entry_square_class_change_detected():
    q1 = diag("1", "1", "t")
    q2 = diag("1", "1", "2*t")  # disc differs by the nonsquare constant
    assert q1.disc() != q2.disc()
    assert not equivalent_global(q1, q2)


# ---------------------------------------------------------------------
# isotropy / hyperbolicity
# ---------------------------------------------------------------------


def test_isotropy_spec_examples():
    vt = Place.from_string(P, "t")
    assert is_isotropic(diag("1", "-1"))
    assert is_isotropic(diag("1", "-1"), vt)
    q5 = diag("1", "1", "1", "1", "1")
    assert is_isotropic(q5, vt)
    assert is_isotropic(q5)
    assert not is_isotropic(diag("1", "1"))


def test_local_isotropy_matches_springer_oracle():
    rng = random.Random(6)
    cases = 0
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        entries = [_random_rf(rng) for _ in range(n)]
        q = QuadForm.from_diagonal(P, entries)
        for v in q.bad_places():
            assert is_isotropic_local(q, v) == local_isotropic(entries, v)
            cases += 1
    assert cases > 40


def test_global_isotropy_rank4_vs_norm_form():
    # norm form of the division quaternion (-1, t) is anisotropic
    nf = diag("1", "1", "-t", "-t")  # <1, -a, -b, ab> for a=-1, b=t
    assert not is_isotropic(nf)
    vt = Place.from_string(P, "t")
    assert not is_isotropic(nf, vt)


def test_hyperbolic_spec_examples():
    assert is_hyperbolic(diag("1", "-1"))
    assert not is_hyperbolic(diag("1", "1"))
    with pytest.raises(ValueError):
        is_hyperbolic(diag("1", "1", "1"))


def test_invariants_report_shape():
    rep = invariants_report(diag("-1", "t"))
    assert rep["rank"] == 2
    assert rep["disc"] == "2*t"
    assert ["t", -1] in [[a, b] for a, b in rep["hasse"]]


def test_equivalent_global_visits_places_in_sort_order(monkeypatch):
    seen = []
    hasse = QuadForm.hasse_invariant

    def recording(self, v):
        seen.append(v)
        return hasse(self, v)

    monkeypatch.setattr(QuadForm, "hasse_invariant", recording)
    q = diag("t", "t+1", "t+2", "t^2+1", "t^2+t+2", "t^2+2*t+2", "t^3+2*t+1")
    assert equivalent_global(q, q)
    assert set(seen) == set(q.bad_places())
    assert seen == sorted(seen, key=Place.sort_key)


def test_invariants_report_at_large_prime():
    # the disc carries the nonsquare unit, so the report needs smallest_nonsquare
    p = 10_000_019
    t0 = time.perf_counter()
    q = QuadForm.from_diagonal(p, [RatFunc.from_string(p, s) for s in ("t", "2", "t^2+1")])
    rep = invariants_report(q)
    assert time.perf_counter() - t0 < 1.0
    assert q.disc().nonsquare_unit  # 2 is a nonsquare mod p (p = 3 mod 8)
    assert rep["rank"] == 3 and rep["disc"] == "2*t^3+2*t"


def _forms_with_fractions(seed):
    rng = random.Random(seed)
    forms = [_random_form(rng, n) for n in (1, 2, 4, 7)]
    forms.append(diag("t/t^2+1", "2*t^2+t", "1/t", "t-1/t+1", "2"))
    forms.append(diag("1", "2", "1"))
    return forms


def test_disc_and_bad_places_match_their_definitions():
    one = RatFunc.one(P)
    for q in _forms_with_fractions(5):
        d = one
        for e in q.diagonal():
            d = d * e
        assert q.disc() == square_class(d)
        places = {Place.infinity(P)}
        for e in q.diagonal():
            places.update(funcfield.support(e, one))
        assert q.bad_places() == sorted(places, key=Place.sort_key)


def test_disc_and_bad_places_factor_each_entry_once(monkeypatch):
    calls = []
    factor = Poly.factor

    def counting(self):
        calls.append(self)
        return factor(self)

    for q in _forms_with_fractions(6):
        expected = sum(f.degree > 0 for e in q.diagonal() for f in (e.num, e.den))
        calls.clear()
        monkeypatch.setattr(Poly, "factor", counting)
        for _ in range(2):
            q.disc()
            q.bad_places()
        monkeypatch.setattr(Poly, "factor", factor)
        assert len(calls) == expected
