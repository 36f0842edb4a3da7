import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from gquadforms.funcfield import (
    Place,
    Poly,
    RatFunc,
    SquareClass,
    hilbert_symbol,
    is_local_square,
    quadratic_character,
    require_odd_prime,
    smallest_nonsquare,
    sqrt_mod,
    sqrt_of_square,
    square_class,
    support,
    valuation,
)
from gquadforms.localsolve import hilbert_symbol_oracle

P = 3


def _evaluate(f, x):
    """f(x) in F_p by Horner's rule."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = (acc * x + c) % f.p
    return acc


def poly(s):
    return Poly.from_string(P, s)


def rf(s):
    return RatFunc.from_string(P, s)


# ---------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------


def test_parse_and_format_round_trip():
    for s in ("t^2+2*t+1", "2", "t", "t^3+t", "2*t^2+1"):
        assert str(poly(s)) == s
    assert poly("1 + 2*t + t^2") == poly("t^2+2*t+1")
    assert poly("t^2 - 1") == poly("t^2+2")


def test_parse_rejects_signed_or_empty_exponent():
    # "t^-1" once split into "t^" and "-1" and read as t - 1
    for text in ("t^-1", "t^", "t^+2", "2*t^-3+1"):
        with pytest.raises(ValueError):
            poly(text)
    assert poly("t^2-1") == Poly(P, [2, 0, 1])
    assert poly("-t") == Poly(P, [0, 2])
    assert poly("2*t^3+t-1") == Poly(P, [2, 1, 0, 2])


def test_zero_polynomial_degree_sentinel():
    assert Poly.zero(P).degree == -1
    assert Poly.one(P).degree == 0


def test_divmod_and_gcd():
    f = poly("t^3+2*t+1")
    g = poly("t+1")
    q, r = divmod(f, g)
    assert q * g + r == f
    assert poly("t^2+2*t").gcd(poly("t^2+t")) == poly("t")


def test_factor_spec_examples():
    lead, fac = poly("t").factor()
    assert lead == 1 and fac == [(poly("t"), 1)]
    # t^2+1 irreducible over F_3: exhaustive root search finds none
    f = poly("t^2+1")
    assert all(_evaluate(f, x) != 0 for x in range(3))
    assert f.is_irreducible()
    assert f.factor() == (1, [(f, 1)])
    # (t-1)(t-2)
    lead, fac = poly("t^2-3*t+2").factor()
    assert lead == 1
    assert [g for g, _ in fac] == [poly("t+1"), poly("t+2")]


def test_factor_zero_errors():
    with pytest.raises(ValueError, match="zero"):
        Poly.zero(P).factor()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, P - 1), min_size=1, max_size=7))
def test_factor_reconstructs_product(coeffs):
    f = Poly(P, coeffs)
    if f.is_zero():
        return
    lead, fac = f.factor()
    prod = Poly.const(P, lead)
    for g, e in fac:
        assert g.is_monic() and g.is_irreducible()
        prod = prod * g**e
    assert prod == f


def test_factor_deterministic_order():
    f = poly("t^6+2*t^4+t^2+2")  # multiple factors
    assert f.factor() == f.factor()


def test_pth_power_factorization():
    f = poly("t^2+1") ** 3
    assert f.factor() == (1, [(poly("t^2+1"), 3)])


# ---------------------------------------------------------------------
# rational functions and valuations
# ---------------------------------------------------------------------


def test_ratfunc_canonical_form():
    a = RatFunc(poly("2*t^2+2*t"), poly("2*t"))
    assert str(a) == "t+1"
    assert rf("t/t").is_one()


BIG = 2**31 - 1

coeff_lists = st.lists(st.integers(0, BIG - 1), max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([P, BIG]), coeff_lists, coeff_lists)
def test_ratfunc_polynomial_fast_path(p, num_coeffs, g_coeffs):
    num = Poly(p, num_coeffs)
    for r in (RatFunc(num), RatFunc(num, Poly.one(p))):
        assert r.num == num and r.den == Poly.one(p)  # num kept, even non-monic
    g = Poly(p, g_coeffs[:-1] + [1]) if g_coeffs else Poly.one(p)  # random monic
    general = RatFunc(num * g, g)
    assert general == RatFunc(num)
    assert hash(general) == hash(RatFunc(num))


@pytest.mark.parametrize("p", [P, BIG, 2**61 - 1])
def test_poly_mul_exact_at_any_prime(p):
    rng = random.Random(p)
    # long products: at the large primes their coefficient sums exceed 2^63
    for la, lb in ((15, 15), (2, 40), (30, 31)):
        a = [rng.randrange(1, p) for _ in range(la)]
        b = [rng.randrange(1, p) for _ in range(lb)]
        want = [0] * (la + lb - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                want[i + j] += x * y
        assert Poly(p, a) * Poly(p, b) == Poly(p, want)


def _canonical(f):
    """Poly's invariant: entries in [0, p) and a nonzero last entry."""
    return all(0 <= c < f.p for c in f.coeffs) and (not f.coeffs or f.coeffs[-1] != 0)


def _reduced(r):
    """RatFunc's invariant: canonical parts, monic denominator and no common
    factor (so 0 is stored as 0/1, since gcd(0, d) = d)."""
    return (
        _canonical(r.num)
        and _canonical(r.den)
        and r.den.is_monic()
        and r.num.gcd(r.den).is_one()
    )


def _sparse_coeffs(rng, p, length):
    """`length` residues, about half of them 0, so interior zeros are common."""
    return [rng.randrange(1, p) if rng.random() < 0.5 else 0 for _ in range(length)]


def test_negation_keeps_interior_zero():
    # p - c maps an interior 0 to p, not 0: the entry must stay 0
    f = -Poly(P, [1, 0, 2])
    assert f.coeffs == (2, 0, 1) and _canonical(f)
    assert -Poly(BIG, [0, 0, 5]) == Poly(BIG, [0, 0, -5])


@pytest.mark.parametrize("p", [3, 5, BIG])
def test_poly_and_ratfunc_fast_paths_match_normalising_constructors(p):
    rng = random.Random(f"fast paths:{p}")
    for trial in range(120):
        # short products, then long ones (len(a) + len(b) up to 58)
        hi = 8 if trial % 2 else 30
        a = Poly(p, _sparse_coeffs(rng, p, rng.randrange(0, hi)))
        b = Poly(p, _sparse_coeffs(rng, p, rng.randrange(0, hi)))
        c = rng.choice([0, 1, p - 1, p, p + 1, -1, rng.randrange(-p, 2 * p)])
        naive = [0] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                naive[i + j] += x * y
        longest = max(len(a.coeffs), len(b.coeffs))
        pa = list(a.coeffs) + [0] * (longest - len(a.coeffs))
        pb = list(b.coeffs) + [0] * (longest - len(b.coeffs))
        cases = [
            (-a, Poly(p, [-x for x in a.coeffs])),
            (a + b, Poly(p, [x + y for x, y in zip(pa, pb)])),
            (a - b, Poly(p, [x - y for x, y in zip(pa, pb)])),
            (a * b, Poly(p, naive)),
            (a.scale(c), Poly(p, [c * x for x in a.coeffs])),
            (a * Poly(p, [c]), Poly(p, [c * x for x in a.coeffs])),
        ]
        if not b.is_zero():
            q, r = divmod(a, b)
            assert q * b + r == a and r.degree < b.degree
            cases += [(q, Poly(p, q.coeffs)), (r, Poly(p, r.coeffs))]
        for got, want in cases:
            assert got == want and _canonical(got), (trial, got, want)
        # a polynomial operand on either side of a reduced fraction, and
        # polynomial by polynomial
        d = Poly(p, _sparse_coeffs(rng, p, rng.randrange(0, 5)) + [1])
        x, y = RatFunc(a), RatFunc(b, d)
        for u, v in ((x, y), (y, x), (x, RatFunc(b)), (y, y)):
            ops = [
                (u + v, RatFunc(u.num * v.den + v.num * u.den, u.den * v.den)),
                (u - v, RatFunc(u.num * v.den - v.num * u.den, u.den * v.den)),
                (u * v, RatFunc(u.num * v.num, u.den * v.den)),
                (-u, RatFunc(Poly(p, [-x for x in u.num.coeffs]), u.den)),
            ]
            for got, want in ops:
                assert got == want and _reduced(got), (trial, got, want)
    for zero in (RatFunc.zero(p), RatFunc(Poly.zero(p), Poly.t(p))):
        assert zero == RatFunc(Poly(p, [])) and _reduced(zero) and zero.is_zero()
    assert RatFunc.one(p) == RatFunc(Poly(p, [1]), Poly(p, [1])) and RatFunc.one(p).is_one()
    assert Poly.zero(p) == Poly(p, [0, 0]) and Poly.one(p) == Poly(p, [1 + p])
    assert Poly.t(p) == Poly(p, [p, 1])


def test_valuation_spec_examples():
    vt = Place.finite(poly("t"))
    vinf = Place.infinity(P)
    assert valuation(rf("t"), vt) == 1
    assert valuation(rf("t"), vinf) == -1
    c = rf("t-1") / (rf("t-2") ** 2)
    assert valuation(c, Place.from_string(P, "t-2")) == -2
    assert valuation(RatFunc.zero(P), vt) == float("inf")


def test_is_local_square_spec_examples():
    vt = Place.finite(poly("t"))
    assert not is_local_square(rf("t"), vt)  # odd valuation
    assert not is_local_square(rf("-1"), vt)  # squares of F_3 are {0, 1}
    v2 = Place.from_string(P, "t^2+1")
    assert is_local_square(rf("-1"), v2)  # t^2 = -1 in F_9
    with pytest.raises(ValueError):
        is_local_square(RatFunc.zero(P), vt)


def test_quadratic_character_spec_examples():
    vt = Place.finite(poly("t"))
    v2 = Place.from_string(P, "t^2+1")
    assert quadratic_character(Poly.one(P), vt) == 1
    assert quadratic_character(Poly.const(P, -1), vt) == -1
    assert quadratic_character(Poly.const(P, -1), v2) == 1
    assert quadratic_character(Poly.zero(P), vt) == 0


# ---------------------------------------------------------------------
# Hilbert symbols
# ---------------------------------------------------------------------


def test_symbol_spec_examples():
    vt = Place.finite(poly("t"))
    vinf = Place.infinity(P)
    a, b = rf("-1"), rf("t")
    assert hilbert_symbol(RatFunc.one(P), b, vt) == 1
    assert hilbert_symbol(a, b, vt) == -1
    assert hilbert_symbol(a, b, vinf) == -1
    with pytest.raises(ValueError):
        hilbert_symbol(RatFunc.zero(P), b, vt)


def test_support_spec_examples():
    assert [str(v) for v in support(rf("-1"), rf("t"))] == ["t", "inf"]
    b = rf("t-1") * rf("t-2")
    assert [str(v) for v in support(rf("-1"), b)] == ["t+1", "t+2", "inf"]
    assert [str(v) for v in support(RatFunc.one(P), RatFunc.one(P))] == ["inf"]


def test_places_of_proved_irreducibles_skip_the_rabin_test(monkeypatch):
    from gquadforms.construct import sample_unramified_places
    from gquadforms.funcfield import irreducibles

    for text in ("t^2+2*t+1", "t^2+2", "2*t+1"):  # (t+1)^2, (t+1)(t+2), not monic
        with pytest.raises(ValueError, match="monic irreducible"):
            Place.finite(poly(text))
        with pytest.raises(ValueError, match="monic irreducible"):
            Place.from_string(P, text)
    bad = [Place.finite(poly("t")), Place.infinity(P)]
    tested = []
    rabin = Poly.is_irreducible
    monkeypatch.setattr(Poly, "is_irreducible", lambda f: tested.append(f) or rabin(f))
    # factors of t^2 (t^2+1) (t+1)^-3 and (t-1)(t-2): factor() proves them
    places = support(rf("t^4+t^2/t^3+1"), rf("t^2+2"))
    assert [str(v) for v in places] == ["t", "t+1", "t+2", "t^2+1", "inf"]
    assert tested == []
    sampled = sample_unramified_places(P, bad, 4)
    assert [str(v) for v in sampled] == ["t+1", "t+2", "t^2+1", "t^2+t+2"]
    # the candidates irreducibles() tests for its first five, and no more
    drawn = len(tested)
    del tested[:]
    first = list(itertools.islice(irreducibles(P), 5))
    assert len(tested) == drawn and [v.pi for v in sampled] == first[1:]
    assert sampled == [Place.finite(v.pi) for v in sampled]


def _random_rf(rng, maxdeg=3):
    while True:
        num = Poly(P, [rng.randrange(P) for _ in range(rng.randrange(1, maxdeg + 2))])
        den = Poly(P, [rng.randrange(P) for _ in range(rng.randrange(1, maxdeg + 2))])
        if not num.is_zero() and not den.is_zero():
            return RatFunc(num, den)


def test_product_formula_random():
    rng = random.Random(20240817)
    for _ in range(60):
        a, b = _random_rf(rng), _random_rf(rng)
        prod = 1
        for v in support(a, b):
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1


def test_symbol_bilinear_symmetric():
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = _random_rf(rng, 2), _random_rf(rng, 2), _random_rf(rng, 2)
        places = set(support(a, b * c)) | set(support(a, b)) | set(support(a, c))
        for v in places:
            assert hilbert_symbol(a, b * c, v) == hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v)
            assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        for v in support(a, -a):
            assert hilbert_symbol(a, -a, v) == 1


def test_local_square_forces_trivial_symbol():
    rng = random.Random(9)
    for _ in range(20):
        a, b = _random_rf(rng, 2), _random_rf(rng, 2)
        for v in support(a, b):
            if is_local_square(a, v):
                assert hilbert_symbol(a, b, v) == 1


def _power_symbol(a, b, v):
    """The tame symbol by powering: the quadratic character of the residue
    of (-1)^(alpha*beta) * a^beta * b^(-alpha), raised to (q - 1)/2."""
    p = a.p
    alpha, beta = valuation(a, v), valuation(b, v)
    u = (a**beta) * (b ** (-alpha))
    if (alpha * beta) % 2:
        u = -u
    e = (v.residue_order - 1) // 2
    if v.is_infinite:
        r = pow(u.num.lc * pow(u.den.lc, p - 2, p) % p, e, p)
        return 1 if r == 1 else -1
    pi = v.pi
    num, den = u.num, u.den
    while (num % pi).is_zero():
        num = num.exact_div(pi)
    while (den % pi).is_zero():
        den = den.exact_div(pi)
    r = ((num * den.invmod(pi)) % pi).powmod(e, pi)
    assert r.is_one() or (r + Poly.one(p)).is_zero()
    return 1 if r.is_one() else -1


def _random_irreducible(rng, p, d):
    while True:
        f = Poly(p, [rng.randrange(p) for _ in range(d)] + [1])
        if f.is_irreducible():
            return f


def _random_local_element(rng, v):
    """c * pi^k * f / g with k in [-3, 3] and f, g random of degree <= 3; at
    infinity the valuation deg g - deg f runs over [-3, 3]."""
    p = v.p
    while True:
        f = Poly(p, [rng.randrange(p) for _ in range(rng.randrange(1, 5))])
        g = Poly(p, [rng.randrange(p) for _ in range(rng.randrange(1, 5))])
        if f.is_zero() or g.is_zero():
            continue
        a = RatFunc(f.scale(rng.randrange(1, p)), g)
        if not v.is_infinite:
            k = rng.randrange(-3, 4)
            a = a * RatFunc(v.pi) ** k
        return a


@pytest.mark.parametrize("p", [3, 5, 7, 2**31 - 1])
def test_symbol_matches_power_formula(p):
    rng = random.Random(f"symbol:{p}")
    places = [Place.infinity(p)]
    for d in (1, 2, 3):
        for _ in range(2):
            places.append(Place.finite(_random_irreducible(rng, p, d)))
    memo = {}
    vals = set()
    oracle_checked = 0
    for v in places:
        for _ in range(12):
            a, b = _random_local_element(rng, v), _random_local_element(rng, v)
            want = _power_symbol(a, b, v)
            assert hilbert_symbol(a, b, v) == want
            assert hilbert_symbol(a, b, v, memo) == want
            assert hilbert_symbol(b, a, v, memo) == want  # served from the memo
            vals.update((valuation(a, v), valuation(b, v)))
            if p <= 7 and v.residue_order <= 125:
                assert hilbert_symbol_oracle(a, b, v) == want
                oracle_checked += 1
    assert any(x < 0 for x in vals) and any(x % 2 for x in vals) and any(x > 0 and x % 2 == 0 for x in vals)
    assert memo and all(u.valuation == valuation(x, w) for (x, w), u in memo.items())
    if p <= 7:
        assert oracle_checked >= 36


# ---------------------------------------------------------------------
# square classes
# ---------------------------------------------------------------------


def test_square_class_canonicalization():
    assert smallest_nonsquare(P) == 2
    sc = square_class(rf("2*t^2"))
    assert sc.nonsquare_unit and sc.squarefree.is_one()
    assert square_class(rf("t") * rf("t")).is_trivial()
    sc2 = square_class(rf("t") * rf("t-1"))
    assert str(sc2.squarefree) == "t^2+2*t"


def test_square_class_multiplicative_idempotent():
    rng = random.Random(3)
    for _ in range(25):
        a, b = _random_rf(rng, 2), _random_rf(rng, 2)
        ca, cb = square_class(a), square_class(b)
        assert ca * cb == square_class(a * b)
        assert square_class(ca.representative()) == ca


def test_sqrt_of_square():
    rng = random.Random(4)
    for _ in range(15):
        a = _random_rf(rng, 2)
        r = sqrt_of_square(a * a)
        assert r * r == a * a
    with pytest.raises(ValueError):
        sqrt_of_square(rf("t"))


def test_square_helpers_match_brute_force():
    for p in range(3, 500, 2):
        if any(p % d == 0 for d in range(3, math.isqrt(p) + 1, 2)):
            continue
        roots = {}
        for x in range(p):
            roots.setdefault(x * x % p, x)  # the smaller root of each square
        assert smallest_nonsquare(p) == min(c for c in range(1, p) if c not in roots)
        for c in range(p):
            if c in roots:
                assert sqrt_mod(c, p) == roots[c]
            else:
                with pytest.raises(ValueError):
                    sqrt_mod(c, p)


def test_square_helpers_at_large_prime():
    p = 2**61 - 1
    c = smallest_nonsquare(p)
    assert pow(c, (p - 1) // 2, p) == p - 1
    assert all(pow(a, (p - 1) // 2, p) == 1 for a in range(2, c))
    for x in (2, 12345678901, p - 3):
        r = sqrt_mod(x * x, p)
        assert r * r % p == x * x % p and r <= p - r


def test_require_odd_prime():
    for n in range(-2, 3000):
        odd_prime = n > 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        if odd_prime:
            require_odd_prime(n)
        else:
            with pytest.raises(ValueError):
                require_odd_prime(n)
    for p in (2**31 - 1, 10**9 + 7, 10**18 + 9):
        require_odd_prime(p)
    # strong pseudoprimes to the bases 2..7 and to the bases 2..23
    for n in (3215031751, 3825123056546413051, (2**31 - 1) * (10**9 + 7), 3**40):
        with pytest.raises(ValueError):
            require_odd_prime(n)


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_factor_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(f"factor:{p}")
    polys = [Poly(p, [rng.randrange(p) for _ in range(rng.randrange(2, 10))]) for _ in range(40)]
    # repeated factors exercise the squarefree and p-th power steps
    polys += [
        Poly(p, [1, 1]) ** 3 * Poly(p, [2, 0, 1]) ** 2,
        Poly(p, [0, 1]) ** min(p, 8),
        Poly(p, [1, 0, 1]) ** 2 * Poly(p, [3, 1]),
    ]
    tested = 0
    for f in polys:
        if not 1 <= f.degree <= 8:
            continue
        lead, factors = f.factor()
        s_lead, s_factors = sympy.Poly(list(reversed(f.coeffs)), x, modulus=p).factor_list()
        want = sorted(
            (tuple(int(c) % p for c in reversed(g.monic().all_coeffs())), e) for g, e in s_factors
        )
        assert lead == int(s_lead) % p
        assert sorted((g.coeffs, e) for g, e in factors) == want
        tested += 1
    assert tested >= 30
