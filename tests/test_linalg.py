import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gquadforms.funcfield import Poly, RatFunc
from gquadforms.linalg import (
    KSpan,
    Mat,
    PolyMat,
    charpoly_coeffs,
    coefficient_stack,
    exact_dtype,
    modp_nullspace,
    modp_rref,
    symmetric_diagonalize,
)

P = 3


def _rng_rf(rng, maxdeg=2, denom=True):
    num = Poly(P, [rng.randrange(P) for _ in range(rng.randrange(1, maxdeg + 2))])
    den = Poly(P, [rng.randrange(1, P)] + [rng.randrange(P) for _ in range(maxdeg)]) if denom else Poly.one(P)
    return RatFunc(num, den)


def _rand_mat(rng, n, denom=True):
    return Mat(P, [[_rng_rf(rng, 2, denom) for _ in range(n)] for _ in range(n)])


def test_matrix_ring_axioms():
    rng = random.Random(0)
    A, B, C = (_rand_mat(rng, 3) for _ in range(3))
    assert (A * B) * C == A * (B * C)
    assert A * (B + C) == A * B + A * C
    assert (A + B).T == A.T + B.T
    assert (A * B).T == B.T * A.T


def test_inverse_and_solve():
    M = Mat.from_int_rows(P, [[1, 0, 0], [0, 1, 1], [1, 0, 1]])
    assert M * M.inverse() == Mat.identity(P, 3)
    rhs = tuple(RatFunc.from_int(P, c) for c in (1, 2, 0))
    x = M.solve(rhs)
    col = Mat(P, [[e] for e in x])
    assert [M.rows[i][0] * x[0] + M.rows[i][1] * x[1] + M.rows[i][2] * x[2] for i in range(3)] == list(rhs)
    assert (M * col).flatten() == list(rhs)


def test_nullspace_members_annihilate():
    A = Mat.from_int_rows(P, [[1, 2, 0, 1], [2, 1, 1, 0]])
    ns = A.nullspace()
    assert len(ns) == 2
    for vec in ns:
        col = Mat(P, [[x] for x in vec])
        assert (A * col).is_zero()


def test_berkowitz_charpoly_against_trace_and_det():
    rng = random.Random(1)
    for n in (2, 3, 4):
        M = _rand_mat(rng, n)
        cp = M.charpoly()
        assert cp[n] == RatFunc.one(P)
        assert cp[n - 1] == -M.trace()
        det = M.det()
        sign = RatFunc.from_int(P, (-1) ** n)
        assert cp[0] == sign * det


@pytest.mark.parametrize("p", [3, 5, 2**30 - 35, 2**31 - 1])
def test_charpoly_matches_sympy_over_polynomial_ring(p):
    # p = 2^30 - 35 is int64 at n <= 6 with sums near the bound; 2^31 - 1 is
    # past it at every n, so the kernel runs in Python integers
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    t = sympy.Symbol("t")
    K = sympy.GF(p)[t]
    x = K.gens[0]

    def to_sympy(f):
        return sum((c * x**d for d, c in enumerate(f.coeffs)), K.zero)

    def from_sympy(e):
        coeffs = dict(e.terms())
        return Poly(p, [int(coeffs.get((d,), 0)) for d in range(max(e.degree(), 0) + 1)])

    def domain_matrix(M):
        return DomainMatrix([[to_sympy(e.num) for e in r] for r in M.rows], (M.nrows, M.nrows), K)

    def sympy_charpoly(M):
        return [from_sympy(c) for c in reversed(domain_matrix(M).charpoly())]

    rng = random.Random(f"charpoly:{p}")

    def entry(denom):
        num = Poly(p, [rng.randrange(p) for _ in range(rng.randrange(1, 4))])
        den = Poly(p, [rng.randrange(p) for _ in range(rng.randrange(2))] + [1]) if denom and rng.random() < 0.4 else Poly.one(p)
        return RatFunc(num, den)

    assert exact_dtype(p, 6) is (np.int64 if p < 2**31 - 1 else object)
    for n in range(1, 7):
        polymats = [Mat(p, [[entry(False) for _ in range(n)] for _ in range(n)]) for _ in range(3)]
        polymats.append(Mat(p, [[RatFunc.from_int(p, p - 1)] * n] * n))  # every product at its largest
        expected = [sympy_charpoly(M) for M in polymats]
        got = charpoly_coeffs(p, coefficient_stack(polymats))
        assert [[Poly(p, v) for v in cp] for cp in got.tolist()] == expected
        assert [M.charpoly() for M in polymats] == [[RatFunc(c) for c in cp] for cp in expected]
        assert [M.det() for M in polymats] == [RatFunc(from_sympy(domain_matrix(M).det())) for M in polymats]
        # with denominators: sympy sees c M over F_p[t], c the product of the
        # distinct denominators, whose T^i coefficient is c^(n-i) c_i(M)
        M = Mat(p, [[entry(True) for _ in range(n)] for _ in range(n)])
        c = RatFunc(Poly.one(p))
        for den in {e.den.coeffs: e.den for e in M.flatten()}.values():
            c = c * RatFunc(den)
        scaled = [ci * c ** (n - i) for i, ci in enumerate(M.charpoly())]
        assert scaled == [RatFunc(f) for f in sympy_charpoly(M * c)]


def test_charpoly_cayley_hamilton():
    rng = random.Random(2)
    M = _rand_mat(rng, 4)
    cp = M.charpoly()
    acc = Mat.zeros(P, 4)
    power = Mat.identity(P, 4)
    for c in cp:
        acc = acc + power * c
        power = power * M
    assert acc.is_zero()


def test_polymat_agrees_with_mat():
    rng = random.Random(3)
    X = _rand_mat(rng, 5, denom=False)
    Y = _rand_mat(rng, 5, denom=False)
    PX, PY = PolyMat.from_mat(X), PolyMat.from_mat(Y)
    assert (PX * PY).to_mat() == X * Y
    assert (PX + PY).to_mat() == X + Y
    assert PX.T.to_mat() == X.T
    assert (PX**3).to_mat() == X * X * X
    assert PX.kron(PY).to_mat() == X.kron(Y)
    assert PX.trace() == (X.trace()).num


BIG = 2**31 - 1


@st.composite
def polymats(draw):
    """PolyMat over F_3 or F_BIG, coefficients drawn from a small pool so
    that equal entries repeat and the interned values are shared."""
    p = draw(st.sampled_from([P, BIG]))
    D, n, m = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    pool = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4))
    coeffs = draw(st.lists(st.sampled_from(pool), min_size=D * n * m, max_size=D * n * m))
    return PolyMat(p, np.array(coeffs, dtype=np.int64).reshape(D, n, m))


@settings(max_examples=80, deadline=None)
@given(polymats())
@example(PolyMat.zeros(P, 4, 3))
@example(PolyMat(P, np.array([[[1, 2], [0, 2]]])))
@example(PolyMat(BIG, np.array([[[1, 0]], [[0, 5]], [[0, 0]], [[7, BIG - 1]]])))
def test_to_mat_matches_entrywise_construction(X):
    D, n, m = X.arr.shape
    M = X.to_mat()
    assert (M.nrows, M.ncols) == (n, m)
    built = {}
    for i in range(n):
        for j in range(m):
            e = M[i, j]
            assert e == RatFunc(Poly(X.p, [int(X.arr[d, i, j]) for d in range(D)]))
            assert built.setdefault(e, e) is e  # equal entries are one object
    assert PolyMat.from_mat(M) == X


def _exact_product(X, Y):
    """Coefficient array of X * Y in Python integers (object dtype)."""
    A, B = X.arr.astype(object), Y.arr.astype(object)
    out = np.zeros((A.shape[0] + B.shape[0] - 1, A.shape[1], B.shape[2]), dtype=object)
    for i in range(A.shape[0]):
        for j in range(B.shape[0]):
            out[i + j] += A[i] @ B[j]
    return out % X.p


# exact_dtype(p, 64) of the product / exact_dtype(p, 1) of the Kronecker
# product: int64/int64 up to 376,693,549, where 65 (p - 1)^2 < 2^63 still
# holds; object/int64 from 376,693,573 to 2^31 - 1; object/object from
# 2,147,483,659, where 2 (p - 1)^2 >= 2^63
@pytest.mark.parametrize(
    "p", [P, 100_000_007, 376_693_549, 376_693_573, BIG, 2_147_483_659, 2**61 - 1]
)
def test_polymat_mul_and_kron_exact_at_any_prime(p):
    rng = np.random.default_rng(p % 1000)
    n = 64
    A, B = rng.integers(0, p, (2, 2, n, n), dtype=np.int64)
    A[:, 0, :] = B[:, :, 0] = p - 1  # entry (0, 0) of each slice product at its largest
    X, Y = PolyMat(p, A), PolyMat(p, B)
    assert np.array_equal((X * Y).arr, _exact_product(X, Y).astype(np.int64))
    x, y = PolyMat(p, X.arr[:, :3, :2]), PolyMat(p, Y.arr[:, :2, :3])
    assert x.kron(y).to_mat() == x.to_mat().kron(y.to_mat())  # RatFunc oracle


def test_polymat_exact_below_2_63_and_refused_beyond():
    p = 2**63 - 25  # the largest prime below 2^63: a sum of two residues overflows int64
    rng = random.Random(7)

    def mat():
        return Mat(p, [[RatFunc(Poly(p, [rng.randrange(p - 3, p) for _ in range(2)])) for _ in range(3)]
                       for _ in range(3)])

    X, Y = mat(), mat()
    PX, PY = PolyMat.from_mat(X), PolyMat.from_mat(Y)
    assert (PX + PY).to_mat() == X + Y
    assert (PX - PY).to_mat() == X - Y
    assert (PX * PY).to_mat() == X * Y
    assert PX.kron(PY).to_mat() == X.kron(Y)
    assert PX.trace() == X.trace().num
    q = 2**64 + 13
    for build in (lambda: PolyMat.identity(q, 2), lambda: PolyMat.from_mat(Mat.from_int_rows(q, [[1, 1], [0, 1]]))):
        with pytest.raises(ValueError, match=r"p < 2\^63"):
            build()


def test_polymat_rejects_denominators():
    M = Mat(P, [[RatFunc(Poly.one(P), Poly.t(P))]])
    with pytest.raises(ValueError):
        PolyMat.from_mat(M)
    assert PolyMat.from_mat(M.clear_denominators()) is not None


def test_kron_bilinearity():
    # (a (x) b)(c (x) d) = ac (x) bd -- the identity the factored radical
    # certificate leans on
    rng = random.Random(4)
    for _ in range(5):
        a, b, c, d = (_rand_mat(rng, 2, denom=False) for _ in range(4))
        assert a.kron(b) * c.kron(d) == (a * c).kron(b * d)


def test_symmetric_diagonalize_exact():
    rng = random.Random(5)
    done = 0
    for n in (2, 3, 4, 5, 6):
        p0 = _rand_mat(rng, n)
        G = p0 + p0.T
        try:
            entries, Pm = symmetric_diagonalize(G)
        except ValueError:
            continue
        D = Mat(P, [[entries[i] if i == j else RatFunc.zero(P) for j in range(n)] for i in range(n)])
        assert Pm.T * G * Pm == D
        done += 1
    assert done >= 3


def test_symmetric_diagonalize_zero_diagonal():
    G = Mat.from_int_rows(P, [[0, 1], [1, 0]])
    entries, Pm = symmetric_diagonalize(G)
    D = Mat(P, [[entries[i] if i == j else RatFunc.zero(P) for j in range(2)] for i in range(2)])
    assert Pm.T * G * Pm == D
    with pytest.raises(ValueError):
        symmetric_diagonalize(Mat.from_int_rows(P, [[0, 0], [0, 0]]))


def test_kspan_rref_determinism():
    sp = KSpan(P)
    v1 = [RatFunc.from_int(P, c) for c in (0, 1, 2)]
    v2 = [RatFunc.from_int(P, c) for c in (1, 1, 0)]
    assert sp.add(v1) and sp.add(v2)
    v3 = [a + b for a, b in zip(v1, v2)]
    assert not sp.add(v3)
    assert sp.contains(v3)
    coords = sp.coordinates(v3)
    assert coords is not None
    zero = RatFunc.zero(P)
    assert [sum((c * row[j] for c, row in zip(coords, sp.basis_rows())), zero) for j in range(3)] == v3
    assert sp.coordinates([RatFunc.from_int(P, c) for c in (0, 0, 1)]) is None
    sp2 = KSpan(P)
    assert sp2.add(v2) and sp2.add(v1)
    assert sp.basis_rows() == sp2.basis_rows()  # RREF basis independent of order


@pytest.mark.parametrize("p", [3, 2**31 - 1])
def test_rref_nullspace_solve_match_sympy_over_rational_functions(p):
    """`Mat.rref` (a `KSpan`), `nullspace` and `solve` against sympy's
    DomainMatrix over GF(p)(t), on sparse matrices with denominators."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    K = sympy.GF(p).frac_field(sympy.Symbol("t"))
    x = K.gens[0]

    def to_k(f):
        num, den = (sum((c * x**d for d, c in enumerate(g.coeffs)), K.zero) for g in (f.num, f.den))
        return num / den

    def to_dm(rows, ncols):
        return DomainMatrix([[to_k(e) for e in r] for r in rows], (len(rows), ncols), K)

    def same(A, B):
        # sympy keeps fractions like 2/2 unreduced, so compare differences
        return A.shape == B.shape and (A - B).is_zero_matrix

    rng = random.Random(f"rref:{p}")

    def rand_rows(n, m):
        return [[_sparse_rf(rng, p) for _ in range(m)] for _ in range(n)]

    zero = RatFunc.zero(p)
    dependent = rand_rows(3, 5)
    a, b = _sparse_rf(rng, p), _sparse_rf(rng, p)
    dependent.append([a * u + b * v for u, v in zip(dependent[0], dependent[2])])
    with_zero_row = rand_rows(2, 4) + [[zero] * 4] + rand_rows(1, 4)
    cases = [rand_rows(4, 4), dependent, rand_rows(6, 3), with_zero_row, rand_rows(1, 1), [[zero] * 3] * 2]
    for rows in cases:
        M = Mat(p, rows)
        n, m = M.nrows, M.ncols
        R, pivots = M.rref()
        want, want_pivots = to_dm(rows, m).rref()
        assert pivots == tuple(want_pivots)
        assert same(to_dm(R.rows, m), want)
        # nullspace: the basis that is 1 at its own free column, 0 at the others
        got = M.nullspace()
        free = [c for c in range(m) if c not in want_pivots]
        assert len(got) == len(free)
        if got:
            N = to_dm(got, m)
            assert (to_dm(rows, m) * N.transpose()).is_zero_matrix
            assert same(N.extract(range(len(free)), free), DomainMatrix.eye(len(free), K))
        # solve: a solution with zero free coordinates, or None when there is none
        for rhs in ([_sparse_rf(rng, p) for _ in range(n)], [r[0] for r in rows]):
            sol = M.solve(rhs)
            consistent = to_dm([r + [c] for r, c in zip(rows, rhs)], m + 1).rank() == len(want_pivots)
            assert (sol is not None) == consistent
            if sol is not None:
                assert same(to_dm(rows, m) * to_dm([sol], m).transpose(), to_dm([[c] for c in rhs], 1))
                assert all(sol[c].is_zero() for c in free)
    empty = Mat(p, [])
    assert empty.rref() == (empty, ()) and empty.nullspace() == [] and empty.solve([]) == ()


def test_modp_helpers():
    A = np.array([[1, 2, 0], [0, 0, 1], [2, 1, 0]])
    R, piv = modp_rref(A, P)
    assert piv == [0, 2]
    ns = modp_nullspace(A, P)
    assert ns.shape == (1, 3)
    assert not ((A @ ns.T) % P).any()


def _sparse_rf(rng, p):
    """Zero a third of the time; otherwise a polynomial or a fraction with a
    monic quadratic denominator, half and half."""
    if rng.random() < 1 / 3:
        return RatFunc.zero(p)
    num = Poly(p, [rng.randrange(p) for _ in range(rng.randrange(1, 4))])
    if rng.random() < 0.5:
        return RatFunc(num)
    return RatFunc(num, Poly(p, [rng.randrange(p), rng.randrange(p), 1]))


@pytest.mark.parametrize("p", [3, 2**31 - 1])
def test_apply_and_combination_match_the_loops_they_replace(p):
    from gquadforms.linalg import combination

    rng = random.Random(p)
    zero = RatFunc.zero(p)
    for n, m in ((1, 1), (3, 3), (2, 5), (5, 2), (4, 1), (1, 4)):
        M = Mat(p, [[_sparse_rf(rng, p) for _ in range(m)] for _ in range(n)])
        for vec in [[_sparse_rf(rng, p) for _ in range(m)] for _ in range(4)] + [[zero] * m]:
            assert M.apply(vec) == tuple((M * Mat(p, [[x] for x in vec])).flatten())
        mats = [Mat(p, [[_sparse_rf(rng, p) for _ in range(m)] for _ in range(n)]) for _ in range(4)]
        for coeffs in [[_sparse_rf(rng, p) for _ in mats] for _ in range(4)] + [[zero] * 4]:
            old = Mat.zeros(p, n, m)
            for c, B in zip(coeffs, mats):
                if not c.is_zero():
                    old = old + B * c
            new = combination(coeffs, mats)
            assert new == old and (new.nrows, new.ncols) == (n, m)


# ---------------------------------------------------------------------
# the residue memo: constancy decided once per matrix
# ---------------------------------------------------------------------


def _count_constancy_scans(monkeypatch):
    """Count `RatFunc.is_constant` calls; returns the list that grows."""
    calls = []
    real = RatFunc.is_constant

    def counting(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(RatFunc, "is_constant", counting)
    return calls


def test_span_products_output_carries_its_residues(monkeypatch):
    from gquadforms.linalg import int64_stack, span_products

    rng = random.Random(7)
    mats = [Mat.from_int_rows(P, [[rng.randrange(P) for _ in range(3)] for _ in range(2)]) for _ in range(5)]
    basis = span_products(P, mats)
    assert 0 < len(basis) <= 5
    calls = _count_constancy_scans(monkeypatch)
    for M in mats + basis:
        R = M.residues()
        assert R.dtype == np.int64 and R.shape == (M.nrows, M.ncols)
        assert R.tolist() == [[e.num.lc for e in row] for row in M.rows]
        assert all(e.is_polynomial() and e.num.degree <= 0 for e in M.flatten())
    assert int64_stack(P, basis).tolist() == [M.residues().tolist() for M in basis]
    assert calls == []  # every residue array was there from the start


def test_residue_memo_decides_constancy_once(monkeypatch):
    from gquadforms.linalg import int64_stack

    t, one = RatFunc.t(P), RatFunc.one(P)
    for entries in ([[one, t]], [[one, RatFunc(Poly.one(P), Poly.t(P))]]):
        M = Mat(P, entries)
        calls = _count_constancy_scans(monkeypatch)
        assert M.residues() is None and int64_stack(P, [M]) is None
        assert M.residues() is None and int64_stack(P, [M, M]) is None
        assert len(calls) == 2  # the first scan stops at the first non-constant entry
        monkeypatch.undo()
    C = Mat(P, [[one, RatFunc.from_int(P, 2)], [RatFunc.zero(P), one]])
    calls = _count_constancy_scans(monkeypatch)
    for _ in range(3):
        assert int64_stack(P, [C]).tolist() == [[[1, 2], [0, 1]]]
    assert len(calls) == 4


def test_int64_gate_runs_before_any_residue_scan(monkeypatch):
    from gquadforms.linalg import int64_stack

    # a prime above 2^63 (2^89 - 1): no residue fits in int64, and nothing
    # overflows; the p < 2^63 gate of `Mat.residues` runs before any scan
    big = 2**89 - 1
    M = Mat.from_int_rows(big, [[big - 1, 1], [0, 2**70]])
    N = Mat(big, [[RatFunc.from_int(big, big - 1)]])
    calls = _count_constancy_scans(monkeypatch)
    assert M.residues() is None and N.residues() is None
    assert int64_stack(big, [M]) is None and int64_stack(big, [N]) is None
    assert calls == []
    assert M.rows[1][1] == RatFunc.from_int(big, 2**70)


def _invertible_int_rows(rng, p, n):
    while True:
        M = Mat.from_int_rows(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        if not M.det().is_zero():
            return M


def _intertwiner_pairs(p, seed):
    """Seeded constant pairs (A, B), A != B: B_k = S A_k S^-1 for the
    conjugates A_k = R D_k R^-1 of D_1 = diag(1, 1, 2, 2), D_2 = E_12, so
    the solutions form a 6-dimensional space; then pairs of unrelated
    matrices, whose solutions are typically 0."""
    rng = random.Random(seed)
    R, S = _invertible_int_rows(rng, p, 4), _invertible_int_rows(rng, p, 4)
    D = [Mat.from_int_rows(p, [[int(i == j) * (1 + i // 2) for j in range(4)] for i in range(4)])]
    D.append(Mat.from_int_rows(p, [[int((i, j) == (0, 1)) for j in range(4)] for i in range(4)]))
    similar = [(R * Dk * R.inverse(), S * R * Dk * R.inverse() * S.inverse()) for Dk in D]
    unrelated = [(_invertible_int_rows(rng, p, 4), _invertible_int_rows(rng, p, 4)) for _ in range(2)]
    return {"similar": similar, "unrelated": unrelated}


@pytest.mark.parametrize("p", [3, 2**31 - 1, 2**61 - 1])
def test_intertwiners_agree_across_domains_and_with_sympy(monkeypatch, p):
    """`intertwiners` solves X A = B X with the same RREF basis mod p and in
    exact arithmetic, and its dimension is that of sympy's nullspace of the
    stacked system over GF(p)."""
    import gquadforms.linalg as linalg
    from gquadforms.linalg import intertwiners

    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    cases = _intertwiner_pairs(p, seed=p % 1000)
    fast = {name: intertwiners(p, 4, pairs) for name, pairs in cases.items()}
    assert all(M.residues() is not None for basis in fast.values() for M in basis)
    assert len(fast["similar"]) == 6
    monkeypatch.setattr(linalg, "int64_stack", lambda p, mats: None)
    assert {name: intertwiners(p, 4, pairs) for name, pairs in cases.items()} == fast
    K = sympy.GF(p)
    for name, pairs in cases.items():
        for X in fast[name]:
            assert all(X * A == B * X for A, B in pairs)
        # coefficient of X[r][c] in (X A - B X)[i][j]
        rows = [
            [K(int((r == i) * A[c, j].num.lc - (c == j) * B[i, r].num.lc)) for r in range(4) for c in range(4)]
            for A, B in pairs
            for i in range(4)
            for j in range(4)
        ]
        assert len(fast[name]) == DomainMatrix(rows, (len(rows), 16), K).nullspace().shape[0]


def test_intertwiners_of_a_polynomial_pair_and_of_no_pairs():
    from gquadforms.linalg import intertwiners, matrix_units, span_products

    t, one, zero = RatFunc.t(P), RatFunc.one(P), RatFunc.zero(P)
    A = Mat(P, [[one, t], [zero, one]])
    S = Mat(P, [[one, one], [zero, t]])
    B = S * A * S.inverse()
    basis = intertwiners(P, 2, [(A, B)])
    # X = S C for C in the commutant of A, {a I + b (A - I)}
    assert len(basis) == 2 and all(X * A == B * X for X in basis)
    assert span_products(P, basis) == basis
    assert intertwiners(P, 3, []) == matrix_units(P, 3)
