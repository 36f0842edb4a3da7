import pytest

from gquadforms.algebra import (
    Algebra,
    InvolutionAlgebra,
    algebra_from_span,
    quotient_algebra,
)
from gquadforms.funcfield import RatFunc
from gquadforms.linalg import Mat

P = 3


def _m2_units():
    return [
        Mat.from_int_rows(P, [[1 if (r, c) == (i, j) else 0 for c in range(2)] for r in range(2)])
        for i in range(2)
        for j in range(2)
    ]


def test_from_matrices_structure_constants():
    alg = Algebra.from_matrices(P, _m2_units())
    assert alg.dim == 4
    # associativity on the whole basis through the mult table
    for i in range(4):
        for j in range(4):
            for l in range(4):
                a, b, c = (alg.basis_coords(x) for x in (i, j, l))
                assert alg.mult(alg.mult(a, b), c) == alg.mult(a, alg.mult(b, c))
    # unit behaves
    for i in range(4):
        b = alg.basis_coords(i)
        assert alg.mult(alg.unit, b) == b
        assert alg.mult(b, alg.unit) == b


def test_from_matrices_requires_closure():
    nonclosed = [Mat.identity(P, 2), Mat.from_int_rows(P, [[0, 1], [1, 0]]),
                 Mat.from_int_rows(P, [[1, 0], [0, 2]])]
    # the span of these three misses e_12 * diag products
    with pytest.raises(ValueError):
        Algebra.from_matrices(P, nonclosed)


def test_from_matrices_takes_an_rref_basis_as_it_is(monkeypatch):
    from gquadforms import algebra
    from gquadforms.linalg import span_products

    batches = []

    def counted(p, xs, ys=None, basis=None):
        batches.append((ys, basis))
        return span_products(p, xs, ys, basis)

    monkeypatch.setattr(algebra, "span_products", counted)
    units = _m2_units()  # e_11, e_12, e_21, e_22 flatten to e_0, ..., e_3
    want = Algebra.from_matrices(P, units)
    assert want.matrices == units
    assert all(ys is not None or basis is not None for ys, basis in batches)
    # reordered, a pivot of 2, an entry above a pivot, a zero matrix: each
    # is reduced to the units first, so the algebra is the same
    two = RatFunc.from_int(P, 2)
    for mats in (
        units[::-1],
        [units[0] * two] + units[1:],
        [units[0] + units[3]] + units[1:],
        units + [Mat.zeros(P, 2)],
    ):
        del batches[:]
        alg = Algebra.from_matrices(P, mats)
        assert batches[0] == (None, None)
        assert alg.matrices == units and alg.mult_table == want.mult_table and alg.unit == want.unit


def test_center_and_inverse():
    alg = Algebra.from_matrices(P, _m2_units())
    cen = alg.center()
    assert len(cen) == 1
    u = alg.coords_of(Mat.from_int_rows(P, [[1, 1], [0, 1]]))
    inv = alg.inverse(u)
    assert alg.mult(u, inv) == alg.unit


def test_quotient_algebra_upper_triangular():
    ut = [
        Mat.from_int_rows(P, [[1, 0], [0, 0]]),
        Mat.from_int_rows(P, [[0, 1], [0, 0]]),
        Mat.from_int_rows(P, [[0, 0], [0, 1]]),
    ]
    alg = Algebra.from_matrices(P, ut)
    rad = [alg.coords_of(ut[1])]
    quot = quotient_algebra(alg, rad)
    assert quot.algebra.dim == 2
    # quotient of upper triangular by the strict part is k x k
    cen = quot.algebra.center()
    assert len(cen) == 2
    # project . lift = identity on quotient coords
    for i in range(2):
        x = quot.algebra.basis_coords(i)
        assert quot.project(quot.lift(x)) == x


def test_algebra_from_span_unit_search():
    alg = Algebra.from_matrices(P, _m2_units())
    # the span of e11 alone is a subalgebra with its own unit e11
    e11 = alg.coords_of(Mat.from_int_rows(P, [[1, 0], [0, 0]]))
    sub, sp = algebra_from_span(alg, [e11])
    assert sub.dim == 1
    assert sub.mult(sub.unit, sub.unit) == sub.unit
    # e12 and e21 generate all of M_2(k): their products add e11 and e22
    e12, e21 = (alg.coords_of(Mat.from_int_rows(P, rows)) for rows in ([[0, 1], [0, 0]], [[0, 0], [1, 0]]))
    sub, sp = algebra_from_span(alg, [e12, e21])
    assert sub.dim == 4
    assert sub.unit == tuple(sp.coordinates(alg.coords_of(Mat.identity(P, 2))))


def test_involution_validation():
    alg = Algebra.from_matrices(P, _m2_units())
    cols = [alg.coords_of(alg.matrix_of(alg.basis_coords(m)).T) for m in range(4)]
    good = Mat(P, [[cols[j][i] for j in range(4)] for i in range(4)])
    InvolutionAlgebra(alg, good)  # must not raise
    bad = Mat.identity(P, 4)  # identity map is multiplicative, not anti-
    with pytest.raises(ValueError):
        InvolutionAlgebra(alg, bad)
