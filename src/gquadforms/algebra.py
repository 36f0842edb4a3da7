"""Finite-dimensional associative algebras over k = F_p(t).

An `Algebra` always owns structure constants on a deterministic basis.  It
may additionally hold a concrete realization as matrices inside some
M_n(k); quotient algebras are abstract and fall back to the left regular
representation when a matrix carrier is needed (faithful, since every
algebra here is unital).

`InvolutionAlgebra` couples an algebra with the coordinate action of a
k-linear involution and provides the symmetric/skew splitting and the
orthogonal/symplectic/unitary kind classification.
"""

import math

from .funcfield import RatFunc
from .linalg import KSpan, Mat, combination, span_products


class Algebra:
    """Associative unital algebra with structure constants over F_p(t)."""

    __slots__ = ("p", "dim", "mult_table", "unit", "matrices", "ambient_n", "_span", "_regular", "_center")

    def __init__(self, p, mult_table, unit, matrices=None, ambient_n=None):
        self.p = p
        self.dim = len(mult_table)
        self.mult_table = mult_table  # mult_table[i][j] = coords of b_i * b_j
        self.unit = tuple(unit)
        self.matrices = matrices
        self.ambient_n = ambient_n
        self._span = None
        self._regular = None
        self._center = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_matrices(cls, p, mats):
        """Algebra spanned by the given matrices (must be closed, contain I).

        The basis is the RREF of their span: `mats` themselves when they
        already are one (a commutant basis is), else one `span_products`
        batch.  Structure constants and unit are its coordinates, through
        `span_products` batches.
        """
        if not mats:
            raise ValueError("empty generating set")
        n = mats[0].nrows
        basis = list(mats) if _is_rref(mats) else span_products(p, mats)
        dim = len(basis)
        products = span_products(p, basis, basis, basis)
        for k, coords in enumerate(products):
            if coords is None:
                i, j = divmod(k, dim)
                raise ValueError(f"span not multiplicatively closed at basis pair ({i}, {j})")
        table = [products[i * dim : (i + 1) * dim] for i in range(dim)]
        unit = span_products(p, [Mat.identity(p, n)], basis=basis)[0]
        if unit is None:
            raise ValueError("algebra does not contain the identity matrix")
        return cls(p, table, unit, matrices=basis, ambient_n=n)

    # -- coordinates ----------------------------------------------------

    @property
    def span(self):
        """KSpan of the matrix basis (built on first use)."""
        if self.matrices is None:
            raise ValueError("abstract algebra has no ambient span")
        if self._span is None:
            self._span = KSpan(self.p)
            for M in self.matrices:
                self._span.add(M.flatten())
        return self._span

    def coords_of(self, M):
        return self.span.coordinates(M.flatten())

    def matrix_of(self, coords):
        if self.matrices is None:
            raise ValueError("abstract algebra has no matrix basis")
        return combination(coords, self.matrices)

    def basis_coords(self, i):
        z = [RatFunc.zero(self.p)] * self.dim
        z[i] = RatFunc.one(self.p)
        return tuple(z)

    # -- arithmetic in coordinates ---------------------------------------

    def mult(self, u, v):
        p = self.p
        out = [RatFunc.zero(p)] * self.dim
        for i, ui in enumerate(u):
            if ui.is_zero():
                continue
            row = self.mult_table[i]
            for j, vj in enumerate(v):
                if vj.is_zero():
                    continue
                f = ui * vj
                for l, c in enumerate(row[j]):
                    if not c.is_zero():
                        out[l] = out[l] + f * c
        return tuple(out)

    def add(self, u, v):
        return tuple(a + b for a, b in zip(u, v))

    def sub(self, u, v):
        return tuple(a - b for a, b in zip(u, v))

    def smul(self, c, u):
        return tuple(c * a for a in u)

    def left_mult_matrix(self, u):
        """Matrix of x -> u*x on the structure basis."""
        cols = [self.mult(u, self.basis_coords(j)) for j in range(self.dim)]
        return Mat(self.p, cols).T

    def regular_representation(self):
        """Left-regular matrices of the basis (faithful: the algebra is unital)."""
        if self._regular is None:
            self._regular = [
                self.left_mult_matrix(self.basis_coords(i)) for i in range(self.dim)
            ]
        return self._regular

    def inverse(self, u):
        sol = self.left_mult_matrix(u).solve(self.unit)
        if sol is None:
            raise ValueError("element not invertible")
        return tuple(sol)

    def center(self):
        """Basis (coord tuples) of the center, computed once per algebra."""
        if self._center is None:
            rows = []
            for i in range(self.dim):
                b = self.basis_coords(i)
                rows.extend((self.left_mult_matrix(b) - self.right_mult_matrix(b)).rows)
            self._center = tuple(Mat(self.p, rows).nullspace()) if rows else (self.unit,)
        return self._center

    def right_mult_matrix(self, u):
        cols = [self.mult(self.basis_coords(j), u) for j in range(self.dim)]
        return Mat(self.p, cols).T

    def charpoly_regular(self, u):
        """Characteristic polynomial (ascending coeffs) of left mult by u."""
        return self.left_mult_matrix(u).charpoly()

    def __repr__(self):
        kind = "matrix" if self.matrices is not None else "abstract"
        return f"Algebra(dim {self.dim}, {kind}, p={self.p})"


class QuotientData:
    """A quotient E/R with explicit lift/project maps in E-coordinates."""

    __slots__ = ("parent", "ideal_span", "algebra", "_lift", "_solve_inv")

    def __init__(self, parent, ideal_span, algebra, lift_coords, solve_mat):
        self.parent = parent
        self.ideal_span = ideal_span
        self.algebra = algebra
        # columns: the E-coordinates of the lift of each quotient basis element
        # (rows stay explicit, so a 0-dim quotient still lifts to dim E zeros)
        self._lift = Mat(parent.p, [[L[i] for L in lift_coords] for i in range(parent.dim)])
        self._solve_inv = solve_mat.inverse()

    def project(self, e_coords):
        """Coordinates in the quotient of an element of E."""
        return self._solve_inv.apply(e_coords)[self.ideal_span.dim :]

    def lift(self, q_coords):
        return self._lift.apply(q_coords)

    def lift_matrices(self):
        """Carrier matrices of the lifts of the quotient basis: the E basis
        matrices `quotient_algebra` picked outside the ideal."""
        return [self.parent.matrix_of(col) for col in self._lift.T.rows]


def quotient_algebra(E, ideal_vectors):
    """Quotient of E by the span of the given ideal coordinate vectors."""
    p = E.p
    span, probe = KSpan(p), KSpan(p)
    for vec in ideal_vectors:
        span.add(vec)
        probe.add(vec)
    lifts = []
    for i in range(E.dim):
        cand = E.basis_coords(i)
        if probe.add(list(cand)):
            lifts.append(cand)
    d = len(lifts)
    # solve matrix: columns are (ideal basis | lifts)
    solve_mat = Mat(p, span.basis_rows() + lifts).T
    table = []
    qd_tmp = QuotientData(E, span, None, lifts, solve_mat)
    for a in range(d):
        row = []
        for b in range(d):
            prod = E.mult(lifts[a], lifts[b])
            row.append(qd_tmp.project(prod))
        table.append(row)
    unit = qd_tmp.project(E.unit)
    Q = Algebra(p, table, unit)
    qd_tmp.algebra = Q
    return qd_tmp


def _is_rref(mats):
    """True iff the row-major flattenings of `mats` are in reduced row
    echelon form with no zero row: each pivot (first nonzero entry) is 1,
    lies right of the previous one and is the only nonzero in its column."""
    rows = [M.flatten() for M in mats]
    pivots = []
    for row in rows:
        j = next((j for j, e in enumerate(row) if not e.is_zero()), None)
        if j is None or not row[j].is_one() or (pivots and j <= pivots[-1]):
            return False
        pivots.append(j)
    return all(
        row[j].is_zero() for k, row in enumerate(rows) for j in pivots if j != pivots[k]
    )


def algebra_from_span(alg, vectors):
    """Subalgebra of `alg` generated by the given coordinate vectors.

    Returns (sub_algebra, span); the span's RREF rows fix the sub-basis and
    its coordinates map back to `alg`.  The span is closed with the products
    of its basis that give the structure constants: a product outside it
    joins it and the products are formed again.  Raises if the subalgebra
    has no unit of its own.
    """
    sp = KSpan(alg.p)
    for v in vectors:
        sp.add(v)
    grown = True
    while grown:
        basis = sp.basis_rows()
        table, grown = [], False
        for u in basis:
            row = []
            for w in basis:
                prod = alg.mult(u, w)
                coords = sp.coordinates(prod)
                if coords is None:
                    sp.add(prod)
                    grown = True
                else:
                    row.append(tuple(coords))
            table.append(row)
    # unit: solve e with e*b = b for all b (two-sided by closure)
    unit = sp.coordinates(alg.unit)
    if unit is None:
        d, one, zero = len(basis), RatFunc.one(alg.p), RatFunc.zero(alg.p)
        rows = [[table[m][b][l] for m in range(d)] for b in range(d) for l in range(d)]
        unit = Mat(alg.p, rows).solve([one if l == b else zero for b in range(d) for l in range(d)])
        if unit is None:
            raise ValueError("span has no unit element")
    sub = Algebra(alg.p, table, tuple(unit))
    return sub, sp


class InvolutionAlgebra:
    """Algebra with the coordinate action of a k-linear involution.

    `inv_mat` sends coordinates of x to coordinates of iota(x).  Validity
    (iota^2 = id, anti-multiplicativity) is checked on the whole basis.
    """

    __slots__ = ("algebra", "inv_mat")

    def __init__(self, algebra, inv_mat):
        self.algebra = algebra
        self.inv_mat = inv_mat
        self.verify()

    def verify(self):
        A = self.algebra
        n = A.dim
        ident = Mat.identity(A.p, n)
        if self.inv_mat * self.inv_mat != ident:
            raise ValueError("involution does not square to the identity")
        for i in range(n):
            for j in range(n):
                lhs = self.apply(A.mult(A.basis_coords(i), A.basis_coords(j)))
                rhs = A.mult(
                    self.apply(A.basis_coords(j)), self.apply(A.basis_coords(i))
                )
                if lhs != rhs:
                    raise ValueError(
                        f"involution not anti-multiplicative at basis pair ({i}, {j})"
                    )
        if self.apply(A.unit) != A.unit:
            raise ValueError("involution must fix the identity")

    def apply(self, coords):
        return self.inv_mat.apply(coords)

    def symmetric_basis(self):
        D = self.inv_mat - Mat.identity(self.algebra.p, self.algebra.dim)
        return D.nullspace()

    def skew_basis(self):
        D = self.inv_mat + Mat.identity(self.algebra.p, self.algebra.dim)
        return D.nullspace()

    def sym_dim(self):
        return len(self.symmetric_basis())

    def kind(self):
        """'orthogonal' / 'symplectic' / 'unitary' for a simple carrier.

        First kind: the involution fixes the center; the two flavors are
        separated by dim Sym = m(m+1)/2 vs m(m-1)/2 where m is the degree.
        """
        A = self.algebra
        z = A.center()
        if not all(self.apply(c) == tuple(c) for c in z):
            return "unitary"
        center_dim = len(z)
        if center_dim != 1:
            raise ValueError("decompose first: carrier is not simple over k")
        m2 = A.dim
        m = math.isqrt(m2)
        if m * m != m2:
            raise ValueError("carrier dimension is not a square over its center")
        s = self.sym_dim()
        if s == m * (m + 1) // 2:
            return "orthogonal"
        if s == m * (m - 1) // 2:
            return "symplectic"
        raise ValueError(f"symmetric dimension {s} matches neither kind for degree {m}")
