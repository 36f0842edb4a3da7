"""Quaternion algebras over k = F_p(t) and matrix algebras with involution.

Conventions: H = (a, b) has basis {1, i, j, ij} with i^2 = a, j^2 = b,
ij = -ji.  The opposite algebra H^op lives on the same coordinate space
with reversed multiplication; its operations are derived, never
reimplemented.  The sandwich isomorphism f : H (x) H^op -> M_4(k) sends
x (x) y to the matrix of z -> x z y on the ordered basis {1, i, j, ij},
exactly as in the unipotent-module construction this feeds into.
"""

from .funcfield import Place, RatFunc, hilbert_symbol, support, square_class
from .linalg import KSpan, Mat, combination, intertwiners, matrix_units
from .algebra import Algebra, InvolutionAlgebra


class Quaternion:
    """Presentation (a, b): i^2 = a, j^2 = b, ij = -ji; a, b nonzero."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        if a.is_zero() or b.is_zero():
            raise ValueError("quaternion parameters must be nonzero")
        self.a = a
        self.b = b

    @property
    def p(self):
        return self.a.p

    def reduced(self):
        """Same algebra with a, b replaced by their square-class representatives."""
        return Quaternion(
            square_class(self.a).representative(),
            square_class(self.b).representative(),
        )

    def elem(self, c0, c1, c2, c3):
        return QuatElem(self, (c0, c1, c2, c3))

    def one(self):
        p = self.p
        return self.elem(RatFunc.one(p), RatFunc.zero(p), RatFunc.zero(p), RatFunc.zero(p))

    def i(self):
        p = self.p
        return self.elem(RatFunc.zero(p), RatFunc.one(p), RatFunc.zero(p), RatFunc.zero(p))

    def j(self):
        p = self.p
        return self.elem(RatFunc.zero(p), RatFunc.zero(p), RatFunc.one(p), RatFunc.zero(p))

    def k(self):
        p = self.p
        return self.elem(RatFunc.zero(p), RatFunc.zero(p), RatFunc.zero(p), RatFunc.one(p))

    def basis(self):
        return [self.one(), self.i(), self.j(), self.k()]

    def ramification_set(self):
        """Places where the algebra stays division: symbol -1 on the support."""
        out = [v for v in support(self.a, self.b) if hilbert_symbol(self.a, self.b, v) == -1]
        return sorted(out, key=Place.sort_key)

    def is_split(self):
        return not self.ramification_set()

    def __eq__(self, other):
        return isinstance(other, Quaternion) and self.a == other.a and self.b == other.b

    def __repr__(self):
        return f"Quaternion({self.a}, {self.b})"


class QuatElem:
    """Element of a quaternion algebra on the basis {1, i, j, ij}."""

    __slots__ = ("H", "coords")

    def __init__(self, H, coords):
        self.H = H
        self.coords = tuple(coords)

    @property
    def p(self):
        return self.H.p

    def __add__(self, other):
        return QuatElem(self.H, [x + y for x, y in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return QuatElem(self.H, [x - y for x, y in zip(self.coords, other.coords)])

    def __neg__(self):
        return QuatElem(self.H, [-x for x in self.coords])

    def scale(self, c):
        return QuatElem(self.H, [c * x for x in self.coords])

    def __mul__(self, other):
        return quat_mul(self, other)

    def conj(self):
        return quat_conj(self)

    def nrd(self):
        """Reduced norm x * conj(x), asserted to land in k."""
        prod = self * self.conj()
        if any(not c.is_zero() for c in prod.coords[1:]):
            raise AssertionError("x * conj(x) did not land in the center")
        return prod.coords[0]

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, QuatElem)
            and self.H == other.H
            and self.coords == other.coords
        )

    def __repr__(self):
        c = ", ".join(str(x) for x in self.coords)
        return f"QuatElem[{c}]"


def quat_mul(x, y):
    """Product per i^2 = a, j^2 = b, ij = -ji."""
    H = x.H
    a, b = H.a, H.b
    x0, x1, x2, x3 = x.coords
    y0, y1, y2, y3 = y.coords
    ab = a * b
    z0 = x0 * y0 + a * (x1 * y1) + b * (x2 * y2) - ab * (x3 * y3)
    z1 = x0 * y1 + x1 * y0 - b * (x2 * y3) + b * (x3 * y2)
    z2 = x0 * y2 + x2 * y0 + a * (x1 * y3) - a * (x3 * y1)
    z3 = x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1
    return QuatElem(H, (z0, z1, z2, z3))


def quat_conj(x):
    """Canonical involution: negate the pure part."""
    c0, c1, c2, c3 = x.coords
    return QuatElem(x.H, (c0, -c1, -c2, -c3))


def left_mult_matrix(x):
    """Matrix of z -> x*z on the basis {1, i, j, ij} (columns are images)."""
    H = x.H
    return Mat(H.p, [quat_mul(x, e).coords for e in H.basis()]).T


def right_mult_matrix(x):
    """Matrix of z -> z*x; these realize H^op inside M_4(k)."""
    H = x.H
    return Mat(H.p, [quat_mul(e, x).coords for e in H.basis()]).T


def twisted_involution(H, x):
    """tau(x) = (ij) conj(x) (ij)^{-1}: the orthogonal twist fixing i and j."""
    k = H.k()
    nk = k.nrd()  # (ij)^2 = -ab, so (ij)^{-1} = (ij)/Nrd... via conj: k^{-1} = conj(k)/Nrd(k)
    kinv = quat_conj(k).scale(nk.inverse())
    return quat_mul(quat_mul(k, quat_conj(x)), kinv)


class SandwichIso:
    """Explicit f : H (x) H^op -> M_4(k), f(x (x) y) = matrix of z -> x z y."""

    __slots__ = ("H", "a1", "a2", "a3", "_basis_mats", "_coord_inv")

    def __init__(self, H):
        self.H = H
        basis = H.basis()
        self.a1 = left_mult_matrix(basis[0])
        self.a2 = left_mult_matrix(basis[1])
        self.a3 = left_mult_matrix(basis[2])
        mats = []
        for x in basis:
            Lx = left_mult_matrix(x)
            for y in basis:
                mats.append(Lx * right_mult_matrix(y))
        self._basis_mats = mats
        try:
            self._coord_inv = Mat(H.p, [m.flatten() for m in mats]).T.inverse()
        except ValueError as exc:
            raise AssertionError("sandwich map is not bijective") from exc

    def apply(self, x, y):
        """f(x (x) y): matrix of z -> x z y."""
        return left_mult_matrix(x) * right_mult_matrix(y)

    def decompose(self, M):
        """Coordinates of M on the f(b_i (x) b_j) basis, (i, j) row-major."""
        return self._coord_inv.apply(M.flatten())

    def verify_homomorphism(self):
        """f(u)f(u') = f(uu') on all 16 x 16 basis products of H (x) H^op."""
        basis = self.H.basis()
        for x in basis:
            for y in basis:
                Fxy = self.apply(x, y)
                for xp in basis:
                    for yp in basis:
                        lhs = Fxy * self.apply(xp, yp)
                        # (x (x) y°)(x' (x) y'°) = xx' (x) (y' y)°
                        rhs = self.apply(quat_mul(x, xp), quat_mul(yp, y))
                        if lhs != rhs:
                            return False
        return True


class RhoInvolution:
    """rho on M_4(k): the image of tau (x) (canonical of H^op) under f."""

    __slots__ = ("H", "f", "_table")

    def __init__(self, H):
        self.H = H
        self.f = SandwichIso(H)
        # f(tau(x) (x) conj(y)) per sandwich basis element x (x) y, (x, y)
        # row-major: sigma on H^op is the canonical involution y° -> conj(y)°
        basis = H.basis()
        twisted = [twisted_involution(H, x) for x in basis]
        self._table = [self.f.apply(tx, quat_conj(y)) for tx in twisted for y in basis]

    def apply(self, M):
        """rho(M) by pushing tau (x) sigma through the sandwich basis."""
        return combination(self.f.decompose(M), self._table)

    def fixes_generators(self):
        return all(self.apply(M) == M for M in (self.f.a1, self.f.a2, self.f.a3))


def rho_involution(H):
    """(M_4(k), rho) as an InvolutionAlgebra, with the sandwich data attached."""
    rho = RhoInvolution(H)
    p = H.p
    alg = Algebra.from_matrices(p, matrix_units(p, 4))
    cols = [alg.coords_of(rho.apply(alg.matrix_of(alg.basis_coords(m)))) for m in range(16)]
    ia = InvolutionAlgebra(alg, Mat(p, cols).T)
    return ia, rho


def solve_alpha(rho, H):
    """Skew-symmetric alpha with rho(x) = alpha^{-1} x^T alpha for all x.

    `linalg.intertwiners` solves alpha rho(U) = U^T alpha over the matrix
    units U of M_4(k); the solution space must be 1-dimensional (scalar
    gauge), and its RREF representative has first nonzero entry 1 in
    row-major order.
    """
    units = matrix_units(H.p, 4)
    solutions = intertwiners(H.p, 4, [(rho.apply(U), U.T) for U in units])
    if len(solutions) != 1:
        raise ValueError(
            f"alpha solution space has dimension {len(solutions)}, expected 1 "
            "(is the involution symplectic?)"
        )
    alpha = solutions[0]
    if alpha.T != -alpha:
        raise ValueError("alpha is not skew-symmetric (non-symplectic involution?)")
    if not _reproduces_involution(alpha, rho, units):
        raise ValueError("alpha does not reproduce rho on the matrix units")
    return alpha


def _reproduces_involution(alpha, rho, units):
    alpha_inv = alpha.inverse()
    for X in units:
        if alpha_inv * X.T * alpha != rho.apply(X):
            return False
    return True


def tensor_m2q(H1, H2):
    """Ramification data of Q with H1^op (x) H2^op ~ M_2(Q) (Brauer product).

    The class of the tensor product is the product of the classes, so the
    ramification set of Q is the symmetric difference of the two input
    sets; Q is division iff that set is nonempty.
    """
    r1 = set(H1.ramification_set())
    r2 = set(H2.ramification_set())
    ram = sorted(r1 ^ r2, key=Place.sort_key)
    return {"ramification": ram, "is_division": bool(ram)}


def quaternion_from_algebra(alg):
    """Extract an (a, b) presentation from a 4-dimensional algebra over k.

    Finds a reduced-trace-zero element with nonzero square in k, completes
    it to an anticommuting pair by orthogonality for the polar form
    x y + y x, and returns (Quaternion, coords of (1, i, j, ij)).
    Raises if the algebra is not quaternion (failure is reported, per the
    extraction contract, never approximated).
    """
    p = alg.p
    if alg.dim != 4:
        raise ValueError("quaternion extraction expects a 4-dimensional algebra")
    # reduced trace = (1/2) * regular trace in degree 2
    trace_rows = [[alg.left_mult_matrix(alg.basis_coords(i)).trace() for i in range(4)]]
    pure = Mat(p, trace_rows).nullspace()
    if len(pure) != 3:
        raise ValueError("trace-zero subspace is not 3-dimensional")

    def square_scalar(u):
        sq = alg.mult(u, u)
        cand = _as_scalar(alg, sq)
        return cand

    candidates = list(pure)
    for i in range(3):
        for j in range(i + 1, 3):
            candidates.append(alg.add(pure[i], pure[j]))
    x1 = None
    for u in candidates:
        s = square_scalar(u)
        if s is not None and not s.is_zero():
            x1 = u
            a = s
            break
    if x1 is None:
        raise ValueError("no trace-zero element with nonzero scalar square found")
    # polar-form orthogonal complement of x1 inside the pure subspace
    rows = []
    for u in pure:
        v = alg.add(alg.mult(x1, u), alg.mult(u, x1))
        s = _as_scalar(alg, v)
        if s is None:
            raise ValueError("polar form did not land in the center")
        rows.append(s)
    # want combos c with sum c_i * rows_i = 0
    sys = Mat(p, [rows])
    combos = sys.nullspace()
    x2 = None
    seeds = list(combos)
    for i in range(len(combos)):
        for j in range(i + 1, len(combos)):
            seeds.append(tuple(a + b for a, b in zip(combos[i], combos[j])))
    pure_cols = Mat(p, pure).T
    for combo in seeds:
        u = pure_cols.apply(combo)
        s = square_scalar(u)
        if s is not None and not s.is_zero():
            x2 = u
            b = s
            break
    if x2 is None:
        raise ValueError("no orthogonal anticommuting partner found")
    x3 = alg.mult(x1, x2)
    if alg.mult(x2, x1) != tuple(-c for c in x3):
        raise ValueError("candidate pair does not anticommute")
    sp = KSpan(p)
    for vec in (alg.unit, x1, x2, x3):
        sp.add(list(vec))
    if sp.dim != 4:
        raise ValueError("1, i, j, ij do not span the algebra")
    return Quaternion(a, b), (alg.unit, x1, x2, x3)


def _as_scalar(alg, coords):
    """If coords = c * unit, return c, else None."""
    unit = alg.unit
    c = None
    for x, u in zip(coords, unit):
        if u.is_zero():
            if not x.is_zero():
                return None
        else:
            cand = x / u
            if c is None:
                c = cand
            elif cand != c:
                return None
    return c if c is not None else RatFunc.zero(alg.p)
