"""Exact dense linear algebra over k = F_p(t) plus a numpy engine for
polynomial matrices.

Two representations coexist:

* `Mat` — list-of-tuples of RatFunc entries; fully general, used for all
  solves up to a few dozen rows and for anything with denominators.
* `PolyMat` — an int64 ndarray of coefficient slices (D, rows, cols) for
  matrices with polynomial entries, p < 2^63.  `PolyMat.from_mat` is the
  one Mat-to-coefficients converter (`coefficient_stack` stacks what it
  returns).

`Mat.apply` is the one matrix-vector product (M v as a tuple) and
`combination` the one linear combination of matrices (the sum of M c over
the nonzero c); every coordinate map in the library goes through them.

`KSpan` is the one Gauss-Jordan elimination over k: it keeps a span's
reduced row echelon basis as vectors arrive, and `Mat.rref` (hence
`nullspace`, `solve` and `inverse`) feeds it the rows of a matrix.  The
coordinates of a vector in an RREF basis are its entries at the pivot
columns; `KSpan.coordinates` and `span_products` both read them there.

`span_products` is the one batched kernel for RREF bases of matrix lists
and for the coordinates of matrix products in a span, and `intertwiners`
the one solver of X A = B X (commutants, adjoint forms), each with the
same answer in either domain of the rule below.

One exactness rule: constancy picks the domain, `exact_dtype(p, terms)`
the integer width.
* F_p-constant matrices run on numpy residues mod p, all others in exact
  `Mat`/`KSpan` arithmetic.  `Mat.residues` decides constancy once per
  matrix and keeps its int64 residues (p < 2^63); the Mats `rref_mats`
  builds carry them from the start, `int64_stack` stacks them and
  `PolyMat.from_mat` reads them.
* A numpy sum of `terms` products of residues runs in
  `exact_dtype(p, terms)`: int64 while (terms + 1)(p - 1)^2 < 2^63,
  Python integers (object dtype) beyond.  `poly_einsum` serves `PolyMat`
  products and Kronecker products, the batched charpoly and the chain's
  cut values, `modp_einsum` the products of constant matrices, and
  `modp_rref` eliminates with terms = 1.

One charpoly: `charpoly_coeffs` is a batched, division-free Berkowitz over
F_p[t] (correct in characteristic p).  The radical chain's cut values and
`Mat.charpoly` (on the denominator-cleared matrix) both run through it.

Symmetric diagonalization is congruence elimination over the field: each
pivot is inverted exactly, a nonzero diagonal entry is swapped in when the
pivot vanishes, and a zero diagonal block is broken by e_i <- e_i + e_j
(valid since p is odd).
"""

import numpy as np

from .funcfield import Poly, RatFunc, denominator_lcm


class Mat:
    """Immutable dense matrix over F_p(t), with its F_p residues memoised
    (`residues`)."""

    __slots__ = ("p", "rows", "_residues")

    def __init__(self, p, rows):
        self.p = p
        self.rows = tuple(tuple(r) for r in rows)
        self._residues = None  # None: not decided yet; False: not constant

    @classmethod
    def zeros(cls, p, n, m=None):
        m = n if m is None else m
        z = RatFunc.zero(p)
        return cls(p, [[z] * m for _ in range(n)])

    @classmethod
    def identity(cls, p, n):
        z, o = RatFunc.zero(p), RatFunc.one(p)
        return cls(p, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_int_rows(cls, p, rows):
        return cls(p, [[RatFunc.from_int(p, c) for c in r] for r in rows])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Mat) and self.p == other.p and self.rows == other.rows

    def __hash__(self):
        return hash((self.p, self.rows))

    def is_zero(self):
        return all(e.is_zero() for r in self.rows for e in r)

    def residues(self):
        """The entries as an (nrows, ncols) int64 array of residues mod p, or
        None when some entry is not an F_p constant (or p > 2^63, where a
        residue need not fit in int64).  Decided by one scan per matrix."""
        if self._residues is None:
            self._residues = False
            if self.p <= 2**63 and all(e.is_constant() for r in self.rows for e in r):
                R = np.array([[e.num.lc for e in r] for r in self.rows], dtype=np.int64)
                self._residues = R.reshape(self.nrows, self.ncols)
        return None if self._residues is False else self._residues

    def __add__(self, other):
        return Mat(
            self.p,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other):
        return Mat(
            self.p,
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def __neg__(self):
        return Mat(self.p, [[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, RatFunc):
            return Mat(self.p, [[a * other for a in r] for r in self.rows])
        n, k, m = self.nrows, self.ncols, other.ncols
        if other.nrows != k:
            raise ValueError("matrix dimension mismatch")
        zero = RatFunc.zero(self.p)
        bt = list(zip(*other.rows))
        out = []
        for r in self.rows:
            row = []
            nz = [(j, a) for j, a in enumerate(r) if not a.is_zero()]
            for col in bt:
                acc = zero
                for j, a in nz:
                    b = col[j]
                    if not b.is_zero():
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return Mat(self.p, out)

    def apply(self, vec):
        """M v as a tuple, skipping zero entries on both sides like `__mul__`."""
        zero = RatFunc.zero(self.p)
        nz = [(j, x) for j, x in enumerate(vec) if not x.is_zero()]
        out = []
        for r in self.rows:
            acc = zero
            for j, x in nz:
                a = r[j]
                if not a.is_zero():
                    acc = acc + a * x
            out.append(acc)
        return tuple(out)

    @property
    def T(self):
        return Mat(self.p, list(zip(*self.rows)))

    def trace(self):
        acc = RatFunc.zero(self.p)
        for i in range(self.nrows):
            acc = acc + self.rows[i][i]
        return acc

    def kron(self, other):
        """Kronecker product, skipping zero entries like `__mul__`."""
        zero = RatFunc.zero(self.p)
        out = []
        for r1 in self.rows:
            for r2 in other.rows:
                out.append([zero if a.is_zero() or b.is_zero() else a * b for a in r1 for b in r2])
        return Mat(self.p, out)

    def flatten(self):
        """Row-major entry list (the fixed flattening order used everywhere)."""
        return [e for r in self.rows for e in r]

    def clear_denominators(self):
        """Scale by the lcm of all entry denominators: polynomial entries."""
        lcm = denominator_lcm(self.flatten())
        if lcm.is_one():
            return self
        return self * RatFunc(lcm)

    def is_symmetric(self):
        return self == self.T

    def __pow__(self, e):
        result = Mat.identity(self.p, self.nrows)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- elimination ---------------------------------------------------

    def rref(self):
        """Reduced row echelon form: (Mat, pivot column tuple).  The rows go
        through a `KSpan`, the one Gauss-Jordan over k; its RREF rows come
        first, then zero rows up to `nrows`."""
        sp = KSpan(self.p)
        for r in self.rows:
            sp.add(r)
        zero = [RatFunc.zero(self.p)] * self.ncols
        return Mat(self.p, sp.rows + [zero] * (self.nrows - sp.dim)), tuple(sp.pivots)

    def nullspace(self):
        """Basis of the right nullspace as a list of row vectors (tuples)."""
        R, pivots = self.rref()
        nc = self.ncols
        free = [c for c in range(nc) if c not in pivots]
        zero, one = RatFunc.zero(self.p), RatFunc.one(self.p)
        basis = []
        for fc in free:
            vec = [zero] * nc
            vec[fc] = one
            for r, pc in enumerate(pivots):
                vec[pc] = -R.rows[r][fc]
            basis.append(tuple(vec))
        return basis

    def solve(self, rhs):
        """One solution x of self @ x = rhs (rhs row-tuple), or None."""
        aug = Mat(
            self.p, [list(r) + [rhs[i]] for i, r in enumerate(self.rows)]
        )
        R, pivots = aug.rref()
        nc = self.ncols
        if nc in pivots:
            return None
        zero = RatFunc.zero(self.p)
        x = [zero] * nc
        for r, pc in enumerate(pivots):
            x[pc] = R.rows[r][nc]
        return tuple(x)

    def inverse(self):
        n = self.nrows
        ident = Mat.identity(self.p, n).rows
        aug = Mat(self.p, [self.rows[i] + ident[i] for i in range(n)])
        R, pivots = aug.rref()
        if pivots[:n] != tuple(range(n)):
            raise ValueError("matrix not invertible")
        return Mat(self.p, [list(R.rows[i])[n:] for i in range(n)])

    def det(self):
        """Determinant: (-1)^n times the constant term of `charpoly`."""
        if self.nrows != self.ncols:
            raise ValueError("det of non-square matrix")
        c0 = self.charpoly()[0]
        return -c0 if self.nrows % 2 else c0

    def charpoly(self):
        """Characteristic polynomial coefficients [c_0, ..., c_n], c_n = 1,
        with det(T*I - M) = sum c_i T^i.

        `charpoly_coeffs` on c M, c the lcm of the entry denominators: the
        coefficient of T^i in charpoly(c M) is c^(n-i) c_i.
        """
        p, n = self.p, self.nrows
        if n == 0:
            return [RatFunc.one(p)]
        c = RatFunc(denominator_lcm(self.flatten()))
        coeffs = charpoly_coeffs(p, coefficient_stack([self * c]))[0]
        return [RatFunc(Poly(p, v)) / c ** (n - i) for i, v in enumerate(coeffs.tolist())]

    def __repr__(self):
        body = "; ".join(", ".join(str(e) for e in r) for r in self.rows)
        return f"Mat[{body}]"


def combination(coeffs, mats):
    """The sum of M * c over the nonzero c; the zero matrix of the matrices'
    shape if every c is zero."""
    out = None
    for c, M in zip(coeffs, mats):
        if not c.is_zero():
            out = M * c if out is None else out + M * c
    return out if out is not None else Mat.zeros(mats[0].p, mats[0].nrows, mats[0].ncols)


def matrix_units(p, n):
    """The n^2 matrix units E_ij of M_n(k), (i, j) in row-major order."""
    zero, one = RatFunc.zero(p), RatFunc.one(p)
    return [
        Mat(p, [[one if (r, c) == (i, j) else zero for c in range(n)] for r in range(n)])
        for i in range(n)
        for j in range(n)
    ]


class KSpan:
    """Row space over k with incremental RREF (the one Gauss-Jordan over
    k); deterministic basis, rows sorted by pivot column."""

    __slots__ = ("p", "rows", "pivots")

    def __init__(self, p):
        self.p = p
        self.rows = []
        self.pivots = []

    def reduce(self, vec):
        """Reduce vec against the current basis; returns the residual list."""
        v = list(vec)
        for row, piv in zip(self.rows, self.pivots):
            c = v[piv]
            if not c.is_zero():
                for j, b in enumerate(row):
                    if not b.is_zero():
                        v[j] = v[j] - c * b
        return v

    def add(self, vec):
        """Insert vec; True if it enlarged the span."""
        v = self.reduce(vec)
        piv = next((j for j, e in enumerate(v) if not e.is_zero()), None)
        if piv is None:
            return False
        inv = v[piv].inverse()
        v = [e * inv for e in v]
        # back-substitute to keep full RREF
        for row, q in zip(self.rows, self.pivots):
            c = row[piv]
            if not c.is_zero():
                for j in range(len(row)):
                    if not v[j].is_zero():
                        row[j] = row[j] - c * v[j]
        idx = 0
        while idx < len(self.pivots) and self.pivots[idx] < piv:
            idx += 1
        self.rows.insert(idx, v)
        self.pivots.insert(idx, piv)
        return True

    def contains(self, vec):
        return all(e.is_zero() for e in self.reduce(vec))

    @property
    def dim(self):
        return len(self.rows)

    def coordinates(self, vec):
        """Coordinates of vec in the RREF basis, or None if outside the span:
        its entries at the pivot columns, since every other basis row is zero
        at each pivot."""
        if any(not e.is_zero() for e in self.reduce(vec)):
            return None
        return [vec[j] for j in self.pivots]

    def basis_rows(self):
        return [tuple(r) for r in self.rows]


# ---------------------------------------------------------------------------
# numpy polynomial-matrix engine
# ---------------------------------------------------------------------------


class PolyMat:
    """Matrix over F_p[t] as an int64 array of coefficient slices (D, n, m),
    for p < 2^63 (a residue fits in int64; a larger p is refused here with
    a ValueError).

    One exactness rule: a product and a Kronecker product are each one
    `poly_einsum`, on arrays of `exact_dtype(p, terms)`, terms the inner
    dimension of a product and 1 for a Kronecker product; sums and traces
    stay in int64 only where `exact_dtype` allows as well.
    """

    __slots__ = ("p", "arr")

    def __init__(self, p, arr):
        if p >= 2**63:
            raise ValueError(f"polynomial matrices hold residues in int64: p < 2^63 is needed, not p = {p}")
        a = np.asarray(arr)
        if a.ndim != 3:
            raise ValueError("PolyMat wants a (degree, rows, cols) array")
        self.p = p
        self.arr = _trim((a % p).astype(np.int64, copy=False))

    @classmethod
    def from_mat(cls, M):
        """Exact conversion; every entry must be a polynomial.  A constant Mat
        gives its `residues`."""
        R = M.residues()
        if R is not None:
            return cls(M.p, R[None])
        entries = M.flatten()
        if not all(e.is_polynomial() for e in entries):
            raise ValueError("PolyMat.from_mat needs polynomial entries")
        # object dtype: the coefficients reach __init__'s range check unconverted
        D = max(len(e.num.coeffs) for e in entries)
        arr = np.zeros((D, len(entries)), dtype=object)
        for k, e in enumerate(entries):
            arr[: len(e.num.coeffs), k] = e.num.coeffs
        return cls(M.p, arr.reshape(D, M.nrows, M.ncols))

    def to_mat(self):
        """Exact conversion to a Mat whose entries are shared immutable RatFuncs.

        One RatFunc is built per distinct coefficient column of `arr` and
        reused at every position holding that polynomial (hash-consing), so
        a Kronecker product of sparse factors costs a handful of
        constructions, not one per entry.
        """
        D, n, m = self.arr.shape
        cols = np.ascontiguousarray(self.arr.reshape(D, n * m).T)
        # one opaque D*8-byte key per entry: equal keys, equal polynomials
        keys = cols.view(np.dtype((np.void, cols.itemsize * D))).reshape(-1)
        _, first, index = np.unique(keys, return_index=True, return_inverse=True)
        values = [RatFunc(Poly(self.p, c)) for c in cols[first].tolist()]
        flat = [values[k] for k in index.tolist()]
        return Mat(self.p, [flat[i * m : (i + 1) * m] for i in range(n)])

    @classmethod
    def identity(cls, p, n):
        return cls(p, np.eye(n, dtype=np.int64)[None, :, :])

    @classmethod
    def zeros(cls, p, n, m=None):
        m = n if m is None else m
        return cls(p, np.zeros((1, n, m), dtype=np.int64))

    @property
    def shape(self):
        return self.arr.shape[1:]

    @property
    def maxdeg(self):
        return self.arr.shape[0] - 1

    def __eq__(self, other):
        # __init__ trims trailing zero degrees, so equal matrices have equal arrays
        return isinstance(other, PolyMat) and self.p == other.p and np.array_equal(self.arr, other.arr)

    def is_zero(self):
        return not self.arr.any()

    def __add__(self, other):
        D = max(self.arr.shape[0], other.arr.shape[0])
        out = np.zeros((D,) + self.shape, dtype=exact_dtype(self.p, 1))
        out[: self.arr.shape[0]] += self.arr
        out[: other.arr.shape[0]] += other.arr
        return PolyMat(self.p, out)

    def __neg__(self):
        return PolyMat(self.p, (-self.arr) % self.p)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, PolyMat):
            raise TypeError("PolyMat * expects PolyMat")
        (n, k), (k2, m) = self.shape, other.shape
        if k != k2:
            raise ValueError("PolyMat dimension mismatch")
        return self._einsum("xik,ykj->ijxy", other, k, n, m)

    @property
    def T(self):
        return PolyMat(self.p, np.swapaxes(self.arr, 1, 2))

    def kron(self, other):
        (n, m), (r, c) = self.shape, other.shape
        return self._einsum("xij,ykl->ikjlxy", other, 1, n * r, m * c)

    def _einsum(self, spec, other, terms, rows, cols):
        """`poly_einsum(spec)` of the two coefficient arrays in
        `exact_dtype(p, terms)`, as a rows x cols PolyMat."""
        dtype = exact_dtype(self.p, terms)
        out = poly_einsum(self.p, spec, self.arr.astype(dtype), other.arr.astype(dtype))
        return PolyMat(self.p, np.moveaxis(out.reshape(rows, cols, -1), -1, 0))

    def trace(self):
        n = self.shape[0]
        diag = np.trace(self.arr.astype(exact_dtype(self.p, n)), axis1=1, axis2=2) % self.p
        return Poly(self.p, diag.tolist())

    def __pow__(self, e):
        result = PolyMat.identity(self.p, self.shape[0])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __repr__(self):
        n, m = self.shape
        return f"PolyMat({n}x{m}, deg<={self.maxdeg})"


def _trim(a):
    D = a.shape[0]
    while D > 1 and not a[D - 1].any():
        D -= 1
    return np.ascontiguousarray(a[:D])


# ---------------------------------------------------------------------------
# batched characteristic polynomials over F_p[t]
# ---------------------------------------------------------------------------


def coefficient_stack(mats):
    """Polynomial-entry Mats of one shape as an int64 array (len, rows,
    cols, D): entry [k, i, j, d] is the t^d coefficient of mats[k][i, j],
    converted by `PolyMat.from_mat`."""
    arrs = [PolyMat.from_mat(M).arr for M in mats]
    out = np.zeros((len(arrs),) + arrs[0].shape[1:] + (max(a.shape[0] for a in arrs),), dtype=np.int64)
    for k, a in enumerate(arrs):
        out[k, ..., : a.shape[0]] = np.moveaxis(a, 0, -1)
    return out


def exact_dtype(p, terms):
    """int64 while `terms` products of residues mod p plus one residue stay
    below 2^63, that is (terms + 1)(p - 1)^2 < 2^63; object (Python
    integers) beyond."""
    return np.int64 if (terms + 1) * (p - 1) ** 2 < 2**63 else object


def poly_einsum(p, spec, a, b):
    """np.einsum over F_p[t], reduced mod p.  The last axis of a and of b
    holds ascending t-coefficients, and `spec` keeps both as the last two
    output axes (for example "bijx,bjy->bixy"); they are summed along
    anti-diagonals into one degree axis, with trailing zero degrees
    trimmed.  Exact when the arrays have `exact_dtype(p, terms)`, terms the
    number of products one output entry of `spec` sums."""
    prod = np.einsum(spec, a, b) % p
    Da, Db = prod.shape[-2:]
    out = np.zeros(prod.shape[:-2] + (Da + Db - 1,), dtype=prod.dtype)
    for i in range(Da):
        out[..., i : i + Db] += prod[..., i, :]
    out %= p
    while out.shape[-1] > 1 and not out[..., -1].any():
        out = out[..., :-1]
    return out


def charpoly_coeffs(p, Z):
    """Every characteristic polynomial coefficient of a batch of matrices
    over F_p[t].

    Z is an integer array (B, n, n, D), D the degree axis (as
    `coefficient_stack` builds it).  Returns C of shape (B, n + 1, W): C[b, i]
    holds the ascending t-coefficients of the coefficient of T^i in
    det(T*I - Z_b), so C[b, n] = 1.

    Berkowitz, Inf. Process. Lett. 18 (1984): division-free, so valid in
    characteristic p.  Each step is a `poly_einsum` summing at most n
    products of residues, so it runs in int64 while (n + 1)(p - 1)^2 < 2^63
    and in Python integers (object dtype) beyond.
    """
    B, n = Z.shape[:2]
    Z = (np.asarray(Z) % p).astype(exact_dtype(p, n))
    polys = np.ones((B, 1, 1), dtype=Z.dtype)  # charpoly of the leading r x r minor, descending in T
    for r in range(n):
        R, C, A = Z[:, r, :r], Z[:, :r, r], Z[:, :r, :r]
        # Toeplitz column [1, -a, -R C, -R A C, ..., -R A^(r-1) C], a = Z[r, r]
        tvals = [np.ones((B, 1), dtype=Z.dtype), -Z[:, r, r]]
        vec = C
        for s in range(r):
            tvals.append(-poly_einsum(p, "bix,biy->bxy", R, vec))
            if s < r - 1:
                vec = poly_einsum(p, "bijx,bjy->bixy", A, vec)
        column = np.zeros((B, r + 2, max(v.shape[-1] for v in tvals)), dtype=Z.dtype)
        for j, v in enumerate(tvals):
            column[:, j, : v.shape[-1]] = v
        toeplitz = np.zeros((B, r + 2, r + 1, column.shape[-1]), dtype=Z.dtype)
        for k in range(r + 1):
            toeplitz[:, k:, k] = column[:, : r + 2 - k]
        polys = poly_einsum(p, "bikx,bky->bixy", toeplitz, polys)
    return polys[:, ::-1]


# ---------------------------------------------------------------------------
# mod-p dense elimination (numpy)
# ---------------------------------------------------------------------------


def int64_stack(p, mats):
    """The `Mat.residues` of `mats` as one (len, rows, cols) int64 array, or
    None when `mats` is empty or some matrix is not F_p-constant.  The numpy
    paths of `span_products`, of `intertwiners` and of the radical chain run
    only on what this returns.
    """
    stack = [M.residues() for M in mats]
    if not stack or any(R is None for R in stack):
        return None
    return np.array(stack, dtype=np.int64)


def modp_einsum(p, spec, a, b, terms):
    """np.einsum(spec, a, b) mod p as int64 residues, for residue arrays a
    and b and a `spec` that sums `terms` products per output entry: exact,
    since the sums run in `exact_dtype(p, terms)`."""
    dtype = exact_dtype(p, terms)
    out = np.einsum(spec, a.astype(dtype, copy=False), b.astype(dtype, copy=False)) % p
    return out.astype(np.int64, copy=False)


def modp_rref(A, p):
    """RREF of an int matrix mod p; returns (R, pivot_cols). In-place safe.

    Each elimination step multiplies two residues before reducing, so it
    runs in `exact_dtype(p, 1)`: int64 while 2 (p-1)^2 < 2^63, Python
    integers beyond.  R has that dtype.
    """
    M = np.array(A, dtype=exact_dtype(p, 1)) % p
    nr, nc = M.shape
    pivots = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        col = M[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        inv = pow(int(M[r, c]), p - 2, p)
        M[r] = (M[r] * inv) % p
        rows = np.nonzero(M[:, c])[0]
        rows = rows[rows != r]
        if rows.size:
            M[rows] = (M[rows] - np.outer(M[rows, c], M[r])) % p
        pivots.append(c)
        r += 1
    return M[:r], pivots


def span_products(p, xs, ys=None, basis=None):
    """The products X Y (X in xs, Y in ys, row-major order; the xs
    themselves when ys is None), reduced in one batch against a span.

    basis None: the RREF basis of their span, as Mats (row-major flatten).
    The reduced row echelon form of a row space is unique, so this is the
    same list in either domain.
    basis given: per product, the tuple of its coordinates in the RREF
    basis of span(basis), or None where it lies outside.  The coordinates
    are the product's entries at the pivot columns; an exact residual
    check (coordinates times basis against the product) decides
    membership.

    Domains (the module docstring's rule): numpy mod p when `int64_stack`
    accepts every group of matrices, with X Y summing n terms for n the
    inner dimension and the coordinates-times-basis product r terms for
    r the rank of the basis; exact Mat and KSpan arithmetic otherwise.
    Both domains give the same answer.
    """
    xs = list(xs)
    groups = [xs] + [list(g) for g in (ys, basis) if g is not None]
    stacks = [int64_stack(p, g) for g in groups]
    if any(s is None for s in stacks):
        return _span_products_exact(p, xs, ys, basis)
    X = stacks[0]
    Z = X if ys is None else modp_einsum(p, "aij,bjk->abik", X, stacks[1], X.shape[-1])
    n, m = Z.shape[-2:]
    Z = Z.reshape(-1, n * m)
    if basis is None:
        return rref_mats(p, Z, n, m)
    B, pivots = modp_rref(stacks[-1].reshape(len(basis), -1), p)
    C = Z[:, pivots]
    inside = (modp_einsum(p, "ij,jk->ik", C, B, len(pivots)) == Z).all(axis=1)
    coords = _int_ratfuncs(p, C)
    return [tuple(c) if ok else None for c, ok in zip(coords, inside.tolist())]


def _span_products_exact(p, xs, ys, basis):
    """`span_products` in exact Mat and KSpan arithmetic."""
    if ys is None:
        flats = [X.flatten() for X in xs]
    else:
        flats = [(X * Y).flatten() for X in xs for Y in ys]
    sp = KSpan(p)
    if basis is None:
        for z in flats:
            sp.add(z)
        if not sp.rows:
            return []
        return _mats(p, sp.rows, xs[0].nrows, (xs if ys is None else ys)[0].ncols)
    for B in basis:
        sp.add(B.flatten())
    out = []
    for z in flats:
        coords = sp.coordinates(z)
        out.append(None if coords is None else tuple(coords))
    return out


def _int_ratfuncs(p, arr):
    """Nested lists of the residues in a 2-d int array as RatFuncs, one
    shared (immutable) RatFunc per distinct value."""
    if arr.size == 0:
        return [[] for _ in range(arr.shape[0])]
    values, index = np.unique(arr, return_inverse=True)
    table = [RatFunc.from_int(p, v) for v in values.tolist()]
    return [[table[k] for k in row] for row in index.reshape(arr.shape).tolist()]


def rref_mats(p, Z, n, m):
    """The RREF basis of the row space of the int array Z mod p, as n x m
    Mats (row-major flatten) that carry their residues."""
    R = modp_rref(Z, p)[0].astype(np.int64, copy=False)
    mats = _mats(p, _int_ratfuncs(p, R), n, m)
    for M, r in zip(mats, R):
        M._residues = r.reshape(n, m)
    return mats


def _mats(p, rows, n, m):
    """n x m Mats from their row-major flattened entry lists."""
    return [Mat(p, [row[i * m : (i + 1) * m] for i in range(n)]) for row in rows]


def modp_nullspace(A, p):
    """Basis rows of the right nullspace of A mod p, in `modp_rref`'s dtype."""
    R, pivots = modp_rref(A, p)
    nc = A.shape[1]
    free = [c for c in range(nc) if c not in set(pivots)]
    out = np.zeros((len(free), nc), dtype=R.dtype)
    for idx, fc in enumerate(free):
        out[idx, fc] = 1
        for r, pc in enumerate(pivots):
            out[idx, pc] = (-R[r, fc]) % p
    return out


def intertwiners(p, n, pairs):
    """The RREF basis, as n x n Mats, of {X : X A = B X for every (A, B) in
    pairs}; all of M_n (the `matrix_units`) when there are no pairs.

    X is flattened row-major, so each pair contributes the equations
    (I kron A^T - B kron I) vec(X) = 0.  Domains (the module docstring's
    rule): numpy mod p (`modp_nullspace`, `rref_mats`) when `int64_stack`
    accepts every matrix, the system holding residues and their negatives,
    so int64; otherwise the exact nullspace of the system, built as sparse
    rows, reduced by `span_products`.
    """
    pairs = list(pairs)
    stack = int64_stack(p, [M for pair in pairs for M in pair])
    if stack is not None:
        ident = np.eye(n, dtype=np.int64)
        system = [np.kron(ident, A.T) - np.kron(B, ident) for A, B in stack.reshape(-1, 2, n, n)]
        return rref_mats(p, modp_nullspace(np.concatenate(system), p), n, n)
    zero = RatFunc.zero(p)
    rows = []
    for A, B in pairs:
        # equation for entry (i, j): sum_l X[i,l] A[l,j] - B[i,l] X[l,j] = 0
        for i in range(n):
            for j in range(n):
                row = [zero] * (n * n)
                for l in range(n):
                    a = A.rows[l][j]
                    if not a.is_zero():
                        row[i * n + l] = row[i * n + l] + a
                    b = B.rows[i][l]
                    if not b.is_zero():
                        row[l * n + j] = row[l * n + j] - b
                if any(not e.is_zero() for e in row):
                    rows.append(row)
    # no equations at all: every X solves
    null = Mat(p, rows or [[zero] * (n * n)]).nullspace()
    return span_products(p, _mats(p, null, n, n))


# ---------------------------------------------------------------------------
# symmetric congruence diagonalization
# ---------------------------------------------------------------------------


def symmetric_diagonalize(G):
    """Congruence diagonalization of a symmetric Mat.

    Returns (entries, P) with P invertible and P^T G P = diag(entries).
    Pivoting prefers nonzero diagonal entries; a zero diagonal block is
    handled by the basis change e_i <- e_i + e_j (valid since p is odd).
    Raises on degenerate input.
    """
    n = G.nrows
    p = G.p
    zero, one = RatFunc.zero(p), RatFunc.one(p)
    M = [[G.rows[i][j] for j in range(n)] for i in range(n)]
    P = [[one if i == j else zero for j in range(n)] for i in range(n)]

    def col_op(dst, src, f):
        # column_dst += f * column_src, applied to both M (rows+cols) and P
        for i in range(n):
            if not M[i][src].is_zero():
                M[i][dst] = M[i][dst] + f * M[i][src]
        for j in range(n):
            if not M[src][j].is_zero():
                M[dst][j] = M[dst][j] + f * M[src][j]
        for i in range(n):
            if not P[i][src].is_zero():
                P[i][dst] = P[i][dst] + f * P[i][src]

    def col_swap(a, b):
        for i in range(n):
            M[i][a], M[i][b] = M[i][b], M[i][a]
        M[a], M[b] = M[b], M[a]
        for i in range(n):
            P[i][a], P[i][b] = P[i][b], P[i][a]

    for k in range(n):
        if M[k][k].is_zero():
            swap = next(
                (j for j in range(k + 1, n) if not M[j][j].is_zero()), None
            )
            if swap is not None:
                col_swap(k, swap)
            else:
                pair = next(
                    (
                        (i, j)
                        for i in range(k, n)
                        for j in range(i + 1, n)
                        if not M[i][j].is_zero()
                    ),
                    None,
                )
                if pair is None:
                    raise ValueError("degenerate symmetric matrix")
                i, j = pair
                col_op(i, j, one)
                if i != k:
                    col_swap(k, i)
        inv = M[k][k].inverse()
        for i in range(k + 1, n):
            if not M[k][i].is_zero():
                col_op(i, k, -(M[k][i] * inv))
    entries = [M[k][k] for k in range(n)]
    if any(e.is_zero() for e in entries):
        raise ValueError("degenerate symmetric matrix")
    return entries, Mat(G.p, P)
