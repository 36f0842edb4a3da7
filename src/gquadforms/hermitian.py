"""Hermitian elements, induced involutions, and the local/global machinery
for classes of G-invariant forms on a fixed module.

A G-form h' on the module of a base G-form h corresponds to the symmetric
unit u = Gram(h)^{-1} Gram(h') of (End V, gamma), and h ~ h' exactly when
u is congruent to 1 (the classifying-bijection dictionary).  Classes are
detected in the semisimple quotient E/R: this module builds the induced
involution, finds the quotient element of the counterexample and computes
its local invariant records.  The one way back from the quotient is the
complement lift `construct.TensorBundle.lift_of`.

For the degree-4 orthogonal quotients arising from two quaternion factors,
the decisive invariant is the pair of commuting quaternion subalgebras
spanned by the two Lie ideals of the skew space: conjugating the
involution transports skew spaces, Lie ideals and their associative
closures, so the unordered pair of isomorphism classes (recorded as
ramification sets) is an exact conjugation invariant.  Two forms whose
twisted involutions have different pairs cannot be isometric.  That one
elementary fact carries the global inequivalence certificate; the local
classification used for the per-place records is isolated in
`records_equal` / `QuaternionPairShape.local_hyperbolic`, documented there.
"""

from .algebra import InvolutionAlgebra, algebra_from_span
from .csa import _as_scalar, quaternion_from_algebra
from .errors import CertificateError, ExtractionError, InputError
from .funcfield import (
    RatFunc,
    denominator_lcm,
    is_local_square,
    sqrt_of_square,
    square_class,
)
from .linalg import KSpan, Mat, PolyMat
from .quadform import QuadForm


class InducedInvolution:
    """The adjoint involution X -> A^{-1} X^T A of a G-invariant Gram matrix;
    `gram_inv` is A^{-1} when the caller already holds it."""

    __slots__ = ("module", "gram", "gram_inv")

    def __init__(self, module, gram, gram_inv=None):
        self.module = module
        self.gram = gram
        self.gram_inv = gram.inverse() if gram_inv is None else gram_inv

    @property
    def p(self):
        return self.gram.p

    def apply_matrix(self, X):
        return self.gram_inv * X.T * self.gram

    def verify_generator_inverses(self):
        """gamma(g) = g^{-1} for every generator action (= G-invariance of q)."""
        for g, M in self.module.action.items():
            if self.apply_matrix(M) * M != Mat.identity(self.p, self.module.dim):
                return False, g
        return True, None


def induced_involution(module, form):
    """Involution induced by a G-invariant form; rejects non-invariant input."""
    if form.rank != module.dim:
        raise InputError("form rank does not match the module dimension")
    A = form.gram if isinstance(form, QuadForm) else form
    # on denominator-cleared PolyMats, as check_module: with A' = c_A A and
    # c_M the lcm of M's denominators, M^T A M = A iff
    # (c_M M)^T A' (c_M M) = c_M^2 A'
    cleared = A.clear_denominators()
    gram = PolyMat.from_mat(cleared)
    for g, M in module.action.items():
        lcm = denominator_lcm(M.flatten())
        if lcm.is_one():
            act, rhs = PolyMat.from_mat(M), gram
        else:
            c = RatFunc(lcm)
            act, rhs = PolyMat.from_mat(M * c), PolyMat.from_mat(cleared * (c * c))
        if act.T * gram * act != rhs:
            raise InputError(f"form is not G-invariant at generator {g}")
    return InducedInvolution(module, A)


# ---------------------------------------------------------------------------
# the quaternion pair of a degree-4 orthogonal involution
# ---------------------------------------------------------------------------


class PairMember:
    """One commuting quaternion subalgebra: presentation + ambient coords."""

    __slots__ = ("quaternion", "coords", "lie_basis")

    def __init__(self, quaternion, coords, lie_basis):
        self.quaternion = quaternion
        self.coords = coords  # (1, x1, x2, x1 x2) as ambient coordinate tuples
        self.lie_basis = lie_basis

    def __repr__(self):
        return f"PairMember({self.quaternion})"


def clifford_quaternion_pair(inv_alg):
    """The two commuting quaternion subalgebras of a 16-dim orthogonal
    involution algebra with trivially-split skew decomposition.

    Skew(sigma) is a 6-dimensional Lie algebra; when it splits into two
    commuting 3-dimensional ideals L+ and L-, the associative closures
    k + L± are commuting quaternion subalgebras generating the algebra,
    and sigma restricts to their canonical involutions.  All of that is
    verified exactly; failure raises (never guesses).
    """
    A = inv_alg.algebra
    p = A.p
    if A.dim != 16:
        raise ExtractionError("pair extraction expects a 16-dimensional algebra")
    skew = inv_alg.skew_basis()
    if len(skew) != 6:
        raise ExtractionError(f"skew space has dimension {len(skew)}, expected 6")

    def bracket(x, y):
        return A.sub(A.mult(x, y), A.mult(y, x))

    def closure(seed):
        sp = KSpan(p)
        sp.add(list(seed))
        changed = True
        while changed:
            changed = False
            for b in skew:
                for l in list(sp.basis_rows()):
                    if sp.add(list(bracket(tuple(b), tuple(l)))):
                        changed = True
        return sp

    seeds = [tuple(s) for s in skew]
    for i in range(len(skew)):
        for j in range(i + 1, len(skew)):
            seeds.append(A.add(tuple(skew[i]), tuple(skew[j])))
    lie_plus = None
    for seed in seeds:
        sp = closure(seed)
        if sp.dim == 3:
            lie_plus = sp
            break
    if lie_plus is None:
        raise ExtractionError(
            "skew space has no 3-dimensional Lie ideal (nontrivial discriminant?)"
        )
    # centralizer of L+ inside the skew space: per l, the brackets [b, l]
    # are the columns of 16 rows of the system
    rows = []
    Lbasis = lie_plus.basis_rows()
    for l in Lbasis:
        rows.extend(zip(*(bracket(tuple(b), tuple(l)) for b in skew)))
    skew_cols = Mat(p, skew).T
    lie_minus = KSpan(p)
    for combo in Mat(p, rows).nullspace():
        lie_minus.add(skew_cols.apply(combo))
    if lie_minus.dim != 3:
        raise ExtractionError("centralizer ideal is not 3-dimensional")
    both = KSpan(p)
    for v in Lbasis + lie_minus.basis_rows():
        both.add(list(v))
    if both.dim != 6:
        raise ExtractionError("Lie ideals do not decompose the skew space")

    members = []
    for sp in (lie_plus, lie_minus):
        # the generated subalgebra (pure products may leave span{1, L})
        sub, sub_span = algebra_from_span(A, [A.unit] + sp.basis_rows())
        if sub.dim != 4:
            raise ExtractionError("associative closure of a Lie ideal is not quaternion")
        quat, local_coords = quaternion_from_algebra(sub)
        sub_cols = Mat(p, sub_span.basis_rows()).T
        ambient = tuple(sub_cols.apply(lc) for lc in local_coords)
        members.append(PairMember(quat, ambient, [tuple(r) for r in sp.basis_rows()]))

    # exact certificates: commuting, generating, canonical restriction
    for x in members[0].lie_basis:
        for y in members[1].lie_basis:
            if A.mult(x, y) != A.mult(y, x):
                raise CertificateError("pair subalgebras do not commute")
    gen = KSpan(p)
    for c0 in members[0].coords:
        for c1 in members[1].coords:
            gen.add(list(A.mult(c0, c1)))
    if gen.dim != 16:
        raise CertificateError("pair subalgebras do not generate the algebra")
    for mem in members:
        for x in mem.lie_basis:
            if inv_alg.apply(x) != tuple(A.smul(RatFunc.from_int(p, -1), x)):
                raise CertificateError("involution is not canonical on a pair member")
    members.sort(key=lambda m: _ram_key(m.quaternion))
    return tuple(members)


def _ram_key(quat):
    return tuple(v.sort_key() for v in quat.ramification_set())


def twisted_involution_algebra(inv_alg, u_coords):
    """The involution x -> u^{-1} sigma(x) u for a symmetric unit u."""
    A = inv_alg.algebra
    if inv_alg.apply(u_coords) != tuple(u_coords):
        raise InputError("twist element must be symmetric")
    u_inv = A.inverse(u_coords)
    d = A.dim
    cols = []
    for i in range(d):
        img = A.mult(u_inv, A.mult(inv_alg.apply(A.basis_coords(i)), u_coords))
        cols.append(img)
    return InvolutionAlgebra(A, Mat(A.p, cols).T)


def reduced_norm_deg4(alg, u_coords):
    """Reduced norm of an element of a degree-4 central simple algebra.

    The regular characteristic polynomial is the 4th power of the reduced
    one; extract the quartic root coefficient-wise (valid since p does not
    divide 4) and read off the constant term.
    """
    cp = alg.charpoly_regular(u_coords)  # ascending, degree 16
    red = poly_nth_root_monic(cp, 4)
    return red[0]  # (-1)^4 * Nrd


def poly_nth_root_monic(coeffs, m):
    """Monic m-th root of a monic polynomial (ascending RatFunc coeffs).

    Solves descending coefficient by coefficient; the unknown always enters
    linearly with factor m, so only p not dividing m is needed.
    """
    p = coeffs[0].p
    n = len(coeffs) - 1
    if n % m:
        raise ValueError("degree is not divisible by m")
    d = n // m
    zero, one = RatFunc.zero(p), RatFunc.one(p)
    m_inv = RatFunc.from_int(p, m).inverse()
    g = [zero] * d + [one]  # start with T^d
    for j in range(1, d + 1):
        gm = _poly_power(g, m, p)
        target_idx = n - j
        diff = coeffs[target_idx] - gm[target_idx]
        g[d - j] = diff * m_inv
    gm = _poly_power(g, m, p)
    if gm != list(coeffs):
        raise ValueError("polynomial is not a perfect m-th power")
    return g


def _poly_power(g, m, p):
    out = [RatFunc.one(p)]
    for _ in range(m):
        new = [RatFunc.zero(p)] * (len(out) + len(g) - 1)
        for i, a in enumerate(out):
            if a.is_zero():
                continue
            for j, b in enumerate(g):
                if not b.is_zero():
                    new[i + j] = new[i + j] + a * b
        out = new
    return out


# ---------------------------------------------------------------------------
# local invariant records and their comparison
# ---------------------------------------------------------------------------


class QuaternionPairShape:
    """Component shape (b): degree-4 orthogonal involution algebra whose
    skew space splits into two commuting quaternion subalgebras (the
    M_2(Q)-shaped components of the two-quaternion pipeline)."""

    def __init__(self, inv_alg):
        self.inv_alg = inv_alg
        self.pair = clifford_quaternion_pair(inv_alg)
        # element tuple -> [twisted involution, its quaternion pair or None];
        # the twist by 1 is the base involution itself
        self._twists = {tuple(inv_alg.algebra.unit): [inv_alg, self.pair]}
        self._nrds = {}  # element tuple -> reduced norm (place-independent)
        r1 = set(self.pair[0].quaternion.ramification_set())
        r2 = set(self.pair[1].quaternion.ramification_set())
        self.q_ramification = sorted(r1 ^ r2, key=lambda v: v.sort_key())

    def _twist(self, u_coords):
        key = tuple(u_coords)
        entry = self._twists.get(key)
        if entry is None:
            entry = self._twists[key] = [twisted_involution_algebra(self.inv_alg, u_coords), None]
        return entry

    def twisted_involution(self, u_coords):
        """x -> u^{-1} sigma(x) u, built once per element."""
        return self._twist(u_coords)[0]

    def twisted_pair(self, u_coords):
        entry = self._twist(u_coords)
        if entry[1] is None:
            entry[1] = clifford_quaternion_pair(entry[0])
        return entry[1]

    def nrd(self, u_coords):
        """Reduced norm of u, computed once per element."""
        key = tuple(u_coords)
        if key not in self._nrds:
            self._nrds[key] = reduced_norm_deg4(self.inv_alg.algebra, u_coords)
        return self._nrds[key]

    def local_record(self, u_coords, v):
        """Complete local record of the class of u at v.

        Division place of the residual quaternion: (rank 2, disc), the
        complete invariant of rank-2 skew-hermitian forms over a local
        division quaternion.  Split place: rank-4 quadratic data, pinned by
        the reduced norm (relative discriminant) and the local splitting
        pattern of the twisted quaternion pair (relative Clifford datum).
        """
        nrd = self.nrd(u_coords)
        tw = self.twisted_pair(u_coords)
        pattern = sorted(
            "division" if any(w == v for w in m.quaternion.ramification_set()) else "split"
            for m in tw
        )
        division = any(w == v for w in self.q_ramification)
        return {
            "shape": "quaternion-division" if division else "split-local",
            "rank": 2 if division else 4,
            "nrd": str(nrd),
            "pair_pattern": pattern,
            "_nrd": nrd,
        }

    def local_hyperbolic(self, v):
        """Hyperbolicity of the base involution at v.

        Classification fact used (isolated here per the design decision):
        a degree-4 orthogonal involution with trivial discriminant is
        hyperbolic over a field iff one member of its quaternion pair
        splits; in the tensor-of-canonical-involutions normal form this is
        the statement that (H1, conj) (x) (H2, conj) is hyperbolic iff
        H1 ~ H2, which at a local place reduces to `not both members
        division at v`.
        """
        division_count = sum(
            1
            for m in self.pair
            if any(w == v for w in m.quaternion.ramification_set())
        )
        return division_count < 2

    def globally_hyperbolic_certificate(self, u_coords):
        """Search for an explicit hyperbolicity witness of the u-twist:
        an idempotent e with sigma_u(e) = 1 - e.  Returns e or None."""
        A = self.inv_alg.algebra
        p = A.p
        su = self.twisted_involution(u_coords)
        half = RatFunc.from_int(p, pow(2, p - 2, p))
        for w in _symmetric_square_roots_of_one(A, su):
            e = A.smul(half, A.add(A.unit, w))
            if A.mult(e, e) == e and su.apply(e) == A.sub(A.unit, e):
                return e
        return None


def _symmetric_square_roots_of_one(A, su):
    """Candidate w with w^2 = 1, sigma(w) fixed sign, from the skew basis."""
    p = A.p
    sk = su.skew_basis()
    cands = [tuple(b) for b in sk]
    for i in range(len(sk)):
        for j in range(i + 1, len(sk)):
            cands.append(A.add(tuple(sk[i]), tuple(sk[j])))
    out = []
    for w in cands:
        sq = _as_scalar(A, A.mult(w, w))
        if sq is None or sq.is_zero():
            continue
        if square_class(sq).is_trivial():
            mu = sqrt_of_square(sq).inverse()
            out.append(A.smul(mu, w))
    return out


def records_equal(rec1, rec2, v):
    """Local-equality decision for two invariant records at the place v.

    This is the single point where the transcribed local classification is
    consulted: rank-2 skew-hermitian forms over a local division quaternion
    are classified by (rank, disc) -- the reduced-norm ratio must be a
    local square -- and rank-4 quadratic forms with matching relative
    discriminant and matching quaternion-pair pattern (which pins the local
    similarity class; with trivial relative discriminant, similarity plus
    discriminant decide isometry in rank 4) are isometric.
    """
    if rec1["shape"] != rec2["shape"] or rec1["rank"] != rec2["rank"]:
        return False
    return is_local_square(rec1["_nrd"] / rec2["_nrd"], v) and rec1["pair_pattern"] == rec2["pair_pattern"]


# ---------------------------------------------------------------------------
# the counterexample element
# ---------------------------------------------------------------------------


def counterexample_element(shape):
    """An element ubar with [ubar] != [1] globally but locally trivial
    everywhere, plus a classification certificate.

    Hypotheses verified first: the residual quaternion Q is division and
    the base involution is locally hyperbolic at every place (no place
    where both pair members are division).  The element is found as a
    product u = a * b of skew elements of the two pair subalgebras whose
    twist admits an explicit hyperbolicity witness; then

      * [u] is the class of the hyperbolic form (witnessed by an exact
        idempotent with sigma_u(e) = 1 - e),
      * [1] is not (its quaternion pair has no split member), and
      * both are locally hyperbolic everywhere, hence locally equal
        (hyperbolic forms of equal rank are unique up to isometry).

    The certificate records the two quaternion pairs; conjugation
    transports skew spaces, Lie ideals and associative closures, so the
    unordered pair of ramification sets is a conjugation invariant and
    distinct pairs prove the classes distinct.
    """
    inv_alg = shape.inv_alg
    A = inv_alg.algebra
    p = A.p

    base_rams = [set(m.quaternion.ramification_set()) for m in shape.pair]
    if not shape.q_ramification:
        raise InputError("residual quaternion is split; no counterexample regime")
    if base_rams[0] & base_rams[1]:
        raise InputError(
            "base involution is not locally hyperbolic everywhere "
            "(pair members share a ramified place)"
        )
    if not (base_rams[0] and base_rams[1]):
        raise InputError("base involution is already hyperbolic (a pair member splits)")

    Lp = shape.pair[0].lie_basis
    Lm = shape.pair[1].lie_basis

    def combos(basis):
        out = [tuple(bv) for bv in basis]
        for i in range(len(basis)):
            for j in range(len(basis)):
                if i != j:
                    out.append(A.add(tuple(basis[i]), tuple(basis[j])))
                    out.append(
                        A.add(tuple(basis[i]), A.smul(RatFunc.from_int(p, 2), tuple(basis[j])))
                    )
        return out

    for a in combos(Lp):
        asq = _as_scalar(A, A.mult(a, a))
        if asq is None or asq.is_zero():
            continue
        for b in combos(Lm):
            bsq = _as_scalar(A, A.mult(b, b))
            if bsq is None or bsq.is_zero():
                continue
            u = A.mult(a, b)
            witness = shape.globally_hyperbolic_certificate(u)
            if witness is None:
                continue
            return _package_counterexample(shape, u, witness)
    raise CertificateError("no counterexample produced (witness search exhausted)")


def _package_counterexample(shape, u, witness):
    A = shape.inv_alg.algebra
    # u = ab in commuting pair members with nonzero scalar squares: u^2 = a^2 b^2
    usq = _as_scalar(A, A.mult(u, u))
    nrd = shape.nrd(u)
    # Nrd(u) = usq^2 makes Nrd(u) a square; `globally_hyperbolic_certificate`
    # returned the witness only after checking e^2 = e and sigma_u(e) = 1 - e
    if nrd != usq * usq:
        raise CertificateError("reduced norm is inconsistent with the scalar square")
    tw = shape.twisted_pair(u)
    base_pair_rams = sorted(
        [sorted(str(w) for w in m.quaternion.ramification_set()) for m in shape.pair]
    )
    twist_pair_rams = sorted(
        [sorted(str(w) for w in m.quaternion.ramification_set()) for m in tw]
    )
    if base_pair_rams == twist_pair_rams:
        raise CertificateError("pair invariant failed to separate the classes")
    certificate = {
        "invariant": "quaternion pair of the twisted involution "
        "(even Clifford datum; classification of rank-2 forms over the quaternion)",
        "value_for_u": twist_pair_rams,
        "value_for_1": base_pair_rams,
        "hyperbolicity_witness_for_u": True,
        "reduced_norm_of_u": str(nrd),
    }
    return {"ubar": u, "witness_idempotent": witness, "certificate": certificate}
