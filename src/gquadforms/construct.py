"""The two-quaternion construction end-to-end: the unipotent module N_H,
the block form q with Gram [[0, alpha], [-alpha, 0]], the induced
involution, the tensor pair over G x G, and the assembled counterexample
with a machine-checkable report.

Every claim is proved once, exactly, on the data it is about; a failed
check raises, so the pipeline never emits an unverified pair.  What proves
each key of a bundle's `checks` (the report's `factor_checks`):
- dim_module, dim_end: `endomorphism_algebra` in `verify_EN`, which also
  checks the module (g^p = I, commuting generators) and E_N's closure;
- dim_radical: the radical certificate in `jacobson_radical`;
- quotient_isomorphic_to_Hop: `verify_EN` (block shapes, and
  `_verify_quotient_is_Hop`: E_N/R_N's structure constants against H^op);
- rho_symplectic, alpha_skew, gram_symmetric: `solve_alpha` in `build_q`
  proves rho(X) = alpha^-1 X^T alpha with alpha skew and invertible, so rho
  is the adjoint of a nondegenerate skew form (symplectic, dim Sym 6), and
  [[0, alpha], [-alpha, 0]] is symmetric because alpha is skew;
- gram_G_invariant: `induced_involution` (g^T A g = A, i.e. gamma(g) = g^-1);
- quotient_involution_canonical: `quotient_with_involution` maps the
  radical basis into R_N and the lifts into E_N, a basis of E_N, so gamma
  preserves E_N; `_verify_canonical_quotient_involution` proves
  ibar(x) = Trd(x) - x, the canonical (symplectic) involution of H^op.
And each key of a tensor bundle's `checks` (the report's `tensor_checks`):
- dim_module, dim_end, gram_G_invariant: the factor checks, carried over
  by the mixed-product rule (see `tensor_pair`);
- dim_radical: `tensor_radical`, which builds 16*20 + 4*16 = 384
  independent Kronecker products (R1 (x) E2 + L1 (x) R2), so
  dim R = dim E - 16 holds by construction and is not rechecked;
- dim_quotient, quotient_semisimple: the quotient is the tensor product of
  the two certified quaternion quotients, so it is central simple;
- quotient_kind, quotient_sym_dim: `kind()` in `tensor_pair`, "orthogonal"
  at degree 4 only when dim Sym = 10.
"""

import itertools
from dataclasses import dataclass

from .algebra import Algebra, InvolutionAlgebra
from .csa import (
    Quaternion,
    RhoInvolution,
    left_mult_matrix,
    quat_mul,
    right_mult_matrix,
    solve_alpha,
    tensor_m2q,
)
from .errors import CertificateError, InputError
from .funcfield import Place, Poly, RatFunc, denominator_lcm, finite_places, smallest_nonsquare
from .grpalg import (
    EndAlgebra,
    GModule,
    GroupSpec,
    RadicalResult,
    decompose_components,
    endomorphism_algebra,
    jacobson_radical,
    quotient_with_involution,
    tensor_radical,
    verdict_from_components,
)
from .hermitian import (
    InducedInvolution,
    QuaternionPairShape,
    counterexample_element,
    induced_involution,
    records_equal,
)
from .jsonio import dump_json as report_to_json
from .linalg import KSpan, Mat, combination
from .quadform import QuadForm, equivalent_global, invariants_report, is_hyperbolic


def default_quaternions(p):
    """The default inputs H1 = (c, t) and H2 = (c, (t - 1)(t - 2)), c the
    smallest nonsquare mod p; they ramify at {t, inf} and {t - 1, t - 2}.

    At p = 3, c = 2 = -1.
    """
    t, one = Poly.t(p), Poly.one(p)
    c = RatFunc.from_int(p, smallest_nonsquare(p))
    return (
        Quaternion(c, RatFunc.t(p)),
        Quaternion(c, RatFunc((t - one) * (t - one.scale(2)))),
    )


@dataclass(slots=True, eq=False)
class ConstructionBundle:
    """One quaternion's worth of construction: (N, q, gamma, E, R, and the
    involution on E/R)."""

    quaternion: Quaternion
    module: GModule
    form: QuadForm
    alpha: Mat
    gamma: InducedInvolution
    end_algebra: EndAlgebra
    radical: RadicalResult
    quotient_involution: InvolutionAlgebra
    checks: dict


def build_N(H, prefix="g"):
    """The dimension-8 module over C_p^3: generators [[I, a_m], [0, I]], a_m
    the left multiplications by 1, i and j."""
    p = H.p
    Z, I4 = Mat.zeros(p, 4), Mat.identity(p, 4)

    def block_unipotent(m):
        rows = []
        for i in range(4):
            rows.append(list(I4.rows[i]) + list(m.rows[i]))
        for i in range(4):
            rows.append(list(Z.rows[i]) + list(I4.rows[i]))
        return Mat(p, rows)

    grp = GroupSpec.cp_cubed(p, prefix=prefix)
    gens = [block_unipotent(left_mult_matrix(x)) for x in H.basis()[:3]]  # 1, i, j
    return GModule(grp, dict(zip(grp.generators, gens)))


def verify_EN(N, H):
    """Structural report for E_N: dimensions, block shapes, and an explicit
    isomorphism of the quotient with the opposite quaternion algebra."""
    p = H.p
    E = endomorphism_algebra(N)
    if E.dim != 20:
        raise CertificateError(f"dim E_N = {E.dim}, expected 20")
    rad = jacobson_radical(E)
    if rad.dim != 16:
        raise CertificateError(f"dim R_N = {rad.dim}, expected 16")
    # block shapes: E_N = [[x, y], [0, x]] with x in the right-multiplication
    # algebra; R_N = [[0, y], [0, 0]]
    rm_span = KSpan(p)
    for e in H.basis():
        rm_span.add(right_mult_matrix(e).flatten())
    for X in E.basis:
        x11 = _block(X, 0, 0)
        x21 = _block(X, 1, 0)
        x22 = _block(X, 1, 1)
        if not x21.is_zero() or x11 != x22:
            raise CertificateError("E_N element violates the block shape")
        if not rm_span.contains(x11.flatten()):
            raise CertificateError("E_N diagonal block is not a right multiplication")
    for X in rad.basis:
        if not (_block(X, 0, 0).is_zero() and _block(X, 1, 1).is_zero() and _block(X, 1, 0).is_zero()):
            raise CertificateError("R_N element violates the strict block shape")
    _verify_quotient_is_Hop(rad.quotient, H)
    return {
        "dim_module": N.dim,
        "dim_end": E.dim,
        "dim_radical": rad.dim,
        "quotient_isomorphic_to_Hop": True,
    }, E, rad


def _verify_quotient_is_Hop(quot, H):
    """E_N / R_N is isomorphic to H^op through the zero-y lifts
    z -> [[R_z, 0], [0, R_z]]: their images are independent and multiply as
    in H^op.  Returns True."""
    alg = quot.parent
    basis = H.basis()
    images = []
    for z in basis:
        Rz = right_mult_matrix(z)
        c = alg.coords_of(_block_diag(Rz, Rz))
        if c is None:
            raise CertificateError("zero-y lift escaped E_N")
        images.append(quot.project(c))
    img_span = KSpan(H.p)
    for c in images:
        img_span.add(list(c))
    if img_span.dim != 4:
        raise CertificateError("quotient images of the quaternion basis are dependent")
    for i, z in enumerate(basis):
        for j, w in enumerate(basis):
            # multiplication in H^op: z deg w = (w z); images must multiply accordingly
            Rp = right_mult_matrix(quat_mul(w, z))
            expected = quot.project(alg.coords_of(_block_diag(Rp, Rp)))
            got = quot.algebra.mult(images[i], images[j])
            if tuple(got) != tuple(expected):
                raise CertificateError("quotient structure constants do not match H^op")
    return True


def _block(X, i, j):
    n = X.nrows // 2
    return Mat(X.p, [row[j * n : (j + 1) * n] for row in X.rows[i * n : (i + 1) * n]])


def _block_diag(A, B):
    p = A.p
    n, m = A.nrows, B.nrows
    zero = RatFunc.zero(p)
    rows = []
    for i in range(n):
        rows.append(list(A.rows[i]) + [zero] * m)
    for i in range(m):
        rows.append([zero] * n + list(B.rows[i]))
    return Mat(p, rows)


def build_q(H):
    """Gram A = [[0, alpha], [-alpha, 0]] from the symplectic involution.

    `solve_alpha` proves rho(X) = alpha^-1 X^T alpha on all 16 matrix units
    with alpha skew and invertible, so rho is the adjoint involution of a
    nondegenerate skew form: symplectic, with dim Sym = 6.  A is symmetric
    because alpha is skew.  alpha is normalized to a primitive polynomial
    matrix whose first nonzero entry is monic (a deterministic scalar
    gauge; the scalar is free in the construction).
    """
    rho = RhoInvolution(H)
    if not rho.fixes_generators():
        raise CertificateError("rho does not fix the sandwich generators")
    alpha = _primitive_scale(solve_alpha(rho, H))
    Z = Mat.zeros(H.p, 4)
    A = Mat(
        H.p,
        [list(Z.rows[i]) + list(alpha.rows[i]) for i in range(4)]
        + [list((-alpha).rows[i]) + list(Z.rows[i]) for i in range(4)],
    )
    return QuadForm(A), alpha


def _primitive_scale(alpha):
    p = alpha.p
    scaled = alpha.clear_denominators()
    content = Poly.zero(p)
    for row in scaled.rows:
        for e in row:
            content = content.gcd(e.num) if not content.is_zero() else e.num
    if content.degree > 0:
        scaled = scaled * RatFunc(Poly.one(p), content)
    first = next(e for row in scaled.rows for e in row if not e.is_zero())
    c = first.num.lc
    if c != 1:
        scaled = scaled * RatFunc.from_int(p, pow(c, p - 2, p))
    return scaled


def bundle(H, prefix="g"):
    """Full verified construction bundle for one quaternion."""
    H = H.reduced()
    N = build_N(H, prefix=prefix)
    report, E, rad = verify_EN(N, H)
    q, alpha = build_q(H)
    gamma = induced_involution(N, q)
    ibar = quotient_with_involution(rad, gamma.apply_matrix)
    _verify_canonical_quotient_involution(ibar)
    checks = dict(report)
    checks.update(
        {
            "rho_symplectic": True,
            "alpha_skew": True,
            "gram_symmetric": True,
            "gram_G_invariant": True,
            "quotient_involution_canonical": True,
        }
    )
    return ConstructionBundle(
        quaternion=H,
        module=N,
        form=q,
        alpha=alpha,
        gamma=gamma,
        end_algebra=E,
        radical=rad,
        quotient_involution=ibar,
        checks=checks,
    )


def _verify_canonical_quotient_involution(ibar):
    """ibar(x) = Trd(x) - x on the whole quotient basis; returns True."""
    algq = ibar.algebra
    p = algq.p
    half = RatFunc.from_int(p, pow(2, p - 2, p))
    for i in range(algq.dim):
        x = algq.basis_coords(i)
        trd = algq.left_mult_matrix(x).trace() * half
        expected = algq.sub(algq.smul(trd, algq.unit), x)
        if ibar.apply(x) != expected:
            raise CertificateError("quotient involution is not x -> Trd(x) - x")
    return True


# ---------------------------------------------------------------------------
# tensor stage
# ---------------------------------------------------------------------------


@dataclass(slots=True, eq=False)
class TensorBundle:
    """(N1 (x) N2, q1 (x) q2) over G x G with factored E, R, and quotient."""

    module: GModule
    form: QuadForm
    gamma: InducedInvolution
    end_algebra: EndAlgebra
    radical: RadicalResult
    quotient_involution: InvolutionAlgebra
    lift_mats: list
    checks: dict

    def lift_of(self, coords):
        """Matrix lift of quotient coordinates along the complement."""
        return combination(coords, self.lift_mats)


def tensor_pair(b1, b2):
    """Tensor the two verified bundles over G x G.

    `GModule.tensor` acts by g (x) I and I (x) h, so by the mixed-product
    rule (A (x) B)(C (x) D) = AC (x) BD each 64-dim claim below follows from
    a factor claim, and is checked at the factor level only:
    - E = E1 (x) E2 commutes with the action: X (x) Y commutes with g (x) I
      and I (x) h when X commutes with g and Y with h.  Checked here on
      the 8x8 factor bases; Kronecker products of independent families are
      independent, so dim E = dim E1 * dim E2;
    - the module: (g (x) I)^p = g^p (x) I, and g (x) I commutes with
      I (x) h; the factor modules were checked by `endomorphism_algebra`;
    - G-invariance: (g (x) I)^T (A1 (x) A2) (g (x) I) = g^T A1 g (x) A2,
      from the factors' `induced_involution`;
    - the radical: `tensor_radical`, from the factor certificates.
    What does not factor is checked on the tensor data: the involution of
    the 16-dim quotient is orthogonal (`kind()`, which at degree 4 means
    dim Sym = 10).  The quotient is the tensor product of the two certified
    quaternion quotients, so it is central simple without a further check.
    """
    p = b1.module.p
    N = b1.module.tensor(b2.module)
    if N.dim != 64:
        raise CertificateError("tensor module dimension is not 64")
    # Gram: Kronecker product (exact congruence diagonal from the factors)
    G1, G2 = b1.form.gram, b2.form.gram
    gram = G1.kron(G2)
    d1, _ = b1.form.diagonalize()
    d2, _ = b2.form.diagonalize()
    diag = [x * y for x in d1 for y in d2]
    q = QuadForm(gram, _diagonal=diag)
    # E basis: Kronecker products of the factor bases, each factor basis
    # checked to commute with its own generators
    for b in (b1, b2):
        pa = b.module.poly_action()
        for X in b.end_algebra.poly_basis():
            for g, M in pa.items():
                if X * M != M * X:
                    raise CertificateError(f"factor basis fails to commute at {g}")
    pm1, pm2 = b1.end_algebra.poly_basis(), b2.end_algebra.poly_basis()
    E = EndAlgebra(p, 64, [x.kron(y).to_mat() for x in pm1 for y in pm2])
    rad = tensor_radical(b1.end_algebra, b1.radical, b2.end_algebra, b2.radical)
    # quotient: tensor of the factor quotients (pi = pi1 (x) pi2)
    A1, A2 = b1.quotient_involution.algebra, b2.quotient_involution.algebra
    dq1, dq2 = A1.dim, A2.dim

    def tens(c1, c2):
        return tuple(a * b for a in c1 for b in c2)

    table = []
    for a1 in range(dq1):
        for a2 in range(dq2):
            row = []
            for c1 in range(dq1):
                for c2 in range(dq2):
                    row.append(
                        tens(
                            A1.mult(A1.basis_coords(a1), A1.basis_coords(c1)),
                            A2.mult(A2.basis_coords(a2), A2.basis_coords(c2)),
                        )
                    )
            table.append(row)
    Ebar = Algebra(p, table, tens(A1.unit, A2.unit))
    cols = []
    for a1 in range(dq1):
        i1 = b1.quotient_involution.apply(A1.basis_coords(a1))
        for a2 in range(dq2):
            cols.append(tens(i1, b2.quotient_involution.apply(A2.basis_coords(a2))))
    gbar = InvolutionAlgebra(Ebar, Mat(p, cols).T)
    # at degree 4, kind() is "orthogonal" only when dim Sym = 10
    if gbar.kind() != "orthogonal":
        raise CertificateError("tensor quotient involution is not orthogonal of Sym-dim 10")
    # gamma = gamma1 (x) gamma2, the adjoint of the Kronecker Gram; its
    # G-invariance is the factors' (see the docstring)
    gamma = InducedInvolution(N, gram, gram_inv=b1.gamma.gram_inv.kron(b2.gamma.gram_inv))
    # complement lifts: Kronecker products of the factor quotients' lifts,
    # in the order of the tensor quotient basis built above
    lifts2 = b2.radical.quotient.lift_matrices()
    lift_mats = [L1.kron(L2) for L1 in b1.radical.quotient.lift_matrices() for L2 in lifts2]
    checks = {
        "dim_module": N.dim,
        "dim_end": E.dim,
        "dim_radical": rad.dim,
        "dim_quotient": Ebar.dim,
        "quotient_kind": "orthogonal",
        "quotient_sym_dim": 10,
        "gram_G_invariant": True,
        "quotient_semisimple": True,
    }
    return TensorBundle(
        module=N,
        form=q,
        gamma=gamma,
        end_algebra=E,
        radical=rad,
        quotient_involution=gbar,
        lift_mats=lift_mats,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# the counterexample pipeline
# ---------------------------------------------------------------------------


def sample_unramified_places(p, exclude, count):
    """The first `count` finite places (by degree, then coefficients) off
    the bad set; none for count 0."""
    excl = set(exclude)
    return list(itertools.islice((v for v in finite_places(p) if v not in excl), count))


@dataclass(slots=True, eq=False)
class Counterexample:
    """The certified build behind one counterexample report.  `element` is
    the `counterexample_element` result; `ubar` its denominator-cleared
    coordinates."""

    H1: Quaternion
    H2: Quaternion
    ram1: list
    ram2: list
    ram_q: list
    b1: ConstructionBundle
    b2: ConstructionBundle
    tb: TensorBundle
    shape: QuaternionPairShape
    places: list
    hyper_table: list
    element: dict
    ubar: tuple
    local_table: list


def build_counterexample(H1, H2, sample_places=5):
    """Build and certify the counterexample element; every failed check
    raises InputError or CertificateError."""
    if sample_places < 0:
        raise InputError(f"the number of sampled places must be nonnegative, got {sample_places}")
    H1, H2 = H1.reduced(), H2.reduced()
    p = H1.p
    ram1 = H1.ramification_set()
    ram2 = H2.ramification_set()
    if len(ram1) != 2 or len(ram2) != 2:
        raise InputError(
            "each quaternion must be ramified at exactly two places; got "
            f"{[str(v) for v in ram1]} and {[str(v) for v in ram2]}"
        )
    if set(ram1) & set(ram2):
        raise InputError("the four ramified places must be distinct")
    b1 = bundle(H1, prefix="g")
    b2 = bundle(H2, prefix="h")
    tb = tensor_pair(b1, b2)
    # Ram(Q) = Ram(H1) ^ Ram(H2), their union as they are disjoint (above)
    ram_q = tensor_m2q(H1, H2)["ramification"]
    shape = QuaternionPairShape(tb.quotient_involution)
    if set(shape.q_ramification) != set(ram_q):
        raise CertificateError("quaternion pair of the quotient contradicts Ram(Q)")
    # local hyperbolicity at every bad place and sampled good places
    bad = sorted(set(ram_q), key=Place.sort_key)
    sampled = sample_unramified_places(p, bad, sample_places)
    if not any(v.is_infinite for v in bad):
        sampled.append(Place.infinity(p))
    places = bad + sampled
    hyper_table = []
    for v in places:
        if not shape.local_hyperbolic(v):
            raise CertificateError(f"base involution is not hyperbolic at {v}")
        hyper_table.append([str(v), True])
    # the counterexample element, certified
    result = counterexample_element(shape)
    # scale to polynomial coordinates (class-invariant for every certificate:
    # the twisted involution is unchanged and Nrd scales by a 4th power)
    ubar = _clear_coord_denominators(result["ubar"])
    # local G-equivalence table: records of ubar vs 1 at every tabulated place
    unit = tb.quotient_involution.algebra.unit
    local_table = []
    for v in places:
        r_u = shape.local_record(ubar, v)
        r_1 = shape.local_record(unit, v)
        if not records_equal(r_u, r_1, v):
            raise CertificateError(f"local records differ at {v}: counterexample void")
        local_table.append(
            {
                "place": str(v),
                "record_u": _public_record(r_u),
                "record_1": _public_record(r_1),
                "equal": True,
            }
        )
    return Counterexample(
        H1, H2, ram1, ram2, ram_q, b1, b2, tb, shape, places, hyper_table, result, ubar, local_table
    )


def counterexample_pipeline(H1, H2, sample_places=5):
    """Assemble, verify and report the full local-global counterexample."""
    cx = build_counterexample(H1, H2, sample_places)
    H1, H2, b1, tb, ubar, result = cx.H1, cx.H2, cx.b1, cx.tb, cx.ubar, cx.element
    # lift u and materialize q' = Gram(q) * u; symmetry of Gram(q) * u is
    # exactly gamma-symmetry of u since Gram(q) is symmetric invertible
    u = tb.lift_of(ubar)
    ubar_inv = tb.quotient_involution.algebra.inverse(ubar)
    u_inv = tb.lift_of(_clear_coord_denominators(ubar_inv))
    prod = u * u_inv
    if not _is_scalar_matrix(prod):
        raise CertificateError("lift of ubar is not invertible in the complement")
    gram_qp = tb.form.gram * u
    if gram_qp != gram_qp.T:
        raise CertificateError("Gram(q) * u is not symmetric")
    q_prime = QuadForm(gram_qp)
    # plain-quadratic-form cross-check: globally equivalent by Hasse-Minkowski
    plain_equivalent = equivalent_global(tb.form, q_prime)
    if not plain_equivalent:
        raise CertificateError(
            "underlying plain forms are not equivalent; the pair would be useless"
        )
    # hyperbolicity of the underlying forms (both are, over a function field)
    q_hyper = is_hyperbolic(tb.form)
    # criterion verdicts for both regimes
    verdict_factor = verdict_from_components(decompose_components(b1.quotient_involution))
    verdict_tensor = verdict_from_components(decompose_components(tb.quotient_involution))
    report = {
        "p": H1.p,
        "inputs": {
            "H1": {"a": str(H1.a), "b": str(H1.b)},
            "H2": {"a": str(H2.a), "b": str(H2.b)},
        },
        "ramification": {
            "H1": [str(v) for v in cx.ram1],
            "H2": [str(v) for v in cx.ram2],
            "Q": [str(v) for v in cx.ram_q],
        },
        "dimensions": {
            "module": tb.module.dim,
            "end_algebra": tb.end_algebra.dim,
            "radical": tb.radical.dim,
            "quotient": tb.quotient_involution.algebra.dim,
        },
        "factor_checks": [b1.checks, cx.b2.checks],
        "tensor_checks": tb.checks,
        "local_hyperbolicity": cx.hyper_table,
        "local_table": cx.local_table,
        "global_certificate": result["certificate"],
        "g_verdict": "inequivalent",
        "plain_forms_equivalent": plain_equivalent,
        "base_form_hyperbolic": q_hyper,
        "hp_verdicts": {
            "factor_module": verdict_factor["verdict"],
            "tensor_module": verdict_tensor["verdict"],
        },
        "ubar_coords": [str(c) for c in ubar],
        "witness_idempotent_coords": [str(c) for c in result["witness_idempotent"]],
        "gram_q": _gram_strings(tb.form.gram),
        "gram_q_prime": _gram_strings(gram_qp),
        "form_invariants": {
            "q": invariants_report(tb.form),
            "q_prime": invariants_report(q_prime),
        },
    }
    return report


def _is_scalar_matrix(M):
    c = M.rows[0][0]
    return not c.is_zero() and M == Mat.identity(M.p, M.nrows) * c


def _clear_coord_denominators(coords):
    s = RatFunc(denominator_lcm(coords))
    return tuple(c * s for c in coords)


def _public_record(rec):
    return {k: v for k, v in rec.items() if not k.startswith("_")}


def _gram_strings(G):
    return [[str(e) for e in row] for row in G.rows]

