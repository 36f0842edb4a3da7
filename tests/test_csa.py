import pytest

from gquadforms.algebra import Algebra, InvolutionAlgebra
from gquadforms.csa import (
    Quaternion,
    QuatElem,
    SandwichIso,
    left_mult_matrix,
    quat_conj,
    quat_mul,
    quaternion_from_algebra,
    rho_involution,
    right_mult_matrix,
    solve_alpha,
    tensor_m2q,
    twisted_involution,
)
from gquadforms.funcfield import Poly, RatFunc
from gquadforms.linalg import Mat
from gquadforms.quadform import QuadForm, is_isotropic

P = 3


def rf(s):
    return RatFunc.from_string(P, s)


@pytest.fixture(scope="module")
def H():
    return Quaternion(rf("-1"), rf("t"))


@pytest.fixture(scope="module")
def H2():
    return Quaternion(rf("-1"), rf("t^2+2"))


# ---------------------------------------------------------------------
# multiplication, conjugation, norms
# ---------------------------------------------------------------------


def test_conj_spec_examples(H):
    one, i = H.one(), H.i()
    assert quat_conj(one) == one
    assert quat_conj(i) == -i


def test_norm_identity_symbolic(H):
    import random

    rng = random.Random(0)
    for _ in range(20):
        x = H.elem(*[rf(str(rng.randrange(P))) for _ in range(4)])
        if x.is_zero():
            continue
        x0, x1, x2, x3 = x.coords
        expect = x0 * x0 - H.a * x1 * x1 - H.b * x2 * x2 + H.a * H.b * x3 * x3
        assert x.nrd() == expect


def test_nrd_i_plus_j(H):
    # Nrd(i + j) from the norm identity: -a - b = 1 - t over F_3
    assert (H.i() + H.j()).nrd() == rf("1-t")


def test_associativity_and_anticommutation(H):
    i, j, k = H.i(), H.j(), H.k()
    assert quat_mul(i, j) == k
    assert quat_mul(j, i) == -k
    for x in (i, j, k):
        for y in (i, j, k):
            for z in (i, j, k):
                assert quat_mul(quat_mul(x, y), z) == quat_mul(x, quat_mul(y, z))


# ---------------------------------------------------------------------
# ramification
# ---------------------------------------------------------------------


def test_ramification_spec_examples(H, H2):
    assert Quaternion(rf("1"), rf("t")).ramification_set() == []
    assert [str(v) for v in H.ramification_set()] == ["t", "inf"]
    assert [str(v) for v in H2.ramification_set()] == ["t+1", "t+2"]
    assert Quaternion(rf("t"), rf("-t")).is_split()


def test_ramification_even_cardinality():
    import random

    rng = random.Random(1)
    for _ in range(15):
        while True:
            num = Poly(P, [rng.randrange(P) for _ in range(rng.randrange(1, 4))])
            if not num.is_zero():
                break
        a = RatFunc(num)
        b = rf(f"t+{rng.randrange(P)}")
        H3 = Quaternion(a, b)
        assert len(H3.ramification_set()) % 2 == 0


def _norm_form(quat):
    """The reduced norm <1, -a, -b, ab> of the quaternion (a, b)."""
    return QuadForm.from_diagonal(P, [RatFunc.one(P), -quat.a, -quat.b, quat.a * quat.b])


def test_split_iff_norm_form_isotropic(H):
    for quat in (H, Quaternion(rf("1"), rf("t")), Quaternion(rf("t"), rf("-t")), Quaternion(rf("-1"), rf("t^2+2"))):
        assert quat.is_split() == is_isotropic(_norm_form(quat))


# ---------------------------------------------------------------------
# sandwich isomorphism, rho, alpha
# ---------------------------------------------------------------------


def test_sandwich_spec_examples(H):
    f = SandwichIso(H)
    assert f.a1 == Mat.identity(P, 4)
    assert f.a2 * f.a2 == Mat.identity(P, 4) * rf("-1")
    assert f.verify_homomorphism()
    # multiplicativity spot check: f(i (x) 1) f(1 (x) i) = f(i (x) i)
    i = H.i()
    assert f.apply(i, H.one()) * f.apply(H.one(), i) == f.apply(i, i)


def test_twisted_involution_spec(H):
    assert twisted_involution(H, H.i()) == H.i()
    assert twisted_involution(H, H.j()) == H.j()
    assert twisted_involution(H, H.k()) == -H.k()
    # anti-multiplicative involution
    x, y = H.i() + H.j(), H.j() + H.k()
    assert twisted_involution(H, twisted_involution(H, x)) == x
    assert twisted_involution(H, quat_mul(x, y)) == quat_mul(
        twisted_involution(H, y), twisted_involution(H, x)
    )


def test_rho_involution_spec(H):
    ia, rho = rho_involution(H)
    assert rho.fixes_generators()
    assert ia.kind() == "symplectic"
    assert ia.sym_dim() == 6


def test_solve_alpha(H):
    ia, rho = rho_involution(H)
    alpha = solve_alpha(rho, H)
    assert alpha.T == -alpha
    # constructed case: recover the standard alpha0 up to scalar
    alpha0 = Mat.from_int_rows(P, [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])

    class Std:
        def apply(self, X):
            return alpha0.inverse() * X.T * alpha0

    rec = solve_alpha(Std(), H)
    scale = None
    for i in range(4):
        for j in range(4):
            if not alpha0.rows[i][j].is_zero():
                scale = alpha0.rows[i][j] / rec.rows[i][j]
                break
        if scale:
            break
    assert rec * scale == alpha0


def test_solve_alpha_rejects_orthogonal(H):
    class Transpose:
        def apply(self, X):
            return X.T

    with pytest.raises(ValueError, match="skew|dimension"):
        solve_alpha(Transpose(), H)


# ---------------------------------------------------------------------
# involution kinds
# ---------------------------------------------------------------------


def _involution_on(mats, images):
    alg = Algebra.from_matrices(P, mats)
    cols = [alg.coords_of(images(M)) for M in alg.matrices]
    d = alg.dim
    return InvolutionAlgebra(alg, Mat(P, [[cols[j][i] for j in range(d)] for i in range(d)]))


def test_involution_kinds(H):
    units = []
    for a in range(4):
        for b in range(4):
            units.append(
                Mat.from_int_rows(P, [[1 if (r, c) == (a, b) else 0 for c in range(4)] for r in range(4)])
            )
    ia = _involution_on(units, lambda M: M.T)
    assert ia.kind() == "orthogonal"
    assert ia.sym_dim() == 10

    def via(fn):
        def images(M):
            x = QuatElem(H, tuple(M.rows[i][0] for i in range(4)))
            return left_mult_matrix(fn(x))

        return images

    Hmats = [left_mult_matrix(e) for e in H.basis()]
    ia_c = _involution_on(Hmats, via(quat_conj))
    assert ia_c.kind() == "symplectic"
    assert ia_c.sym_dim() == 1
    ia_tau = _involution_on(Hmats, via(lambda x: twisted_involution(H, x)))
    assert ia_tau.kind() == "orthogonal"
    assert ia_tau.sym_dim() == 3


# ---------------------------------------------------------------------
# tensor class arithmetic and extraction
# ---------------------------------------------------------------------


def test_tensor_m2q_spec_examples(H, H2):
    same = tensor_m2q(H, H)
    assert same["ramification"] == [] and not same["is_division"]
    mixed = tensor_m2q(H, H2)
    assert [str(v) for v in mixed["ramification"]] == ["t", "t+1", "t+2", "inf"]
    assert mixed["is_division"]
    split = Quaternion(rf("1"), rf("t"))
    assert [str(v) for v in tensor_m2q(split, H2)["ramification"]] == [
        str(v) for v in H2.ramification_set()
    ]


def test_quaternion_extraction_round_trip(H, H2):
    for quat in (H, H2):
        alg = Algebra.from_matrices(P, [right_mult_matrix(e) for e in quat.basis()])
        rec, coords = quaternion_from_algebra(alg)
        # H^op ~ H in the Brauer group: ramification must agree
        assert [str(v) for v in rec.ramification_set()] == [
            str(v) for v in quat.ramification_set()
        ]
        one, x1, x2, x3 = coords
        assert alg.mult(x1, x2) == x3
        assert alg.mult(x2, x1) == tuple(-c for c in x3)
