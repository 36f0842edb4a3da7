import random

import pytest

from gquadforms.errors import InputError
from gquadforms.funcfield import Place, RatFunc, square_class
from gquadforms.hermitian import (
    QuaternionPairShape,
    SplitAdjointShape,
    class_element,
    clifford_quaternion_pair,
    counterexample_element,
    induced_involution,
    lift_class,
    local_hyperbolicity,
    poly_nth_root_monic,
    records_equal,
    reduced_norm_deg4,
    twisted_involution_algebra,
    witness_check,
)
from gquadforms.linalg import Mat
from gquadforms.grpalg import GModule, GroupSpec
from gquadforms.quadform import QuadForm

P = 3


def rf(s):
    return RatFunc.from_string(P, s)


# ---------------------------------------------------------------------
# induced involutions
# ---------------------------------------------------------------------


def test_trivial_module_identity_gram_gives_transpose():
    grp = GroupSpec(P, ["g"])
    m = GModule(grp, {"g": Mat.identity(P, 3)})
    q = QuadForm(Mat.identity(P, 3))
    gamma = induced_involution(m, q)
    X = Mat.from_int_rows(P, [[1, 2, 0], [0, 1, 1], [2, 0, 1]])
    assert gamma.apply_matrix(X) == X.T


def test_non_invariant_form_rejected(bundle1):
    m = bundle1.module
    with pytest.raises(InputError, match="invariant"):
        induced_involution(m, QuadForm(Mat.identity(P, 8)))


def test_non_invariant_polynomial_form_is_refused_without_exact_fallback(monkeypatch, bundle1):
    m = bundle1.module
    A = bundle1.form.gram
    bump = Mat(P, [[RatFunc.from_int(P, int(i == j == 0)) for j in range(8)] for i in range(8)])
    perturbed = QuadForm(A + bump)
    bad = next(g for g, M in m.action.items() if M.T * perturbed.gram * M != perturbed.gram)
    products = []
    mul = Mat.__mul__

    def counted(self, other):
        products.append((self.nrows, self.ncols))
        return mul(self, other)

    monkeypatch.setattr(Mat, "__mul__", counted)
    with pytest.raises(InputError) as err:
        induced_involution(m, perturbed)
    assert str(err.value) == f"form is not G-invariant at generator {bad}"
    assert products == []


def test_adjoint_identity_on_basis(bundle1):
    gamma = bundle1.gamma
    for X in bundle1.end_algebra.basis[:8]:
        # q(Xv, w) = q(v, gamma(X) w), i.e. X^T A = A gamma(X)
        assert X.T * gamma.gram == gamma.gram * gamma.apply_matrix(X)


def test_gamma_generator_inverses(bundle1):
    ok, bad = bundle1.gamma.verify_generator_inverses()
    assert ok and bad is None


# ---------------------------------------------------------------------
# class elements and witnesses
# ---------------------------------------------------------------------


def test_class_element_identity(bundle1):
    u = class_element(bundle1.form, bundle1.form, bundle1.gamma, bundle1.end_algebra)
    assert u == Mat.identity(P, 8)


def test_class_element_congruent_form(bundle1):
    rng = random.Random(2)
    E = bundle1.end_algebra
    gamma = bundle1.gamma
    # pick an invertible k[G]-automorphism e from the endomorphism algebra
    e = None
    for X in E.basis:
        cand = Mat.identity(P, 8) + X
        try:
            cand.inverse()
        except ValueError:
            continue
        if E.contains(cand):
            e = cand
            break
    assert e is not None
    gram2 = e.T * bundle1.form.gram * e
    q2 = QuadForm(gram2)
    u = class_element(bundle1.form, q2, gamma, E)
    # u = gamma(e) e: witnessed congruent to 1
    assert witness_check(gamma, Mat.identity(P, 8), u, e)


def test_witness_check_round_trip(bundle1):
    rng = random.Random(3)
    gamma = bundle1.gamma
    for X in bundle1.end_algebra.basis[:4]:
        e = Mat.identity(P, 8) + X
        try:
            e.inverse()
        except ValueError:
            continue
        u = Mat.identity(P, 8)
        u2 = gamma.apply_matrix(e) * u * e
        assert witness_check(gamma, u, u2, e)
    # non-invertible witness is always rejected
    z = Mat.zeros(P, 8)
    assert not witness_check(gamma, Mat.identity(P, 8), Mat.identity(P, 8), z)


# ---------------------------------------------------------------------
# project / lift
# ---------------------------------------------------------------------


def test_project_lift_round_trip(bundle1):
    quot = bundle1.quotient
    ubar = quot.algebra.unit
    u = lift_class(quot, ubar)
    assert tuple(quot.project_matrix(u)) == tuple(ubar)
    assert bundle1.gamma.apply_matrix(u) == u
    # a symmetric radical shift projects to the same class
    r = None
    for X in quot.radical.basis:
        sym = (X + bundle1.gamma.apply_matrix(X)) * rf("2")  # (x + gamma x)/2
        if not sym.is_zero():
            r = sym
            break
    assert r is not None
    shifted = u + r
    assert tuple(quot.project_matrix(shifted)) == tuple(ubar)


def test_lift_of_nontrivial_class(bundle1):
    quot = bundle1.quotient
    # lift the class of a nontrivial symmetric unit of the quotient
    algq = quot.algebra
    cand = None
    for i in range(algq.dim):
        x = algq.basis_coords(i)
        if quot.involution.apply(x) == x and algq.left_mult_matrix(x).rank() == algq.dim:
            cand = x
            break
    assert cand is not None
    u = lift_class(quot, cand)
    assert tuple(quot.project_matrix(u)) == tuple(cand)


# ---------------------------------------------------------------------
# quaternion pair machinery (tensor quotient)
# ---------------------------------------------------------------------


def test_clifford_pair_of_base_involution(tensor_bundle, h1, h2):
    pair = clifford_quaternion_pair(tensor_bundle.quotient_involution)
    rams = sorted(
        tuple(str(v) for v in m.quaternion.ramification_set()) for m in pair
    )
    expect = sorted(
        [
            tuple(str(v) for v in h1.ramification_set()),
            tuple(str(v) for v in h2.ramification_set()),
        ]
    )
    assert rams == expect


def test_counterexample_element_certificates(tensor_bundle):
    shape = QuaternionPairShape(tensor_bundle.quotient_involution)
    result = counterexample_element(shape)
    cert = result["certificate"]
    assert cert["value_for_u"] != cert["value_for_1"]
    assert cert["hyperbolicity_witness_for_u"]
    A, ubar, e = tensor_bundle.quotient_algebra, result["ubar"], result["witness_idempotent"]
    assert A.mult(e, e) == e
    assert shape.twisted_involution(ubar).apply(e) == A.sub(A.unit, e)
    assert square_class(shape.nrd(ubar)).is_trivial()
    # local triviality at the four ramified places and a couple more
    unit = tensor_bundle.quotient_algebra.unit
    for v in shape.q_ramification:
        r_u = shape.local_record(ubar, v)
        r_1 = shape.local_record(unit, v)
        assert r_u["rank"] == 2 and r_u["shape"] == "quaternion-division"
        assert records_equal(r_u, r_1, v)
    v_good = Place.from_string(P, "t^2+1")
    r_u = shape.local_record(ubar, v_good)
    assert r_u["rank"] == 4 and records_equal(r_u, shape.local_record(unit, v_good), v_good)


def test_local_hyperbolicity_places(tensor_bundle):
    shape = QuaternionPairShape(tensor_bundle.quotient_involution)
    for v in shape.q_ramification:
        assert local_hyperbolicity(shape, v)
    assert local_hyperbolicity(shape, Place.from_string(P, "t^2+1"))


def test_twisted_involution_requires_symmetric(tensor_bundle):
    gbar = tensor_bundle.quotient_involution
    alg = gbar.algebra
    skew = gbar.skew_basis()
    with pytest.raises(InputError):
        twisted_involution_algebra(gbar, tuple(skew[0]))


# ---------------------------------------------------------------------
# split-matrix shape records
# ---------------------------------------------------------------------


def test_split_adjoint_shape_records():
    gram = Mat.identity(P, 2)
    shape = SplitAdjointShape(gram)
    U = Mat.from_int_rows(P, [[1, 0], [0, 1]])
    v = Place.from_string(P, "t")
    rec = shape.local_record(U, v)
    assert rec["rank"] == 2
    assert records_equal(rec, shape.local_record(U, v), v)
    # Morita Gram of a hermitian element is symmetric (sigma(u) = u forced)
    U2 = Mat.from_int_rows(P, [[2, 1], [1, 1]])
    rec2 = shape.local_record(U2, v)
    assert not records_equal(rec, rec2, v) or rec2["rank"] == rec["rank"]
    with pytest.raises(InputError):
        shape.local_record(Mat.from_int_rows(P, [[0, 1], [2, 0]]), v)


def test_congruent_hermitian_elements_give_congruent_gram():
    rng = random.Random(9)
    gram = Mat.identity(P, 3)
    shape = SplitAdjointShape(gram)
    # sigma = transpose; congruent u' = e^T u e gives congruent Morita Gram
    U = Mat.from_int_rows(P, [[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    e = Mat.from_int_rows(P, [[1, 1, 0], [0, 1, 0], [2, 0, 1]])
    U2 = e.T * U * e
    q1 = shape.morita_form(U)
    q2 = shape.morita_form(U2)
    from gquadforms.quadform import equivalent_global

    assert equivalent_global(q1, q2)


# ---------------------------------------------------------------------
# reduced norms
# ---------------------------------------------------------------------


def test_poly_nth_root():
    one = RatFunc.one(P)
    t = RatFunc.t(P)
    # (T^2 + t)^2, ascending coefficients
    f = [t * t, RatFunc.zero(P), t + t, RatFunc.zero(P), one]
    g = poly_nth_root_monic(f, 2)
    assert g == [t, RatFunc.zero(P), one]
    with pytest.raises(ValueError):
        poly_nth_root_monic([t, RatFunc.zero(P), one], 2)  # T^2 + t is not a square


def test_reduced_norm_on_tensor_quotient(tensor_bundle):
    alg = tensor_bundle.quotient_algebra
    assert reduced_norm_deg4(alg, alg.unit) == RatFunc.one(P)
