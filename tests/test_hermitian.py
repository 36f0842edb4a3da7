import pytest

from gquadforms.errors import InputError
from gquadforms.funcfield import Place, RatFunc, square_class
from gquadforms.hermitian import (
    QuaternionPairShape,
    clifford_quaternion_pair,
    counterexample_element,
    induced_involution,
    poly_nth_root_monic,
    records_equal,
    reduced_norm_deg4,
    twisted_involution_algebra,
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
    A, ubar, e = tensor_bundle.quotient_involution.algebra, result["ubar"], result["witness_idempotent"]
    assert A.mult(e, e) == e
    assert shape.twisted_involution(ubar).apply(e) == A.sub(A.unit, e)
    assert square_class(shape.nrd(ubar)).is_trivial()
    # local triviality at the four ramified places and a couple more
    unit = tensor_bundle.quotient_involution.algebra.unit
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
        assert shape.local_hyperbolic(v)
    assert shape.local_hyperbolic(Place.from_string(P, "t^2+1"))


def test_twisted_involution_requires_symmetric(tensor_bundle):
    gbar = tensor_bundle.quotient_involution
    alg = gbar.algebra
    skew = gbar.skew_basis()
    with pytest.raises(InputError):
        twisted_involution_algebra(gbar, tuple(skew[0]))


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
    alg = tensor_bundle.quotient_involution.algebra
    assert reduced_norm_deg4(alg, alg.unit) == RatFunc.one(P)
