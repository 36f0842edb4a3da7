import copy
import dataclasses
import hashlib
import json

import pytest

from gquadforms.csa import Quaternion
from gquadforms.errors import CertificateError, InputError
from gquadforms.funcfield import Place, RatFunc
from gquadforms.grpalg import require_semisimple
from gquadforms.jsonio import dump_json
from gquadforms.linalg import KSpan, Mat, PolyMat
from gquadforms.quadform import QuadForm, equivalent_global, is_hyperbolic
from test_slow_paths import direct_tensor_commutant

P = 3


def rf(s):
    return RatFunc.from_string(P, s)


# ---------------------------------------------------------------------
# factor bundles (3.1 / 3.2 structure)
# ---------------------------------------------------------------------


def test_bundle_dimensions(bundle1, bundle2):
    for b in (bundle1, bundle2):
        assert b.module.dim == 8
        assert b.end_algebra.dim == 20
        assert b.radical.dim == 16
        assert b.quotient_involution.algebra.dim == 4
        assert b.checks["quotient_isomorphic_to_Hop"]


def test_bundle_g1_action_is_unipotent_identity_block(bundle1):
    g1 = bundle1.module.action["g1"]
    ident = Mat.identity(P, 4)
    from gquadforms.construct import _block

    assert _block(g1, 0, 0) == ident
    assert _block(g1, 0, 1) == ident  # a_1 = f(1 (x) 1) = 1
    assert _block(g1, 1, 1) == ident
    assert _block(g1, 1, 0).is_zero()


def test_bundle_generators_square_zero_displacement(bundle1):
    ident = PolyMat.identity(P, 8)
    for M in bundle1.module.poly_action().values():
        N = M - ident
        assert (N * N).is_zero()


def test_alpha_and_gram_identities(bundle1):
    alpha = bundle1.alpha
    assert alpha.T == -alpha
    A = bundle1.form.gram
    assert A == A.T
    pa = bundle1.module.poly_action()
    pA = PolyMat.from_mat(A)
    for M in pa.values():
        assert M.T * pA * M == pA
    E = bundle1.end_algebra
    assert all(E.contains(bundle1.gamma.apply_matrix(X)) for X in E.basis)


def test_base_form_is_hyperbolic_rank8(bundle1):
    assert bundle1.form.rank == 8
    assert is_hyperbolic(bundle1.form)


def test_quotient_involution_is_canonical(bundle1):
    # kind symplectic and ibar(x) = Trd(x) - x were certified during build
    assert bundle1.quotient_involution.kind() == "symplectic"
    assert bundle1.checks["quotient_involution_canonical"]


# ---------------------------------------------------------------------
# tensor stage (3.3)
# ---------------------------------------------------------------------


def test_tensor_dimensions(tensor_bundle):
    assert tensor_bundle.module.dim == 64
    assert tensor_bundle.end_algebra.dim == 400
    assert tensor_bundle.radical.dim == 384
    assert tensor_bundle.quotient_involution.algebra.dim == 16
    assert tensor_bundle.checks["quotient_sym_dim"] == 10
    require_semisimple(tensor_bundle.quotient_involution.algebra, "tensor quotient is not semisimple")
    assert tensor_bundle.quotient_involution.sym_dim() == 10


def test_tensor_gram_is_kronecker(tensor_bundle, bundle1, bundle2):
    assert tensor_bundle.form.gram == bundle1.form.gram.kron(bundle2.form.gram)
    assert is_hyperbolic(tensor_bundle.form)


def test_tensor_lifts_project_to_basis(tensor_bundle):
    # lift matrices were built to project exactly onto the quotient basis:
    # their pairwise products reduce mod radical to the structure constants
    alg = tensor_bundle.quotient_involution.algebra
    lifts = tensor_bundle.lift_mats
    rad_span = KSpan(P)
    for M in tensor_bundle.radical.basis:
        rad_span.add(M.flatten())
    for i in (0, 5, 10):
        for j in (0, 7):
            prod = lifts[i] * lifts[j]
            coords = alg.mult(alg.basis_coords(i), alg.basis_coords(j))
            expect = tensor_bundle.lift_of(coords)
            assert rad_span.contains((prod - expect).flatten())


def test_direct_commutant_agrees_with_kron_path(tensor_bundle, bundle1, bundle2):
    left, right = direct_tensor_commutant(tensor_bundle.module, 8)
    assert len(left) == 20 and len(right) == 20
    span1 = KSpan(P)
    for M in bundle1.end_algebra.basis:
        span1.add(M.flatten())
    for M in left:
        assert span1.contains(M.flatten())
    span2 = KSpan(P)
    for M in bundle2.end_algebra.basis:
        span2.add(M.flatten())
    for M in right:
        assert span2.contains(M.flatten())


def test_tensor_pair_rejects_a_factor_basis_that_does_not_commute(bundle1, bundle2):
    from gquadforms.construct import tensor_pair
    from gquadforms.grpalg import EndAlgebra
    from gquadforms.linalg import matrix_units

    # E_40 lies in the lower-left block, which is zero on all of E_N
    basis = [matrix_units(P, 8)[4 * 8]] + bundle1.end_algebra.basis[1:]
    bad = dataclasses.replace(bundle1, end_algebra=EndAlgebra(P, 8, basis))
    with pytest.raises(CertificateError, match="^factor basis fails to commute at g1$"):
        tensor_pair(bad, bundle2)


def test_tensor_pair_and_bundle_check_each_claim_once(monkeypatch, h1, bundle1, bundle2):
    from gquadforms import algebra, construct, grpalg
    from gquadforms.algebra import InvolutionAlgebra
    from gquadforms.hermitian import InducedInvolution

    products, modules, inverses, involutions, batches, semisimple, sym_dims = ([] for _ in range(7))

    def counting(calls, real):
        def wrapped(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(PolyMat, "__mul__", counting(products, PolyMat.__mul__))
    # each patched in construct too, so a module-level import there is counted
    for name, calls in (("check_module", modules), ("require_semisimple", semisimple)):
        counted = counting(calls, getattr(grpalg, name))
        monkeypatch.setattr(grpalg, name, counted)
        monkeypatch.setattr(construct, name, counted, raising=False)
    monkeypatch.setattr(
        InducedInvolution,
        "verify_generator_inverses",
        counting(inverses, InducedInvolution.verify_generator_inverses),
    )
    monkeypatch.setattr(InvolutionAlgebra, "__init__", counting(involutions, InvolutionAlgebra.__init__))
    monkeypatch.setattr(InvolutionAlgebra, "sym_dim", counting(sym_dims, InvolutionAlgebra.sym_dim))
    for module in (algebra, grpalg):
        monkeypatch.setattr(module, "span_products", counting(batches, module.span_products))
    construct.tensor_pair(bundle1, bundle2)
    # 2 factors x 20 basis elements x 3 generators x 2 sides, all 8x8
    assert len(products) == 240
    assert {(a.shape, b.shape) for a, b in products} == {((8, 8), (8, 8))}
    assert modules == [] and inverses == []
    # the quotient is central simple as a tensor product of the certified
    # quaternion quotients, and kind() pins dim Sym at degree 4: sym_dim
    # runs once, inside kind()
    assert semisimple == [] and len(sym_dims) == 1 and len(involutions) == 1
    del involutions[:], batches[:]
    construct.bundle(h1, prefix="g")
    assert len(modules) == 1 and inverses == []
    # the quotient involution is the only InvolutionAlgebra (rho's M_4(k)
    # is not built), and E's 20 x 20 products are computed once
    assert len(involutions) == 1
    closure = [args for args in batches if len(args) == 4 and len(args[1]) == len(args[2]) == 20]
    assert len(closure) == 1


def test_bundle_builds_few_normalised_polys(monkeypatch, h1):
    """Products, negations and sums of reduced polynomials, and fractions
    with a polynomial operand, are built without `Poly.__init__`'s
    reduction pass; one bundle made 92,334 normalising constructions
    before those fast paths."""
    from gquadforms import construct
    from gquadforms.funcfield import Poly

    calls = []
    init = Poly.__init__

    def counted(self, p, coeffs):
        calls.append(p)
        init(self, p, coeffs)

    monkeypatch.setattr(Poly, "__init__", counted)
    construct.bundle(h1, prefix="g")
    assert len(calls) <= 92334 // 2


# ---------------------------------------------------------------------
# the full pipeline (3.4)
# ---------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_default_quaternions_ramify_at_four_places(p):
    from gquadforms.construct import default_quaternions

    h1, h2 = default_quaternions(p)
    r1, r2 = set(h1.ramification_set()), set(h2.ramification_set())
    assert len(r1) == len(r2) == 2 and not r1 & r2


def test_pipeline_preconditions_rejected(h1):
    split = Quaternion(rf("1"), rf("t"))
    from gquadforms.construct import counterexample_pipeline

    with pytest.raises(InputError, match="ramified at exactly two"):
        counterexample_pipeline(split, h1)
    with pytest.raises(InputError, match="distinct"):
        counterexample_pipeline(h1, h1)


def test_pipeline_report_content(pipeline_report):
    rep = pipeline_report
    assert rep["ramification"]["Q"] == ["t", "t+1", "t+2", "inf"]
    assert rep["dimensions"] == {
        "module": 64,
        "end_algebra": 400,
        "radical": 384,
        "quotient": 16,
    }
    assert rep["g_verdict"] == "inequivalent"
    assert rep["plain_forms_equivalent"] is True
    assert rep["base_form_hyperbolic"] is True
    assert rep["hp_verdicts"]["factor_module"] == "guaranteed"
    assert rep["hp_verdicts"]["tensor_module"] == "not-guaranteed-by-criterion"
    assert all(row["equal"] for row in rep["local_table"])
    cert = rep["global_certificate"]
    assert cert["value_for_u"] != cert["value_for_1"]
    assert sorted(x for pair in cert["value_for_1"] for x in pair) == sorted(
        ["t", "inf", "t+1", "t+2"]
    )


def test_pipeline_gram_pair_well_formed(pipeline_report):
    rep = pipeline_report
    gq = rep["gram_q"]
    gqp = rep["gram_q_prime"]
    assert len(gq) == 64 and len(gqp) == 64
    # reparse both Gram matrices: symmetric, and invariants as reported
    G1 = Mat(P, [[rf(e) for e in row] for row in gq])
    G2 = Mat(P, [[rf(e) for e in row] for row in gqp])
    assert G1 == G1.T and G2 == G2.T
    inv = rep["form_invariants"]
    assert inv["q"]["rank"] == 64 and inv["q_prime"]["rank"] == 64
    assert inv["q"]["disc"] == "1" and inv["q_prime"]["disc"] == "1"


def test_pipeline_local_table_covers_bad_set(pipeline_report):
    places = [row["place"] for row in pipeline_report["local_table"]]
    for v in ("t", "t+1", "t+2", "inf"):
        assert v in places
    assert len(places) >= 9  # four ramified + at least five sampled


def test_pipeline_determinism(pipeline_report, h1, h2):
    from gquadforms.construct import counterexample_pipeline, report_to_json

    rep2 = counterexample_pipeline(h1, h2)
    assert report_to_json(pipeline_report) == report_to_json(rep2)


def test_pipeline_report_bytes_pinned(pipeline_report):
    # the bytes `gquadforms counterexample -o FILE` writes for the default inputs
    text = dump_json(pipeline_report) + "\n"
    assert (
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        == "4cacf7efc944f793447e50547792583f0d5a970b67b2b56d476827f0348c8f1f"
    )


def test_pipeline_report_bytes_pinned_at_word_size_p():
    # `gquadforms counterexample --p 2147483647 -o FILE`
    from gquadforms.construct import counterexample_pipeline, default_quaternions

    text = dump_json(counterexample_pipeline(*default_quaternions(2**31 - 1))) + "\n"
    assert (
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        == "6beab74d6aebf43b035ac21f55471c16b9b71eb317238eeb14fbe18aa6970597"
    )


# ---------------------------------------------------------------------
# one build: build_counterexample behind both CLI commands
# ---------------------------------------------------------------------


@pytest.fixture
def session_build(monkeypatch, bundle1, bundle2, tensor_bundle):
    """Make `build_counterexample` reuse the session bundles; they are the
    p = 3 default inputs, since the smallest nonsquare mod 3 is 2 = -1."""
    from gquadforms import construct

    monkeypatch.setattr(construct, "bundle", lambda H, prefix: bundle1 if prefix == "g" else bundle2)
    monkeypatch.setattr(construct, "tensor_pair", lambda b1, b2: tensor_bundle)
    return construct


def test_failed_local_check_is_one_certificate_failure(session_build, monkeypatch, capsys):
    from gquadforms.cli import main

    monkeypatch.setattr(session_build, "records_equal", lambda r1, r2, v: False)
    errors = []
    for command in ("counterexample", "verify-paper"):
        assert main([command]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        errors.append(out.err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("certificate failure: local records differ at t: ")


def _failed_paper_lines(session_build, monkeypatch, mutate=lambda cx: cx):
    """The FAIL lines of verify-paper on `mutate` of the session build."""
    from gquadforms import verifypaper

    def mutated(H1, H2):
        return mutate(session_build.build_counterexample(H1, H2))

    monkeypatch.setattr(verifypaper, "build_counterexample", mutated)
    return [name for name, ok in verifypaper.run_paper_identities(P) if not ok]


def test_verify_paper_recomputes_gram_invariance(session_build, monkeypatch):
    def with_identity_form(cx):
        # symmetric and nondegenerate, but not G-invariant
        return dataclasses.replace(cx, b1=dataclasses.replace(cx.b1, form=QuadForm(Mat.identity(P, 8))))

    failed = _failed_paper_lines(session_build, monkeypatch, with_identity_form)
    assert failed == ["Gram: g^T A g = A for all generators"]


def test_verify_paper_recomputes_rho_kind(session_build, monkeypatch):
    from gquadforms import verifypaper
    from gquadforms.algebra import Algebra, InvolutionAlgebra
    from gquadforms.linalg import matrix_units

    def transpose_involution(H):
        # X -> X^T on M_4(k): orthogonal, dim Sym = 10
        alg = Algebra.from_matrices(P, matrix_units(P, 4))
        cols = [alg.coords_of(M.T) for M in alg.matrices]
        return InvolutionAlgebra(alg, Mat(P, cols).T), None

    monkeypatch.setattr(verifypaper, "rho_involution", transpose_involution)
    failed = _failed_paper_lines(session_build, monkeypatch)
    assert failed == ["involution: rho symplectic with dim Sym = 6"]


def test_verify_paper_recomputes_alpha(session_build, monkeypatch):
    from gquadforms import verifypaper

    # skew, but not a scalar multiple of the bundle's alpha
    alpha0 = Mat.from_int_rows(P, [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    monkeypatch.setattr(verifypaper, "solve_alpha", lambda rho, H: alpha0)
    failed = _failed_paper_lines(session_build, monkeypatch)
    assert failed == ["alpha: skew-symmetric, unique up to scalar"]


def test_verify_paper_recomputes_gram_symmetry(session_build, monkeypatch):
    def with_skew_corner(cx):
        # A + [[0, 0], [0, D]] with D skew is G-invariant for the unipotent
        # generators [[I, a], [0, I]], but not symmetric
        form = copy.copy(cx.b1.form)
        D = [[int((i, j) == (4, 5)) - int((i, j) == (5, 4)) for j in range(8)] for i in range(8)]
        form.gram = form.gram + Mat.from_int_rows(P, D)
        return dataclasses.replace(cx, b1=dataclasses.replace(cx.b1, form=form))

    failed = _failed_paper_lines(session_build, monkeypatch, with_skew_corner)
    assert failed == ["Gram: A^T = A"]


def test_verify_paper_recomputes_quotient_involution(session_build, monkeypatch):
    from gquadforms.algebra import InvolutionAlgebra

    def with_orthogonal_involution(cx):
        # x -> u ibar(x) u^-1 for a skew u: an involution, not the canonical one
        ibar = cx.b1.quotient_involution
        A = ibar.algebra
        u = tuple(ibar.skew_basis()[0])
        u_inv = A.inverse(u)
        cols = [A.mult(A.mult(u, ibar.apply(A.basis_coords(i))), u_inv) for i in range(A.dim)]
        twisted = InvolutionAlgebra(A, Mat(P, cols).T)
        return dataclasses.replace(cx, b1=dataclasses.replace(cx.b1, quotient_involution=twisted))

    failed = _failed_paper_lines(session_build, monkeypatch, with_orthogonal_involution)
    assert failed == ["quotient involution: x -> Trd(x) - x"]


def test_verify_paper_recomputes_tensor_involution(session_build, monkeypatch):
    from gquadforms.algebra import InvolutionAlgebra

    def with_symplectic_involution(cx):
        # on the same 16-dim quotient, canonical (x) orthogonal: symplectic,
        # dim Sym = 6; the orthogonal factor is conj twisted by a pure quaternion
        conj1, conj2 = cx.b1.quotient_involution, cx.b2.quotient_involution
        A2 = conj2.algebra
        u = conj2.skew_basis()[0]
        u_inv = A2.inverse(u)
        tau2 = Mat(P, [A2.mult(u_inv, A2.mult(conj2.apply(A2.basis_coords(j)), u)) for j in range(A2.dim)]).T
        symplectic = InvolutionAlgebra(cx.tb.quotient_involution.algebra, conj1.inv_mat.kron(tau2))
        tb = dataclasses.replace(cx.tb, quotient_involution=symplectic)
        return dataclasses.replace(cx, tb=tb)

    failed = _failed_paper_lines(session_build, monkeypatch, with_symplectic_involution)
    assert failed == ["tensor: quotient involution orthogonal with dim Sym = 10"]


def test_verify_paper_recomputes_quotient_structure_constants(session_build, monkeypatch):
    from gquadforms.algebra import Algebra
    from gquadforms.grpalg import RadicalResult

    def with_perturbed_quotient_table(cx):
        # i * i gains the unit: no longer H^op's structure constants
        rad = cx.b1.radical
        quot = copy.copy(rad.quotient)
        A = quot.algebra
        table = [list(row) for row in A.mult_table]
        table[1][1] = A.add(table[1][1], A.unit)
        quot.algebra = Algebra(P, table, A.unit)
        radical = RadicalResult(rad.basis, rad.certificate, quot)
        return dataclasses.replace(cx, b1=dataclasses.replace(cx.b1, radical=radical))

    failed = _failed_paper_lines(session_build, monkeypatch, with_perturbed_quotient_table)
    assert failed == ["quotient: E_N / R_N isomorphic to the opposite quaternion"]


def test_reduced_norm_computed_once_per_element(session_build, monkeypatch):
    from gquadforms import hermitian

    norms = []
    real = hermitian.reduced_norm_deg4

    def counting(alg, u_coords):
        norms.append(tuple(u_coords))
        return real(alg, u_coords)

    monkeypatch.setattr(hermitian, "reduced_norm_deg4", counting)
    cx = session_build.build_counterexample(*session_build.default_quaternions(P))
    # the certificate's Nrd(u) and the local records of ubar and of 1 at
    # every tabulated place share two computations
    assert len(cx.places) >= 9
    assert len(norms) == 2
    assert set(norms) == {tuple(cx.ubar), tuple(cx.tb.quotient_involution.algebra.unit)}


def test_each_element_is_twisted_once(session_build, monkeypatch):
    from gquadforms import hermitian

    twisted = []
    real = hermitian.twisted_involution_algebra

    def counting(inv_alg, u_coords):
        twisted.append(tuple(u_coords))
        return real(inv_alg, u_coords)

    monkeypatch.setattr(hermitian, "twisted_involution_algebra", counting)
    cx = session_build.build_counterexample(*session_build.default_quaternions(P))
    assert len(cx.local_table) == len(cx.places) >= 9
    # the counterexample search twists each candidate; the winning twist is
    # reused by the certificate and by every local record of ubar
    assert twisted and len(set(twisted)) == len(twisted)
    assert tuple(cx.ubar) in twisted
