"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime.  Everything is exact arithmetic; the runtime bounds
are part of the contract and asserted as stated.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import random
import time

import pytest

from gquadforms.funcfield import (
    Place,
    Poly,
    RatFunc,
    hilbert_symbol,
    support,
)
from gquadforms.linalg import KSpan, Mat
from gquadforms.localsolve import local_isotropic
from gquadforms.quadform import QuadForm, equivalent_global
from gquadforms.csa import Quaternion, tensor_m2q

P = 3


def _report(num, label, t0, bound):
    dt = time.time() - t0
    print(f"ACCEPTANCE {num}: PASS ({dt:.2f}s < {bound}s) - {label}")
    assert dt < bound


def _random_rf(rng, maxdeg):
    while True:
        num = Poly(P, [rng.randrange(P) for _ in range(rng.randrange(1, maxdeg + 2))])
        den = Poly(P, [rng.randrange(P) for _ in range(rng.randrange(1, maxdeg + 2))])
        if not num.is_zero() and not den.is_zero():
            return RatFunc(num, den)


def test_criterion_01_hilbert_product_formula():
    t0 = time.time()
    rng = random.Random(101)
    for _ in range(100):
        a, b = _random_rf(rng, 3), _random_rf(rng, 3)
        prod = 1
        for v in support(a, b):
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1
    _report(1, "Hilbert product formula on 100 random pairs (deg <= 3)", t0, 5)


def test_criterion_02_local_symbol_oracle_agreement():
    t0 = time.time()
    rng = random.Random(102)
    checked = 0
    for _ in range(50):
        a, b = _random_rf(rng, 2), _random_rf(rng, 2)
        minus_one = RatFunc.from_int(P, -1)
        for v in support(a, b):
            tame = hilbert_symbol(a, b, v)
            oracle = 1 if local_isotropic([a, b, minus_one], v) else -1
            assert tame == oracle
            checked += 1
    assert checked >= 100
    _report(2, f"tame symbol vs Hensel-lift isotropy oracle on {checked} cases", t0, 5)


def test_criterion_03_hasse_minkowski_sanity():
    t0 = time.time()
    rng = random.Random(103)
    for _ in range(12):
        n = rng.choice([2, 3, 4, 5])
        q = QuadForm.from_diagonal(P, [_random_rf(rng, 2) for _ in range(n)])
        while True:
            Pm = Mat(P, [[RatFunc.from_int(P, rng.randrange(P)) for _ in range(n)] for _ in range(n)])
            try:
                Pm.inverse()
                break
            except ValueError:
                continue
        q2 = QuadForm(Pm.T * q.gram * Pm)
        assert equivalent_global(q, q2)
    # forms differing in one diagonal square class with distinct disc
    for _ in range(8):
        entries = [_random_rf(rng, 1) for _ in range(3)]
        q1 = QuadForm.from_diagonal(P, entries)
        twisted = entries[:-1] + [entries[-1] * RatFunc.from_int(P, 2)]
        q2 = QuadForm.from_diagonal(P, twisted)
        assert q1.disc() != q2.disc()
        assert not equivalent_global(q1, q2)
    _report(3, "congruent forms equivalent; square-class twists detected", t0, 5)


def test_criterion_04_structure_of_EN(h1):
    t0 = time.time()
    from gquadforms.construct import build_N, verify_EN

    N = build_N(h1)
    assert N.dim == 8
    report, E, rad = verify_EN(N, h1)
    assert report["dim_end"] == 20
    assert report["dim_radical"] == 16
    assert report["quotient_isomorphic_to_Hop"]
    _report(4, "dim N = 8, dim E_N = 20, dim R_N = 16, quotient = H^op", t0, 5)


def test_criterion_05_involution_identities(h1):
    t0 = time.time()
    from gquadforms.construct import bundle

    b = bundle(h1)
    assert b.checks["rho_symplectic"]
    assert b.checks["alpha_skew"]
    assert b.checks["gram_symmetric"]
    assert b.checks["gram_G_invariant"]
    assert b.checks["quotient_involution_canonical"]
    ok, _ = b.gamma.verify_generator_inverses()
    assert ok
    _report(
        5,
        "rho(a_m) = a_m, symplectic Sym-dim 6, alpha skew and unique, "
        "A symmetric G-invariant, quotient involution canonical",
        t0,
        5,
    )


def test_criterion_06_tensor_dimensions(tensor_bundle):
    t0 = time.time()
    assert tensor_bundle.end_algebra.dim == 400
    assert tensor_bundle.quotient_involution.algebra.dim == 16
    assert tensor_bundle.quotient_involution.kind() == "orthogonal"
    assert tensor_bundle.quotient_involution.sym_dim() == 10
    _report(6, "dim E = 400, dim Ebar = 16, kind orthogonal (Sym 10)", t0, 5)


def test_criterion_07_ramification_sets(h1, h2):
    t0 = time.time()
    assert [str(v) for v in h1.ramification_set()] == ["t", "inf"]
    assert [str(v) for v in h2.ramification_set()] == ["t+1", "t+2"]
    ram_q = tensor_m2q(h1, h2)["ramification"]
    assert [str(v) for v in ram_q] == ["t", "t+1", "t+2", "inf"]
    _report(7, "Ram(H1), Ram(H2) and Ram(Q) = their union", t0, 5)


def test_criterion_08_local_hyperbolicity(tensor_bundle):
    t0 = time.time()
    from gquadforms.construct import sample_unramified_places
    from gquadforms.hermitian import QuaternionPairShape

    shape = QuaternionPairShape(tensor_bundle.quotient_involution)
    bad = shape.q_ramification
    assert len(bad) == 4
    sampled = sample_unramified_places(P, bad, 5)
    assert len(sampled) >= 5
    for v in list(bad) + sampled:
        assert shape.local_hyperbolic(v)
    _report(8, "sigma-bar hyperbolic at 4 ramified and 5 sampled places", t0, 5)


def test_criterion_09_counterexample_end_state(h1, h2):
    t0 = time.time()
    from gquadforms.construct import counterexample_pipeline

    rep = counterexample_pipeline(h1, h2)
    # (i) local records equal at every bad place
    assert all(row["equal"] for row in rep["local_table"])
    # (ii) global certificate of inequivalence, emitted for audit
    cert = rep["global_certificate"]
    assert cert["value_for_u"] != cert["value_for_1"]
    assert cert["hyperbolicity_witness_for_u"]
    assert rep["g_verdict"] == "inequivalent"
    # (iii) plain quadratic forms globally equivalent
    assert rep["plain_forms_equivalent"] is True
    _report(
        9,
        "pair (q, q'): locally G-equivalent everywhere, globally G-inequivalent, "
        "plain forms Hasse-Minkowski equivalent",
        t0,
        20,
    )


def test_criterion_10_verdicts(bundle1, tensor_bundle):
    t0 = time.time()
    from gquadforms.grpalg import GModule, GroupSpec, decompose_components, hp_verdict, verdict_from_components

    # (a) trivial module with <1>
    grp = GroupSpec.cp_cubed(P)
    trivial = GModule(grp, {g: Mat.identity(P, 1) for g in grp.generators})
    out = hp_verdict(trivial, QuadForm(Mat.identity(P, 1)))
    assert out["verdict"] == "guaranteed"
    # (b) N_H with the block form: symplectic-only components
    out_b = hp_verdict(bundle1.module, bundle1.form)
    assert out_b["verdict"] == "guaranteed"
    assert out_b["evidence"]["components"][0]["kind"] == "symplectic"
    # (c) k[G] as a free module: projective path
    g = Mat.from_int_rows(P, [[1 if (i - 1) % P == j else 0 for j in range(P)] for i in range(P)])
    ident = Mat.identity(P, P)
    kg = GModule(
        grp,
        {
            "g1": g.kron(ident).kron(ident),
            "g2": ident.kron(g).kron(ident),
            "g3": ident.kron(ident).kron(g),
        },
    )
    out_c = hp_verdict(kg)
    assert out_c["verdict"] == "guaranteed" and out_c["path"] == "projective-module"
    # (d) gcd(|G|, p) = 1
    out_d = hp_verdict(GModule(GroupSpec(P, []), {}, dim=4))
    assert out_d["verdict"] == "guaranteed" and out_d["path"] == "order-prime-to-p"
    # negative regime: the tensor module
    out_e = verdict_from_components(decompose_components(tensor_bundle.quotient_involution))
    assert out_e["verdict"] == "not-guaranteed-by-criterion"
    blocking = out_e["evidence"]["blocking_component"]
    assert blocking["kind"] == "orthogonal" and blocking["splitness"] == "nonsplit-quaternion"
    _report(10, "criterion verdicts: four guaranteed paths and the negative regime", t0, 5)


def test_criterion_11_radical_certificates(bundle1, bundle2, tensor_bundle):
    t0 = time.time()
    from gquadforms.grpalg import EndAlgebra, GModule, GroupSpec, endomorphism_algebra, jacobson_radical

    # pipeline algebras: both factors and the tensor
    for b in (bundle1, bundle2):
        cert = b.radical.certificate
        assert cert["ideal"] is True
        assert cert["nilpotency_index"] <= b.end_algebra.dim
        assert cert["quotient_radical_dim"] == 0
        # the 3.1 block ideal is reproduced exactly
        from gquadforms.construct import _block

        sp = KSpan(P)
        for M in b.radical.basis:
            sp.add(M.flatten())
            assert _block(M, 0, 0).is_zero()
            assert _block(M, 1, 0).is_zero()
            assert _block(M, 1, 1).is_zero()
        assert sp.dim == 16
    tcert = tensor_bundle.radical.certificate
    assert tcert["factored"] is True
    assert tcert["dim"] == 384
    assert tcert["nilpotency_index_bound"] == 3
    # k[C_3]: augmentation-type radical, quotient isomorphic to k
    g = Mat.from_int_rows(P, [[1 if (i - 1) % P == j else 0 for j in range(P)] for i in range(P)])
    m = GModule(GroupSpec(P, ["g"]), {"g": g})
    E = endomorphism_algebra(m)
    res = jacobson_radical(E)
    assert res.dim == 2 and res.certificate["dims"]["quotient"] == 1
    sp = KSpan(P)
    for M in res.basis:
        sp.add(M.flatten())
    ident = Mat.identity(P, P)
    assert sp.contains((g - ident).flatten())
    _report(11, "radical certificates exact on every pipeline algebra", t0, 5)
