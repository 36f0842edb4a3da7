import hashlib
import itertools
import random

import numpy as np
import pytest

import gquadforms.grpalg as grpalg
import gquadforms.linalg as linalg
from gquadforms.algebra import Algebra, InvolutionAlgebra, quotient_algebra
from gquadforms.errors import CertificateError, InputError
from gquadforms.funcfield import Poly, RatFunc
from gquadforms.grpalg import (
    EndAlgebra,
    GModule,
    GroupSpec,
    RadicalResult,
    check_module,
    decompose_components,
    endomorphism_algebra,
    hp_verdict,
    is_projective,
    jacobson_radical,
    quotient_with_involution,
)
from gquadforms.jsonio import dump_json
from gquadforms.hermitian import induced_involution
from gquadforms.linalg import KSpan, Mat, exact_dtype, int64_stack, matrix_units, modp_rref, span_products
from gquadforms.quadform import QuadForm

P = 3


def _conjugate(m, S):
    """The module m in a new basis: actions S^{-1} A S."""
    Sinv = S.inverse()
    return GModule(m.group, {g: Sinv * A * S for g, A in m.action.items()})


def _cyclic_regular(p):
    """Regular representation of C_p (cyclic shift)."""
    rows = [[1 if (i - 1) % p == j else 0 for j in range(p)] for i in range(p)]
    return Mat.from_int_rows(p, rows)


def _regular_module_cp3():
    """k[C_3^3] acting on itself: Kronecker shifts of dimension 27."""
    g = _cyclic_regular(P)
    ident = Mat.identity(P, P)
    grp = GroupSpec.cp_cubed(P)
    a1 = g.kron(ident).kron(ident)
    a2 = ident.kron(g).kron(ident)
    a3 = ident.kron(ident).kron(g)
    return GModule(grp, {"g1": a1, "g2": a2, "g3": a3})


# ---------------------------------------------------------------------
# module validation
# ---------------------------------------------------------------------


def test_check_module_trivial_valid():
    grp = GroupSpec(P, ["g"])
    m = GModule(grp, {"g": Mat.identity(P, 4)})
    assert check_module(m).valid


def test_check_module_order_violation():
    grp = GroupSpec(P, ["g"])
    # an order-2 generator with p = 3
    m = GModule(grp, {"g": Mat.from_int_rows(P, [[0, 1], [1, 0]])})
    rep = check_module(m)
    assert not rep.valid
    assert "g" in rep.problems[0]
    with pytest.raises(InputError):
        rep.raise_if_invalid()


def test_check_module_commutation_violation():
    grp = GroupSpec(P, ["a", "b"])
    # (I + E_01) and (I + E_12) have order 3 in char 3 but do not commute
    x = Mat.from_int_rows(P, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    y = Mat.from_int_rows(P, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    m = GModule(grp, {"a": x, "b": y})
    rep = check_module(m)
    assert not rep.valid
    assert any("commute" in prob for prob in rep.problems)


def _power_test_cases(p, rng):
    """(matrix, g^p = I?) on random unipotent and non-unipotent matrices,
    the reference verdict by `** p` on the Mat."""
    t = RatFunc.t(p)
    cases = []
    for n in (2, 3, 4, 5):
        while True:
            S = Mat.from_int_rows(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
            if not S.det().is_zero():
                break
        Sinv = S.inverse()
        # unipotent: strictly upper triangular part with polynomial entries
        # (of nilpotency index up to n, so past p at p = 3 when n > 3)
        N = Mat(p, [[RatFunc.from_int(p, rng.randrange(p)) + t * RatFunc.from_int(p, rng.randrange(p))
                     if j > i else RatFunc.zero(p) for j in range(n)] for i in range(n)])
        cases.append(Sinv * (Mat.identity(p, n) + N) * S)
        # non-unipotent: a constant matrix, and a unipotent one scaled by 2
        cases.append(Mat.from_int_rows(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)]))
        cases.append(Sinv * Mat.from_int_rows(p, [[2 * int(i == j) + int(j == i + 1) for j in range(n)]
                                                  for i in range(n)]) * S)
    return [(M, M ** p == Mat.identity(p, M.nrows)) for M in cases]


@pytest.mark.parametrize("p", [3, 5, 2**31 - 1])
def test_check_module_power_test_agrees_with_pth_power(p):
    # (g - I)^min(p, n) = 0 decides g^p = I on polynomial actions and, after
    # a base change S = I + E_{n-1,0}/t, on actions with denominators
    cases = _power_test_cases(p, random.Random(p))
    assert {want for _, want in cases} == {True, False}

    def verdicts(cases):
        return [check_module(GModule(GroupSpec(p, ["g"]), {"g": M})).valid for M, _ in cases]

    assert verdicts(cases) == [want for _, want in cases]

    inv_t = RatFunc(Poly.one(p), Poly.t(p))
    conjugated = []
    for M, want in cases:
        n = M.nrows
        N = Mat(p, [[inv_t if (i, j) == (n - 1, 0) else RatFunc.zero(p) for j in range(n)] for i in range(n)])
        ident = Mat.identity(p, n)
        conjugated.append(((ident - N) * M * (ident + N), want))  # S^-1 M S, as N^2 = 0
    assert any(not e.is_polynomial() for M, _ in conjugated for e in M.flatten())
    assert verdicts(conjugated) == [want for _, want in cases]


# ---------------------------------------------------------------------
# endomorphism algebras
# ---------------------------------------------------------------------


def test_trivial_module_full_matrix_algebra():
    grp = GroupSpec(P, ["g"])
    m = GModule(grp, {"g": Mat.identity(P, 3)})
    E = endomorphism_algebra(m)
    assert E.dim == 9


def test_group_algebra_self_endomorphisms():
    m = _regular_module_cp3()
    assert check_module(m).valid
    E = endomorphism_algebra(m)
    assert E.dim == 27  # commutative group algebra is its own endomorphism ring


@pytest.mark.parametrize("constant", [True, False])
def test_commutant_basis_is_reduced_once(monkeypatch, constant):
    """`intertwiners` returns an RREF basis in both domains, and
    `Algebra.from_matrices` builds E on it without reducing it a second time."""
    import gquadforms.algebra as algebra

    t = RatFunc.t(P)
    one, zero = RatFunc.one(P), RatFunc.zero(P)
    if constant:
        m = _regular_module_cp3()
    else:
        m = GModule(GroupSpec(P, ["g"]), {"g": Mat(P, [[one, t, zero], [zero, one, zero], [zero, zero, one]])})
    plain = []
    real_span, real_exact = algebra.span_products, linalg._span_products_exact

    def counted(p, xs, ys=None, basis=None):
        if ys is None and basis is None:
            plain.append(len(xs))
        return real_span(p, xs, ys, basis)

    def counted_exact(p, xs, ys, basis):  # the exact solver reduces its nullspace here
        if ys is None and basis is None:
            plain.append(len(xs))
        return real_exact(p, xs, ys, basis)

    monkeypatch.setattr(algebra, "span_products", counted)
    monkeypatch.setattr(linalg, "_span_products_exact", counted_exact)
    real_rref_mats = linalg.rref_mats

    def counted_rref(p, Z, n, m):  # the constant solver reduces its nullspace directly
        plain.append(len(Z))
        return real_rref_mats(p, Z, n, m)

    monkeypatch.setattr(linalg, "rref_mats", counted_rref)
    E = endomorphism_algebra(m)
    assert E.algebra().matrices == E.basis
    assert plain == [E.dim]  # the solver's own reduction, and no other
    assert span_products(P, E.basis) == E.basis


def test_generic_commutant_polynomial_entries():
    grp = GroupSpec(P, ["g"])
    t = RatFunc.t(P)
    one = RatFunc.one(P)
    zero = RatFunc.zero(P)
    # unipotent with polynomial entry
    A = Mat(P, [[one, t], [zero, one]])
    m = GModule(grp, {"g": A})
    E = endomorphism_algebra(m)
    assert E.dim == 2  # scalars + the nilpotent direction


# ---------------------------------------------------------------------
# radical: known answers and certificates
# ---------------------------------------------------------------------


def test_radical_full_matrix_algebra_is_zero():
    units = [
        Mat.from_int_rows(P, [[1 if (r, c) == (i, j) else 0 for c in range(3)] for r in range(3)])
        for i in range(3)
        for j in range(3)
    ]
    res = jacobson_radical(EndAlgebra(P, 3, units))
    assert res.dim == 0
    assert res.certificate["quotient_radical_dim"] == 0


def test_radical_scalars_in_M3():
    # the characteristic-p trap: trace form on scalars inside M_3 vanishes
    res = jacobson_radical(EndAlgebra(P, 3, [Mat.identity(P, 3)]))
    assert res.dim == 0


def test_radical_kc3_augmentation_ideal():
    grp = GroupSpec(P, ["g"])
    m = GModule(grp, {"g": _cyclic_regular(P)})
    E = endomorphism_algebra(m)
    res = jacobson_radical(E)
    assert res.dim == 2
    assert res.certificate["dims"]["quotient"] == 1
    # the radical is the augmentation-type ideal: g - 1 generates it
    g = _cyclic_regular(P)
    ident = Mat.identity(P, P)
    assert E.contains(g - ident)
    from gquadforms.linalg import KSpan

    sp = KSpan(P)
    for M in res.basis:
        sp.add(M.flatten())
    assert sp.contains((g - ident).flatten())
    assert sp.contains(((g - ident) * (g - ident)).flatten())


def test_radical_kc3cubed():
    m = _regular_module_cp3()
    E = endomorphism_algebra(m)
    res = jacobson_radical(E)
    assert res.dim == 26
    assert res.certificate["dims"]["quotient"] == 1


def test_radical_matches_brute_force_on_random_constant_algebras():
    rng = random.Random(12)

    def closure(gens, n):
        mats = [np.eye(n, dtype=np.int64)] + [g % P for g in gens]
        basis = _rref_basis(mats, n)
        while True:
            added = False
            for A in list(basis):
                for B in list(basis):
                    C = (A @ B) % P
                    new = _rref_basis(basis + [C], n)
                    if len(new) > len(basis):
                        basis = new
                        added = True
            if not added:
                return basis

    def _rref_basis(mats, n):
        flat = np.stack([M.reshape(-1) for M in mats])
        R, piv = modp_rref(flat, P)
        return [R[i].reshape(n, n) for i in range(len(piv))]

    def brute_radical_dim(basis, n):
        sols = []
        for coeffs in itertools.product(range(P), repeat=len(basis)):
            X = sum(int(c) * B for c, B in zip(coeffs, basis)) % P
            if all(not (np.linalg.matrix_power((X @ Y) % P, n) % P).any() for Y in basis):
                sols.append(np.array(coeffs, dtype=np.int64))
        if not sols:
            return 0
        _, piv = modp_rref(np.stack(sols), P)
        return len(piv)

    tested = 0
    for _ in range(12):
        n = rng.choice([2, 3])
        gens = [
            np.array([[rng.randrange(P) for _ in range(n)] for _ in range(n)], dtype=np.int64)
            for _ in range(rng.choice([1, 2]))
        ]
        basis = closure(gens, n)
        if len(basis) > 6:
            continue
        E = EndAlgebra(P, n, [Mat.from_int_rows(P, B.tolist()) for B in basis])
        assert jacobson_radical(E).dim == brute_radical_dim(basis, n)
        tested += 1
    assert tested >= 5


def test_certificate_rejects_non_ideal():
    from gquadforms.grpalg import certify_radical

    units = [
        Mat.from_int_rows(P, [[1 if (r, c) == (i, j) else 0 for c in range(2)] for r in range(2)])
        for i in range(2)
        for j in range(2)
    ]
    E = EndAlgebra(P, 2, units)
    bad = [units[1]]  # e_12 alone is not an ideal of M_2
    with pytest.raises(CertificateError):
        certify_radical(E, bad)


# ---------------------------------------------------------------------
# components
# ---------------------------------------------------------------------


def test_decompose_k_times_k_swap_is_unitary():
    e11 = Mat.from_int_rows(P, [[1, 0], [0, 0]])
    e22 = Mat.from_int_rows(P, [[0, 0], [0, 1]])
    from gquadforms.algebra import Algebra

    alg = Algebra.from_matrices(P, [e11, e22])
    # swap involution
    cols = [alg.coords_of(e22), alg.coords_of(e11)]
    # careful: basis order is the RREF basis; build images accordingly
    imgs = []
    for M in alg.matrices:
        swapped = Mat.from_int_rows(
            P, [[int(str(M.rows[1][1])), 0], [0, int(str(M.rows[0][0]))]]
        )
        imgs.append(alg.coords_of(swapped))
    inv_mat = Mat(P, [[imgs[j][i] for j in range(2)] for i in range(2)])
    ia = InvolutionAlgebra(alg, inv_mat)
    report = decompose_components(ia)
    comps = list(report)
    assert len(comps) == 1
    assert comps[0]["kind"] == "unitary"
    assert comps[0]["involution"] == "swapped-with-partner"


def test_decompose_single_split_component():
    units = [
        Mat.from_int_rows(P, [[1 if (r, c) == (i, j) else 0 for c in range(2)] for r in range(2)])
        for i in range(2)
        for j in range(2)
    ]
    from gquadforms.algebra import Algebra

    alg = Algebra.from_matrices(P, units)
    cols = [alg.coords_of(alg.matrix_of(alg.basis_coords(m)).T) for m in range(4)]
    ia = InvolutionAlgebra(alg, Mat(P, [[cols[j][i] for j in range(4)] for i in range(4)]))
    comps = list(decompose_components(ia))
    assert len(comps) == 1
    assert comps[0]["kind"] == "orthogonal"
    assert comps[0]["splitness"] == "split"


def _unit(n, i, j):
    return Mat.from_int_rows(P, [[int((r, c) == (i, j)) for c in range(n)] for r in range(n)])


def _transpose_algebra_on_basis(basis):
    """(M_n(k) on exactly this basis, not reduced to RREF, with the
    transpose involution): coordinates through the inverse of the basis'
    flattening."""
    to_coords = Mat(P, [M.flatten() for M in basis]).T.inverse()

    def coords(M):
        return to_coords.apply(M.flatten())

    alg = Algebra(P, [[coords(a * b) for b in basis] for a in basis], coords(Mat.identity(P, basis[0].nrows)))
    return InvolutionAlgebra(alg, Mat(P, [coords(M.T) for M in basis]).T)


def test_torus_and_clifford_pair_agree(tensor_bundle, h1, h2):
    # M_4(k), transpose: a split orthogonal component.  The first basis
    # element diag(0, 1, t, t + 1) has four distinct roots in k, so the
    # torus certifies it; the Clifford pair finds Q1 = Q2.
    t = RatFunc.t(P)
    D = _unit(4, 1, 1) + _unit(4, 2, 2) * t + _unit(4, 3, 3) * (t + RatFunc.one(P))
    offdiag = [_unit(4, i, j) for i in range(4) for j in range(4) if i != j]
    ia = _transpose_algebra_on_basis([D] + [_unit(4, i, i) for i in range(3)] + offdiag)
    assert ia.kind() == "orthogonal"
    assert grpalg._try_split_torus(ia.algebra)
    assert grpalg._pair_ramification(ia) == []
    assert grpalg._component_splitness(ia.algebra, ia, "orthogonal") == ("split", [])
    # the pinned tensor quotient M_2(Q), Q a division algebra: no split
    # torus exists, and the pair gives [Q] with Ram(Q) = Ram(H1) + Ram(H2)
    tq = tensor_bundle.quotient_involution
    ram_q = sorted(set(h1.ramification_set()) | set(h2.ramification_set()), key=lambda v: v.sort_key())
    assert not grpalg._try_split_torus(tq.algebra)
    assert grpalg._pair_ramification(tq) == ram_q
    assert grpalg._component_splitness(tq.algebra, tq, "orthogonal") == (
        "nonsplit-quaternion",
        [str(v) for v in ram_q],
    )


def test_tensor_quotient_is_its_own_component(monkeypatch, bundle1, bundle2):
    from gquadforms.construct import tensor_pair

    calls = {"center": 0, "torus": 0, "algebra_from_span": 0}
    center = Algebra.center

    def counted_center(self):
        calls["center"] += getattr(self, "_center", None) is None  # a computation, not a lookup
        return center(self)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(Algebra, "center", counted_center)
    monkeypatch.setattr(grpalg, "_try_split_torus", counted("torus", grpalg._try_split_torus))
    monkeypatch.setattr(grpalg, "algebra_from_span", counted("algebra_from_span", grpalg.algebra_from_span))
    tb = tensor_pair(bundle1, bundle2)
    out = grpalg.verdict_from_components(decompose_components(tb.quotient_involution))
    assert calls == {"center": 1, "torus": 0, "algebra_from_span": 0}
    assert out["path"] == "orthogonal-components-split"
    assert out["evidence"]["blocking_component"]["splitness"] == "nonsplit-quaternion"


def test_stable_components_with_a_form(monkeypatch):
    # M_2(k) x M_2(k) block-diagonal with X -> S^-1 X^T S, S = diag(I, J):
    # the transpose on the first block, the symplectic involution on the
    # second.  Both components are stable, so each is rebuilt as e*A*e with
    # the involution restricted to it.
    blocks = [_unit(4, i, j) for b in (0, 2) for i in (b, b + 1) for j in (b, b + 1)]
    alg = Algebra.from_matrices(P, blocks)
    S = Mat.from_int_rows(P, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    Sinv = S.inverse()
    ia = InvolutionAlgebra(alg, Mat(P, [alg.coords_of(Sinv * M.T * S) for M in alg.matrices]).T)
    rebuilt = []
    subalgebra = grpalg._component_subalgebra
    monkeypatch.setattr(grpalg, "_component_subalgebra", lambda a, e: rebuilt.append(e) or subalgebra(a, e))
    report = decompose_components(ia)
    assert len(rebuilt) == 2
    keys = ["dim", "center_dim", "involution", "kind", "splitness", "ramification"]
    assert [list(c) for c in report] == [keys, keys]
    # in the order of the central idempotents
    assert list(report) == [
        {"dim": 4, "center_dim": 1, "involution": "stable", "kind": kind, "splitness": "split", "ramification": []}
        for kind in ("symplectic", "orthogonal")
    ]
    out = grpalg.verdict_from_components(report)
    assert (out["verdict"], out["path"]) == ("guaranteed", "orthogonal-components-split")
    assert out["evidence"]["reason"] == "all orthogonal components split"
    plain = grpalg.verdict_from_components(grpalg.decompose_components_plain(alg))
    assert (plain["verdict"], plain["path"]) == ("guaranteed", "all-components-split")
    assert [(c["involution"], c["kind"]) for c in plain["evidence"]["components"]] == [(None, None)] * 2


def test_component_splitness_lets_unexpected_errors_through(monkeypatch):
    from gquadforms.algebra import Algebra
    from gquadforms.grpalg import decompose_components_plain
    from gquadforms.linalg import matrix_units

    def broken(alg):
        raise TypeError("bug inside quaternion extraction")

    monkeypatch.setattr(grpalg, "quaternion_from_algebra", broken)
    alg = Algebra.from_matrices(P, matrix_units(P, 2))
    with pytest.raises(TypeError):
        decompose_components_plain(alg)


def test_library_has_no_broad_exception_handlers():
    import ast
    import pathlib

    import gquadforms

    broad = []
    for path in sorted(pathlib.Path(gquadforms.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(
                t is None or (isinstance(t, ast.Name) and t.id in ("Exception", "BaseException"))
                for t in types
            ):
                broad.append(f"{path.name}:{node.lineno}")
    assert broad == []


def test_library_builds_no_one_column_matrices():
    # a matrix-vector product is Mat.apply; Mat([[x] for x in v]) fakes one
    import ast
    import pathlib

    import gquadforms

    columns = []
    for path in sorted(pathlib.Path(gquadforms.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Mat"):
                continue
            if any(
                isinstance(arg, ast.ListComp) and isinstance(arg.elt, ast.List) and len(arg.elt.elts) == 1
                for arg in node.args
            ):
                columns.append(f"{path.name}:{node.lineno}")
    assert columns == []


# ---------------------------------------------------------------------
# projectivity and verdicts
# ---------------------------------------------------------------------


def test_projective_spec_examples(bundle1):
    assert is_projective(_regular_module_cp3())  # k[G] itself
    assert not is_projective(bundle1.module)  # dim 8 vs |G| = 27
    grp = GroupSpec.cp_cubed(P)
    ident = Mat.identity(P, 1)
    trivial = GModule(grp, {g: ident for g in grp.generators})
    assert not is_projective(trivial)  # free cover kernel nonzero


def test_hp_verdict_trivial_module_with_unit_form():
    grp = GroupSpec.cp_cubed(P)
    ident = Mat.identity(P, 1)
    m = GModule(grp, {g: ident for g in grp.generators})
    q = QuadForm(Mat.identity(P, 1))
    out = hp_verdict(m, q)
    assert out["verdict"] == "guaranteed"
    comps = out["evidence"]["components"]
    assert comps[0]["kind"] == "orthogonal" and comps[0]["splitness"] == "split"


def test_hp_verdict_free_module_path():
    out = hp_verdict(_regular_module_cp3())
    assert out["verdict"] == "guaranteed"
    assert out["path"] == "projective-module"


def test_hp_verdict_trivial_group_path():
    grp = GroupSpec(P, [])
    m = GModule(grp, {}, dim=3)
    out = hp_verdict(m)
    assert out["verdict"] == "guaranteed"
    assert out["path"] == "order-prime-to-p"


def test_hp_verdict_NH_with_form_guaranteed(bundle1):
    out = hp_verdict(bundle1.module, bundle1.form)
    assert out["verdict"] == "guaranteed"
    comps = out["evidence"]["components"]
    assert len(comps) == 1
    assert comps[0]["kind"] == "symplectic"


def test_hp_verdict_invariant_under_base_change(bundle1):
    rng = random.Random(8)
    m = bundle1.module
    n = m.dim
    while True:
        Pm = Mat(P, [[RatFunc.from_int(P, rng.randrange(P)) for _ in range(n)] for _ in range(n)])
        try:
            Pm.inverse()
            break
        except ValueError:
            continue
    conj = _conjugate(m, Pm)
    q2 = QuadForm(Pm.T * bundle1.form.gram * Pm)
    out = hp_verdict(conj, q2)
    assert out["verdict"] == "guaranteed"
    comps = out["evidence"]["components"]
    assert comps[0]["kind"] == "symplectic"


def test_non_polynomial_action_takes_the_mat_route(bundle1):
    # a base change with a 1/t entry puts denominators into the action and
    # the Gram: induced_involution clears those of each action and of the
    # Gram, and check_module those of the displacements g - I
    m, form = bundle1.module, bundle1.form
    inv_t = RatFunc(Poly.one(P), Poly.t(P))
    S = Mat.identity(P, 8) + Mat(P, [[inv_t if (i, j) == (4, 0) else RatFunc.zero(P) for j in range(8)]
                                     for i in range(8)])
    conj = _conjugate(m, S)
    with pytest.raises(ValueError, match="polynomial entries"):
        conj.poly_action()
    assert check_module(conj).valid and check_module(m).valid
    assert hp_verdict(conj) == hp_verdict(m)
    with_form = hp_verdict(conj, QuadForm(S.T * form.gram * S))
    assert with_form == hp_verdict(m, form)
    assert with_form["verdict"] == "guaranteed"
    assert (with_form["evidence"]["dim_end"], with_form["evidence"]["dim_radical"]) == (20, 16)


def test_induced_involution_clears_denominators(monkeypatch, bundle1):
    # the 1/t-conjugated module: invariance is decided on denominator-cleared
    # PolyMats, with no Mat x Mat product, and agrees with M^T A M = A in Mat
    m, form = bundle1.module, bundle1.form
    zero, inv_t = RatFunc.zero(P), RatFunc(Poly.one(P), Poly.t(P))
    S = Mat.identity(P, 8) + Mat(P, [[inv_t if (i, j) == (4, 0) else zero for j in range(8)] for i in range(8)])
    conj = _conjugate(m, S)
    gram = S.T * form.gram * S
    perturbed = gram + Mat(P, [[RatFunc.t(P) if (i, j) == (0, 0) else zero for j in range(8)] for i in range(8)])
    assert any(not e.is_polynomial() for M in [gram, *conj.action.values()] for e in M.flatten())
    bad = next(g for g, M in conj.action.items() if M.T * perturbed * M != perturbed)
    good_form, bad_form = QuadForm(gram), QuadForm(perturbed)
    products = []
    real_mul = Mat.__mul__

    def mul(self, other):
        if isinstance(other, Mat):
            products.append((self.nrows, other.ncols))
        return real_mul(self, other)

    monkeypatch.setattr(Mat, "__mul__", mul)
    with pytest.raises(InputError, match=f"^form is not G-invariant at generator {bad}$"):
        induced_involution(conj, bad_form)
    gamma = induced_involution(conj, good_form)
    assert products == []
    monkeypatch.undo()
    assert gamma.gram == gram
    assert all(M.T * gram * M == gram for M in conj.action.values())


def _random_constant_algebras(seed=12, trials=12):
    """(n, basis) of the algebras generated by random constant matrices over
    F_P, the generator of the brute-force radical test without its size cap."""
    rng = random.Random(seed)

    def rref_basis(mats, n):
        R, piv = modp_rref(np.stack([M.reshape(-1) for M in mats]), P)
        return [R[i].reshape(n, n) for i in range(len(piv))]

    for _ in range(trials):
        n = rng.choice([2, 3])
        gens = [
            np.array([[rng.randrange(P) for _ in range(n)] for _ in range(n)], dtype=np.int64)
            for _ in range(rng.choice([1, 2]))
        ]
        basis = rref_basis([np.eye(n, dtype=np.int64)] + gens, n)
        while True:
            grown = rref_basis(basis + [(A @ B) % P for A in basis for B in basis], n)
            if len(grown) == len(basis):
                break
            basis = grown
        yield n, [Mat.from_int_rows(P, B.tolist()) for B in basis]


def _t_conjugator(p, n, seed):
    """S = (I + t E_(n-1,0)) (I + 1/t E_(0,k)) (I - E_(k,0)) with a seeded
    column k > 0: invertible (det 1) and not F_p-constant."""
    k = random.Random(seed).randrange(1, n)
    t = RatFunc.t(p)
    factors = [((n - 1, 0), t), ((0, k), t.inverse()), ((k, 0), -RatFunc.one(p))]
    S = Mat.identity(p, n)
    for (i, j), c in factors:
        S = S * (Mat.identity(p, n) + Mat(p, [[c if (r, s) == (i, j) else RatFunc.zero(p) for s in range(n)] for r in range(n)]))
    return S


def test_radical_chain_commutes_with_conjugation():
    cases = list(_random_constant_algebras())
    # carrier multiplicity P: the trace form vanishes, the q = P level decides
    cases += [(n * P, [M.kron(Mat.identity(P, P)) for M in mats]) for n, mats in cases]
    rads = []
    for k, (n, mats) in enumerate(cases):
        S = _t_conjugator(P, n, seed=k)
        Sinv = S.inverse()
        conj = [Sinv * M * S for M in mats]
        # only the scalars commute with S
        assert len(mats) == 1 or any(not e.is_polynomial() for M in conj for e in M.flatten())
        rad = grpalg._radical_chain(P, n, mats)
        rad_conj = grpalg._radical_chain(P, n, conj)
        assert span_products(P, [Sinv * R * S for R in rad]) == rad_conj, k
        grpalg.certify_radical(EndAlgebra(P, n, mats), rad)
        grpalg.certify_radical(EndAlgebra(P, n, conj), rad_conj)
        rads.append(rad)
    assert any(rads) and not all(rads)


def _counting(calls, real):
    def wrapped(*args):
        calls.append(args)
        return real(*args)

    return wrapped


@pytest.mark.parametrize("which", ["E_N", "box module"])
def test_cut_values_run_once_per_chain_level(monkeypatch, bundle1, which):
    E = bundle1.end_algebra if which == "E_N" else endomorphism_algebra(_box_module(P, _BOXES[0], seed=0))
    cuts, solves = [], []
    monkeypatch.setattr(grpalg, "_cut_values", _counting(cuts, grpalg._cut_values))
    monkeypatch.setattr(grpalg, "_semilinear_nullspace", _counting(solves, grpalg._semilinear_nullspace))
    rad = grpalg._radical_chain(P, E.n, E.basis)
    # levels q = 1, 3 on the 8 x 8 carrier, each one J x J batch and one solve
    assert [q for _, _, q, _ in cuts] == [q for _, _, q in solves] == [1, 3]
    assert len(cuts[0][3]) == E.dim
    del cuts[:], solves[:]
    assert jacobson_radical(E).basis == rad
    assert [q for _, _, q, _ in cuts] == [q for _, _, q in solves]


def test_radical_chain_makes_no_mat_product_or_charpoly(monkeypatch, bundle1, tensor_bundle):
    # every product and charpoly of the chain runs in `linalg.charpoly_coeffs`
    box = endomorphism_algebra(_box_module(P, _BOXES[0], seed=0))
    box_rad = jacobson_radical(box)
    chains = [(bundle1.end_algebra, bundle1.radical), (box, box_rad)]
    quotients = [bundle1.radical.quotient.algebra, box_rad.quotient.algebra, tensor_bundle.quotient_involution.algebra]
    assert (quotients[0].dim, quotients[2].dim) == (4, 16)
    for alg in quotients:
        alg.regular_representation()  # built once and kept
    products, charpolys = [], []
    real_mul, real_charpoly = Mat.__mul__, Mat.charpoly

    def mul(self, other):
        if isinstance(other, Mat):
            products.append((self.nrows, other.ncols))
        return real_mul(self, other)

    def charpoly(self):
        charpolys.append(self.nrows)
        return real_charpoly(self)

    monkeypatch.setattr(Mat, "__mul__", mul)
    monkeypatch.setattr(Mat, "charpoly", charpoly)
    for E, rad in chains:
        assert grpalg._radical_chain(P, E.n, E.basis) == rad.basis
    for alg in quotients:
        grpalg.require_semisimple(alg, "not semisimple")
    assert (products, charpolys) == ([], [])


def test_radical_chain_raises_nothing():
    # certify_radical is the chain's one proof; the chain itself checks nothing
    import ast
    import inspect

    tree = ast.parse(inspect.getsource(grpalg._radical_chain))
    assert not any(isinstance(node, ast.Raise) for node in ast.walk(tree))


def _inject_non_solution(monkeypatch):
    """Make `_semilinear_nullspace` also return a unit vector outside its
    solution space (a row of the Gram that is nonzero); returns the list
    of injected indices."""
    injected = []
    real = grpalg._semilinear_nullspace

    def wrong(p, gram, q):
        sols = real(p, gram, q)
        k = next((k for k, row in enumerate(gram) if any(not v.is_zero() for v in row)), None)
        if k is not None:
            injected.append(k)
            sols = sols + [[RatFunc.from_int(p, int(i == k)) for i in range(len(gram))]]
        return sols

    monkeypatch.setattr(grpalg, "_semilinear_nullspace", wrong)
    return injected


def test_a_non_solution_in_the_chain_fails_closed(monkeypatch, bundle1):
    E, quaternion = bundle1.end_algebra, bundle1.radical.quotient.algebra
    injected = _inject_non_solution(monkeypatch)
    with pytest.raises(CertificateError, match="^radical candidate is not"):
        jacobson_radical(E)
    assert injected
    del injected[:]
    with pytest.raises(CertificateError, match="^quaternion quotient$"):
        grpalg.require_semisimple(quaternion, "quaternion quotient")
    assert injected


def _unipotent_module(p, seed=5):
    """g = S^-1 (I + E_12) S on k^3 with S a seeded dense invertible matrix."""
    rng = random.Random(seed)
    while True:
        S = Mat.from_int_rows(p, [[rng.randrange(p) for _ in range(3)] for _ in range(3)])
        if not S.det().is_zero():
            break
    J = Mat.from_int_rows(p, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    return GModule(GroupSpec(p, ["g"]), {"g": S.inverse() * J * S})


@pytest.mark.parametrize("p", [3, 2**31 - 1, 2**61 - 1])
def test_commutant_and_radical_exact_at_any_prime(monkeypatch, p):
    m = _unipotent_module(p)
    E = endomorphism_algebra(m)
    commutant = list(E.basis)
    rad = jacobson_radical(E)
    assert (E.dim, rad.dim) == (5, 3)
    assert hp_verdict(m)["verdict"] == "guaranteed"
    monkeypatch.setattr(grpalg, "int64_stack", lambda p, mats: None)
    monkeypatch.setattr(linalg, "int64_stack", lambda p, mats: None)
    assert commutant == linalg.intertwiners(p, 3, [(m.action["g"], m.action["g"])])
    assert rad.basis == grpalg._radical_chain(p, 3, commutant)


def test_int64_range_is_enforced():
    # constancy alone decides the stack; exact_dtype decides each sum's width
    p = 2**31 - 1
    one = Mat.from_int_rows(p, [[p - 1]])
    three = Mat.from_int_rows(p, [[p - 1] * 3] * 3)
    assert int64_stack(p, [one]).tolist() == [[[p - 1]]]
    assert int64_stack(p, [three]).tolist() == [[[p - 1] * 3] * 3]
    assert exact_dtype(p, 3) is object  # 4 (p-1)^2 >= 2^63: its products sum in Python integers
    assert int64_stack(P, [Mat(P, [[RatFunc.t(P)]])]) is None
    R, piv = modp_rref(np.array([[p - 1, 1]]), p)  # 2 (p-1)^2 < 2^63: exact in int64
    assert R.dtype == np.int64 and R.tolist() == [[1, p - 1]] and piv == [0]
    # 2 (p-1)^2 >= 2^63: exact in Python integers, where int64 would wrap
    huge = 2**61 - 1
    rows = [[huge - 1, 1, 5], [3, huge - 2, 2**60]]
    R, piv = modp_rref(np.array(rows), huge)
    exact, exact_piv = Mat.from_int_rows(huge, rows).rref()
    assert R.dtype == object and piv == list(exact_piv) == [0, 1]
    assert [[RatFunc.from_int(huge, x) for x in row] for row in R.tolist()] == [list(r) for r in exact.rows]


def test_poly_roots_in_k_at_small_and_large_primes():
    for p in (3, 7, 2**61 - 1):
        t = RatFunc.t(p)
        roots = [RatFunc.zero(p), t, RatFunc(Poly(p, [1, 0, 2]), Poly(p, [5, 1])), RatFunc.from_int(p, -2)]
        # (T^2 - t) has no root in k, so the roots are exactly `roots`
        coeffs = [-t, RatFunc.zero(p), RatFunc.one(p)]
        for r in roots:
            coeffs = [a - r * b for a, b in zip([RatFunc.zero(p)] + coeffs, coeffs + [RatFunc.zero(p)])]
        assert grpalg._poly_roots_in_k(p, coeffs) == [roots[0]] + sorted(roots[1:], key=lambda r: r.sort_key())


# ---------------------------------------------------------------------
# span_products: int64 and exact domains agree
# ---------------------------------------------------------------------


def _exact_domain(monkeypatch):
    """Send every int64 mod-p path (span_products and the constant
    commutant) to exact arithmetic."""
    never = lambda p, mats: None  # noqa: E731
    monkeypatch.setattr(linalg, "int64_stack", never)
    monkeypatch.setattr(grpalg, "int64_stack", never)


def _box_module(p, boxes, seed):
    """Direct sum of the boxes k[x_1..x_r]/(x_k^a_k), generator k acting as
    1 + x_k, conjugated by a seeded dense invertible matrix."""
    blocks = {k: [] for k in range(len(boxes[0]))}
    for box in boxes:
        monos = list(itertools.product(*[range(a) for a in box]))
        for k in blocks:
            act = np.eye(len(monos), dtype=np.int64)
            for i, mono in enumerate(monos):
                up = mono[:k] + (mono[k] + 1,) + mono[k + 1 :]
                if up[k] < box[k]:
                    act[monos.index(up), i] = 1
            blocks[k].append(act)
    n = sum(B.shape[0] for B in blocks[0])
    action = {}
    for k, blks in blocks.items():
        A = np.zeros((n, n), dtype=np.int64)
        at = 0
        for B in blks:
            A[at : at + len(B), at : at + len(B)] = B
            at += len(B)
        action[f"g{k + 1}"] = Mat.from_int_rows(p, A.tolist())
    m = GModule(GroupSpec(p, list(action)), action)
    rng = random.Random(seed)
    while True:
        S = Mat.from_int_rows(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        if not S.det().is_zero():
            return _conjugate(m, S)


def _regular_module_c3squared():
    g = _cyclic_regular(P)
    ident = Mat.identity(P, P)
    return GModule(GroupSpec(P, ["g1", "g2"]), {"g1": g.kron(ident), "g2": ident.kron(g)})


# the three hp-check benchmark box decompositions (two over C_3^2, one over C_3^3)
_BOXES = [
    ((2, 1), (2, 1), (1, 2), (1, 2)),
    ((1, 1, 2), (1, 1, 2), (1, 2, 2)),
    ((2, 2, 2),),
]

# sha256 of dump_json(hp_verdict(...)) on the three box modules (the first two
# have multi-component quotients and take the plain path), then on bundle1's
# module without its form and with it (the involution path)
_HP_VERDICT_SHA256 = [
    "8ca57643a5a6426434bc1d532d59d037be6f68e2311c6fa2ee21200c8a4d586e",
    "6cea8999dbe1716d3ec8a0cebd9f826bf0b719ff5f7c4547c2d08942cafc21b6",
    "3d587e7481198d6fe91ba5e48567989ad66e7a9c7c69f1c3090005775a8e6325",
    "d291fe0120641422d8fd8f36085b36dc94b15391306f6ab72686d477a5698979",
    "7db8763e20794b727a64b0ca5188582147cc813a4aa774d0adf7f8ae3b4c4b8d",
]


def test_hp_verdict_bytes_pinned(bundle1):
    outs = [hp_verdict(_box_module(P, boxes, seed=i)) for i, boxes in enumerate(_BOXES)]
    outs += [hp_verdict(bundle1.module), hp_verdict(bundle1.module, bundle1.form)]
    shas = [hashlib.sha256(dump_json(out).encode()).hexdigest() for out in outs]
    assert shas == _HP_VERDICT_SHA256


def _span_cases():
    """(name, n, closed constant algebra basis containing I)."""
    cases = [(f"random{i}", n, mats) for i, (n, mats) in enumerate(_random_constant_algebras())]
    cases += [
        (f"{name}(x)I_3", n * P, [M.kron(Mat.identity(P, P)) for M in mats])
        for name, n, mats in list(cases)
    ]
    for i, boxes in enumerate(_BOXES):
        m = _box_module(P, boxes, seed=i)
        cases.append((f"boxes{i}", m.dim, endomorphism_algebra(m).basis))
    cases.append(("C_3^2", 9, endomorphism_algebra(_regular_module_c3squared()).basis))
    return cases


def _span_outputs(p, n, mats, rad, certify=True):
    E = EndAlgebra(p, n, mats)
    E.verify_closure()
    out = {"rref": span_products(p, mats), "rad_rref": span_products(p, rad)}
    if certify:
        out["certificate"] = grpalg.certify_radical(E, rad).certificate
    alg = E.algebra()  # built by the certificate when there is one
    out.update(table=alg.mult_table, unit=alg.unit, basis=alg.matrices)
    return out


def test_span_products_int64_and_exact_domains_agree(monkeypatch):
    cases = _span_cases()
    assert all(int64_stack(P, mats) is not None for _, _, mats in cases)
    rads = [grpalg._radical_chain(P, n, mats) for _, n, mats in cases]
    fast = [_span_outputs(P, n, mats, rad) for (_, n, mats), rad in zip(cases, rads)]
    _exact_domain(monkeypatch)
    exact = [_span_outputs(P, n, mats, rad) for (_, n, mats), rad in zip(cases, rads)]
    for (name, _, _), f, e in zip(cases, fast, exact):
        assert f == e, name
    assert {c["certificate"]["dims"]["radical"] for c in fast} > {0}


def test_span_products_domains_agree_on_kc3cubed(monkeypatch):
    # the exact certificate takes about 30 s here, so the certificate runs in
    # the int64 domain only; the RREF bases, structure constants, unit and
    # closure are compared across domains
    E = endomorphism_algebra(_regular_module_cp3())
    rad = grpalg._radical_chain(P, 27, E.basis)
    fast = _span_outputs(P, 27, E.basis, rad)
    assert fast.pop("certificate")["nilpotency_index"] == 7
    _exact_domain(monkeypatch)
    assert _span_outputs(P, 27, E.basis, rad, certify=False) == fast


# ---------------------------------------------------------------------
# the certified quotient E/R
# ---------------------------------------------------------------------


def _assert_certified_quotient_is_fresh(E, rad):
    alg = E.algebra()
    quot = rad.quotient
    fresh = quotient_algebra(alg, span_products(P, rad.basis, basis=alg.matrices))
    assert quot.parent is alg
    assert quot.algebra.mult_table == fresh.algebra.mult_table
    assert quot.algebra.unit == fresh.algebra.unit
    assert quot.ideal_span.basis_rows() == fresh.ideal_span.basis_rows()
    basis = [quot.algebra.basis_coords(a) for a in range(quot.algebra.dim)]
    assert [quot.lift(x) for x in basis] == [fresh.lift(x) for x in basis]
    # the lifts are the first E basis matrices outside the radical
    outside = KSpan(P)
    for M in rad.basis:
        outside.add(M.flatten())
    assert quot.lift_matrices() == [M for M in E.basis if outside.add(M.flatten())]


def test_certified_quotient_matches_a_fresh_quotient(bundle1, bundle2):
    for b in (bundle1, bundle2):
        assert b.quotient_involution.algebra is b.radical.quotient.algebra
        _assert_certified_quotient_is_fresh(b.end_algebra, b.radical)
    for i, boxes in enumerate(_BOXES):
        E = endomorphism_algebra(_box_module(P, boxes, seed=i))
        _assert_certified_quotient_is_fresh(E, jacobson_radical(E))


def test_quotient_built_once_per_bundle_and_per_verdict(monkeypatch, h1, bundle1):
    import gquadforms.algebra
    from gquadforms.construct import bundle

    calls = []

    def counting(E, ideal_vectors):
        calls.append(E.dim)
        return quotient_algebra(E, ideal_vectors)

    # patched where it is defined too, so a function-level import is counted
    for module in (gquadforms.algebra, grpalg):
        monkeypatch.setattr(module, "quotient_algebra", counting)
    bundle(h1, prefix="g")
    assert calls == [20]
    for args in ((_box_module(P, _BOXES[0], seed=0),), (bundle1.module, bundle1.form)):
        calls.clear()
        hp_verdict(*args)
        assert len(calls) == 1


def _upper_triangular_radical():
    e11, e12, _, e22 = matrix_units(P, 2)
    return jacobson_radical(EndAlgebra(P, 2, [e11, e12, e22]))


def test_quotient_with_involution_rejects_an_involution_moving_the_radical():
    rad = _upper_triangular_radical()
    assert rad.dim == 1
    with pytest.raises(InputError, match="involution does not preserve the radical"):
        quotient_with_involution(rad, lambda M: M.T)


def test_quotient_with_involution_needs_a_certified_quotient():
    # a tensor_radical result carries no quotient
    rad = _upper_triangular_radical()
    with pytest.raises(ValueError, match="radical carries no certified quotient"):
        quotient_with_involution(RadicalResult(rad.basis, rad.certificate), lambda M: M)


def _library_callers(name):
    """The "file:function" of each call of `name` (as a name or an
    attribute) in the gquadforms package, nested functions joined by ":"."""
    import ast
    import pathlib

    import gquadforms

    class Callers(ast.NodeVisitor):
        def __init__(self, name):
            self.scope, self.found = [name], []

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Call(self, node):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                self.found.append(":".join(self.scope))
            self.generic_visit(node)

    callers = []
    for path in sorted(pathlib.Path(gquadforms.__file__).parent.glob("*.py")):
        visitor = Callers(path.name)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        callers += visitor.found
    return callers


def test_certify_radical_is_the_only_caller_of_quotient_algebra():
    # E/R is built where it is certified; every stage reads radical.quotient
    assert _library_callers("quotient_algebra") == ["grpalg.py:certify_radical"]


def test_module_and_generator_inverse_checks_run_once():
    # a module is checked where public input enters, and gamma(g) = g^-1
    # follows from the G-invariance check in `induced_involution`; only
    # verify-paper recomputes either claim on a built bundle
    assert set(_library_callers("check_module")) == {
        "grpalg.py:endomorphism_algebra",
        "grpalg.py:is_projective",
        "grpalg.py:hp_verdict",
        "verifypaper.py:run_paper_identities",
    }
    assert set(_library_callers("verify_generator_inverses")) == {"verifypaper.py:run_paper_identities"}


def test_only_verify_paper_builds_rho_as_an_involution_algebra():
    # solve_alpha proves rho is the adjoint of a nondegenerate skew form,
    # hence symplectic with dim Sym = 6; only verify-paper recomputes both
    assert _library_callers("rho_involution") == ["verifypaper.py:run_paper_identities"]


def _kc3():
    return endomorphism_algebra(GModule(GroupSpec(P, ["g"]), {"g": _cyclic_regular(P)}))


def _bad_dependent():
    E = _kc3()
    rad = grpalg._radical_chain(P, P, E.basis)
    grpalg.certify_radical(E, rad + [rad[0] + rad[1]])


def _bad_non_ideal():
    grpalg.certify_radical(EndAlgebra(P, 2, matrix_units(P, 2)), [matrix_units(P, 2)[1]])


def _bad_non_nilpotent():
    E = _kc3()
    grpalg.certify_radical(E, grpalg._radical_chain(P, P, E.basis) + [Mat.identity(P, P)])


def _bad_missing_identity_end():
    EndAlgebra(P, 2, matrix_units(P, 2)[:2]).verify_closure()


def _bad_missing_identity_alg():
    Algebra.from_matrices(P, matrix_units(P, 2)[:2])


def _bad_not_closed_end():
    _, e12, e21, _ = matrix_units(P, 2)
    EndAlgebra(P, 2, [Mat.identity(P, 2), e12, e21]).verify_closure()


def _bad_not_closed_alg():
    _, e12, e21, _ = matrix_units(P, 2)
    Algebra.from_matrices(P, [Mat.identity(P, 2), e12, e21])


_BAD_INPUTS = [
    (_bad_dependent, CertificateError,
     "radical basis is not independent: element 2 lies in the span of the elements before it"),
    (_bad_non_ideal, CertificateError,
     "radical candidate is not a two-sided ideal: E basis 2 times radical basis 0 lies outside it"),
    (_bad_non_nilpotent, CertificateError,
     "radical candidate is not nilpotent: power 4 is nonzero, past dim E = 3"),
    (_bad_missing_identity_end, CertificateError, "endomorphism algebra does not contain the identity matrix"),
    (_bad_missing_identity_alg, ValueError, "algebra does not contain the identity matrix"),
    (_bad_not_closed_end, CertificateError, "endomorphism span not multiplicatively closed at basis pair (1, 2)"),
    (_bad_not_closed_alg, ValueError, "span not multiplicatively closed at basis pair (1, 2)"),
]


@pytest.mark.parametrize("domain", ["int64", "exact"])
@pytest.mark.parametrize("bad, error, message", _BAD_INPUTS, ids=[b.__name__ for b, _, _ in _BAD_INPUTS])
def test_certificate_failures_name_check_and_input(monkeypatch, domain, bad, error, message):
    if domain == "exact":
        _exact_domain(monkeypatch)
    with pytest.raises(error) as info:
        bad()
    assert type(info.value) is error
    assert str(info.value) == message


def _conjugated(p, mats, seed=3):
    rng = random.Random(seed)
    n = mats[0].nrows
    while True:
        S = Mat.from_int_rows(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        if not S.det().is_zero():
            Sinv = S.inverse()
            return [Sinv * M * S for M in mats]


def test_span_products_exact_beyond_int64_coordinate_range(monkeypatch):
    p = 2**31 - 1
    units = matrix_units(p, 2)
    algebras = {
        "M_2": _conjugated(p, units),
        "upper-triangular": _conjugated(p, [units[0], units[1], units[3]]),
    }
    # int64_stack accepts these, yet a coordinates-times-basis product of
    # r >= 3 rows can reach r (p-1)^2 >= 2^63, so exact_dtype sums it in
    # Python integers
    assert all(int64_stack(p, mats) is not None for mats in algebras.values())
    assert 3 * (p - 1) ** 2 >= 2**63 and exact_dtype(p, 3) is object
    # the span of these three has p - 1 in its free column, so the residual
    # of a member with coordinates near p - 1 sums three terms near (p - 1)^2
    subspace = [Mat.from_int_rows(p, [[int(k == 0), int(k == 1)], [int(k == 2), p - 1]]) for k in range(3)]
    rng = random.Random(5)
    members = []
    for _ in range(24):
        X = Mat.zeros(p, 2)
        for M in subspace:
            X = X + M * RatFunc.from_int(p, p - 1 - rng.randrange(2**20))
        members.append(X)

    def outputs():
        out = {}
        for kind, mats in algebras.items():
            rad = grpalg._radical_chain(p, 2, mats)
            out[kind] = _span_outputs(p, 2, mats, rad)
        out["members"] = span_products(p, members, basis=subspace)
        return out

    fast = outputs()
    assert [len(fast[kind]["rad_rref"]) for kind in algebras] == [0, 1]
    assert None not in fast["members"]
    _exact_domain(monkeypatch)
    assert outputs() == fast


# ---------------------------------------------------------------------
# the radical chain: int64 and exact paths agree
# ---------------------------------------------------------------------


def _chain_paths(monkeypatch):
    """Record the combination path of every chain level: 'int64' (one
    residue product reduced by `rref_mats`, summed in `exact_dtype`'s
    width) or 'exact' (`combination`)."""
    paths = []
    real_combination, real_rref_mats = grpalg.combination, grpalg.rref_mats

    def combination(coeffs, mats):
        paths.append("exact")
        return real_combination(coeffs, mats)

    def rref_mats(p, Z, n, m):
        paths.append("int64")
        return real_rref_mats(p, Z, n, m)

    monkeypatch.setattr(grpalg, "combination", combination)
    monkeypatch.setattr(grpalg, "rref_mats", rref_mats)
    return paths


def _chain_cases(bundle1):
    """(p, name, algebra basis, combination paths, certify in both domains)."""
    big, huge = 2**31 - 1, 2**61 - 1
    units = matrix_units(big, 2)
    cases = [
        (P, f"boxes{i}", endomorphism_algebra(_box_module(P, boxes, seed=i)).basis, {"int64"}, True)
        for i, boxes in enumerate(_BOXES)
    ]
    cases += [
        (P, "k[C_3^2]", endomorphism_algebra(_regular_module_c3squared()).basis, {"int64"}, True),
        # the exact certificate takes about 30 s here, so it is certified in
        # int64 only (test_span_products_domains_agree_on_kc3cubed compares
        # its structure constants across domains)
        (P, "k[C_3^3]", endomorphism_algebra(_regular_module_cp3()).basis, {"int64"}, False),
        # polynomial entries: the first level is exact, and its RREF output
        # is F_p-constant, so the q = 3 level runs in int64
        (P, "E_N", bundle1.end_algebra.basis, {"exact", "int64"}, True),
        # at p = 2^31 - 1 the combination of N >= 2 chain elements sums in
        # Python integers (exact_dtype), and the chain still stays on residues
        (big, "dual numbers", _conjugated(big, [Mat.identity(big, 2), units[1]]), {"int64"}, True),
        (big, "upper-triangular", _conjugated(big, [units[0], units[1], units[3]]), {"int64"}, True),
        # (p - 1)^2 >= 2^63: every sum, modp_rref's too, runs in Python integers
        (huge, "unipotent", endomorphism_algebra(_unipotent_module(huge)).basis, {"int64"}, True),
    ]
    return cases


def _chain_outputs(cases, paths):
    out = []
    for p, name, basis, _, certify in cases:
        del paths[:]
        n = basis[0].nrows
        rad = grpalg._radical_chain(p, n, basis)
        cert = grpalg.certify_radical(EndAlgebra(p, n, basis), rad).certificate if certify else None
        out.append((name, rad, cert, set(paths)))
    return out


def test_radical_chain_int64_and_exact_paths_agree(monkeypatch, bundle1):
    cases = _chain_cases(bundle1)
    paths = _chain_paths(monkeypatch)
    fast = _chain_outputs(cases, paths)
    assert [f[3] for f in fast] == [c[3] for c in cases]
    assert all(rad for _, rad, _, _ in fast[:6])
    _exact_domain(monkeypatch)
    exact = _chain_outputs(cases, paths)
    for f, e in zip(fast, exact):
        assert f[:3] == e[:3], f[0]
        assert e[3] <= {"exact"}, e[0]


# ---------------------------------------------------------------------
# constant matrices at any prime: residues, with exact_dtype's width
# ---------------------------------------------------------------------

# prime: the widths modp_einsum sums in on `_constant_kernel_outputs`, whose
# sums have 4 terms (the 4 x 4 products) and 10 (the 10-dim algebra)
_WIDTHS = {
    3: {np.int64},
    2**30 - 35: {np.int64, object},  # (terms + 1)(p - 1)^2 < 2^63 up to terms = 7
    2**31 - 1: {object},
    2**61 - 1: {object},
}


def _constant_kernel_outputs(p):
    """span_products in its three forms, the radical chain and the constant
    commutant, on seeded constant matrices over F_p."""
    rng = random.Random(17)
    xs = [Mat.from_int_rows(p, [[rng.randrange(p) for _ in range(4)] for _ in range(4)]) for _ in range(4)]
    xs.append(xs[0] + xs[1] * RatFunc.from_int(p, p - 1))
    ys = xs[2:]
    units = matrix_units(p, 4)
    upper = _conjugated(p, [units[4 * i + j] for i in range(4) for j in range(i, 4)])  # dim 10, radical dim 6
    return {
        "basis": span_products(p, xs),
        "products": span_products(p, xs, ys),
        "coordinates": span_products(p, upper[:3] + xs[:2], upper, basis=upper),
        "radical": grpalg._radical_chain(p, 4, upper),
        "commutant": endomorphism_algebra(_unipotent_module(p)).basis,
    }


@pytest.mark.parametrize("p", list(_WIDTHS))
def test_constant_kernels_match_the_exact_domain(monkeypatch, p):
    widths = []
    real = linalg.modp_einsum

    def modp_einsum(p, spec, a, b, terms):
        widths.append(exact_dtype(p, terms))
        return real(p, spec, a, b, terms)

    monkeypatch.setattr(linalg, "modp_einsum", modp_einsum)
    monkeypatch.setattr(grpalg, "modp_einsum", modp_einsum)
    fast = _constant_kernel_outputs(p)
    assert set(widths) == _WIDTHS[p]
    assert exact_dtype(p, 1) is (object if p == 2**61 - 1 else np.int64)  # modp_rref's width
    assert len(fast["basis"]) == 4 and len(fast["radical"]) == 6 and len(fast["commutant"]) == 5
    coords = fast["coordinates"]
    assert len(coords) == 50 and None not in coords[:30] and None in coords[30:]  # closed, and not for xs
    del widths[:]
    _exact_domain(monkeypatch)
    assert _constant_kernel_outputs(p) == fast
    assert widths == []


def test_word_size_constant_modules_stay_on_residues(monkeypatch):
    p = 2**31 - 1
    modules = [_box_module(p, boxes, seed=i) for i, boxes in enumerate(_BOXES)]
    exact_calls = []
    real_nullspace, real_span = Mat.nullspace, linalg._span_products_exact
    unknowns = {m.dim**2 for m in modules}

    def nullspace(self):
        if self.ncols in unknowns:  # the exact branch of `intertwiners`
            exact_calls.append("intertwiners")
        return real_nullspace(self)

    def span_exact(p, xs, ys, basis):
        if xs and all(g for g in (ys, basis) if g is not None):
            exact_calls.append("_span_products_exact")
        return real_span(p, xs, ys, basis)

    monkeypatch.setattr(Mat, "nullspace", nullspace)
    monkeypatch.setattr(linalg, "_span_products_exact", span_exact)
    dims = [(out["evidence"]["dim_end"], out["evidence"]["dim_radical"]) for out in map(hp_verdict, modules)]
    assert dims == [(24, 16), (20, 15), (8, 7)]
    assert exact_calls == []


# ---------------------------------------------------------------------
# cut values: one Berkowitz batch per level, split under a budget
# ---------------------------------------------------------------------


def _random_poly_mats(p, n, count, degree, seed):
    rng = random.Random(seed)
    return [
        Mat(p, [[RatFunc(Poly(p, [rng.randrange(p) for _ in range(degree + 1)])) for _ in range(n)] for _ in range(n)])
        for _ in range(count)
    ]


_CUT_CASES = {
    "constant": lambda: (P, 3, endomorphism_algebra(_box_module(P, _BOXES[2], seed=2)).basis),
    "polynomial": lambda: (P, 3, _random_poly_mats(P, 4, 5, 6, seed=1)),
    "polynomial at 2^61 - 1": lambda: (2**61 - 1, 2, _random_poly_mats(2**61 - 1, 3, 4, 5, seed=2)),
}


@pytest.mark.parametrize("case", list(_CUT_CASES))
def test_cut_values_match_matrix_charpolys(case):
    p, q, J = _CUT_CASES[case]()
    n = J[0].nrows
    cut = grpalg._cut_values(p, n, q, J)
    assert cut == [[(X * Y).charpoly()[n - q] for Y in J] for X in J]
    assert any(not v.is_constant() for row in cut for v in row) == (case != "constant")


def test_certify_radical_scans_each_matrix_once(monkeypatch):
    E = endomorphism_algebra(_box_module(P, _BOXES[0], seed=0))
    rad = grpalg._radical_chain(P, E.n, E.basis)
    scanned, calls = [], []
    real_residues, real_is_constant = Mat.residues, RatFunc.is_constant

    def residues(self):
        if self._residues is None:  # not decided yet: this call scans
            scanned.append(self)
        return real_residues(self)

    monkeypatch.setattr(Mat, "residues", residues)
    monkeypatch.setattr(RatFunc, "is_constant", _counting(calls, real_is_constant))
    result = grpalg.certify_radical(E, rad)
    assert result.certificate["dims"] == {"algebra": 24, "radical": 16, "quotient": 8}
    assert len({id(M) for M in scanned}) == len(scanned)
    # E's basis and the radical carry their residues from the int64 paths
    assert not any(M is B for M in scanned for B in E.basis + rad)
    # the one scan left is the quotient's regular representation (and the
    # chain's solutions on it), each matrix once
    assert scanned and len(calls) <= sum(M.nrows * M.ncols for M in scanned)
