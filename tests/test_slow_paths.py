"""Slow cross-checks (CI-slow mode): the direct 64-dimensional solves that
the pipeline replaces with certified structured paths."""

import pytest

from gquadforms.errors import InputError
from gquadforms.funcfield import RatFunc
from gquadforms.linalg import KSpan, Mat, intertwiners
from gquadforms.quadform import QuadForm, equivalent_global

P = 3

pytestmark = pytest.mark.slow


# ---------------------------------------------------------------------
# test oracle: the direct 64-dim commutant solve (also used by test_construct)
# ---------------------------------------------------------------------


def direct_tensor_commutant(module, block_size):
    """Direct solve of the 64-dimensional commutant through its block
    separation, independent of the Kronecker construction.

    Each generator matrix is checked exactly to be either block-scalar
    (blocks c_ij * I: a first-factor action) or block-diagonal with one
    repeated block (a second-factor action).  For block-scalar generators
    the commutation constraints act on the block pattern of X with scalar
    coefficients only, so the solution space is (pattern commutant) (x)
    M_b; imposing the block-diagonal generators on that space forces each
    block coefficient into their commutant.  The two small commutants are
    then solved exactly, and the staged argument makes their Kronecker
    span the full solution space of the big system.

    Returns (left_basis, right_basis) of the two factor commutants.
    """
    p, n = module.p, module.dim
    b = block_size
    if n % b:
        raise InputError("block size does not divide the module dimension")
    nb = n // b
    left_patterns = []
    right_blocks = []
    ident_b = Mat.identity(p, b)
    for g in module.group.generators:
        M = module.action[g]
        blocks = [[_subblock(M, i, j, b) for j in range(nb)] for i in range(nb)]
        if all(
            _is_scalar_multiple_of_identity(blocks[i][j], ident_b)
            for i in range(nb)
            for j in range(nb)
        ):
            pattern = Mat(p, [[blocks[i][j].rows[0][0] for j in range(nb)] for i in range(nb)])
            left_patterns.append(pattern)
            continue
        diag = blocks[0][0]
        if all(
            (blocks[i][j] == diag if i == j else blocks[i][j].is_zero())
            for i in range(nb)
            for j in range(nb)
        ):
            right_blocks.append(diag)
            continue
        raise InputError(f"generator {g} is neither block-scalar nor block-diagonal")
    left = intertwiners(p, nb, [(A, A) for A in left_patterns])
    right = intertwiners(p, b, [(A, A) for A in right_blocks])
    return left, right


def _subblock(M, i, j, b):
    return Mat(M.p, [row[j * b : (j + 1) * b] for row in M.rows[i * b : (i + 1) * b]])


def _is_scalar_multiple_of_identity(B, ident):
    c = B.rows[0][0]
    return B == ident * c




def test_direct_64dim_diagonalization_agrees_with_kron(tensor_bundle):
    """Diagonalize the rank-64 Gram from scratch (no Kronecker shortcut) and
    compare all Hasse-Minkowski data with the factored diagonal."""
    G = tensor_bundle.form.gram
    fresh = QuadForm(Mat(P, [list(r) for r in G.rows]))  # no cached diagonal
    assert equivalent_global(fresh, tensor_bundle.form)
    assert fresh.disc() == tensor_bundle.form.disc()


def test_direct_64dim_commutant_block_stages(tensor_bundle, bundle1, bundle2):
    """The direct staged solve of the full commutation system on the 64-dim
    module spans exactly the Kronecker basis (agreement of both paths)."""
    left, right = direct_tensor_commutant(tensor_bundle.module, 8)
    assert len(left) * len(right) == tensor_bundle.end_algebra.dim == 400
    span_left = KSpan(P)
    for M in bundle1.end_algebra.basis:
        span_left.add(M.flatten())
    assert all(span_left.contains(M.flatten()) for M in left)
    span_right = KSpan(P)
    for M in bundle2.end_algebra.basis:
        span_right.add(M.flatten())
    assert all(span_right.contains(M.flatten()) for M in right)
    # and per-element: every Kronecker product commutes with all generators
    pa = tensor_bundle.module.poly_action()
    from gquadforms.linalg import PolyMat

    X = PolyMat.from_mat(left[3].clear_denominators()).kron(
        PolyMat.from_mat(right[7].clear_denominators())
    )
    for M in pa.values():
        assert X * M == M * X


def test_tensor_claims_taken_from_the_factors_hold_at_64_dims(tensor_bundle, bundle1, bundle2):
    """Re-prove on the 64-dim data what `tensor_pair` derives from the factor
    checks: a valid module, gamma(g) = g^-1, a G-invariant Kronecker Gram,
    and a Kronecker E basis that commutes with all six generators."""
    from gquadforms.grpalg import check_module
    from gquadforms.linalg import PolyMat

    tb = tensor_bundle
    assert check_module(tb.module).valid
    assert tb.gamma.verify_generator_inverses() == (True, None)
    pa = tb.module.poly_action()
    assert len(pa) == 6
    gram = PolyMat.from_mat(bundle1.form.gram.kron(bundle2.form.gram))
    assert gram == PolyMat.from_mat(tb.form.gram)
    for M in pa.values():
        assert M.T * gram * M == gram
    pm1, pm2 = bundle1.end_algebra.poly_basis(), bundle2.end_algebra.poly_basis()
    basis = [x.kron(y) for x in pm1 for y in pm2]
    assert len(basis) == tb.end_algebra.dim == 400
    for X in basis:
        for M in pa.values():
            assert X * M == M * X


def test_q_prime_direct_rediagonalization(pipeline_report):
    """Reparse the emitted Gram pair and recheck their global equivalence
    with a fresh 64x64 elimination."""
    G1 = Mat(P, [[RatFunc.from_string(P, e) for e in row] for row in pipeline_report["gram_q"]])
    G2 = Mat(P, [[RatFunc.from_string(P, e) for e in row] for row in pipeline_report["gram_q_prime"]])
    q1, q2 = QuadForm(G1), QuadForm(G2)
    assert equivalent_global(q1, q2)
