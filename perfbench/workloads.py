"""Seeded inputs and their expected outputs, computed without the library.

Everything here is plain Python over F_3: polynomials are coefficient
lists (lowest degree first) and matrices are lists of rows.  The expected
value of each operation comes from how its input was constructed, never
from gquadforms itself.
"""

import itertools
import random

P = 3

# Pinned report of `gquadforms counterexample` (p = 3, default H1, H2).
COUNTEREXAMPLE_SHA256 = "4cacf7efc944f793447e50547792583f0d5a970b67b2b56d476827f0348c8f1f"

# ---------------------------------------------------------------------------
# F_3 linear algebra
# ---------------------------------------------------------------------------


def mat_mul(A, B):
    return [
        [sum(a * b for a, b in zip(row, col)) % P for col in zip(*B)] for row in A
    ]


def mat_inverse(A):
    """Inverse over F_p by Gauss-Jordan on [A | I], or None when A is singular."""
    n = len(A)
    R = rref_rows([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A)])
    if any(R[i][i] != 1 for i in range(n)):
        return None
    return [row[n:] for row in R]


def random_invertible(rng, n):
    while True:
        A = [[rng.randrange(P) for _ in range(n)] for _ in range(n)]
        Ainv = mat_inverse(A)
        if Ainv is not None:
            return A, Ainv


def rref_rows(rows):
    """Reduced row echelon form over F_p (nonzero rows only)."""
    M = [list(row) for row in rows]
    ncols, r = len(M[0]) if M else 0, 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(M)) if M[i][c] % P), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = pow(M[r][c], P - 2, P)
        M[r] = [x * inv % P for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] % P:
                f = M[i][c]
                M[i] = [(x - f * y) % P for x, y in zip(M[i], M[r])]
        r += 1
    return M[:r]


# ---------------------------------------------------------------------------
# hp_check: constant modules over C_3^2 and C_3^3
# ---------------------------------------------------------------------------

# Summand types are boxes (a_1, ..., a_r), 1 <= a_k <= 3: the cyclic module
# k[x_1..x_r]/(x_1^a_1, ..., x_r^a_r) with generator g_k acting as 1 + x_k.
# A module is a direct sum of boxes of total dimension 8.


def _box_dim(box):
    d = 1
    for a in box:
        d *= a
    return d


def end_dim(boxes):
    """dim End = sum over ordered summand pairs of prod_k min(a_ik, a_jk)."""
    return sum(_box_dim([min(a, b) for a, b in zip(s, t)]) for s in boxes for t in boxes)


def semisimple_dim(boxes):
    """dim End/rad = sum over isomorphism classes of multiplicity^2."""
    mult = {}
    for b in boxes:
        mult[b] = mult.get(b, 0) + 1
    return sum(m * m for m in mult.values())


# One module per slot.  A module's cost depends on its decomposition and,
# by a factor of 2 to 4, on the change of basis.  So each slot's
# decomposition and dense change of basis are fixed, and the seed only
# flips the signs of the basis vectors, which leaves the library's work the
# same from seed to seed.  The slots cover C_3^2 and C_3^3 and components
# M_1(k) and M_2(k) of End/rad; a pass over them takes about 15 s on a
# 2-CPU Xeon VM.  No isomorphism class repeats more than twice, so every
# component of End/rad is M_1(k) or M_2(k), both of which the criterion
# certifies split, and the verdict is `guaranteed`.  (M_3 and M_4
# components fall outside what it can certify; their verdict would depend
# on the library.)
HP_SLOTS = (
    ((2, 1), (2, 1), (1, 2), (1, 2)),  # C_3^2, dim End 24, End/rad M_2 x M_2
    ((1, 1, 2), (1, 1, 2), (1, 2, 2)),  # C_3^3, dim End 20, End/rad M_2 x M_1
    ((2, 2, 2),),  # C_3^3, dim End 8, End/rad M_1
)


def _box_action(box, k):
    """Matrix of 1 + x_k on the monomial basis of the box."""
    monos = list(itertools.product(*[range(a) for a in box]))
    index = {m: i for i, m in enumerate(monos)}
    n = len(monos)
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for m, j in index.items():
        up = list(m)
        up[k] += 1
        i = index.get(tuple(up))
        if i is not None:
            M[i][j] = 1
    return M


def module_action(boxes, P_, Pinv):
    """{generator: P^-1 A P} for the direct sum A of the boxes."""
    n = len(P_)
    action = {}
    for k in range(len(boxes[0])):
        A = [[0] * n for _ in range(n)]
        off = 0
        for b in boxes:
            blk = _box_action(b, k)
            for i, row in enumerate(blk):
                A[off + i][off : off + len(row)] = row
            off += len(blk)
        action[f"g{k + 1}"] = mat_mul(mat_mul(Pinv, A), P_)
    return action


def module_json(rng, slot):
    """Direct sum of the slot's boxes, conjugated by B D: B is the slot's fixed
    dense invertible matrix and D a seeded diagonal of signs."""
    boxes = HP_SLOTS[slot]
    n = sum(_box_dim(b) for b in boxes)
    base, base_inv = random_invertible(random.Random(f"hp_check:basis:{slot}"), n)
    signs = [rng.choice((1, P - 1)) for _ in range(n)]
    # D^-1 = D, since every sign squares to 1
    P_ = [[x * s % P for x, s in zip(row, signs)] for row in base]
    Pinv = [[s * x % P for x in row] for s, row in zip(signs, base_inv)]
    action = module_action(boxes, P_, Pinv)
    return {
        "p": P,
        "generators": list(action),
        "dim": n,
        "action": {g: [[str(x) for x in row] for row in A] for g, A in action.items()},
    }


def hp_check_batch(seed):
    """[(module json, expected {dim_end, dim_radical})], one per slot."""
    rng = random.Random(f"hp_check:{seed}")
    batch = []
    for slot, boxes in enumerate(HP_SLOTS):
        e = end_dim(boxes)
        expect = {"dim_end": e, "dim_radical": e - semisimple_dim(boxes)}
        batch.append((module_json(rng, slot), expect))
    return batch


# ---------------------------------------------------------------------------
# qf_equiv: pairs of forms over F_3(t)
# ---------------------------------------------------------------------------


def _trim(f):
    f = [c % P for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_add(f, g):
    n = max(len(f), len(g))
    return _trim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)])


def poly_mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _trim(out)


def poly_mod(f, g):
    f = _trim(f)
    inv = pow(g[-1], P - 2, P)
    while len(f) >= len(g):
        c = f[-1] * inv % P
        s = len(f) - len(g)
        f = _trim([x - c * g[i - s] if i >= s else x for i, x in enumerate(f)])
    return f


def poly_str(f):
    if not f:
        return "0"
    terms = []
    for i, c in enumerate(f):
        if c:
            mono = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
            terms.append(str(c) if not mono else (mono if c == 1 else f"{c}*{mono}"))
    return "+".join(terms)


def is_irreducible(f):
    """Trial division by every monic polynomial of degree <= deg f / 2."""
    d = len(f) - 1
    for k in range(1, d // 2 + 1):
        for tail in itertools.product(range(P), repeat=k):
            if not poly_mod(f, list(tail) + [1]):
                return False
    return True


def random_irreducible(rng, degree, used):
    """Seeded monic irreducible of this degree that is not in `used`; adds it.

    Degree 0 gives the constant 1.
    """
    if degree == 0:
        return [1]
    while True:
        f = [rng.randrange(P) for _ in range(degree)] + [1]
        if tuple(f) not in used and is_irreducible(f):
            used.add(tuple(f))
            return f


def scaled(rng, f):
    """f times a seeded nonzero constant."""
    c = rng.randrange(1, P)
    return [c * x % P for x in f]


def unitriangular_gram(rng, diag):
    """U^T diag(d) U for a random constant upper unitriangular U, as strings.

    Symmetric elimination without pivoting gives back exactly d, in
    order, so the places the library meets are the factors of d.
    """
    n = len(diag)
    U = [[int(i == j) if j <= i else rng.randrange(P) for j in range(n)] for i in range(n)]
    gram = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = []
            for k in range(min(i, j) + 1):
                c = U[k][i] * U[k][j] % P
                if c:
                    acc = poly_add(acc, [c * x for x in diag[k]])
            row.append(poly_str(acc))
        gram.append(row)
    return {"p": P, "gram": gram}


# The work of a pair grows with its rank and with the number and degrees of
# the places dividing its entries.  So every batch has the same plan: for
# each verdict, ranks 10, 11, 10, 11 (q of rank 8 or 9 plus the two extra
# entries), d of degree 0 to 3, and pi, pi' of degree 3 or 5.  Every entry
# is a unit times a distinct monic irreducible, with degrees taken from the
# front of QF_DEGREES, so every seed meets the same number of places of the
# same degrees.  The seed draws the irreducibles, the units, both
# congruences and the order of the pairs and of each diagonal.
# `equivalent_global` stops at the first place where the Hasse invariants
# differ, and it walks a set whose order puts the infinite place anywhere
# (its hash changes from process to process).  With infinity out of the
# differing places, the work of a pair differs between processes by at
# most one place: infinity, checked or not before the first difference.
QF_DEGREES = (3, 3, 3, 3, 2, 2, 1, 1, 0)
QF_PLAN = tuple((8 + k % 2, k, 3 if k % 2 else 5) for k in range(4))


def qf_equiv_batch(seed):
    """[(form1 json, form2 json, expected {equivalent, rank})].

    Half the pairs are two congruent presentations of one diagonal form
    (equivalent).  The other half are q + <d, d> against
    q + <pi pi' d, pi pi' d>, with pi and pi' irreducibles of the same odd
    degree, prime to every entry.  The two have equal rank and
    discriminant.  Their Hasse invariants differ by (pi pi', -1)_v, which
    is -1 at v = pi and v = pi' (-1 is a nonsquare in F_{3^odd}) and +1
    everywhere else, infinity included (pi pi' has even degree).  So they
    are inequivalent, and every place where they differ is finite.
    """
    rng = random.Random(f"qf_equiv:{seed}")
    plan = [(eq, *row) for eq in (True, False) for row in QF_PLAN]
    rng.shuffle(plan)
    batch = []
    for equivalent, rank_q, d_deg, pi_deg in plan:
        used = set()
        diag = [scaled(rng, random_irreducible(rng, k, used)) for k in QF_DEGREES[:rank_q]]
        d = scaled(rng, random_irreducible(rng, d_deg, used))
        e1 = e2 = d
        if not equivalent:
            pi = poly_mul(random_irreducible(rng, pi_deg, used), random_irreducible(rng, pi_deg, used))
            e2 = poly_mul(pi, d)
        sides = []
        for e in (e1, e2):
            entries = diag + [e, e]
            rng.shuffle(entries)
            sides.append(unitriangular_gram(rng, entries))
        batch.append((*sides, {"equivalent": equivalent, "rank": rank_q + 2}))
    return batch
