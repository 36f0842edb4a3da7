"""Quadratic forms over k = F_p(t): diagonalization, local invariants, and
the Hasse-Minkowski equivalence engine.

Over a global function field there is no archimedean data, so a
nondegenerate form is classified by rank, discriminant in k*/k*^2, and the
Hasse invariants at the finitely many bad places; two forms are globally
equivalent iff those agree (the classical local-global theorem).  All
local decisions reduce to residue computations through the tame symbol
formulas; completions are never materialized.
"""

from .funcfield import (
    Place,
    RatFunc,
    hilbert_symbol,
    is_local_square,
    support,
    square_class,
)
from .linalg import Mat, symmetric_diagonalize


class QuadForm:
    """Nondegenerate symmetric Gram matrix over F_p(t)."""

    __slots__ = ("gram", "_diag", "_transform", "_bad", "_disc", "_local")

    def __init__(self, gram, _diagonal=None):
        if not gram.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        self.gram = gram
        self._diag = list(_diagonal) if _diagonal is not None else None
        self._transform = None
        self._bad = None
        self._disc = None
        # LocalUnit per (diagonal entry, place), filled by hasse_invariant
        self._local = {}
        if self._diag is None:
            # force the congruence diagonalization now; it certifies
            # nondegeneracy and everything downstream reads the diagonal
            self.diagonalize()

    @classmethod
    def from_diagonal(cls, p, entries):
        entries = list(entries)
        if any(e.is_zero() for e in entries):
            raise ValueError("diagonal entries must be nonzero")
        zero = RatFunc.zero(p)
        n = len(entries)
        gram = Mat(p, [[entries[i] if i == j else zero for j in range(n)] for i in range(n)])
        return cls(gram, _diagonal=entries)

    @classmethod
    def from_int_rows(cls, p, rows):
        return cls(Mat.from_int_rows(p, rows))

    @property
    def p(self):
        return self.gram.p

    @property
    def rank(self):
        return self.gram.nrows

    def diagonalize(self):
        """(diagonal entries, P) with P^T * gram * P = diag, exactly."""
        if self._diag is not None and self._transform is not None:
            return list(self._diag), self._transform
        try:
            entries, P = symmetric_diagonalize(self.gram)
        except ValueError as exc:
            raise ValueError("degenerate quadratic form") from exc
        if self._diag is None:
            self._diag = entries
        self._transform = P
        return list(entries), P

    def diagonal(self):
        if self._diag is None:
            self.diagonalize()
        return list(self._diag)

    def disc(self):
        """Square class of det(gram)."""
        if self._disc is None:
            d = RatFunc.one(self.p)
            for e in self.diagonal():
                d = d * e
            self._disc = square_class(d)
        return self._disc

    def bad_places(self):
        """Finite places dividing any diagonal entry, plus infinity."""
        if self._bad is not None:
            return list(self._bad)
        places = set()
        one = RatFunc.one(self.p)
        for e in self.diagonal():
            places.update(support(e, one))
        places.add(Place.infinity(self.p))
        self._bad = sorted(places, key=Place.sort_key)
        return list(self._bad)

    def hasse_invariant(self, v):
        """Product over i < j of (d_i, d_j)_v for a diagonalization <d_i>.

        One `hilbert_symbol` call per pair, n(n-1)/2 in all (the benchmark
        pins that count).  Each call takes the entries' valuations and
        residue characters at v from this form's own memo, so every
        (entry, place) is reduced once for the life of the form and a
        symbol costs a product of signs,
        (a, b)_v = eps^(alpha*beta) chi(a_bar)^beta chi(b_bar)^alpha.
        """
        d = self.diagonal()
        memo = self._local
        out = 1
        for i in range(len(d)):
            for j in range(i + 1, len(d)):
                out *= hilbert_symbol(d[i], d[j], v, memo)
        return out

    def __repr__(self):
        return f"QuadForm(rank {self.rank} over F_{self.p}(t))"


def is_local_square_class(sc, v):
    """Local triviality of a square class at v."""
    return is_local_square(sc.representative(), v)


def hyperbolic_form(p, rank):
    """The split form <1, -1>^(rank/2)."""
    if rank % 2:
        raise ValueError("hyperbolic forms have even rank")
    one = RatFunc.one(p)
    entries = []
    for _ in range(rank // 2):
        entries.extend([one, -one])
    return QuadForm.from_diagonal(p, entries)


def equivalent_local(q1, q2, v):
    """Complete local classification over a non-dyadic local field:
    equal rank, equal disc in k_v*/k_v*^2, equal Hasse invariant."""
    if q1.rank != q2.rank:
        return False
    ratio = q1.disc().representative() / q2.disc().representative()
    if not is_local_square(ratio, v):
        return False
    return q1.hasse_invariant(v) == q2.hasse_invariant(v)


def equivalent_global(q1, q2):
    """Hasse-Minkowski over F_p(t): rank, global disc class, and Hasse
    invariants on the union of bad places decide global equivalence.

    The places are visited in `Place.sort_key` order, so the short-circuit
    stops at the same place in every process (set order is not stable:
    the infinite place hashes `None`).
    """
    if q1.rank != q2.rank:
        return False
    if q1.disc() != q2.disc():
        return False
    places = sorted(set(q1.bad_places()) | set(q2.bad_places()), key=Place.sort_key)
    return all(q1.hasse_invariant(v) == q2.hasse_invariant(v) for v in places)


def is_isotropic_local(q, v):
    """Standard non-dyadic local isotropy criteria by rank."""
    d = q.diagonal()
    n = len(d)
    if n <= 1:
        return False
    if n == 2:
        # <a, b> isotropic iff -ab is a local square
        return is_local_square(-(d[0] * d[1]), v)
    if n == 3:
        # a x^2 + b y^2 + c z^2 = 0 solvable iff (-ac, -bc)_v = +1
        a, b, c = d
        return hilbert_symbol(-(a * c), -(b * c), v) == 1
    if n == 4:
        # the only anisotropic rank-4 form over a non-dyadic local field is
        # the norm form of the division quaternion, which has trivial disc;
        # with trivial disc the two classes are separated by the Hasse
        # invariant, compared against the explicit hyperbolic one
        if not is_local_square_class(q.disc(), v):
            return True
        return q.hasse_invariant(v) == hyperbolic_form(q.p, 4).hasse_invariant(v)
    # rank >= 5 over a non-dyadic local field is always isotropic
    return True


def is_isotropic(q, v=None):
    """Isotropy at one place, or globally (isotropic everywhere <=> isotropic)."""
    if v is not None:
        return is_isotropic_local(q, v)
    n = q.rank
    if n <= 1:
        return False
    if n == 2:
        d = q.diagonal()
        return square_class(-(d[0] * d[1])).is_trivial()
    if n >= 5:
        # u-invariant of a global function field is 4
        return True
    return all(is_isotropic_local(q, w) for w in q.bad_places())


def is_hyperbolic(q, v=None):
    """Does q have the invariants of the hyperbolic form of its rank?"""
    if q.rank % 2:
        raise ValueError("hyperbolic forms have even rank")
    h = hyperbolic_form(q.p, q.rank)
    if v is not None:
        return equivalent_local(q, h, v)
    return equivalent_global(q, h)


def invariants_report(q):
    """JSON-ready invariant table {rank, disc, hasse: [[place, +-1], ...]}."""
    return {
        "rank": q.rank,
        "disc": str(q.disc()),
        "hasse": [[str(v), q.hasse_invariant(v)] for v in q.bad_places()],
    }
