"""Exact arithmetic in F_p, F_p[t] and the rational function field k = F_p(t).

The prime p is odd and travels with every value (there is no module-level
global), so several primes can coexist in one process.  Polynomials are
immutable coefficient tuples, lowest degree first, with no trailing zeros;
the zero polynomial is the empty tuple and reports the sentinel degree -1.
Rational functions are reduced fractions with a monic denominator, so
equality is structural.

Places of k are monic irreducible polynomials plus the degree place at
infinity (uniformizer 1/t).  All local computations (valuations, local
squares, quadratic characters, Hilbert symbols) reduce to exact residue
field arithmetic; the residue characteristic is odd, so the tame formulas
apply at every place.
"""

import functools
import random

import numpy as np

_CONV_THRESHOLD = 24  # switch polynomial products to numpy convolution
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def require_odd_prime(p):
    """Raise ValueError unless p is an odd prime.

    Miller-Rabin on the first twelve prime bases: a proof of primality for
    p < 3.3 * 10^24 and a strong probable-prime test above that.  Trial
    division would stall on a large p that the arithmetic itself handles.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        if a % p == 0:
            continue
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError(f"p must be an odd prime, got {p}")


@functools.cache
def smallest_nonsquare(p):
    """Smallest positive nonsquare residue mod p (the fixed SquareClass unit).

    Euler's criterion on 2, 3, ...; the first nonsquare is O(log^2 p)
    under GRH and small in practice, so this never walks the residues.
    """
    require_odd_prime(p)
    c = 2
    while is_square_mod(c, p):
        c += 1
    return c


def is_square_mod(a, p):
    """True iff a is a nonzero square mod p."""
    a %= p
    if a == 0:
        return False
    return pow(a, (p - 1) // 2, p) == 1


class Poly:
    """Polynomial over F_p, coefficients lowest degree first."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs):
        self.p = p
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, p):
        return cls(p, ())

    @classmethod
    def one(cls, p):
        return cls(p, (1,))

    @classmethod
    def const(cls, p, c):
        return cls(p, (c,))

    @classmethod
    def t(cls, p):
        return cls(p, (0, 1))

    @classmethod
    def from_string(cls, p, text):
        """Parse `c0 + c1*t + c2*t^2` or compact `t^2+2*t+1`."""
        s = text.replace(" ", "").replace("**", "^")
        if not s:
            raise ValueError("empty polynomial string")
        s = s.replace("-", "+-")
        if s.startswith("+"):
            s = s[1:]
        coeffs = {}
        for term in s.split("+"):
            if not term:
                raise ValueError(f"malformed polynomial {text!r}")
            sign = 1
            if term.startswith("-"):
                sign = -1
                term = term[1:]
            if "t" not in term:
                c, e = int(term), 0
            else:
                head, _, tail = term.partition("t")
                c = int(head.rstrip("*")) if head.rstrip("*") else 1
                # the exponent is digits after "^": the "-" of t^-1 has
                # already split off as a term of its own, leaving "t^"
                if not tail:
                    e = 1
                elif tail[0] == "^" and tail[1:].isdecimal():
                    e = int(tail[1:])
                else:
                    raise ValueError(f"malformed exponent in polynomial {text!r}")
            coeffs[e] = coeffs.get(e, 0) + sign * c
        out = [0] * (max(coeffs) + 1)
        for e, c in coeffs.items():
            out[e] = c
        return cls(p, out)

    # -- structure ----------------------------------------------------

    @property
    def degree(self):
        """Degree; -1 is the sentinel for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == (1,)

    def is_constant(self):
        return len(self.coeffs) <= 1

    @property
    def lc(self):
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def is_monic(self):
        return self.lc == 1

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def sort_key(self):
        return (self.degree, self.coeffs)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        p = self.p
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        return Poly(p, out)

    def __neg__(self):
        return Poly(self.p, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        p = self.p
        a, b = self.coeffs, other.coeffs
        if not a:
            return self
        if not b:
            return other
        if len(a) == 1:
            c = a[0]
            return Poly(p, [c * x for x in b])
        if len(b) == 1:
            c = b[0]
            return Poly(p, [c * x for x in a])
        # int64 convolution is exact while every output sum stays below 2^63
        if len(a) + len(b) > _CONV_THRESHOLD and min(len(a), len(b)) * (p - 1) ** 2 < 2**63:
            out = np.convolve(
                np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
            )
            return Poly(p, (out % p).tolist())
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Poly(p, out)

    def scale(self, c):
        return Poly(self.p, [c * x for x in self.coeffs])

    def __pow__(self, e):
        result = Poly.one(self.p)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        d = other.degree
        inv_lc = pow(other.lc, p - 2, p)
        if len(rem) <= d:
            return Poly.zero(p), self
        quot = [0] * (len(rem) - d)
        oc = other.coeffs
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] % p
            if c:
                q = (c * inv_lc) % p
                quot[i - d] = q
                for j in range(d + 1):
                    rem[i - d + j] = (rem[i - d + j] - q * oc[j]) % p
        return Poly(p, quot), Poly(p, rem[:d])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("exact_div with nonzero remainder")
        return q

    def monic(self):
        """Return (monic multiple, leading coefficient)."""
        if self.is_zero():
            raise ValueError("zero polynomial has no monic form")
        c = self.lc
        if c == 1:
            return self, 1
        return self.scale(pow(c, self.p - 2, self.p)), c

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.monic()[0]

    def ext_gcd(self, other):
        """Return (g, u, v) with u*self + v*other = g, g monic or zero."""
        p = self.p
        r0, r1 = self, other
        s0, s1 = Poly.one(p), Poly.zero(p)
        t0, t1 = Poly.zero(p), Poly.one(p)
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if r0.is_zero():
            return r0, s0, t0
        m, c = r0.monic()
        inv = pow(c, p - 2, p)
        return m, s0.scale(inv), t0.scale(inv)

    def invmod(self, modulus):
        g, u, _ = self.ext_gcd(modulus)
        if not g.is_one():
            raise ValueError("element not invertible modulo the given polynomial")
        return u % modulus

    def powmod(self, e, modulus):
        result = Poly.one(self.p) % modulus
        base = self % modulus
        while e:
            if e & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            e >>= 1
        return result

    def derivative(self):
        return Poly(self.p, [i * c for i, c in enumerate(self.coeffs)][1:])

    def frobenius_sections(self, q):
        """Split f = sum_r t^r * f_r(t^q); returns the list [f_0, ..., f_{q-1}].

        Valid because the coefficients lie in F_p, which Frobenius fixes.
        """
        return [Poly(self.p, self.coeffs[r::q]) for r in range(q)]

    # -- factorization ------------------------------------------------

    def _pth_root(self):
        # f with f' = 0 is g(t^p) = g_plain(t)^p; extract the root by slicing
        return Poly(self.p, self.coeffs[:: self.p])

    def squarefree_part_full(self):
        """Squarefree decomposition [(g, m)] with self = lc * prod g^m."""
        f, _ = self.monic()
        out = []
        mult = 1
        while f.degree > 0:
            df = f.derivative()
            if df.is_zero():
                # f = g(t^p) = (root)^p since F_p coefficients are Frobenius-fixed
                f = f._pth_root()
                mult *= self.p
                continue
            c = f.gcd(df)
            w = f.exact_div(c)
            i = 1
            while not w.is_one():
                y = w.gcd(c)
                z = w.exact_div(y)
                if z.degree > 0:
                    out.append((z, i * mult))
                w = y
                c = c.exact_div(y)
                i += 1
            # c now carries exactly the factors with multiplicity divisible by p
            f = c
        return _merge_multiplicities(out)

    def factor(self):
        """Full factorization: (leading coefficient, [(monic irreducible, mult)]).

        Deterministic: equal-degree splitting uses an RNG seeded from the
        input, and the factor list is sorted by (degree, coefficient tuple).
        """
        if self.is_zero():
            raise ValueError("cannot factor zero")
        lead = self.lc
        if self.degree == 0:
            return lead, []
        result = {}
        for sqfree, mult in self.squarefree_part_full():
            for irr in _factor_squarefree(sqfree):
                result[irr] = result.get(irr, 0) + mult
        factors = sorted(result.items(), key=lambda it: it[0].sort_key())
        return lead, factors

    def is_irreducible(self):
        """Rabin irreducibility test (deterministic)."""
        n = self.degree
        if n <= 0:
            return False
        if n == 1:
            return True
        f, _ = self.monic()
        p = self.p
        t = Poly.t(p)
        # t^(p^n) == t mod f and gcd condition at maximal proper divisors
        x = t
        for _ in range(n):
            x = x.powmod(p, f)
        if not ((x - t) % f).is_zero():
            return False
        for q in _prime_divisors(n):
            m = n // q
            y = t
            for _ in range(m):
                y = y.powmod(p, f)
            if f.gcd((y - t) % f).degree != 0:
                return False
        return True

    # -- formatting ---------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            if e == 0:
                terms.append(str(c))
            elif e == 1:
                terms.append("t" if c == 1 else f"{c}*t")
            else:
                terms.append(f"t^{e}" if c == 1 else f"{c}*t^{e}")
        return "+".join(terms)

    def __repr__(self):
        return f"Poly({self.p}, {self})"


def _merge_multiplicities(pairs):
    acc = {}
    for g, e in pairs:
        acc[g] = acc.get(g, 0) + e
    return sorted(acc.items(), key=lambda it: it[0].sort_key())


@functools.cache
def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _factor_squarefree(f):
    """Irreducible factors of a monic squarefree polynomial."""
    p = f.p
    out = []
    # distinct-degree
    t = Poly.t(p)
    h = t
    v = f
    d = 0
    buckets = []
    while v.degree > 0:
        d += 1
        if 2 * d > v.degree:
            buckets.append((v, v.degree))
            break
        h = h.powmod(p, v)
        g = v.gcd((h - t) % v)
        if g.degree > 0:
            buckets.append((g, d))
            v = v.exact_div(g)
            h = h % v
    # equal-degree (Cantor-Zassenhaus), deterministic seed from the input
    for prod, d in buckets:
        out.extend(_equal_degree_split(prod, d))
    return out


def _equal_degree_split(f, d):
    p = f.p
    if f.degree == d:
        return [f]
    seed = hash((p, d, f.coeffs)) & 0x7FFFFFFF
    rng = random.Random(seed)
    exponent = (p**d - 1) // 2
    stack, out = [f], []
    while stack:
        g = stack.pop()
        if g.degree == d:
            out.append(g)
            continue
        while True:
            r = Poly(p, [rng.randrange(p) for _ in range(g.degree)])
            if r.degree < 1:
                continue
            c = g.gcd(r)
            if 0 < c.degree < g.degree:
                stack.extend([c, g.exact_div(c)])
                break
            w = r.powmod(exponent, g) - Poly.one(p)
            c = g.gcd(w % g)
            if 0 < c.degree < g.degree:
                stack.extend([c, g.exact_div(c)])
                break
    return out


def irreducibles(p, max_degree=None):
    """Yield monic irreducibles in order (degree, then coefficient tuple)."""
    d = 1
    while max_degree is None or d <= max_degree:
        for tail in _tuples(p, d):
            f = Poly(p, list(tail) + [1])
            if f.is_irreducible():
                yield f
        d += 1


def _tuples(p, d):
    # ascending coefficient tuples (c_0, ..., c_{d-1})
    total = p**d
    for idx in range(total):
        out = []
        v = idx
        for _ in range(d):
            out.append(v % p)
            v //= p
        yield tuple(out)


class RatFunc:
    """Element of k = F_p(t) as a reduced fraction with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        """num/den in lowest terms with a monic denominator.

        A polynomial value (den omitted or 1) is stored as given, with no
        gcd: gcd(num, 1) = 1 and 1 is already monic, so the general path
        would return exactly the same pair.
        """
        p = num.p
        if den is None:
            den = Poly.one(p)
        if den.is_one():
            self.num = num
            self.den = den
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = num
            self.den = Poly.one(p)
            return
        g = num.gcd(den)
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        den, c = den.monic()
        if c != 1:
            num = num.scale(pow(c, p - 2, p))
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, p, c):
        return cls(Poly.const(p, c))

    @classmethod
    def zero(cls, p):
        return cls(Poly.zero(p))

    @classmethod
    def one(cls, p):
        return cls(Poly.one(p))

    @classmethod
    def t(cls, p):
        return cls(Poly.t(p))

    @classmethod
    def from_string(cls, p, text):
        s = text.strip()
        if "/" in s:
            ns, ds = s.split("/", 1)
            return cls(Poly.from_string(p, ns), Poly.from_string(p, ds))
        return cls(Poly.from_string(p, s))

    # -- structure ----------------------------------------------------

    @property
    def p(self):
        return self.num.p

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def is_polynomial(self):
        return self.den.is_one()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_one()

    def __hash__(self):
        return hash((self.num, self.den))

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def sort_key(self):
        return (self.den.sort_key(), self.num.sort_key())

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return RatFunc(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __mul__(self, other):
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero in F_p(t)")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return RatFunc(self.num**e, self.den**e)

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self):
        return f"RatFunc({self.p}, {self})"


def denominator_lcm(values):
    """Monic lcm of the denominators of a nonempty iterable of RatFunc."""
    it = iter(values)
    lcm = next(it).den
    for x in it:
        lcm = lcm * x.den.exact_div(lcm.gcd(x.den))
    return lcm


INFINITY_VALUATION = float("inf")


class Place:
    """Closed point of P^1 over F_p: a monic irreducible polynomial or infinity."""

    __slots__ = ("p", "pi")

    def __init__(self, p, pi=None):
        self.p = p
        if pi is not None:
            if not pi.is_monic() or not pi.is_irreducible():
                raise ValueError(f"finite place needs a monic irreducible, got {pi}")
        self.pi = pi  # None encodes infinity

    @classmethod
    def finite(cls, pi):
        return cls(pi.p, pi)

    @classmethod
    def infinity(cls, p):
        return cls(p, None)

    @classmethod
    def from_string(cls, p, text):
        s = text.strip()
        if s in ("inf", "infinity", "oo"):
            return cls.infinity(p)
        return cls.finite(Poly.from_string(p, s))

    @property
    def is_infinite(self):
        return self.pi is None

    @property
    def degree(self):
        return 1 if self.is_infinite else self.pi.degree

    @property
    def residue_order(self):
        return self.p**self.degree

    def __hash__(self):
        return hash((self.p, self.pi))

    def __eq__(self, other):
        return isinstance(other, Place) and self.p == other.p and self.pi == other.pi

    def sort_key(self):
        # finite places by (degree, coefficients); infinity last
        if self.is_infinite:
            return (1, 0, ())
        return (0, self.pi.degree, self.pi.coeffs)

    def __str__(self):
        return "inf" if self.is_infinite else str(self.pi)

    def __repr__(self):
        return f"Place({self})"


def valuation(a, v):
    """Order of vanishing of a at v; +inf sentinel for a = 0."""
    if a.is_zero():
        return INFINITY_VALUATION
    return LocalUnit(a, v).valuation


def _split(f, pi):
    """(e, (f / pi^e) mod pi) for the exact power pi^e dividing f != 0."""
    e = 0
    while True:
        q, r = divmod(f, pi)
        if not r.is_zero():
            return e, r
        f = q
        e += 1


class LocalUnit:
    """Local data of a nonzero a at a place v, from one pass of divisions by pi.

    `valuation` is v(a) and `residue` the residue of the unit part
    a * pi^(-v(a)): a Poly of degree < deg(pi) at a finite place, an int in
    F_p at infinity (the ratio of leading coefficients, since the
    uniformizer is 1/t).  `character`, the quadratic character of the
    residue, is computed on first use.
    """

    __slots__ = ("place", "valuation", "residue", "_character")

    def __init__(self, a, v):
        if a.is_zero():
            raise ValueError("zero has no unit residue")
        p = a.p
        self.place = v
        self._character = None
        if v.is_infinite:
            self.valuation = a.den.degree - a.num.degree
            self.residue = a.num.lc * pow(a.den.lc, p - 2, p) % p
            return
        pi = v.pi
        e, num = _split(a.num, pi)
        f, den = _split(a.den, pi)
        self.valuation = e - f
        self.residue = (num * den.invmod(pi)) % pi

    @property
    def character(self):
        if self._character is None:
            self._character = quadratic_character(self.residue, self.place)
        return self._character


def quadratic_character(u, v):
    """+1 / -1 / 0 for square / nonsquare / zero in the residue field at v.

    Residue field F_p (infinity and places of degree 1): Euler's criterion
    on a Python int.  Otherwise exponentiation to (q - 1)/2 in
    F_p[t]/(pi), q the residue field order.
    """
    p = v.p
    if isinstance(u, int):
        u = Poly.const(p, u)
    if not v.is_infinite:
        u = u % v.pi
    if v.degree == 1:
        c = u.coeffs[0] if u.coeffs else 0
        if c == 0:
            return 0
        return 1 if is_square_mod(c, p) else -1
    if u.is_zero():
        return 0
    r = u.powmod((v.residue_order - 1) // 2, v.pi)
    if r.is_one():
        return 1
    if (r + Poly.one(p)).is_zero():
        return -1
    raise AssertionError("quadratic character did not land in ±1")


def is_local_square(a, v):
    """True iff a is a square in the completion k_v (a != 0).

    Tame criterion: even valuation and square unit-part residue.
    """
    if a.is_zero():
        raise ValueError("is_local_square requires a nonzero argument")
    u = LocalUnit(a, v)
    return u.valuation % 2 == 0 and u.character == 1


def hilbert_symbol(a, b, v, memo=None):
    """Hilbert symbol (a, b)_v in {+1, -1}: does z^2 = a x^2 + b y^2 split at v?

    Tame formula, factored through the local data of each argument:

        (a, b)_v = eps^(alpha*beta) * chi(a_bar)^beta * chi(b_bar)^alpha

    with alpha = v(a), beta = v(b), a_bar and b_bar the unit residues at v,
    chi the quadratic character of the residue field F_q and
    eps = chi(-1) = (-1)^((q-1)/2).  Only parities matter, so a character
    is evaluated only when the other valuation is odd, and two even
    valuations give +1 at once.

    `memo` is an optional dict owned by the caller, keyed by (element,
    place), holding each element's `LocalUnit`; the data then lives
    exactly as long as that dict.  Each call is still one symbol: callers
    that multiply symbols over pairs call this once per pair.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("hilbert_symbol requires nonzero arguments")
    ua = _local_unit(a, v, memo)
    ub = _local_unit(b, v, memo)
    alpha, beta = ua.valuation % 2, ub.valuation % 2
    s = -1 if alpha and beta and v.residue_order % 4 == 3 else 1
    if beta:
        s *= ua.character
    if alpha:
        s *= ub.character
    return s


def _local_unit(a, v, memo):
    if memo is None:
        return LocalUnit(a, v)
    key = (a, v)
    u = memo.get(key)
    if u is None:
        u = memo[key] = LocalUnit(a, v)
    return u


def support(a, b):
    """All finite places dividing numerator/denominator of a or b, plus infinity.

    Outside this set both arguments are units with even-power residues, so
    the Hilbert symbol is +1 there.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("support requires nonzero arguments")
    places = set()
    for r in (a, b):
        for f in (r.num, r.den):
            if f.degree > 0:
                _, factors = f.factor()
                for pi, _ in factors:
                    places.add(Place.finite(pi))
    places.add(Place.infinity(a.p))
    return sorted(places, key=Place.sort_key)


class SquareClass:
    """Canonical representative of a class in k*/k*^2.

    Every a in k* equals (square) * c * m with c in {1, fixed nonsquare of
    F_p} and m monic squarefree.
    """

    __slots__ = ("p", "nonsquare_unit", "squarefree")

    def __init__(self, p, nonsquare_unit, squarefree):
        self.p = p
        self.nonsquare_unit = bool(nonsquare_unit)
        self.squarefree = squarefree

    @classmethod
    def of(cls, a):
        if a.is_zero():
            raise ValueError("zero has no square class")
        p = a.p
        counts = {}
        for f, sign in ((a.num, 1), (a.den, -1)):
            if f.degree > 0:
                _, factors = f.factor()
                for pi, e in factors:
                    counts[pi] = counts.get(pi, 0) + sign * e
        m = Poly.one(p)
        for pi, e in sorted(counts.items(), key=lambda it: it[0].sort_key()):
            if e % 2:
                m = m * pi
        lead = (a.num.lc * pow(a.den.lc, p - 2, p)) % p
        return cls(p, not is_square_mod(lead, p), m)

    @classmethod
    def trivial(cls, p):
        return cls(p, False, Poly.one(p))

    def is_trivial(self):
        return not self.nonsquare_unit and self.squarefree.is_one()

    @property
    def unit(self):
        return smallest_nonsquare(self.p) if self.nonsquare_unit else 1

    def representative(self):
        return RatFunc(self.squarefree.scale(self.unit))

    def __mul__(self, other):
        g = self.squarefree.gcd(other.squarefree)
        m = (self.squarefree * other.squarefree).exact_div(g * g)
        unit = (self.unit * other.unit) % self.p
        return SquareClass(self.p, not is_square_mod(unit, self.p), m)

    def __eq__(self, other):
        return (
            isinstance(other, SquareClass)
            and self.p == other.p
            and self.nonsquare_unit == other.nonsquare_unit
            and self.squarefree == other.squarefree
        )

    def __hash__(self):
        return hash((self.p, self.nonsquare_unit, self.squarefree))

    def __str__(self):
        return str(self.representative())

    def __repr__(self):
        return f"SquareClass({self})"


def square_class(a):
    return SquareClass.of(a)


def sqrt_mod(c, p):
    """The smaller of the two square roots of a square residue mod p.

    Tonelli-Shanks: O(log^2 p) multiplications for an odd prime p.
    """
    c %= p
    if c == 0:
        return 0
    if not is_square_mod(c, p):
        raise ValueError(f"{c} is not a square mod {p}")
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = pow(smallest_nonsquare(p), q, p)
    x, t = pow(c, (q + 1) // 2, p), pow(c, q, p)
    while t != 1:
        # least i with t^(2^i) = 1; then x*b squares to c with t*b^2 closer to 1
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(z, 1 << (s - i - 1), p)
        x, z, t, s = x * b % p, b * b % p, t * b * b % p, i
    return min(x, p - x)


def sqrt_of_square(a):
    """Exact square root of a rational function that is a global square."""
    if a.is_zero():
        return a
    p = a.p
    out_num = Poly.one(p)
    out_den = Poly.one(p)
    for f, sign in ((a.num, 1), (a.den, -1)):
        if f.degree > 0:
            _, factors = f.factor()
            for pi, e in factors:
                if e % 2:
                    raise ValueError("argument is not a square in F_p(t)")
                if sign > 0:
                    out_num = out_num * pi ** (e // 2)
                else:
                    out_den = out_den * pi ** (e // 2)
    lead = (a.num.lc * pow(a.den.lc, p - 2, p)) % p
    c = sqrt_mod(lead, p)
    return RatFunc(out_num.scale(c), out_den)
