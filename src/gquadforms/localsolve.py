"""Independent local isotropy decisions over completions of F_p(t).

This is the cross-checking oracle for the tame Hilbert-symbol formula and
for the rank <= 4 local isotropy tables in `quadform`.  A diagonal form is
split along the uniformizer into two unit forms (its first and second
residue forms); each residue form is decided over the finite residue field
by explicit search for a zero, and a zero of a unit residue form lifts to
the completion by Hensel's lemma, which applies without correction terms
because the residue characteristic is odd (the quadric is smooth at any
point with a nonzero coordinate).  The decision

    isotropic over k_v  <=>  some residue form is isotropic over kappa(v)

is Springer's decomposition theorem for complete discretely valued fields
with odd residue characteristic.  Nothing here consults the symbol formula,
so agreement between the two is a genuine two-route check.
"""

from .funcfield import LocalUnit, Poly, quadratic_character


def residue_elements(v):
    """All residue field elements at v, as Poly mod pi (int at infinity)."""
    p = v.p
    if v.is_infinite:
        return list(range(p))
    d = v.pi.degree
    out = []
    for idx in range(p**d):
        coeffs = []
        x = idx
        for _ in range(d):
            coeffs.append(x % p)
            x //= p
        out.append(Poly(p, coeffs))
    return out


def _res_mul(x, y, v):
    if v.is_infinite:
        return (x * y) % v.p
    return (x * y) % v.pi


def _res_is_square(x, v):
    return quadratic_character(x, v) == 1


def _res_is_zero(x, v):
    if v.is_infinite:
        return x % v.p == 0
    return (x % v.pi).is_zero()


def _res_neg(x, v):
    if v.is_infinite:
        return (-x) % v.p
    return (-x) % v.pi


def residue_form_isotropic(units, v):
    """Does sum u_i x_i^2 = 0 have a nontrivial zero over the residue field?

    Decided by search: rank 2 by the square test on -u1*u2, rank >= 3 by
    explicit enumeration of a witness (one always exists by
    Chevalley-Warning, so the search is total).
    """
    n = len(units)
    if n <= 1:
        return False
    if n == 2:
        return _res_is_square(_res_neg(_res_mul(units[0], units[1], v), v), v)
    u1, u2, u3 = units[0], units[1], units[2]
    inv_u3 = _res_inverse(u3, v)
    for x in residue_elements(v):
        sq_x = _res_mul(x, x, v)
        t1 = _res_mul(u1, sq_x, v)
        for y in residue_elements(v):
            if _res_is_zero(x, v) and _res_is_zero(y, v):
                continue
            sq_y = _res_mul(y, y, v)
            rhs = _res_neg(
                _res_mul(_res_add(t1, _res_mul(u2, sq_y, v), v), inv_u3, v), v
            )
            if _res_is_zero(rhs, v) or _res_is_square(rhs, v):
                return True
    raise AssertionError("Chevalley-Warning guarantees a rank-3 zero")


def _res_add(x, y, v):
    if v.is_infinite:
        return (x + y) % v.p
    return (x + y) % v.pi


def _res_inverse(x, v):
    if v.is_infinite:
        return pow(x, v.p - 2, v.p)
    return x.invmod(v.pi)


def local_isotropic(entries, v):
    """Exact isotropy of the diagonal form <entries> over k_v (Springer route)."""
    if any(a.is_zero() for a in entries):
        raise ValueError("diagonal entries must be nonzero")
    first, second = [], []
    for a in entries:
        u = LocalUnit(a, v)
        (first if u.valuation % 2 == 0 else second).append(u.residue)
    if len(first) >= 2 and residue_form_isotropic(first, v):
        return True
    if len(second) >= 2 and residue_form_isotropic(second, v):
        return True
    return False


def hilbert_symbol_oracle(a, b, v):
    """Symbol via the isotropy of <a, b, -1>: the defining conic condition."""
    from .funcfield import RatFunc

    minus_one = RatFunc.from_int(a.p, -1)
    return 1 if local_isotropic([a, b, minus_one], v) else -1
