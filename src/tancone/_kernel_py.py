"""Pure-Python polynomial kernel.

Hot-path primitives shared by the Buchberger oracle and the staircase
counts.  A monomial is a tuple of exponents whose position 0 belongs to
the largest variable, so the homogeneous-lex term order is the plain
comparison of (degree, exponents).  A polynomial is a dict mapping
monomials to nonzero coefficients: over the rationals (p == 0) an int
where the value is integral and a Fraction otherwise (arithmetic may
leave a Fraction of denominator 1, which is equal to and hashes as the
int), and over a prime field ints in [1, p).  So reducing integer
polynomials by divisors whose leads are +/-1, as the monic tangent-cone
minors are, stays in int arithmetic.

Division reads each divisor as a record built once per polynomial
(``divisor_record``): its lead, a support bitmask of the lead that rules
out most divisors before any exponent is compared, the inverse of its
lead coefficient, and its other terms with their degree offsets from the
lead, which place each product straight into the degree bucket of the
work polynomial in ``normal_form``.
"""

from fractions import Fraction
from operator import add, le, sub


def mono_key(m):
    return (sum(m), m)


# The monomial helpers loop in C through ``map`` over ``operator``
# functions rather than in Python generator frames.


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    """True when a | b."""
    return all(map(le, a, b))


def mono_div(b, a):
    """b / a, or None when a does not divide b."""
    out = tuple(map(sub, b, a))
    if out and min(out) < 0:
        return None
    return out


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def leading_monomial(terms):
    if not terms:
        raise ValueError("zero polynomial has no leading monomial")
    return max(terms, key=mono_key)


def poly_scale(terms, c, p):
    if p:
        c %= p
        if c == 0:
            return {}
        return {m: (v * c) % p for m, v in terms.items()}
    if c == 0:
        return {}
    return {m: v * c for m, v in terms.items()}


def poly_add(f, g, p):
    out = dict(f)
    for m, c in g.items():
        v = out.get(m, 0) + c
        if p:
            v %= p
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def poly_sub(f, g, p):
    out = dict(f)
    for m, c in g.items():
        v = out.get(m, 0) - c
        if p:
            v %= p
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def poly_mul(f, g, p):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = mono_mul(m1, m2)
            v = out.get(m, 0) + c1 * c2
            if p:
                v %= p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def _inv(c, p):
    """1/c in F_p, or over Q an int when c is +/-1/n and a Fraction otherwise."""
    if p:
        return pow(c, p - 2, p)
    num, den = c.as_integer_ratio()
    if num < 0:
        num, den = -num, -den
    return den if num == 1 else Fraction(den, num)


def mono_support(m):
    """Bitmask of the variables that occur in m, one byte per variable."""
    return int.from_bytes(bytes(map(bool, m)), "little")


def divisor_record(terms, p):
    """What division by a nonzero polynomial needs, computed once:
    (lead, support mask of the lead, inverse of the lead coefficient,
    tail), where the tail holds (monomial, coefficient, degree minus the
    lead's degree) for every other term.  Raises ValueError on zero."""
    lead = leading_monomial(terms)
    degree = sum(lead)
    tail = tuple((m, c, sum(m) - degree) for m, c in terms.items() if m != lead)
    return lead, mono_support(lead), _inv(terms[lead], p), tail


def normal_form(f, divisors, p):
    """Remainder of f modulo a list of divisor records (``divisor_record``).

    The largest remaining term is always reduced by the first record in
    list order whose lead divides it, which makes the result
    deterministic for non-Groebner inputs too.  The work polynomial is
    held in buckets keyed by degree, so the largest term is the plain
    tuple maximum of the top bucket: the term order compares (degree,
    exponents).  A record whose lead has a variable the term lacks is
    skipped on its support mask before the exponents are compared.
    """
    buckets = {}
    for m, c in f.items():
        buckets.setdefault(sum(m), {})[m] = c
    remainder = {}
    while buckets:
        degree = max(buckets)
        bucket = buckets[degree]
        m = max(bucket)
        c = bucket.pop(m)
        if not bucket:
            del buckets[degree]
        missing = ~mono_support(m)
        for lead, mask, inv, tail in divisors:
            if mask & missing:
                continue
            q = mono_div(m, lead)
            if q is None:
                continue
            if inv == 1:  # a monic divisor: spare the product
                factor = c
            else:
                factor = c * inv
                if p:
                    factor %= p
            for gm, gc, shift in tail:
                mm = mono_mul(gm, q)
                into = buckets.setdefault(degree + shift, {})
                v = into.get(mm, 0) - factor * gc
                if p:
                    v %= p
                if v:
                    into[mm] = v
                else:
                    del into[mm]
                    if not into:
                        del buckets[degree + shift]
            break
        else:
            remainder[m] = c
    return remainder


def spoly(f, g, p):
    """S-polynomial of two nonzero polynomials, built monic on both sides."""
    lmf = leading_monomial(f)
    lmg = leading_monomial(g)
    lcm = mono_lcm(lmf, lmg)
    uf = mono_div(lcm, lmf)
    ug = mono_div(lcm, lmg)
    cf = _inv(f[lmf], p)
    cg = _inv(g[lmg], p)
    sf = {mono_mul(m, uf): (c * cf) % p if p else c * cf for m, c in f.items()}
    sg = {mono_mul(m, ug): (c * cg) % p if p else c * cg for m, c in g.items()}
    return poly_sub(sf, sg, p)
