"""Pure-Python polynomial kernel.

Hot-path primitives shared by the Buchberger oracle and the staircase
counts.  A monomial is a tuple of exponents whose position 0 belongs to
the largest variable, so the homogeneous-lex term order is the plain
comparison of (degree, exponents).  A polynomial is a dict mapping
monomials to nonzero coefficients: Fraction over the rationals (p == 0)
or ints in [1, p) over a prime field.
"""

from fractions import Fraction


def mono_key(m):
    return (sum(m), m)


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True when a | b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(b, a):
    """b / a, or None when a does not divide b."""
    out = []
    for x, y in zip(b, a):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


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
    if p:
        return pow(c, p - 2, p)
    if isinstance(c, Fraction):
        return Fraction(c.denominator, c.numerator)
    return Fraction(1, c)


def make_monic(terms, p):
    if not terms:
        return terms
    lc = terms[leading_monomial(terms)]
    if lc == 1:
        return dict(terms)
    return poly_scale(terms, _inv(lc, p), p)


def normal_form(f, basis, p):
    """Remainder of f modulo a divisor list.

    ``basis`` is a list of (leading monomial, terms) pairs; the caller
    sorts it by ascending leading monomial, and the first divisor of the
    currently largest reducible term is always used, which makes the
    result deterministic for non-Groebner inputs too.
    """
    work = dict(f)
    remainder = {}
    while work:
        m = max(work, key=mono_key)
        c = work.pop(m)
        for lm, g in basis:
            q = mono_div(m, lm)
            if q is None:
                continue
            factor = c * _inv(g[lm], p)
            if p:
                factor %= p
            for gm, gc in g.items():
                if gm == lm:
                    continue
                mm = mono_mul(gm, q)
                v = work.get(mm, 0) - factor * gc
                if p:
                    v %= p
                if v:
                    work[mm] = v
                else:
                    work.pop(mm, None)
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
