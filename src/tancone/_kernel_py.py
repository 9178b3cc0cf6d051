"""Pure-Python polynomial kernel.

Hot-path primitives of the Buchberger oracle.  A monomial is one
integer (``PolyRing.pack``): an 8-bit field per variable, big-endian in
ring order (the largest variable most significant), and above them the
total degree, in as many bits as it needs, so plain integer order is the
homogeneous-lex term order across degrees too.  The top bit of each
variable field is a guard bit (``guards`` masks them all), which a
monomial leaves clear, so an exponent is at most 127.  Then:

- the product of two monomials is ``a + b``; each field of the sum is at
  most 254, so no field carries into the next and the integer is still
  the exact product, with a guard bit set exactly when an exponent
  exceeds 127;
- a divides b exactly when ``(b - a) & guards == 0``: a field of b below
  a's borrows from the field above, which sets its own guard bit;
- the lcm is the field-wise max (``mono_lcm``), and two monomials are
  coprime exactly when their lcm is their product.

A product that sets a guard bit never reaches a result or a further
product: ``spoly`` and ``poly_mul`` raise ``OverflowError`` on one, and
``normal_form`` when one is to be reduced or kept.  So nothing wraps,
and a result is either exact or an error.

A polynomial is a dict mapping monomials to nonzero coefficients: over
the rationals (p == 0) an int where the value is integral and a Fraction
otherwise (arithmetic may leave a Fraction of denominator 1, which is
equal to and hashes as the int), and over a prime field ints in [1, p).
So reducing integer polynomials by divisors whose leads are +/-1, as the
monic tangent-cone minors are, stays in int arithmetic.

Division reads each divisor as a record built once per polynomial
(``divisor_record``): its lead, the inverse of its lead coefficient, and
its other terms.  A ``ring.Poly`` builds its record on its first
division only: a polynomial that is only ever divided, as the patch
minors are in Buchberger, keeps its lead and no second copy of its
terms.
"""

from fractions import Fraction


def mono_lcm(a, b, guards):
    """lcm of two monomials: the field-wise max of their exponents, and
    the degree of that."""
    low = guards - (guards >> 7)  # 0x7F in every variable field
    # a field of (a | guards) - b keeps its guard bit when a's exponent
    # is at least b's; no field borrows from the next
    ge = ((a | guards) - b) & guards
    take_a = ge - (ge >> 7)
    fields = (a & take_a) | (b & (low ^ take_a))
    shift = guards.bit_length()
    return fields + (sum(fields.to_bytes(shift // 8, "big")) << shift)


def leading_monomial(terms):
    if not terms:
        raise ValueError("zero polynomial has no leading monomial")
    return max(terms)


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


def poly_mul(f, g, p, guards):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = m1 + m2
            if m & guards:
                raise OverflowError("an exponent above 127")
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


def divisor_record(terms, p):
    """What division by a nonzero polynomial needs, computed once:
    (lead, inverse of the lead coefficient, tail), where the tail holds
    (monomial, coefficient) for every other term.  Raises ValueError on
    zero."""
    lead = leading_monomial(terms)
    tail = dict(terms)
    del tail[lead]
    return lead, _inv(terms[lead], p), tuple(tail.items())


def normal_form(f, divisors, p, guards):
    """Remainder of f modulo a list of divisor records (``divisor_record``).

    The largest remaining term, the integer maximum of the work
    polynomial, is always reduced by the first record in list order whose
    lead divides it, which makes the result deterministic for
    non-Groebner inputs too.  A product of a tail term and a quotient is
    exact, with a guard bit set if an exponent passed 127; each term is
    checked when it leaves the work polynomial, so such a product raises
    ``OverflowError`` unless it cancels, which it does only where the
    exact one does.
    """
    work = dict(f)
    remainder = {}
    while work:
        m = max(work)
        c = work.pop(m)
        if m & guards:
            raise OverflowError("an exponent above 127")
        for lead, inv, tail in divisors:
            q = m - lead
            if q & guards:
                continue
            if inv == 1:  # a monic divisor: spare the product
                factor = c
            else:
                factor = c * inv
                if p:
                    factor %= p
            for gm, gc in tail:
                mm = gm + q
                v = work.get(mm, 0) - factor * gc
                if p:
                    v %= p
                if v:
                    work[mm] = v
                else:
                    del work[mm]
            break
        else:
            remainder[m] = c
    return remainder


def spoly(f, g, p, guards):
    """S-polynomial of two nonzero polynomials, built monic on both sides."""
    lmf = leading_monomial(f)
    lmg = leading_monomial(g)
    lcm = mono_lcm(lmf, lmg, guards)
    uf = lcm - lmf
    ug = lcm - lmg
    cf = _inv(f[lmf], p)
    cg = _inv(g[lmg], p)
    sf = {m + uf: (c * cf) % p if p else c * cf for m, c in f.items()}
    sg = {m + ug: (c * cg) % p if p else c * cg for m, c in g.items()}
    for m in (*sf, *sg):
        if m & guards:
            raise OverflowError("an exponent above 127")
    return poly_sub(sf, sg, p)
