"""Exact sparse polynomials in the patch coordinates, and the Buchberger
oracle for reduced Groebner bases under the homogeneous-lex term order.

The variable order is X(r,c) > X(r',c') iff r > r', or r = r' and
c < c'.  Variables are stored descending in that order.  A monomial of
a polynomial is one integer in the ring's one layout (``PolyRing.pack``,
and ``_kernel_py`` for its guard bits), whose integer order is the term
order; exponent tuples, ordered as (degree, tuple), appear only at the
edges: ``PolyRing.poly`` packs them, and leads and formatting unpack.

Coefficients live in Q or in a prime field F_p; the characteristic is a
property of the ring.  Over Q an integral coefficient is an int and any
other a Fraction (``PolyRing.coeff``), which keeps integer arithmetic
in ints until a division by a non-unit; over F_p coefficients are ints
in [1, p).
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import combinations, compress
from operator import itemgetter

from ._kernel_py import (
    _inv,
    divisor_record,
    leading_monomial,
    mono_lcm,
    poly_add,
    poly_mul,
    poly_scale,
    poly_sub,
    spoly,
)
from ._kernel_py import normal_form as _reduce_terms
from .grid import Point, upper_points
from .indexsets import Index


def variable_sort_key(p: Point):
    """Descending in the variable order: larger row first, smaller column first."""
    return (-p[0], p[1])


class PolyRing:
    """Polynomial ring on an ordered variable set.

    ``names`` are grid points by default; any hashable labels work.
    ``p`` = 0 means rational coefficients, otherwise a prime field.
    """

    def __init__(self, variables, p: int = 0):
        self.variables = tuple(variables)
        self.index = {v: i for i, v in enumerate(self.variables)}
        if len(self.index) != len(self.variables):
            raise ValueError("duplicate variables")
        if p < 0 or p == 1:
            raise ValueError("characteristic must be 0 or a prime")
        self.p = p
        self.nvars = len(self.variables)
        self.shift = 8 * self.nvars
        self.guards = int.from_bytes(b"\x80" * self.nvars, "big")
        self.names = tuple(map(self.var_name, range(self.nvars)))
        # packed monomial -> its text (``monomial_text``)
        self._texts: dict[int, str] = {}

    @classmethod
    def for_patch(cls, beta: Index, d: int, p: int = 0) -> "PolyRing":
        return cls(sorted(upper_points(beta, d), key=variable_sort_key), p=p)

    # -- monomials -----------------------------------------------------------

    def pack(self, exps) -> int:
        """Exponent tuple -> packed monomial: exponent i in the 8-bit field
        at bit 8 (nvars - 1 - i), whose top bit is its guard (``guards``
        masks them all), and the degree from bit ``shift`` up.  ValueError
        on an exponent outside [0, 127]."""
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError(f"{len(exps)} exponents for {self.nvars} variables")
        if exps and not 0 <= min(exps) <= max(exps) <= 127:
            raise ValueError(f"exponents must lie in [0, 127], got {exps}")
        return int.from_bytes(bytes(exps), "big") + (sum(exps) << self.shift)

    def unpack(self, m: int) -> tuple:
        """The exponent tuple of a packed monomial."""
        return tuple((m & ((1 << self.shift) - 1)).to_bytes(self.nvars, "big"))

    # -- coefficient helpers ------------------------------------------------

    def coeff(self, c):
        """c as a coefficient of this ring: reduced mod p over F_p; over Q
        an int when c is integral and a Fraction otherwise, never a float
        (a float is read exactly, as ``Fraction`` reads it)."""
        if self.p:
            return c % self.p
        if type(c) is int:
            return c
        c = Fraction(c)
        return c.numerator if c.denominator == 1 else c

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {0: self.coeff(1)})

    def unit(self, i: int) -> int:
        """The packed monomial of variable i alone."""
        return (1 << self.shift) + (1 << 8 * (self.nvars - 1 - i))

    def gen(self, var) -> "Poly":
        return Poly(self, {self.unit(self.index[var]): self.coeff(1)})

    def poly(self, terms) -> "Poly":
        """Build from {exponent tuple: coefficient}, dropping zeros; a
        ValueError on an exponent above 127 (``pack``)."""
        out = {}
        for m, c in terms.items():
            c = self.coeff(c)
            if c:
                out[self.pack(m)] = c
        return Poly(self, out)

    # -- rendering ----------------------------------------------------------

    def var_name(self, i: int) -> str:
        v = self.variables[i]
        if isinstance(v, tuple) and len(v) == 2:
            return f"X({v[0]},{v[1]})"
        return str(v)

    def format_monomial(self, mono) -> str:
        """The text of an exponent tuple: "X(4,1)*X(2,3)^2", "1" for no
        variable."""
        names = self.names
        parts = [names[i] if e == 1 else f"{names[i]}^{e}" for i, e in enumerate(mono) if e > 0]
        return "*".join(parts) if parts else "1"

    def monomial_text(self, m: int) -> str:
        """``format_monomial`` of a packed monomial, kept in a memo that
        lives as long as the ring (a patch's, so one fixed point's), as a
        sweep formats the same leads case after case."""
        text = self._texts.get(m)
        if text is None:
            text = self._texts[m] = self.format_monomial(self.unpack(m))
        return text

    def format_poly(self, poly: "Poly") -> str:
        if not poly.terms:
            return "0"
        chunks = []
        for m in sorted(poly.terms, reverse=True):
            c = poly.terms[m]
            mono = self.format_monomial(self.unpack(m))
            if c == 1 and mono != "1":
                chunks.append(f"+ {mono}")
            elif c == -1 and mono != "1" and not self.p:
                chunks.append(f"- {mono}")
            else:
                sign = "+"
                if not self.p and c < 0:
                    sign, c = "-", -c
                body = str(c) if mono == "1" else f"{c}*{mono}"
                chunks.append(f"{sign} {body}")
        text = " ".join(chunks)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self):
        field = "QQ" if self.p == 0 else f"FF({self.p})"
        return f"PolyRing({self.nvars} vars, {field})"

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.variables == other.variables
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.variables, self.p))


class Poly:
    """Immutable-by-convention sparse polynomial bound to a ring.

    ``terms`` maps packed monomials (``PolyRing.pack``) to nonzero
    coefficients; a product raises ``OverflowError`` rather than wrap past
    an exponent of 127, and ``leading_monomial`` unpacks the lead alone.
    The packed lead (``lead``) is computed on first use, or passed in,
    and kept; the divisor record (packed lead, inverse lead coefficient,
    tail) is built on first division only, so a polynomial that is only
    ever a dividend holds no second copy of its terms.  Both are sound to
    keep because ``terms`` is never mutated after construction, and
    neither takes part in ``==`` or ``hash``.
    """

    __slots__ = ("ring", "terms", "_lead", "_record")

    def __init__(self, ring: PolyRing, terms: dict, lead: int | None = None):
        self.ring = ring
        self.terms = terms
        self._lead = lead
        self._record = None

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __add__(self, other):
        return Poly(self.ring, poly_add(self.terms, other.terms, self.ring.p))

    def __sub__(self, other):
        return Poly(self.ring, poly_sub(self.terms, other.terms, self.ring.p))

    def __mul__(self, other):
        if isinstance(other, Poly):
            ring = self.ring
            return Poly(ring, poly_mul(self.terms, other.terms, ring.p, ring.guards))
        return self.scale(other)

    __rmul__ = __mul__

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return Poly(self.ring, poly_scale(self.terms, self.ring.coeff(c), self.ring.p))

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(self.terms) >> self.ring.shift

    def is_homogeneous(self) -> bool:
        shift = self.ring.shift
        return len({m >> shift for m in self.terms}) <= 1

    def lead(self) -> int:
        """The packed leading monomial, the integer maximum of the terms,
        computed once; ValueError on zero."""
        if self._lead is None:
            self._lead = leading_monomial(self.terms)
        return self._lead

    def divisor_record(self):
        """``_kernel_py.divisor_record`` of this polynomial, built once."""
        if self._record is None:
            self._record = divisor_record(self.terms, self.ring.p)
        return self._record

    def leading_monomial(self) -> tuple:
        """Exponent tuple of the order-largest term."""
        return self.ring.unpack(self.lead())

    def initial_term(self):
        """(exponent tuple, coefficient) of the order-largest term."""
        lead = self.lead()
        return self.ring.unpack(lead), self.terms[lead]

    def monic(self) -> "Poly":
        """This polynomial scaled to leading coefficient 1; itself when it
        already is (or is zero)."""
        if not self.terms:
            return self
        lead = self.lead()
        inv = _inv(self.terms[lead], self.ring.p)
        if inv == 1:
            return self
        return Poly(self.ring, poly_scale(self.terms, inv, self.ring.p), lead)

    def __repr__(self):
        return self.ring.format_poly(self)


# ---------------------------------------------------------------------------
# division and Buchberger


def normal_form(f: Poly, divisors) -> Poly:
    """Remainder of f modulo a list of polynomials, taken in the order
    given: each term is reduced by the first nonzero divisor whose
    initial monomial divides it.  Modulo a Groebner basis the remainder
    does not depend on that order; modulo other lists it may.

    Each divisor is handed to the kernel as its divisor record, which
    the ``Poly`` builds once, on first use, and then keeps.  A product
    taking an exponent past 127 raises ``OverflowError`` (``_kernel_py``).
    """
    ring = f.ring
    records = [g.divisor_record() for g in divisors if g.terms]
    return Poly(ring, _reduce_terms(f.terms, records, ring.p, ring.guards))


def reduced_groebner(gens) -> list[Poly]:
    """The unique reduced Groebner basis of the ideal generated by ``gens``,
    sorted by ascending initial monomial, each element monic with fully
    reduced tail.

    The generators that are a scalar times one variable span the
    variables V of the ideal, and k[x]/(x_V) is again a polynomial ring,
    so the basis is the monic x_v for v in V together with the reduced
    basis of the other generators with every term that meets V dropped
    (unless those generate the unit ideal, whose basis is 1 alone).  That
    holds for every term order and field.  Whether a term meets V is one
    AND of the packed monomial with the mask of V's fields.  Many generators
    of a tangent-cone ideal are 1 x 1 minors, single patch variables, and
    dropping those variables first leaves far fewer and shorter
    polynomials to the Buchberger loop (``_buchberger``).
    """
    gens = [g for g in gens if g.terms]
    if not gens:
        return []
    ring = gens[0].ring
    variables: dict[int, Poly] = {}
    for g in gens:
        if len(g.terms) == 1:
            (m,) = g.terms
            if m >> ring.shift == 1:
                variables.setdefault(m, g)
    # a variable's field holds 1, so 0xFF times it fills that field
    vmask = sum(m & (ring.guards >> 7) for m in variables) * 0xFF
    rest = []
    for g in gens:
        terms = {m: c for m, c in g.terms.items() if not m & vmask}
        if terms:
            rest.append(g if len(terms) == len(g.terms) else Poly(ring, terms))
    basis = _buchberger(rest)
    if basis and not basis[0].lead():
        return basis  # the unit ideal
    basis += (g.monic() for g in variables.values())
    basis.sort(key=Poly.lead)
    return basis


def _buchberger(gens) -> list[Poly]:
    """Reduced Groebner basis of nonzero ``gens``, sorted by ascending
    initial monomial.

    Normal selection strategy with the coprime-lead criterion.  Divisions
    take the basis in the order it was built.  Reducing a tail keeps its
    lead, since no other lead of a minimal basis divides it, so the
    output keeps the minimal basis's order.

    Pending pairs wait in a heap of (lcm, i, j), so the pair popped next
    is the one with the least lcm in the term order, which is the integer
    order of packed monomials, ties broken by (i, j).  Each lcm is
    computed once, when its pair is pushed, from the packed leads kept in
    ``leads`` beside the basis.  Every other lead, in the sorts, the
    minimalization and ``monic``, is the polynomial's own, computed once
    per ``Poly``.  Only basis elements divide, so the generators, which
    are only dividends, never build a divisor record.
    """
    if not gens:
        return []
    ring = gens[0].ring
    guards = ring.guards

    basis: list[Poly] = []
    for g in sorted(gens, key=Poly.lead):
        r = normal_form(g, basis)
        if r.terms:
            basis.append(r.monic())
    leads = [g.lead() for g in basis]
    pairs: list = []

    def push_pairs(j):
        for i in range(j):
            heappush(pairs, (mono_lcm(leads[i], leads[j], guards), i, j))

    for j in range(len(basis)):
        push_pairs(j)
    while pairs:
        lcm, i, j = heappop(pairs)
        if lcm == leads[i] + leads[j]:
            continue  # coprime leads: S-poly reduces to zero
        s = Poly(ring, spoly(basis[i].terms, basis[j].terms, ring.p, guards))
        r = normal_form(s, basis)
        if r.terms:
            g = r.monic()
            basis.append(g)
            leads.append(g.lead())
            push_pairs(len(basis) - 1)

    # minimalize: every element is a nonzero normal form modulo the ones
    # before it, so the leads are distinct
    by_lead = dict(zip(leads, basis))
    minimal = [by_lead[m] for m in minimal_leads(leads, guards)]
    # interreduce tails
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        reduced.append(normal_form(g, others).monic())
    return reduced


# ---------------------------------------------------------------------------
# monomial ideals and staircases


def minimal_leads(monos, guards: int) -> list[int]:
    """Minimal generating set of the monomial ideal spanned by the packed
    monomials ``monos`` of a ring with these ``guards``, ascending: in
    integer order, which is the term order, a monomial is kept unless a
    kept one divides it (``(m - g) & guards == 0``, ``_kernel_py``)."""
    minimal: list[int] = []
    for m in sorted(set(monos)):
        if all((m - g) & guards for g in minimal):
            minimal.append(m)
    return minimal


def monomials_of_degree(nvars: int, m: int):
    """All exponent tuples of total degree m, lexicographically, as an
    iterator over a table built once per (nvars, m)."""
    return iter(_degree_table(nvars, m)[0])


class _LazyTests(dict):
    """A lazy dict from a value to ``test(value)``, each computed on first
    lookup."""

    def __init__(self, test):
        self.test = test

    def __missing__(self, value):
        result = self[value] = self.test(value)
        return result


@lru_cache(maxsize=None)
def _degree_table(nvars: int, m: int) -> tuple[tuple[tuple, ...], list[_LazyTests]]:
    """The degree-m exponent tuples in lexicographic order, and their
    threshold bitsets: for each variable i a lazy dict from an exponent
    e to ``_threshold_bitset(table, i, e, m)``, each built on first read
    and kept with the table."""
    if nvars == 0:
        return ((),) if m == 0 else (), []
    # stars and bars via combinations of bar positions
    table = []
    for bars in combinations(range(m + nvars - 1), nvars - 1):
        prev = -1
        exps = []
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(m + nvars - 2 - prev)
        table.append(tuple(exps))
    table = tuple(table)
    return table, [
        _LazyTests(lambda e, i=i: _threshold_bitset(table, i, e, m)) for i in range(nvars)
    ]


# a field's top byte after masking, 0x80 or 0, as a binary digit
_TOP_BIT = bytes.maketrans(b"\x00\x80", b"01")
# a binary digit of the divisible set, as a selector of the monomials outside it
_OUTSIDE = bytes.maketrans(b"01", b"\x01\x00")


def _threshold_bitset(table, i: int, e: int, m: int) -> int:
    """The integer whose bit j is set when ``table[j][i] >= e``, for a
    table of degree-m tuples and 1 <= e <= m.

    Built word-parallel, with no loop over the table in Python.  Variable
    i's exponents are packed into one integer, a little-endian field of k
    bytes each, with m < h = 2**(8k - 1), so adding h - e to every field
    at once never carries out of a field and sets a field's top bit
    exactly when its exponent is >= e.  Those top bits, read off as binary
    digits, are the bitset; the column is packed in reverse table order
    so that the digits come most significant first.
    """
    widths = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))
    k, code = next((k, code) for k, code in widths if m < 1 << 8 * k - 1)
    column = struct.pack(f"<{len(table)}{code}", *map(itemgetter(i), reversed(table)))
    ones = int.from_bytes((b"\x01" + bytes(k - 1)) * len(table), "little")
    tops = ones << 8 * k - 1
    shifted = int.from_bytes(column, "little") + tops - e * ones
    digits = (shifted & tops).to_bytes(k * len(table), "little")[k - 1 :: k]
    return int(digits.translate(_TOP_BIT), 2)


def monomials_outside(gen_monos, nvars: int, m: int) -> list[tuple]:
    """Degree-m monomials not divisible by any generator (the staircase),
    in table order.

    Divisibility is decided for the whole degree-m table at once, on
    bitsets over its positions (``_threshold_bitset``), built only for
    the (variable, exponent) pairs that the generators read and kept with
    the table (``_degree_table``): a generator's
    multiples are the AND of the bitsets of its nonzero exponents (all
    of the table for the zero monomial, none of it for a generator of
    degree above m), and the divisible set is their OR.  The staircase
    is then the table read through ``monomials_of_degree`` and kept
    where that set's bit is clear, so it is the same list, in the same
    order, as a scan testing every monomial against every generator.
    Any generating set gives the same staircase, since a monomial has a
    generator dividing it exactly when it has a minimal one.
    """
    table, bits = _degree_table(nvars, m)
    everything = (1 << len(table)) - 1
    divisible = 0
    for g in gen_monos:
        if sum(g) > m:
            continue
        multiples = everything
        for i, e in enumerate(g):
            if e:
                multiples &= bits[i][e]
        divisible |= multiples
    digits = format(divisible, f"0{len(table)}b").encode()[::-1]
    return list(compress(monomials_of_degree(nvars, m), digits.translate(_OUTSIDE)))
