"""Exact sparse polynomials in the patch coordinates, and the Buchberger
oracle for reduced Groebner bases under the homogeneous-lex term order.

The variable order is X(r,c) > X(r',c') iff r > r', or r = r' and
c < c'.  Variables are stored descending in that order, so comparing
(degree, exponent tuple) realises the term order directly.

Coefficients live in Q (as Fractions) or in a prime field F_p; the
characteristic is a property of the ring.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations

from ._kernel_py import (
    leading_monomial,
    make_monic,
    mono_divides,
    mono_key,
    mono_lcm,
    mono_mul,
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
        self._zero_mono = (0,) * self.nvars

    @classmethod
    def for_patch(cls, beta: Index, d: int, p: int = 0) -> "PolyRing":
        return cls(sorted(upper_points(beta, d), key=variable_sort_key), p=p)

    # -- coefficient helpers ------------------------------------------------

    def coeff(self, c):
        if self.p:
            c = c % self.p
            return c
        if isinstance(c, Fraction):
            return c
        return Fraction(c)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {self._zero_mono: self.coeff(1)})

    def gen(self, var) -> "Poly":
        mono = [0] * self.nvars
        mono[self.index[var]] = 1
        return Poly(self, {tuple(mono): self.coeff(1)})

    def poly(self, terms) -> "Poly":
        """Build from {monomial tuple: coefficient}, dropping zeros."""
        out = {}
        for m, c in terms.items():
            c = self.coeff(c)
            if c:
                out[tuple(m)] = c
        return Poly(self, out)

    def monomial(self, exps) -> "Poly":
        return Poly(self, {tuple(exps): self.coeff(1)})

    # -- rendering ----------------------------------------------------------

    def var_name(self, i: int) -> str:
        v = self.variables[i]
        if isinstance(v, tuple) and len(v) == 2:
            return f"X({v[0]},{v[1]})"
        return str(v)

    def format_monomial(self, mono) -> str:
        parts = []
        for i, e in enumerate(mono):
            if e == 1:
                parts.append(self.var_name(i))
            elif e > 1:
                parts.append(f"{self.var_name(i)}^{e}")
        return "*".join(parts) if parts else "1"

    def format_poly(self, poly: "Poly") -> str:
        if not poly.terms:
            return "0"
        chunks = []
        for m in sorted(poly.terms, key=mono_key, reverse=True):
            c = poly.terms[m]
            mono = self.format_monomial(m)
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
    """Immutable-by-convention sparse polynomial bound to a ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

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
            return Poly(self.ring, poly_mul(self.terms, other.terms, self.ring.p))
        return self.scale(other)

    __rmul__ = __mul__

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return Poly(self.ring, poly_scale(self.terms, self.ring.coeff(c), self.ring.p))

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def leading_monomial(self):
        return leading_monomial(self.terms)

    def initial_term(self):
        """(monomial, coefficient) of the order-largest term."""
        lm = self.leading_monomial()
        return lm, self.terms[lm]

    def monic(self) -> "Poly":
        return Poly(self.ring, make_monic(self.terms, self.ring.p))

    def __repr__(self):
        return self.ring.format_poly(self)


# ---------------------------------------------------------------------------
# division and Buchberger


def normal_form(f: Poly, divisors) -> Poly:
    """Remainder of f modulo a list of polynomials, taken in the order
    given: each term is reduced by the first nonzero divisor whose
    initial monomial divides it.  Modulo a Groebner basis the remainder
    does not depend on that order; modulo other lists it may.
    """
    ring = f.ring
    basis = [(g.leading_monomial(), g.terms) for g in divisors if g.terms]
    return Poly(ring, _reduce_terms(f.terms, basis, ring.p))


def reduced_groebner(gens) -> list[Poly]:
    """The unique reduced Groebner basis of the ideal generated by ``gens``.

    Normal selection strategy with the coprime-lead criterion; output
    sorted by ascending initial monomial, each element monic with fully
    reduced tail.  Divisions take the basis in the order it was built.
    Reducing a tail keeps its lead, since no other lead of a minimal
    basis divides it, so the output keeps the minimal basis's order.

    Pending pairs wait in a heap of (degree of lcm, lcm, i, j), so the
    pair popped next is the one with the least lcm in the term order,
    ties broken by (i, j).  Each lcm is computed once, when its pair is
    pushed, from the leading monomials kept in ``leads`` beside the basis.
    """
    gens = [g for g in gens if g.terms]
    if not gens:
        return []
    ring = gens[0].ring

    basis: list[Poly] = []
    for g in sorted(gens, key=lambda h: mono_key(h.leading_monomial())):
        r = normal_form(g, basis)
        if r.terms:
            basis.append(r.monic())
    leads = [g.leading_monomial() for g in basis]
    pairs: list = []

    def push_pairs(j):
        for i in range(j):
            lcm = mono_lcm(leads[i], leads[j])
            heappush(pairs, (sum(lcm), lcm, i, j))

    for j in range(len(basis)):
        push_pairs(j)
    while pairs:
        _, lcm, i, j = heappop(pairs)
        if lcm == mono_mul(leads[i], leads[j]):
            continue  # coprime leads: S-poly reduces to zero
        s = Poly(ring, spoly(basis[i].terms, basis[j].terms, ring.p))
        r = normal_form(s, basis)
        if r.terms:
            g = r.monic()
            basis.append(g)
            leads.append(g.leading_monomial())
            push_pairs(len(basis) - 1)

    # minimalize
    basis.sort(key=lambda h: mono_key(h.leading_monomial()))
    minimal: list[Poly] = []
    for g in basis:
        lm = g.leading_monomial()
        if not any(mono_divides(h.leading_monomial(), lm) for h in minimal):
            minimal.append(g)
    # interreduce tails
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        reduced.append(normal_form(g, others).monic())
    return reduced


# ---------------------------------------------------------------------------
# monomial ideals and staircases


def minimal_monomial_generators(monos) -> list[tuple]:
    """Minimal generating set of the monomial ideal spanned by ``monos``."""
    uniq = sorted(set(monos), key=mono_key)
    minimal: list[tuple] = []
    for m in uniq:
        if not any(mono_divides(g, m) for g in minimal):
            minimal.append(m)
    return minimal


def initial_ideal_generators(groebner_basis) -> list[tuple]:
    return minimal_monomial_generators(
        g.leading_monomial() for g in groebner_basis if g.terms
    )


def monomials_of_degree(nvars: int, m: int):
    """All exponent tuples of total degree m, lexicographically."""
    if nvars == 0:
        if m == 0:
            yield ()
        return
    # stars and bars via combinations of bar positions
    for bars in combinations(range(m + nvars - 1), nvars - 1):
        prev = -1
        exps = []
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(m + nvars - 2 - prev)
        yield tuple(exps)


def monomials_outside(gen_monos, nvars: int, m: int) -> list[tuple]:
    """Degree-m monomials not divisible by any generator (the staircase).

    Any generating set gives the same staircase, since a monomial has a
    generator dividing it exactly when it has a minimal one; callers
    pass minimal lists, the fewest generators to test.
    """
    gens = tuple(gen_monos)
    out = []
    for mono in monomials_of_degree(nvars, m):
        if not any(mono_divides(g, mono) for g in gens):
            out.append(mono)
    return out
