"""Affine patch at a fixed point: coordinate matrix, minors, the
tangent-cone ideal generators, and the distinguished Groebner set.

The patch memoizes each orbit representative's monic minor and chain
fact for every case verified on it.  A minor is expanded along its last
row over a memo of strict sub-minors keyed by one integer, the row and
column bitmasks side by side, so a patch builds each sub-minor once for
every minor that contains it, and drops them with the patch when a sweep
is done with its beta.  Monomials are the ring's packed integers
(``PolyRing.pack``), one big-endian byte per variable in ring order
below the total degree: each variable's unit carries one degree unit
too, so a term times a variable is one integer addition and the
expansion yields the kernel's monomials directly, in which integer order
is the term order.  That is exact because a variable fills at most two
cells, X(r, c) and its mirror, so no exponent of a minor exceeds 2 and
no guard bit is ever reached.

The patch matrix is 2d x d with identity rows on beta; the remaining
entries are the upper-region coordinates, with each strictly-lower
position (r, c) identified to +/- the mirrored coordinate X(c*, r*).
The sign follows the split rule (``mirror_sign``) and the symplectic
form is the standard one (``definitions.form_eps``).  Of the readings of
the paper's boundary convention, this is the one that makes the patch
columns isotropic identically in the variables for every beta at every
d; the tests check that with ``definitions.column_inner_products`` on
the explicit matrix ``definitions.patch_entries`` for d <= 5, and check
that the strict-inequality reading fails at d = 2.  Reports name the
choice by ``FORM_LABEL``.
"""

from __future__ import annotations

from ._kernel_py import _inv
from .grid import is_upper, sharp_point
from .indexsets import (
    AdmissiblePair,
    Index,
    bits_index,
    bruhat_leq,
    index_bits,
    pairs_outside,
    star,
)
from .ring import Poly, PolyRing


FORM_LABEL = "form=standard;rule=split"


def mirror_sign(r: int, c: int, d: int) -> int:
    """Sign in X(r,c) = sign * X(c*, r*): minus when r and c* lie on
    opposite sides of d, with c* = d counted on the low side."""
    return -1 if (r > d) != (star(c, d) > d) else 1


class PatchMatrix:
    """2d x d coordinate matrix of the affine patch at e_beta.

    Beta's rows are the identity; ``signed_vars`` holds every other entry
    as the (variable index, sign) it is built from, which is what
    ``definitions.patch_entries`` reads to build the explicit matrix.
    The minors read the same entries by bit position: the d rows off
    beta, ascending, are bits 0..d-1 of a row mask, beta's columns bits
    0..d-1 of a column mask, and ``_entries[row][col]`` is (the packed
    variable, sign) of that cell.  ``_minors`` holds the strict
    sub-minors, packed, keyed by ``rows | cols << d``, and
    ``_generators`` each theta's monic minor and chain fact, which is
    read off the lead's bits through ``_points``: for the low bit of each
    variable's field, the variable's (row bit, column bit, row, column,
    whether it is positive), bit j of an index bitset standing for j.
    """

    def __init__(self, beta: Index, d: int, ring: PolyRing):
        self.beta = tuple(beta)
        self.d = d
        self.ring = ring
        self.signed_vars: dict[tuple[int, int], tuple[int, int]] = {}
        n = ring.nvars
        units = [ring.unit(i) for i in range(n)]
        rows = [r for r in range(1, 2 * d + 1) if r not in self.beta]
        self._row_bits = {r: 1 << i for i, r in enumerate(rows)}
        self._col_bits = {c: 1 << j for j, c in enumerate(self.beta)}
        self._entries: list[list[tuple[int, int]]] = []
        for r in rows:
            row = []
            for c in self.beta:
                if is_upper((r, c), d):
                    var, s = (r, c), 1
                else:
                    var, s = sharp_point((r, c), d), mirror_sign(r, c, d)
                i = ring.index[var]
                self.signed_vars[(r, c)] = (i, s)
                row.append((units[i], s))
            self._entries.append(row)
        # a lead is squarefree when no field holds an exponent above 1
        self._doubles = (ring.guards >> 7) * 0x7E
        # a squarefree lead's support is the low bit of each variable's
        # field, bit 8 (n - 1 - i) for variable i
        self._support = (1 << ring.shift) - 1
        self._points = {
            8 * (n - 1 - i): (1 << r, 1 << c, r, c, r > c)
            for i, (r, c) in enumerate(ring.variables)
        }
        self._beta_bits = index_bits(self.beta)
        self._minors: dict[int, dict[int, int]] = {}
        self._generators: dict[Index, tuple[Poly, tuple[bool, Index] | None]] = {}

    def _expand(self, rows: int, cols: int) -> dict[int, int]:
        """{packed monomial: integer coefficient} of the minor on the rows
        and columns of two masks: sum_j (-1)^(k-1+j) X(r, c_j) minor(rows
        - r, cols - c_j), r the last row and c_j the j-th column from 0,
        each sub-minor read from or put in ``_minors``."""
        if not rows & (rows - 1):  # at most one row
            if not rows:
                return {0: 1}
            unit, s = self._entries[rows.bit_length() - 1][cols.bit_length() - 1]
            return {unit: s}
        last = rows.bit_length() - 1
        head = rows ^ (1 << last)
        entries = self._entries[last]
        shift = self.d
        memo = self._minors
        acc: dict[int, int] = {}
        get = acc.get
        sign = -1 if head.bit_count() % 2 else 1
        rest = cols
        while rest:
            bit = rest & -rest
            rest ^= bit
            unit, s = entries[bit.bit_length() - 1]
            s *= sign
            sign = -sign
            key = head | (cols ^ bit) << shift
            sub = memo.get(key)
            if sub is None:
                sub = memo[key] = self._expand(head, cols ^ bit)
            for m, v in sub.items():
                m += unit
                acc[m] = get(m, 0) + s * v
        return {m: v for m, v in acc.items() if v}

    def _packed_minor(self, theta: Index) -> dict[int, int]:
        """``_expand`` on rows theta - beta, columns beta - theta, recalled
        if already a sub-minor, with its coefficients reduced mod p over
        F_p."""
        row_bits, col_bits = self._row_bits, self._col_bits
        rows = taken = 0
        for t in theta:
            if t in col_bits:
                taken |= col_bits[t]
            else:
                rows |= row_bits[t]
        cols = ((1 << len(self.beta)) - 1) ^ taken
        if rows.bit_count() != cols.bit_count():
            raise ValueError("theta and beta must have the same size")
        packed = self._minors.get(rows | cols << self.d)
        if packed is None:
            packed = self._expand(rows, cols)
        p = self.ring.p
        return {m: c % p for m, c in packed.items() if c % p} if p else packed

    def minor(self, theta: Index) -> Poly:
        """Determinant over rows theta minus beta, columns beta minus theta."""
        return Poly(self.ring, self._packed_minor(theta))

    def generator(self, theta: Index) -> tuple[Poly, tuple[bool, Index] | None]:
        """(monic minor, chain fact) of theta, memoized; the polynomial
        must not be mutated.  A minor vanishing over F_p gives (zero, None).

        The expansion's terms are already the kernel's packed monomials,
        so no term is unpacked: the lead is the integer maximum of the
        terms left mod p, and one pass scales them to lead coefficient 1.
        The polynomial keeps its lead but no divisor record, which it
        builds only if it ever divides (``Poly.divisor_record``); the
        generators of a case are only dividends.  The fact is (all points
        positive, chain value at beta) of the lead's support, if that is a
        squarefree one-signed chain; one AND tells a squarefree lead, and
        ``_chain_fact`` reads the rest off its bits."""
        theta = tuple(theta)
        entry = self._generators.get(theta)
        if entry is not None:
            return entry
        ring, p = self.ring, self.ring.p
        terms = self._packed_minor(theta)
        if not terms:
            entry = self._generators[theta] = (ring.zero(), None)
            return entry
        top = max(terms)
        inv = _inv(terms[top], p)
        if inv != 1:
            terms = {m: c * inv % p if p else c * inv for m, c in terms.items()}
        fact = None if top & self._doubles else self._chain_fact(top)
        entry = self._generators[theta] = (Poly(ring, terms, top), fact)
        return entry

    def _chain_fact(self, lead: int) -> tuple[bool, Index] | None:
        """(positive, value) of a squarefree lead whose support is a
        one-signed chain, else None.

        The support's bits are read high bit first, which is the ring's
        variable order and so chain order (larger row first, smaller
        column first): each point must lie strictly below the one before
        in the chain order (a smaller row and a larger column) and have
        the first point's sign.  The value, (beta minus the columns) union the rows, is
        formed on index bitsets (``indexsets.index_bits``) as
        ``beta_bits & ~cols | rows``."""
        support = lead & self._support
        if not support:
            return None
        points = self._points
        bit = support.bit_length() - 1
        rows, cols, last_r, last_c, positive = points[bit]
        support ^= 1 << bit
        while support:
            bit = support.bit_length() - 1
            support ^= 1 << bit
            row, col, r, c, sign = points[bit]
            if sign is not positive or r >= last_r or c <= last_c:
                return None
            rows |= row
            cols |= col
            last_r, last_c = r, c
        return positive, bits_index(self._beta_bits & ~cols | rows)


def build_patch(beta: Index, d: int, p: int = 0) -> PatchMatrix:
    """A fresh patch at e_beta over Q (p = 0) or F_p, with an empty memo.
    A beta that is not isotropic is refused by the ring's grid
    (``grid.grid_points``) before the matrix is built."""
    return PatchMatrix(beta, d, PolyRing.for_patch(beta, d, p=p))


def pair_minor(matrix: PatchMatrix, pair: AdmissiblePair) -> Poly:
    """f attached to an admissible pair: the minor of the lex-smaller
    orbit representative, scaled to initial coefficient 1."""
    return matrix.generator(pair.rep)[0]


def generator_set(
    alpha: Index, gamma: Index, patch: PatchMatrix
) -> tuple[list[AdmissiblePair], list[Poly]]:
    """(pairs, minors f) for every admissible pair (x, y) with alpha !<= y
    or x !<= gamma, on the patch at beta, in the order of
    ``admissible_pairs`` (``indexsets.pairs_outside``)."""
    pairs = pairs_outside(alpha, gamma, patch.d)
    return pairs, [pair_minor(patch, pair) for pair in pairs]


def good_subset(
    alpha: Index, gamma: Index, patch: PatchMatrix, pairs: list[AdmissiblePair]
) -> tuple[list[AdmissiblePair], list[Poly]]:
    """Those of ``pairs`` (the generator set's) whose initial monomial is
    a one-signed upper chain violating the matching bound: a positive
    chain whose value is not at or below gamma, or a negative one whose
    value is not at or above alpha.  Each generator's monic minor and
    chain fact are read together from the patch
    (``PatchMatrix.generator``), so a case makes one Bruhat test per
    generator with a one-signed chain."""
    good_pairs = []
    good_polys = []
    for pair in pairs:
        f, fact = patch.generator(pair.rep)
        if fact is None:
            continue
        positive, value = fact
        if positive:
            if bruhat_leq(value, gamma):
                continue
        elif bruhat_leq(alpha, value):
            continue
        good_pairs.append(pair)
        good_polys.append(f)
    return good_pairs, good_polys
