"""Affine patch at a fixed point: coordinate matrix, minors, the
tangent-cone ideal generators, and the distinguished Groebner set.

A case needs two things of each generator's minor: its lead, to classify
it, and its terms that avoid the case's variables V (the ideal's 1 x 1
generators), which is all the reduced Groebner basis keeps.  So the
verify path never expands a full minor of size 2 or more.  The patch
memoizes each orbit representative's lead record (lead, chain fact,
row and column masks), built from the leads of its sub-minors: along
the last row each candidate is X(r, c_j) times lead(sub_j), and the
largest one is the lead unless the sub-leads reaching it cancel, when
the minor is expanded in full instead.  ``generator_set`` then hands the
Groebner oracle the monic 1 x 1 minors and every larger minor modulo V,
which is the determinant of its submatrix with V's cells set to zero,
but for a minor that one Laplace row already puts in the ideal: along
that row each cell is of V or has a complement that is a generator one
size smaller or zero modulo V, so the ideal, and so its reduced basis,
is the same without it.  Full minors (``minor``, and ``pair_minor``,
which scales one to a monic lead) are built only for ``ideal``, the
1 x 1 generators and the tests.

A minor is expanded along its last row over a memo of strict sub-minors
keyed by one integer, the row and column bitmasks side by side, so each
sub-minor is built once for every minor that contains it: the patch's
memo for full minors and sub-leads, a memo per case for the minors
modulo V.  Monomials are the ring's packed integers
(``PolyRing.pack``), one big-endian byte per variable in ring order
below the total degree: each variable's unit carries one degree unit
too, so a term times a variable is one integer addition and the
expansion yields the kernel's monomials directly, in which integer order
is the term order.  That is exact because a variable fills at most two
cells, X(r, c) and its mirror, so no exponent of a minor exceeds 2 and
no guard bit is ever reached; for the same reason a variable times two
terms keeps their order, which is what makes a lead of sub-leads exact.

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
    variable, sign) of that cell.  ``_cells`` maps each packed variable
    to the cells it fills, bit ``row * d + col`` of one mask.  Keyed by
    ``rows | cols << d``, ``_minors`` holds the strict sub-minors of the
    full minors, packed (empty on the verify path, which builds no full
    minor above 1 x 1), and ``_leads`` the (lead, coefficient) of every
    minor a lead record reached.  ``_records`` holds each theta's lead
    record, the one source of its lead and chain fact; a full minor is
    not kept.  A chain fact is read off the lead's bits through
    ``_points``: for the low bit of each variable's field, the variable's
    (row bit, column bit, row, column, whether it is positive), bit j of
    an index bitset standing for j.
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
        self._cells: dict[int, int] = {}
        for i, r in enumerate(rows):
            row = []
            for j, c in enumerate(self.beta):
                if is_upper((r, c), d):
                    var, s = (r, c), 1
                else:
                    var, s = sharp_point((r, c), d), mirror_sign(r, c, d)
                k = ring.index[var]
                self.signed_vars[(r, c)] = (k, s)
                row.append((units[k], s))
                self._cells[units[k]] = self._cells.get(units[k], 0) | 1 << (i * d + j)
            self._entries.append(row)
        self._full = [(1 << d) - 1] * d  # every cell of every row live
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
        self._leads: dict[int, tuple[int, int]] = {}
        self._records: dict[Index, tuple[int | None, tuple[bool, Index] | None, int, int]] = {}

    def _lines(self, theta: Index) -> tuple[int, int]:
        """(row mask, column mask) of theta's minor: rows theta - beta,
        columns beta - theta."""
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
        return rows, cols

    def _expand(self, rows: int, cols: int, live: list[int], memo: dict) -> dict[int, int]:
        """{packed monomial: integer coefficient} of the minor on the rows
        and columns of two masks, every cell outside ``live`` (a column
        mask per row) read as zero: sum_j (-1)^(k-1+j) X(r, c_j)
        minor(rows - r, cols - c_j) over the live c_j, r the last row and
        c_j the j-th column from 0, each sub-minor read from or put in
        ``memo``."""
        if not rows & (rows - 1):  # at most one row
            if not rows:
                return {0: 1}
            row = rows.bit_length() - 1
            if not live[row] & cols:
                return {}
            unit, s = self._entries[row][cols.bit_length() - 1]
            return {unit: s}
        last = rows.bit_length() - 1
        head = rows ^ (1 << last)
        entries = self._entries[last]
        row_live = live[last]
        shift = self.d
        acc: dict[int, int] = {}
        get = acc.get
        sign = -1 if head.bit_count() % 2 else 1
        rest = cols
        while rest:
            bit = rest & -rest
            rest ^= bit
            s = sign
            sign = -sign
            if not bit & row_live:
                continue
            unit, e = entries[bit.bit_length() - 1]
            s *= e
            key = head | (cols ^ bit) << shift
            sub = memo.get(key)
            if sub is None:
                sub = memo[key] = self._expand(head, cols ^ bit, live, memo)
            for m, v in sub.items():
                m += unit
                acc[m] = get(m, 0) + s * v
        return {m: v for m, v in acc.items() if v}

    def _reduced(self, terms: dict[int, int]) -> dict[int, int]:
        """``terms`` with their coefficients reduced mod p over F_p."""
        p = self.ring.p
        return {m: c % p for m, c in terms.items() if c % p} if p else terms

    def _lead(self, rows: int, cols: int) -> tuple[int, int]:
        """(lead, lead coefficient) of the minor on two masks, the
        coefficient mod p over F_p, or (0, 0) if the minor is zero (mod p).

        Along the last row, X(r, c_j) times sub_j has lead X(r, c_j)
        times lead(sub_j): one addition, which keeps the integer order of
        terms.  So the minor's lead is the largest of those candidates,
        with the signed sum of the lead coefficients of the j that reach
        it, unless that sum vanishes; then the minor is expanded in full,
        on a memo of its own.  Sub-leads are read from or put in
        ``_leads``, and a zero sub-minor is skipped."""
        p = self.ring.p
        if not rows & (rows - 1):  # at most one row
            if not rows:
                return 0, 1
            unit, s = self._entries[rows.bit_length() - 1][cols.bit_length() - 1]
            return unit, s % p if p else s
        last = rows.bit_length() - 1
        head = rows ^ (1 << last)
        entries = self._entries[last]
        shift = self.d
        memo = self._leads
        top, coef = -1, 0
        sign = -1 if head.bit_count() % 2 else 1
        rest = cols
        while rest:
            bit = rest & -rest
            rest ^= bit
            s = sign
            sign = -sign
            key = head | (cols ^ bit) << shift
            sub = memo.get(key)
            if sub is None:
                sub = memo[key] = self._lead(head, cols ^ bit)
            m, c = sub
            if not c:
                continue
            unit, e = entries[bit.bit_length() - 1]
            m += unit
            if m > top:
                top, coef = m, s * e * c
            elif m == top:
                coef += s * e * c
        if p:
            coef %= p
        if coef:
            return top, coef
        terms = self._reduced(self._expand(rows, cols, self._full, {}))
        if not terms:
            return 0, 0
        top = max(terms)
        return top, terms[top]

    def record(self, theta: Index) -> tuple[int | None, tuple[bool, Index] | None, int, int]:
        """(packed lead, chain fact, row mask, column mask) of theta's
        minor, memoized; the lead is None and the fact None when the minor
        vanishes (over F_p).  The lead comes from sub-leads (``_lead``).
        The fact is (all points positive, chain value at beta) of the
        lead's support, if that is a squarefree one-signed chain: one AND
        tells a squarefree lead, and ``_chain_fact`` reads the rest off
        its bits."""
        entry = self._records.get(theta)
        if entry is not None:
            return entry
        rows, cols = self._lines(theta)
        key = rows | cols << self.d
        lead = self._leads.get(key)
        if lead is None:
            lead = self._leads[key] = self._lead(rows, cols)
        top, coef = lead
        if not coef:
            entry = (None, None, rows, cols)
        else:
            fact = None if top & self._doubles else self._chain_fact(top)
            entry = (top, fact, rows, cols)
        self._records[theta] = entry
        return entry

    def modulo(self, variables: list[Poly], keys: list[int]) -> list[Poly]:
        """The nonzero minors on the line keys ``keys`` (``rows | cols <<
        d``) modulo the ideal of ``variables`` (single variables), in
        order, but for those one Laplace row puts in the ideal of V and of
        the other keys' minors: each minor with every cell of V set to
        zero, its coefficients mod p, expanded on one memo.

        A minor on (R, C) is left out when some row r of R has, for each
        cell (r, c) not of V, a complement (R - r, C - c) that is either
        one of ``keys`` or zero modulo V, with a row or a column of V's
        cells only (``_dead``).  Then M(R, C) = sum +/- X(r, c) M(R - r,
        C - c) lies in the ideal of V and of minors one size smaller,
        which by induction on size the kept minors generate too, over Q
        and every F_p.  A minor with a dead row passes on that row with
        no cell to test, and one with a dead column on any row, as every
        complement keeps the column."""
        d = self.d
        dead = 0
        for f in variables:
            for unit in f.terms:
                dead |= self._cells[unit]
        full = (1 << d) - 1
        live = [full & ~(dead >> (i * d)) for i in range(d)]
        listed = set(keys)
        memo: dict[int, dict[int, int]] = {}
        ring = self.ring
        out = []
        for key in keys:
            rows, cols = key & full, key >> d
            rest = rows
            while rest:
                bit = rest & -rest
                rest ^= bit
                head = rows ^ bit
                cells = live[bit.bit_length() - 1] & cols
                while cells:
                    cell = cells & -cells
                    sub = cols ^ cell
                    if head | sub << d not in listed and not _dead(live, head, sub):
                        break
                    cells ^= cell
                if not cells:  # row r puts the minor in the ideal
                    break
            else:
                terms = self._reduced(self._expand(rows, cols, live, memo))
                if terms:
                    out.append(Poly(ring, terms))
        return out

    def minor(self, theta: Index) -> Poly:
        """Determinant over rows theta minus beta, columns beta minus
        theta, its coefficients reduced mod p over F_p: ``_expand`` on
        theta's lines with every cell live, recalled if already a
        sub-minor in ``_minors``."""
        rows, cols = self._lines(theta)
        packed = self._minors.get(rows | cols << self.d)
        if packed is None:
            packed = self._expand(rows, cols, self._full, self._minors)
        return Poly(self.ring, self._reduced(packed))

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


def _dead(live: list[int], rows: int, cols: int) -> bool:
    """Whether the submatrix on two masks has a row or a column with no
    cell in ``live`` (a column mask per row), which makes its minor zero."""
    seen = 0
    while rows:
        bit = rows & -rows
        row = live[bit.bit_length() - 1] & cols
        if not row:
            return True
        rows ^= bit
        seen |= row
    return seen != cols


def build_patch(beta: Index, d: int, p: int = 0) -> PatchMatrix:
    """A fresh patch at e_beta over Q (p = 0) or F_p, with an empty memo.
    A beta that is not isotropic is refused by the ring's grid
    (``grid.grid_points``) before the matrix is built."""
    return PatchMatrix(beta, d, PolyRing.for_patch(beta, d, p=p))


def pair_minor(matrix: PatchMatrix, pair: AdmissiblePair) -> Poly:
    """f attached to an admissible pair: the minor of the lex-smaller
    orbit representative, scaled to initial coefficient 1."""
    return matrix.minor(pair.rep).monic()


def generator_set(
    alpha: Index, gamma: Index, patch: PatchMatrix
) -> tuple[list[AdmissiblePair], list[Poly]]:
    """(pairs, polys) for the admissible pairs (x, y) with alpha !<= y or
    x !<= gamma, on the patch at beta, in the order of
    ``admissible_pairs`` (``indexsets.pairs_outside``).

    ``polys`` generates the ideal of the pairs' minors, not one minor per
    pair: the monic 1 x 1 minors (``pair_minor``), which are the
    variables V of the ideal, then each larger minor modulo V
    (``PatchMatrix.modulo``), if nonzero and not a combination along one
    row of V and of the other pairs' minors.  That is exact, since
    <x_V, f> = <x_V, f mod x_V> and a minor so combined lies in the ideal
    of the smaller ones kept, and it is what ``ring.reduced_groebner``
    keeps of the full minors anyway; ``ideal`` builds those itself."""
    pairs = pairs_outside(alpha, gamma, patch.d)
    variables = []
    keys = []
    for pair in pairs:
        _, _, rows, cols = patch.record(pair.rep)
        if rows and not rows & (rows - 1):
            variables.append(pair_minor(patch, pair))
        else:
            keys.append(rows | cols << patch.d)
    return pairs, variables + patch.modulo(variables, keys)


def good_subset(
    alpha: Index, gamma: Index, patch: PatchMatrix, pairs: list[AdmissiblePair]
) -> tuple[list[AdmissiblePair], list[int]]:
    """(good pairs, their packed leads): those of ``pairs`` (the generator
    set's) whose initial monomial is a one-signed upper chain violating
    the matching bound: a positive chain whose value is not at or below
    gamma, or a negative one whose value is not at or above alpha.  Each
    generator's lead and chain fact are read together from its lead
    record (``PatchMatrix.record``), so a case expands no minor here and
    makes one Bruhat test per generator with a one-signed chain."""
    good_pairs = []
    good_leads = []
    for pair in pairs:
        lead, fact, _, _ = patch.record(pair.rep)
        if fact is None:
            continue
        positive, value = fact
        if positive:
            if bruhat_leq(value, gamma):
                continue
        elif bruhat_leq(alpha, value):
            continue
        good_pairs.append(pair)
        good_leads.append(lead)
    return good_pairs, good_leads
