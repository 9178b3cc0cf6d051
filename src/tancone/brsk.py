"""Bounded insertion, notched bitableaux, and the multiset correspondence.

A notched bitableau is a stack of rows (P_i, Q_i): equal-length strictly
increasing tuples of row indices (P, outside beta) and column indices
(Q, inside beta), with the negative block on top of the positive block.
The value of a row is (beta minus Q_i) union P_i; semistandard means the
values increase through beta.

The forward map inserts a negative multiset by bounded row insertion
(columns descending, rows descending within a column; an inserted row
index bumps the smallest entry x with r <= x < c).  Positive multisets
go through the mirror (r, c) -> (r*, c*), which exchanges positive and
negative and reverses values, so their block is the starred, row-reversed
image of a negative insertion.  The correspondence is exercised by
exhaustive round-trip, image-characterisation and counting tests; those
laws, not the insertion conventions, are the contract.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache

from .grid import (
    Multiset,
    Point,
    bound_value,
    is_positive,
    json_field,
    json_int,
)
from .indexsets import (
    Index,
    _FrozenRecord,
    bits_index,
    bruhat_leq,
    bruhat_mask,
    index_bits,
    isotropic_masks,
    star_set,
)

NEG, POS = -1, 1


class NotInImageError(ValueError):
    """Raised when a bitableau has no preimage under the correspondence."""


class Row(_FrozenRecord):
    __slots__ = ("p", "q", "sign")

    def __init__(self, p: tuple[int, ...], q: tuple[int, ...], sign: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "sign", sign)  # NEG or POS

    def boxes(self) -> int:
        return len(self.p)


class NotchedBitableau(_FrozenRecord):
    __slots__ = ("rows",)

    def __init__(self, rows: tuple[Row, ...]):
        object.__setattr__(self, "rows", rows)

    def degree(self) -> int:
        return sum(r.boxes() for r in self.rows)

    def negative_rows(self) -> tuple[Row, ...]:
        return tuple(r for r in self.rows if r.sign == NEG)

    def positive_rows(self) -> tuple[Row, ...]:
        return tuple(r for r in self.rows if r.sign == POS)

    def to_json(self) -> dict:
        return {
            "rows": [
                {
                    "P": list(r.p),
                    "Q": list(r.q),
                    "sign": "neg" if r.sign == NEG else "pos",
                }
                for r in self.rows
            ]
        }

    @classmethod
    def from_json(cls, data) -> "NotchedBitableau":
        """Inverse of to_json; malformed input raises ValueError."""
        items = json_field(data, "rows", "a bitableau")
        if not isinstance(items, list):
            raise ValueError("bitableau 'rows' must be a JSON list")
        rows = []
        for i, item in enumerate(items):
            what = f"bitableau row {i}"
            p, q = (
                _json_entries(json_field(item, k, what), f"{what} {k!r}") for k in "PQ"
            )
            if len(p) != len(q):
                raise ValueError(f"{what}: 'P' and 'Q' must have equal length")
            sign = json_field(item, "sign", what)
            if sign not in ("neg", "pos"):
                raise ValueError(f"{what}: 'sign' must be 'neg' or 'pos', got {sign!r}")
            rows.append(Row(p=p, q=q, sign=NEG if sign == "neg" else POS))
        return cls(rows=tuple(rows))


def _json_entries(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list of integers")
    return tuple(json_int(x, what) for x in value)


EMPTY = NotchedBitableau(rows=())


def epsilon_degree(v, d: int) -> int:
    """Entries exceeding d; the grading used by the pairing condition."""
    return sum(1 for j in v if j > d)


# ---------------------------------------------------------------------------
# insertion


def _multiset_items(m: Multiset):
    for p in sorted(m):
        for _ in range(m[p]):
            yield p


def _insert_bounded(prows, qrows, r: int, c: int) -> None:
    """One bounded insertion of (r, c) into mutable row lists."""
    cur = r
    for i, row in enumerate(prows):
        bump = None
        for x in row:
            if cur <= x < c:
                bump = x
                break
        if bump is None:
            insort(row, cur)
            insort(qrows[i], c)
            return
        row[row.index(bump)] = cur
        cur = bump
    prows.append([cur])
    qrows.append([c])


def _insertion_order(m: Multiset):
    """Columns descending; rows descending inside a column."""
    return sorted(_multiset_items(m), key=lambda p: (-p[1], -p[0]))


def _brsk_negative_rows(m: Multiset) -> list[tuple[tuple, tuple]]:
    prows: list[list[int]] = []
    qrows: list[list[int]] = []
    for r, c in _insertion_order(m):
        _insert_bounded(prows, qrows, r, c)
    return [(tuple(p), tuple(q)) for p, q in zip(prows, qrows)]


def _mirror_multiset(m: Multiset, d: int) -> Multiset:
    return {(2 * d + 1 - r, 2 * d + 1 - c): k for (r, c), k in m.items()}


def brsk_map(m: Multiset, beta: Index, d: int) -> NotchedBitableau:
    """Bitableau of a grid multiset: negative block stacked on positive."""
    if not m:
        return EMPTY
    neg = {p: k for p, k in m.items() if not is_positive(p)}
    pos = {p: k for p, k in m.items() if is_positive(p)}
    rows: list[Row] = [
        Row(p=p, q=q, sign=NEG) for p, q in _brsk_negative_rows(neg)
    ]
    mirrored = _brsk_negative_rows(_mirror_multiset(pos, d))
    for p, q in reversed(mirrored):
        rows.append(Row(p=star_set(p, d), q=star_set(q, d), sign=POS))
    return NotchedBitableau(rows=tuple(rows))


# ---------------------------------------------------------------------------
# inverse


def _uninsert_all(rows_in) -> list[Point]:
    """Undo bounded insertion; returns pairs in insertion order."""
    prows = [list(p) for p, _ in rows_in]
    qrows = [list(q) for _, q in rows_in]
    reversed_pairs: list[Point] = []
    while any(qrows):
        pick = -1
        for i, q in enumerate(qrows):
            if q and (pick < 0 or q[0] <= qrows[pick][0]):
                pick = i  # deepest row among minimal recorded columns
        c = qrows[pick].pop(0)
        below = [x for x in prows[pick] if x < c]
        if not below:
            raise NotInImageError("row entry missing below its recorded column")
        y = max(below)
        prows[pick].remove(y)
        for j in range(pick - 1, -1, -1):
            cands = [x for x in prows[j] if x <= y]
            if not cands:
                raise NotInImageError("broken bump trail")
            x = max(cands)
            prows[j][prows[j].index(x)] = y
            y = x
        reversed_pairs.append((y, c))
    if any(prows):
        raise NotInImageError("leftover row entries")
    return list(reversed(reversed_pairs))


def brsk_inverse(t: NotchedBitableau, beta: Index, d: int) -> Multiset:
    """The unique multiset mapping to ``t``; NotInImageError otherwise."""
    out: Multiset = {}
    neg_rows = [(r.p, r.q) for r in t.negative_rows()]
    for pt in _uninsert_all(neg_rows):
        if is_positive(pt):
            raise NotInImageError("negative block decodes a positive point")
        out[pt] = out.get(pt, 0) + 1
    pos_rows = [
        (star_set(r.p, d), star_set(r.q, d)) for r in reversed(t.positive_rows())
    ]
    for mp in _uninsert_all(pos_rows):
        pt = (2 * d + 1 - mp[0], 2 * d + 1 - mp[1])
        if not is_positive(pt):
            raise NotInImageError("positive block decodes a negative point")
        out[pt] = out.get(pt, 0) + 1
    if brsk_map(out, beta, d) != t:
        raise NotInImageError("round trip does not reproduce the bitableau")
    return out


# ---------------------------------------------------------------------------
# predicates


# A row's facts depend only on its entries, its sign, beta and d, and a
# sweep certifies the same few rows of one beta thousands of times, so they
# are memoized once, keyed by the entry tuples (hashed and compared in C)
# rather than by the Row.  A sweep asks each candidate row under its own
# sign only, so the memo holds every candidate row of one beta up to
# indexsets.MAX_D = 8 (2^d - 1 = 255 rows) with room to spare.
_ROW_MEMO_SIZE = 1024


@lru_cache(maxsize=_ROW_MEMO_SIZE)
def _row_fact(p: tuple, q: tuple, sign: int, beta: Index, d: int):
    """(value, eps-degree of the value, P = Q*, ``bruhat_mask`` of the
    value) for the row (P, Q) when it may stand in a semistandard
    bitableau at (beta, d), else None.

    It may stand when it is well-formed (nonempty, P and Q strictly
    increasing of equal length inside [1, 2d], P outside beta and Q inside
    it) and its value lies at or below beta for NEG, at or above for POS.
    The masks of two values at one (beta, d) compare exactly even when
    beta is no index at d: both have len(set(beta)) entries, and Q, inside
    [1, 2d], removes none of beta's entries outside [1, 2d], so both hold
    those as their smallest and largest entries, at the same positions.
    """
    bset = set(beta)
    if not p or len(p) != len(q):
        return None
    if list(p) != sorted(set(p)) or list(q) != sorted(set(q)):
        return None
    if set(p) & bset or not set(q) <= bset:
        return None
    if not all(1 <= x <= 2 * d for x in p + q):
        return None
    v = bound_value(p, q, beta)
    if sign == NEG and not bruhat_leq(v, beta):
        return None
    if sign == POS and not bruhat_leq(beta, v):
        return None
    return v, epsilon_degree(v, d), p == star_set(q, d), bruhat_mask(v, d)


def is_on_starred(t: NotchedBitableau, beta: Index, d: int) -> bool:
    """Semistandard, mirror-symmetric rows with paired grading and an
    even box count.

    The complete predicate, for any input, in one pass over the rows.
    Each row's facts (value mask, eps-degree, mirror symmetry, and whether
    it may stand at (beta, d)) come from one memo lookup, and the same
    loop checks the sign order and the Bruhat chain of the values, one
    integer AND per adjacent pair of masks, and lists the eps-degrees of
    the delta sequence: the rows', with beta's wedged in after the
    negative rows when the row count is odd.  Its entries must pair up,
    (0, 1), (2, 3), ..., by equal eps-degree.
    """
    beta = tuple(beta)
    rows = t.rows
    if not rows:
        return True
    wedge = [r.sign for r in rows].count(NEG) if len(rows) % 2 == 1 else -1
    eps_seq = []
    boxes = 0
    last_sign, last_mask = rows[0].sign, 0
    for i, r in enumerate(rows):
        sign = r.sign
        fact = _row_fact(r.p, r.q, sign, beta, d)
        if fact is None or not fact[2] or sign < last_sign or last_mask & ~fact[3]:
            return False
        last_sign, last_mask = sign, fact[3]
        if i == wedge:
            eps_seq.append(epsilon_degree(beta, d))
        eps_seq.append(fact[1])
        boxes += len(r.p)
    if wedge == len(rows):
        eps_seq.append(epsilon_degree(beta, d))
    return eps_seq[::2] == eps_seq[1::2] and boxes % 2 == 0


# ---------------------------------------------------------------------------
# direct enumeration (kept independent of the insertion algorithm)


def _starred_candidates(beta: Index, d: int, degree: int):
    """(values, masks) of the values usable as rows of an on-starred
    bitableau with at most ``degree`` boxes: (value, boxes, eps-degree,
    (row,), sign) of each, and its ``bruhat_mask``, in lex order.

    Mirror symmetry of a row forces its value into I(d); rows are
    nonempty, so the value beta itself is excluded, and semistandardness
    needs comparability with beta: NEG below it, POS above.  All of it is
    read off the per-d bit data on I(d) (``indexsets.isotropic_masks``):
    comparability as mask containment, the boxes as the entries outside
    beta, the eps-degree as the entries above d, and the row (P, Q) as
    the entries of the value outside beta and of beta outside the value;
    a row is built only for a value that fits in the box count.
    ``definitions._starred_row_values`` and ``definitions._row_from_value``
    are the oracles on tuples."""
    beta_bits, beta_mask = index_bits(beta), bruhat_mask(beta, d)
    values, masks = [], []
    for v, (bits, mask) in isotropic_masks(d).items():
        boxes = (bits & ~beta_bits).bit_count()
        if not 0 < boxes <= degree:
            continue
        if not mask & ~beta_mask:
            sign = NEG
        elif not beta_mask & ~mask:
            sign = POS
        else:
            continue
        eps = (bits >> d + 1).bit_count()
        row = Row(bits_index(bits & ~beta_bits), bits_index(beta_bits & ~bits), sign)
        values.append((v, boxes, eps, (row,), sign))
        masks.append(mask)
    return values, masks


def enumerate_on_starred(beta: Index, d: int, degree: int):
    """All on-starred bitableaux with the given box count, built directly
    from their delta sequences (no insertion involved), as pairs
    ``(bitableau, (first, last))`` of the first and last delta values, in
    the order the search finds them.

    A delta sequence is a chain of pairs (a, b), a <= b in Bruhat order
    and of equal eps-degree, each starting at or above the previous b.
    Its values are the candidate rows and beta itself: a wedge of no boxes
    that does not follow itself, so it comes at most once.  Every NEG
    candidate lies below beta and every POS one above it, so the NEG rows
    come first, beta falls exactly between the blocks, and it is used
    exactly when the row count is odd.  So ``first`` is the a of the
    first pair and ``last`` the b of the last one, beta where the wedge
    stands, and both are beta for the empty bitableau.  Every chain of
    whole pairs is on-starred, so no prefix is dropped.  The candidates,
    with their signs, boxes, eps-degrees and ``bruhat_mask``s, come from
    the per-d bit table on I(d) (``_starred_candidates``), filtered by
    box count before any row is built; which values may follow each one
    (one AND of masks per pair of values), and which pairs start at each,
    are listed once per call.  Every result is still certified by one
    full ``is_on_starred`` call, which reads its row facts from a memo.
    """
    if degree < 0 or degree % 2 == 1:
        return []
    beta = tuple(beta)
    # values: (value, boxes, eps-degree, rows, sign) of each candidate that
    # fits in the box count; the wedge beta is last, adds no row and has no
    # sign
    values, masks = _starred_candidates(beta, d, degree)
    wedge = len(values)
    # successors[i]: the values that may follow value i, at or above it in
    # Bruhat order (mask containment) and light enough to fit beside it.
    # The wedge follows exactly the NEG candidates and is followed exactly
    # by the POS ones, which is read off their signs; beta may not follow
    # itself
    successors = [
        [j for j, u in enumerate(values) if w + u[1] <= degree and not mask & ~masks[j]]
        + ([wedge] if s == NEG else [])
        for (_, w, *_, s), mask in zip(values, masks)
    ]
    successors.append([j for j, u in enumerate(values) if u[4] == POS])
    values.append((beta, 0, epsilon_degree(beta, d), (), None))
    # pairs[i]: (boxes, last value's index, rows) of each pair of equal
    # eps-degree starting at value i
    pairs = [
        [
            (w + values[j][1], j, rows + values[j][3])
            for j in successors[i]
            if values[j][2] == e
        ]
        for i, (_, w, e, rows, _) in enumerate(values)
    ]
    found = []

    def extend(remaining, starts, first, last, rows):
        # starts: the values the next pair may start at; first and last:
        # the ends of the delta sequence so far, beta twice when it is empty
        if remaining == 0:
            t = NotchedBitableau(rows=rows)
            if is_on_starred(t, beta, d):
                found.append((t, (first, last)))
            return
        for i in starts:
            for boxes, j, pair_rows in pairs[i]:
                if boxes <= remaining:
                    extend(
                        remaining - boxes,
                        successors[j],
                        first if rows else values[i][0],
                        values[j][0],
                        rows + pair_rows,
                    )

    extend(degree, range(len(values)), beta, beta, ())
    # extend refers to itself through its closure cell: dropping the name
    # breaks that cycle, so that the walk's state, and any results the
    # caller lets go, are freed by refcount and not by the cyclic collector
    del extend
    return found
