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
from dataclasses import dataclass

from .grid import (
    Multiset,
    Point,
    bound_value,
    double_multiset,
    is_positive,
    is_upper_chain,
    json_field,
    json_int,
)
from .indexsets import Index, bruhat_leq, enumerate_indices, star_set

NEG, POS = -1, 1


class NotInImageError(ValueError):
    """Raised when a bitableau has no preimage under the correspondence."""


@dataclass(frozen=True)
class Row:
    p: tuple[int, ...]
    q: tuple[int, ...]
    sign: int  # NEG or POS

    def boxes(self) -> int:
        return len(self.p)

    def value(self, beta: Index) -> Index:
        return bound_value(self.p, self.q, beta)


@dataclass(frozen=True)
class NotchedBitableau:
    rows: tuple[Row, ...]

    def degree(self) -> int:
        return sum(r.boxes() for r in self.rows)

    def negative_rows(self) -> tuple[Row, ...]:
        return tuple(r for r in self.rows if r.sign == NEG)

    def positive_rows(self) -> tuple[Row, ...]:
        return tuple(r for r in self.rows if r.sign == POS)

    def values(self, beta: Index) -> tuple[Index, ...]:
        return tuple(r.value(beta) for r in self.rows)

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
# chains


def top_bot_of_chain(chain, beta: Index, d: int) -> tuple[Index, Index]:
    """(bottom row value, top row value) of the doubled chain's bitableau."""
    if not chain:
        raise ValueError("chain must be nonempty")
    if not is_upper_chain(tuple(chain), d):
        raise ValueError("not an extended upper chain")
    m = double_multiset({p: 1 for p in chain}, d)
    t = brsk_map(m, beta, d)
    vals = t.values(beta)
    return vals[-1], vals[0]


# ---------------------------------------------------------------------------
# predicates


def _row_well_formed(r: Row, beta: Index, d: int) -> bool:
    bset = set(beta)
    if not r.p or len(r.p) != len(r.q):
        return False
    if list(r.p) != sorted(set(r.p)) or list(r.q) != sorted(set(r.q)):
        return False
    if set(r.p) & bset or not set(r.q) <= bset:
        return False
    return all(1 <= x <= 2 * d for x in r.p + r.q)


def is_semistandard(t: NotchedBitableau, beta: Index, d: int) -> bool:
    """Row values weakly increase through beta, negative block first."""
    if not all(_row_well_formed(r, beta, d) for r in t.rows):
        return False
    signs = [r.sign for r in t.rows]
    if signs != sorted(signs):
        return False
    vals = t.values(beta)
    for a, b in zip(vals, vals[1:]):
        if not bruhat_leq(a, b):
            return False
    for r, v in zip(t.rows, vals):
        if r.sign == NEG and not bruhat_leq(v, beta):
            return False
        if r.sign == POS and not bruhat_leq(beta, v):
            return False
    return True


def delta_sequence(t: NotchedBitableau, beta: Index) -> tuple[Index, ...]:
    """Row values, with beta wedged between the blocks when the count is odd."""
    vals = list(t.values(beta))
    if len(vals) % 2 == 1:
        vals.insert(len(t.negative_rows()), tuple(beta))
    return tuple(vals)


def is_on_starred(t: NotchedBitableau, beta: Index, d: int) -> bool:
    """Mirror-symmetric rows with paired grading and even box count."""
    if not is_semistandard(t, beta, d):
        return False
    for r in t.rows:
        if r.p != star_set(r.q, d):
            return False
    delta = delta_sequence(t, beta)
    for j in range(0, len(delta) - 1, 2):
        if epsilon_degree(delta[j], d) != epsilon_degree(delta[j + 1], d):
            return False
    return t.degree() % 2 == 0


def is_bounded_bitableau(
    t: NotchedBitableau, alpha: Index, gamma: Index, beta: Index
) -> bool:
    """alpha <= first delta value and last delta value <= gamma."""
    if not t.rows:
        return True
    delta = delta_sequence(t, beta)
    return bruhat_leq(alpha, delta[0]) and bruhat_leq(delta[-1], gamma)


# ---------------------------------------------------------------------------
# direct enumeration (kept independent of the insertion algorithm)


def _starred_row_values(beta: Index, d: int):
    """Values usable as rows of an on-starred bitableau, with box weights.

    Mirror symmetry of a row forces its value into I(d); rows are
    nonempty, so the value beta itself is excluded, and semistandardness
    needs comparability with beta.
    """
    out = []
    for v in enumerate_indices(d):
        if v == tuple(beta):
            continue
        if bruhat_leq(v, beta):
            out.append((v, len(set(v) - set(beta)), NEG))
        elif bruhat_leq(beta, v):
            out.append((v, len(set(v) - set(beta)), POS))
    return tuple(out)


def _row_from_value(v: Index, beta: Index, sign: int) -> Row:
    p = tuple(sorted(set(v) - set(beta)))
    q = tuple(sorted(set(beta) - set(v)))
    return Row(p=p, q=q, sign=sign)


def enumerate_on_starred(beta: Index, d: int, degree: int):
    """All on-starred bitableaux with the given box count, built directly
    from weakly increasing value sequences (no insertion involved)."""
    if degree < 0 or degree % 2 == 1:
        return []
    candidates = _starred_row_values(tuple(beta), d)
    results = []

    def extend(seq, remaining):
        if remaining == 0:
            t = NotchedBitableau(
                rows=tuple(_row_from_value(v, beta, s) for v, _, s in seq)
            )
            if is_on_starred(t, beta, d):
                results.append(t)
            return
        for cand in candidates:
            v, w, _ = cand
            if w > remaining:
                continue
            if seq and not bruhat_leq(seq[-1][0], v):
                continue
            extend(seq + [cand], remaining - w)

    extend([], degree)
    return results
