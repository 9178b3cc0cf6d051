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
from functools import lru_cache

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
        """Row values at beta, read from the row memo at d = len(beta); a
        row the memo rejects goes to ``bound_value``, which may raise."""
        beta = tuple(beta)
        d = len(beta)
        out = []
        for r in self.rows:
            fact = _row_fact(r.p, r.q, r.sign, beta, d)
            out.append(bound_value(r.p, r.q, beta) if fact is None else fact[0])
        return tuple(out)

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


# A row's facts depend only on its entries, its sign, beta and d, and a
# sweep certifies the same few rows of one beta thousands of times, so they
# are memoized once, keyed by the entry tuples (hashed and compared in C)
# rather than by the Row.  A sweep asks each candidate row under its own
# sign only, so the memo holds every candidate row of one beta up to
# d = 10 (2^d - 1 rows).
_ROW_MEMO_SIZE = 1024


@lru_cache(maxsize=_ROW_MEMO_SIZE)
def _row_fact(p: tuple, q: tuple, sign: int, beta: Index, d: int):
    """(value, eps-degree of the value, P = Q*) for the row (P, Q) when it
    may stand in a semistandard bitableau at (beta, d), else None.

    It may stand when it is well-formed (nonempty, P and Q strictly
    increasing of equal length inside [1, 2d], P outside beta and Q inside
    it) and its value lies at or below beta for NEG, at or above for POS.
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
    return v, epsilon_degree(v, d), p == star_set(q, d)


def _semistandard_facts(t: NotchedBitableau, beta: Index, d: int):
    """The row facts of ``t`` when it is semistandard at (beta, d), else
    None: one memo lookup per row, then the sign-order and chain checks."""
    facts = []
    for r in t.rows:
        fact = _row_fact(r.p, r.q, r.sign, beta, d)
        if fact is None:
            return None
        facts.append(fact)
    signs = [r.sign for r in t.rows]
    if signs != sorted(signs):
        return None
    for a, b in zip(facts, facts[1:]):
        if not bruhat_leq(a[0], b[0]):
            return None
    return facts


def _wedge(items: list, t: NotchedBitableau, middle) -> list:
    """Insert ``middle`` between the blocks of ``items`` when the row count
    is odd."""
    if len(items) % 2 == 1:
        items.insert(len(t.negative_rows()), middle)
    return items


def is_semistandard(t: NotchedBitableau, beta: Index, d: int) -> bool:
    """Row values weakly increase through beta, negative block first."""
    return _semistandard_facts(t, tuple(beta), d) is not None


def delta_sequence(t: NotchedBitableau, beta: Index) -> tuple[Index, ...]:
    """Row values, with beta wedged between the blocks when the count is odd."""
    beta = tuple(beta)
    return tuple(_wedge(list(t.values(beta)), t, beta))


def is_on_starred(t: NotchedBitableau, beta: Index, d: int) -> bool:
    """Mirror-symmetric rows with paired grading and even box count.

    The complete predicate, for any input.  Each row's facts (value,
    eps-degree, mirror symmetry, and whether it may stand at (beta, d))
    come from one memo lookup, so a call costs that plus the sign-order,
    chain, pairing and parity checks.
    """
    beta = tuple(beta)
    facts = _semistandard_facts(t, beta, d)
    if facts is None or not all(mirrored for _, _, mirrored in facts):
        return False
    eps = _wedge([e for _, e, _ in facts], t, epsilon_degree(beta, d))
    for j in range(0, len(eps) - 1, 2):
        if eps[j] != eps[j + 1]:
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
    from weakly increasing value sequences (no insertion involved).

    The candidate rows are ``_starred_row_values``; which of them may
    follow each one in Bruhat order is listed once per call, and a
    sequence is extended only along those successor lists.  The epsilon
    pairing of ``delta_sequence`` is followed while a sequence is
    extended, under both parities of its final row count: no wedge (even
    count), and beta wedged at the NEG -> POS boundary (odd count).  Each
    parity holds the eps-degree waiting for its partner, or none; a prefix
    is dropped once a pair mismatches under both.  A completed sequence is
    kept when either parity has nothing pending (beta closing the wedged
    one if no POS row came), and every result is still certified by one
    full ``is_on_starred`` call, which reads its row facts from a memo.
    """
    if degree < 0 or degree % 2 == 1:
        return []
    beta = tuple(beta)
    beta_eps = epsilon_degree(beta, d)
    candidates = [
        (v, w, s, epsilon_degree(v, d), _row_from_value(v, beta, s))
        for v, w, s in _starred_row_values(beta, d)
    ]
    # successors[i]: indices of the candidates that may follow candidate i,
    # at or above it in Bruhat order and light enough to fit beside it
    successors = [
        [
            j
            for j, nxt in enumerate(candidates)
            if w + nxt[1] <= degree and bruhat_leq(v, nxt[0])
        ]
        for v, w, *_ in candidates
    ]
    results = []
    seq: list = []

    def extend(remaining, even, odd, options):
        # even, odd: pending eps-degree without / with the wedge; _FREE when
        # nothing is pending, _DEAD once a pair has mismatched
        if remaining == 0:
            if not seq or seq[-1][2] == NEG:
                odd = _pair(odd, beta_eps)
            if even == _FREE or odd == _FREE:
                t = NotchedBitableau(rows=tuple(cand[4] for cand in seq))
                if is_on_starred(t, beta, d):
                    results.append(t)
            return
        in_neg_block = not seq or seq[-1][2] == NEG
        for i in options:
            cand = candidates[i]
            _, w, s, e, _ = cand
            if w > remaining:
                continue
            next_odd = odd
            if s == POS and in_neg_block:
                next_odd = _pair(next_odd, beta_eps)
            next_even, next_odd = _pair(even, e), _pair(next_odd, e)
            if next_even == _DEAD and next_odd == _DEAD:
                continue
            seq.append(cand)
            extend(remaining - w, next_even, next_odd, successors[i])
            seq.pop()

    extend(degree, _FREE, _FREE, range(len(candidates)))
    return results


# pairing states of enumerate_on_starred besides a pending eps-degree (>= 0)
_FREE, _DEAD = -1, -2


def _pair(pending: int, eps: int) -> int:
    """Pairing state after one more delta value of eps-degree ``eps``."""
    if pending == _FREE:
        return eps
    if pending == eps:
        return _FREE
    return _DEAD
