"""Standard monomials on the patch of a Richardson variety, their
enumeration, evaluation as products of minors, and the degree-doubling /
degree-halving counting maps.

A standard monomial is a weakly increasing sequence of admissible pairs
(consecutively top(w_i) <= bot(w_{i+1})), none equal to (beta, beta) and
none straddling beta; it lies on the variety when alpha <= bot of the
first pair and top of the last pair <= gamma.  Its degree is the sum of
the pairs' beta-degrees, and its evaluation is the product of their
minors.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .brsk import NotchedBitableau
from .grid import Multiset, double_multiset
from .indexsets import (
    AdmissiblePair,
    Index,
    admissible_pair_by_ends,
    admissible_pairs,
    bruhat_leq,
    format_index,
    pair_leq,
)
from .patch import PatchMatrix, pair_minor
from .ring import Poly, monomials_outside, normal_form


def pair_is_plain(pair: AdmissiblePair, beta: Index) -> bool:
    """Not (beta, beta), and beta is above the top or below the bottom."""
    if pair.top == tuple(beta) and pair.bot == tuple(beta):
        return False
    return bruhat_leq(pair.top, beta) or bruhat_leq(beta, pair.bot)


def is_standard(pairs, beta: Index) -> bool:
    if not all(pair_is_plain(w, beta) for w in pairs):
        return False
    return all(pair_leq(a, b) for a, b in zip(pairs, pairs[1:]))


def is_standard_on_y(pairs, alpha: Index, beta: Index, gamma: Index) -> bool:
    if not is_standard(pairs, beta):
        return False
    if not pairs:
        return True
    return bruhat_leq(alpha, pairs[0].bot) and bruhat_leq(pairs[-1].top, gamma)


def monomial_degree(pairs, beta: Index) -> int:
    return sum(w.beta_degree(beta) for w in pairs)


def _usable_pairs(beta: Index, d: int):
    """(pair, beta-degree) for every plain pair of positive beta-degree."""
    return [
        (w, w.beta_degree(beta))
        for w in admissible_pairs(d)
        if pair_is_plain(w, beta) and w.beta_degree(beta) > 0
    ]


# lru_cache kept: perfbench/layertrace.py reads its cache_info for beta_cache_hit_ratio
@lru_cache(maxsize=None)
def _standard_chains(beta: Index, d: int, m: int):
    """Standard pair sequences of degree m at this beta as cells
    ``(((bot of first,), (top of last,)), count)``; the empty sequence
    (m = 0) has neither, and its cell is ``((), ())``.

    A sequence of degree m that ends in the pair w is (w) alone, or one
    of degree m - deg(w) whose last top is <= bot(w), extended by w.
    Whether w may follow reads only that last top, so the cells of lower
    degree, taken through this function's cache, are the whole state.
    A cold call fills the lower degrees in ascending order first, so the
    recursion stays two calls deep whatever m is.
    """
    if m == 0:
        return ((((), ()), 1),)
    for lower in range(1, m):
        _standard_chains(beta, d, lower)
    cells: Counter = Counter()
    for w, wdeg in _usable_pairs(beta, d):
        if wdeg == m:
            cells[((w.bot,), (w.top,))] += 1
        elif wdeg < m:
            for (bots, (top,)), count in _standard_chains(beta, d, m - wdeg):
                if bruhat_leq(top, w.bot):
                    cells[(bots, (w.top,))] += count
    return tuple(cells.items())


def _standard_sequences(beta: Index, d: int, max_degree: int):
    """Every standard pair sequence of degree <= max_degree at this beta,
    tagged (pairs, degree, bot of first, top of last), by DFS."""
    usable = _usable_pairs(beta, d)
    found = []

    def extend(seq, degree):
        for w, wdeg in usable:
            if degree + wdeg > max_degree:
                continue
            if seq and not pair_leq(seq[-1], w):
                continue
            nxt = seq + [w]
            found.append(
                (tuple(nxt), degree + wdeg, nxt[0].bot, nxt[-1].top)
            )
            extend(nxt, degree + wdeg)

    extend([], 0)
    return found


def enumerate_standard_on_y(
    alpha: Index, beta: Index, gamma: Index, d: int, max_degree: int
):
    """Standard monomials on the variety, grouped by degree.

    Index 0 holds the empty monomial; sequences appear in a fixed
    deterministic order.
    """
    by_degree: list[list[tuple[AdmissiblePair, ...]]] = [
        [] for _ in range(max_degree + 1)
    ]
    by_degree[0].append(())
    for pairs, degree, bot0, top1 in _standard_sequences(tuple(beta), d, max_degree):
        if bruhat_leq(alpha, bot0) and bruhat_leq(top1, gamma):
            by_degree[degree].append(pairs)
    return by_degree


def evaluate(pairs, matrix: PatchMatrix) -> Poly:
    """Product of the pairs' minors; 1 for the empty sequence."""
    out = matrix.ring.one()
    for w in pairs:
        out = out * pair_minor(matrix, w)
    return out


def monomial_to_json(pairs, beta: Index) -> dict:
    return {
        "pairs": [
            {"top": format_index(w.top), "bot": format_index(w.bot)} for w in pairs
        ],
        "degree": monomial_degree(pairs, beta),
    }


# ---------------------------------------------------------------------------
# the two counting maps


def doubling_injection(mono, ring, d: int) -> Multiset:
    """Monomial (exponent tuple over the patch variables) -> U union U#."""
    u: Multiset = {}
    for i, e in enumerate(mono):
        if e:
            u[ring.variables[i]] = e
    if not u:
        raise ValueError("the empty monomial has no doubled multiset")
    return double_multiset(u, d)


def halving_injection(
    t: NotchedBitableau, beta: Index, d: int
) -> tuple[AdmissiblePair, ...]:
    """Pair off the value sequence of an on-starred bitableau.

    beta is wedged between the blocks once when the total row count is
    odd, twice when the negative and positive blocks are both odd, so
    that no pair straddles the blocks.  Raises ValueError if some value
    pair fails to be admissible (the bitableau is then outside the
    correspondence's image).
    """
    n = len(t.negative_rows())
    p = len(t.positive_rows())
    delta = list(t.values(beta))
    if (n + p) % 2 == 1:
        delta.insert(n, tuple(beta))
    elif n % 2 == 1 and p % 2 == 1:
        delta.insert(n, tuple(beta))
        delta.insert(n, tuple(beta))
    lookup = admissible_pair_by_ends(d)
    pairs = []
    for i in range(0, len(delta), 2):
        bot, top = delta[i], delta[i + 1]
        w = lookup.get((top, bot))
        if w is None:
            raise ValueError(f"values ({top}, {bot}) do not form an admissible pair")
        pairs.append(w)
    return tuple(pairs)


# ---------------------------------------------------------------------------
# exact linear algebra for the basis property


def _exact_rank(rows) -> int:
    """Rank of a list of dict-rows {column: Fraction} by exact elimination."""
    pivots: dict = {}
    rank = 0
    for row in rows:
        r = {k: Fraction(v) for k, v in row.items() if v}
        while r:
            col = min(r)
            if col in pivots:
                factor = r[col] / pivots[col][col]
                for k, v in pivots[col].items():
                    nv = r.get(k, Fraction(0)) - factor * v
                    if nv:
                        r[k] = nv
                    else:
                        r.pop(k, None)
            else:
                pivots[col] = r
                rank += 1
                break
    return rank


def standard_basis_agrees(
    gens, groebner, matrix: PatchMatrix, alpha, beta, gamma, d, degree
) -> bool:
    """Degree slice of the basis statement: the evaluations of the
    standard monomials are independent mod the ideal and match the
    staircase count of its initial ideal."""
    ring = matrix.ring
    init_gens = [g.leading_monomial() for g in groebner]
    staircase = monomials_outside(init_gens, ring.nvars, degree)
    sms = enumerate_standard_on_y(alpha, beta, gamma, d, degree)[degree]
    if len(sms) != len(staircase):
        return False
    col = {m: i for i, m in enumerate(staircase)}
    rows = []
    for pairs in sms:
        nf = normal_form(evaluate(pairs, matrix), groebner)
        row = {}
        for m, c in nf.terms.items():
            if m not in col:  # remainder escaped the staircase: not a GB
                return False
            row[col[m]] = c
        rows.append(row)
    return _exact_rank(rows) == len(staircase)
