"""The standard-monomial column's table.

A standard monomial is a weakly increasing sequence of admissible pairs
(consecutively top(w_i) <= bot(w_{i+1})), none equal to (beta, beta) and
none straddling beta; it lies on the variety when alpha <= bot of the
first pair and top of the last pair <= gamma.  Its degree is the sum of
the pairs' beta-degrees.  The table counts them per degree by their
first bot and last top, the meet of the bots and the join of the tops,
which rise along the sequence; the definitions they are checked against
(``is_standard_on_y``, the DFS enumeration, evaluation as products of
minors, the counting injections) are in ``definitions``.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .indexsets import AdmissiblePair, Index, admissible_pairs, bruhat_leq


def pair_is_plain(pair: AdmissiblePair, beta: Index) -> bool:
    """Not (beta, beta), and beta is above the top or below the bottom."""
    if pair.top == tuple(beta) and pair.bot == tuple(beta):
        return False
    return bruhat_leq(pair.top, beta) or bruhat_leq(beta, pair.bot)


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
    ``((bot of first, top of last), count)``; the empty sequence (m = 0)
    has neither end, and its cell is ``((beta, beta), 1)``.

    A sequence of degree m that ends in the pair w is (w) alone, or one
    of degree m - deg(w) whose last top is <= bot(w), extended by w.
    Whether w may follow reads only that last top, so the cells of lower
    degree, taken through this function's cache, are the whole state.
    A cold call fills the lower degrees in ascending order first, so the
    recursion stays two calls deep whatever m is.
    """
    if m == 0:
        return (((beta, beta), 1),)
    for lower in range(1, m):
        _standard_chains(beta, d, lower)
    cells: Counter = Counter()
    for w, wdeg in _usable_pairs(beta, d):
        if wdeg == m:
            cells[(w.bot, w.top)] += 1
        elif wdeg < m:
            for (bot, top), count in _standard_chains(beta, d, m - wdeg):
                if bruhat_leq(top, w.bot):
                    cells[(bot, w.top)] += count
    return tuple(cells.items())
