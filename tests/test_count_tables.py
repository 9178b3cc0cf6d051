"""The per-beta count tables against brute-force oracles.

Each table ``table(beta, d, m)`` holds the column's objects at monomial
degree m as cells ((lows, highs), count).  The oracles list every object
the table counts (special multisets by their multiplicities, standard
sequences by DFS, bitableaux by the unpruned direct enumeration of
``test_brsk``) and group them by
the same key; the two must agree cell for cell.  Each column's count is
also checked against a brute-force count by the column's own predicate.
"""

from collections import Counter
from math import comb

import pytest

from test_brsk import enumerate_on_starred_oracle

from tancone.definitions import (
    _standard_sequences,
    delta_sequence,
    is_bounded_bitableau,
    is_standard_on_y,
    monomial_degree,
    multiset_bounded,
    special_multisets,
)
from tancone.grid import multiset_chain_values, upper_points
from tancone.indexsets import bruhat_leq, enumerate_indices
from tancone.standard_monomials import _standard_chains
from tancone.verify import (
    _bitableau_profiles,
    _count_bitableaux,
    _count_cells,
    _count_specials,
    _count_standard,
    _special_profiles,
    _special_supports,
    all_triples,
)

# (d, highest degree m checked); specials have degree 2m
SCALES = [(1, 6), (2, 6), (3, 6), (4, 4)]


def count_cells_oracle(cells, alpha, gamma):
    """``_count_cells`` as it was before it kept each value's test: every
    value of every cell is tested afresh."""
    total = 0
    for (lows, highs), count in cells:
        if all(bruhat_leq(alpha, v) for v in lows) and all(
            bruhat_leq(v, gamma) for v in highs
        ):
            total += count
    return total


def special_cells_oracle(beta, d, m):
    cells = Counter()
    for multiset in special_multisets(beta, d, m):
        pos_vals, neg_vals = multiset_chain_values(multiset, beta)
        cells[(neg_vals, pos_vals)] += 1
    return dict(cells)


def standard_sequences(beta, d, m):
    """Every standard sequence of degree m, found by DFS; the empty one
    at m = 0."""
    found = [()] + [pairs for pairs, *_ in _standard_sequences(beta, d, m)]
    return [pairs for pairs in found if monomial_degree(pairs, beta) == m]


def standard_cells_oracle(beta, d, m):
    return dict(
        Counter(
            (tuple(w.bot for w in pairs[:1]), tuple(w.top for w in pairs[-1:]))
            for pairs in standard_sequences(beta, d, m)
        )
    )


def bitableau_cells_oracle(beta, d, m):
    cells = Counter()
    for t in enumerate_on_starred_oracle(beta, d, 2 * m):
        delta = delta_sequence(t, beta)
        cells[((delta[0],), (delta[-1],)) if delta else ((), ())] += 1
    return dict(cells)


@pytest.mark.parametrize("d, top", SCALES)
def test_special_cells_match_oracle(d, top):
    for beta in enumerate_indices(d):
        for m in range(top + 1):
            assert dict(_special_profiles(beta, d, m)) == special_cells_oracle(
                beta, d, m
            ), (beta, m)


@pytest.mark.parametrize("d, top", SCALES)
def test_special_weights_count_every_multiset(d, top):
    for beta in enumerate_indices(d):
        n = len(upper_points(beta, d))
        for k in range(top + 1):
            total = sum(count for _, count in _special_profiles(beta, d, k))
            assert total == comb(n + k - 1, k), (beta, k)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_special_supports_count_every_support(d):
    for beta in enumerate_indices(d):
        n = len(upper_points(beta, d))
        for k in range(1, n + 1):
            total = sum(count for _, count in _special_supports(beta, d, k))
            assert total == comb(n, k), (beta, k)


# (1, 3) at d = 2 has 3 upper points, fewer than m; (1, 3, 5) has 6
@pytest.mark.parametrize("beta, d", [((1, 3), 2), ((1, 3, 5), 3)])
def test_special_cells_cold_at_high_degree(beta, d):
    m = 6
    _special_profiles.cache_clear()
    _special_supports.cache_clear()
    try:
        cold = _special_profiles(beta, d, m)
        _special_profiles.cache_clear()
        _special_supports.cache_clear()
        for k in range(1, m + 1):
            ascending = _special_profiles(beta, d, k)
        assert dict(cold) == dict(ascending)
    finally:
        _special_profiles.cache_clear()
        _special_supports.cache_clear()


@pytest.mark.parametrize("d, top", SCALES)
def test_standard_cells_match_dfs(d, top):
    for beta in enumerate_indices(d):
        for m in range(top + 1):
            assert dict(_standard_chains(beta, d, m)) == standard_cells_oracle(
                beta, d, m
            ), (beta, m)


def test_standard_cells_cold_at_high_degree():
    beta, d, m = (1, 3), 2, 1001
    _standard_chains.cache_clear()
    try:
        cold = _standard_chains(beta, d, m)
        _standard_chains.cache_clear()
        for k in range(1, m + 1):
            ascending = _standard_chains(beta, d, k)
        assert dict(cold) == dict(ascending)
    finally:
        _standard_chains.cache_clear()


@pytest.mark.parametrize("d, top", [(1, 6), (2, 6), (3, 3)])
def test_bitableau_cells_group_the_enumeration(d, top):
    for beta in enumerate_indices(d):
        for m in range(top + 1):
            assert dict(_bitableau_profiles(beta, d, m)) == bitableau_cells_oracle(
                beta, d, m
            ), (beta, m)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_degree_zero_is_one_empty_cell(d):
    for beta in enumerate_indices(d):
        for table in (_special_profiles, _bitableau_profiles, _standard_chains):
            assert table(beta, d, 0) == ((((), ()), 1),), (table.__name__, beta)


@pytest.mark.parametrize("d, top", [(1, 4), (2, 4), (3, 2)])
def test_count_columns_match_their_predicates(d, top):
    for alpha, beta, gamma in all_triples(d):
        case = (alpha, beta, gamma)
        for m in range(top + 1):
            specials = sum(
                multiset_bounded(multiset, alpha, gamma, beta)
                for multiset in special_multisets(beta, d, m)
            )
            assert _count_specials(beta, d, m, alpha, gamma) == specials, (case, m)
            bitableaux = sum(
                is_bounded_bitableau(t, alpha, gamma, beta)
                for t in enumerate_on_starred_oracle(beta, d, 2 * m)
            )
            assert _count_bitableaux(beta, d, m, alpha, gamma) == bitableaux, (case, m)
            standard = sum(
                is_standard_on_y(pairs, alpha, beta, gamma)
                for pairs in standard_sequences(beta, d, m)
            )
            assert _count_standard(beta, d, m, alpha, gamma) == standard, (case, m)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_count_cells_matches_oracle_on_every_table(d):
    """Every table at d <= 3 up to degree 6, filtered for every triple."""
    for alpha, beta, gamma in all_triples(d):
        for table in (_special_profiles, _bitableau_profiles, _standard_chains):
            for m in range(7):
                cells = table(beta, d, m)
                assert _count_cells(cells, alpha, gamma) == count_cells_oracle(
                    cells, alpha, gamma
                ), (table.__name__, alpha, beta, gamma, m)
