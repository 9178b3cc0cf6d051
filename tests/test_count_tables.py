"""The per-beta count tables against brute-force oracles.

Each table ``table(beta, d, m)`` holds the column's objects at monomial
degree m as cells ((low, high), count).  The oracles list every object
the table counts (special multisets by their multiplicities, standard
sequences by DFS, bitableaux by the unpruned direct enumeration of
``test_brsk``) and group them by the same key, the meet of the values
bounded below by alpha and the join of those bounded above by gamma
(beta for a side with none); the two must agree cell for cell.  Each
column's count is also checked against a brute-force count by the
column's own predicate.
The special table was once built from two-sign support tables keyed by
every chain value, kept here as ``special_profiles_oracle``; its keys
differ, so the two are compared by their filtered counts.
"""

import random
from collections import Counter
from itertools import combinations
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
from tancone.grid import (
    chain_parts,
    chain_value,
    double_multiset,
    grid_points,
    is_chain,
    is_positive,
    multiset_chain_values,
    sharp_point,
    upper_points,
)
from tancone.indexsets import bruhat_leq, enumerate_indices
from tancone.verify import (
    _bitableau_profiles,
    _bruhat_tests,
    _count_bitableaux,
    _count_cells,
    _count_specials,
    _count_standard,
    _sign_supports,
    _special_profiles,
    _standard_chains,
    all_triples,
)

# (d, highest degree m checked); specials have degree 2m
SCALES = [(1, 6), (2, 6), (3, 6), (4, 4)]


def count_cells_oracle(cells, alpha, gamma):
    """``_count_cells`` without the lazy tests: every cell's two values
    are tested afresh."""
    return sum(
        count
        for (low, high), count in cells
        if bruhat_leq(alpha, low) and bruhat_leq(high, gamma)
    )


def count_value_sets_oracle(cells, alpha, gamma):
    """The count of cells ``((lows, highs), count)`` keyed by every value,
    as ``special_profiles_oracle`` keys them."""
    return sum(
        count
        for (lows, highs), count in cells
        if all(bruhat_leq(alpha, v) for v in lows) and all(bruhat_leq(v, gamma) for v in highs)
    )


def meet(values, beta):
    """Componentwise min of ``values``, or beta when there are none."""
    return tuple(min(column) for column in zip(*values)) if values else tuple(beta)


def join(values, beta):
    """Componentwise max of ``values``, or beta when there are none."""
    return tuple(max(column) for column in zip(*values)) if values else tuple(beta)


def special_cells_oracle(beta, d, m):
    """Every special multiset of degree 2m, keyed by the meet of the
    negative and the join of the positive chain values of its support."""
    cells = Counter()
    for multiset in special_multisets(beta, d, m):
        pos_vals, neg_vals = multiset_chain_values(multiset, beta)
        cells[(meet(neg_vals, beta), join(pos_vals, beta))] += 1
    return dict(cells)


def special_supports_oracle(beta, d, size):
    """The supports of exactly ``size`` upper points of both signs as cells
    ``((neg_values, pos_values), number of supports)``, keyed by every
    chain value."""
    cells = Counter()
    for support in combinations(upper_points(beta, d), size):
        doubled = double_multiset(dict.fromkeys(support, 1), d)
        pos_vals, neg_vals = multiset_chain_values(doubled, beta)
        cells[(neg_vals, pos_vals)] += 1
    return tuple(cells.items())


def special_profiles_oracle(beta, d, m):
    """The special table as two-sign support tables give it: the cells of
    the supports of each size k weighted by C(m-1, k-1)."""
    if m == 0:
        return ((((), ()), 1),)
    cells = Counter()
    for size in range(1, min(m, len(upper_points(beta, d))) + 1):
        weight = comb(m - 1, size - 1)
        for key, supports in special_supports_oracle(beta, d, size):
            cells[key] += weight * supports
    return tuple(cells.items())


def standard_sequences(beta, d, m):
    """Every standard sequence of degree m, found by DFS; the empty one
    at m = 0."""
    found = [()] + [pairs for pairs, *_ in _standard_sequences(beta, d, m)]
    return [pairs for pairs in found if monomial_degree(pairs, beta) == m]


def standard_cells_oracle(beta, d, m):
    """Standard sequences keyed by their first bot and last top."""
    return dict(
        Counter(
            (pairs[0].bot, pairs[-1].top) if pairs else (beta, beta)
            for pairs in standard_sequences(beta, d, m)
        )
    )


def bitableau_cells_oracle(beta, d, m):
    """Bitableaux keyed by their first and last delta values."""
    cells = Counter()
    for t in enumerate_on_starred_oracle(beta, d, 2 * m):
        delta = delta_sequence(t, beta)
        cells[(delta[0], delta[-1]) if delta else (beta, beta)] += 1
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


def _filtered_special_counts_agree(d, betas, top):
    iso = enumerate_indices(d)
    for beta in betas:
        below = [v for v in iso if bruhat_leq(v, beta)]
        above = [v for v in iso if bruhat_leq(beta, v)]
        for m in range(top + 1):
            new, old = _special_profiles(beta, d, m), special_profiles_oracle(beta, d, m)
            for alpha in below:
                for gamma in above:
                    got = _count_cells(new, *_bruhat_tests(alpha, gamma))
                    assert got == count_value_sets_oracle(old, alpha, gamma), (
                        alpha,
                        beta,
                        gamma,
                        m,
                    )


@pytest.mark.parametrize("d", [1, 2, 3])
def test_special_counts_match_two_sign_tables(d):
    """Every (alpha, gamma) and m <= 6 at d <= 3."""
    _filtered_special_counts_agree(d, enumerate_indices(d), 6)


# (d, seed, betas drawn, highest m)
@pytest.mark.parametrize("d, seed, draws, top", [(4, 1, 4, 6), (5, 2, 2, 4)])
def test_special_counts_match_two_sign_tables_on_a_sample(d, seed, draws, top):
    betas = random.Random(seed).sample(enumerate_indices(d), draws)
    _filtered_special_counts_agree(d, betas, top)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_special_supports_count_every_support(d):
    for beta in enumerate_indices(d):
        for points in chain_parts(upper_points(beta, d)):
            for k in range(len(points) + 1):
                total = sum(count for _, count in _sign_supports(beta, d, points, k))
                assert total == comb(len(points), k), (beta, points, k)


# (1, 3) at d = 2 has 3 upper points, fewer than m; (1, 3, 5) has 6
@pytest.mark.parametrize("beta, d", [((1, 3), 2), ((1, 3, 5), 3)])
def test_special_cells_cold_at_high_degree(beta, d):
    m = 6
    _special_profiles.cache_clear()
    _sign_supports.cache_clear()
    try:
        cold = _special_profiles(beta, d, m)
        _special_profiles.cache_clear()
        _sign_supports.cache_clear()
        for k in range(1, m + 1):
            ascending = _special_profiles(beta, d, k)
        assert dict(cold) == dict(ascending)
    finally:
        _special_profiles.cache_clear()
        _sign_supports.cache_clear()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sub_chain_values_move_one_way(d):
    """What the one-sign special tables rest on, over every chain of grid
    points and every sub-chain of it: sharp keeps a point's sign, a
    sub-chain's positive value lies at or below the chain's, and its
    negative value at or above."""
    for beta in enumerate_indices(d):
        points = grid_points(beta, d)
        for p in points:
            assert is_positive(sharp_point(p, d)) == is_positive(p), (beta, p)
        # a chain takes k rows descending and k columns ascending
        rows = sorted({r for r, _ in points}, reverse=True)
        for k in range(1, d + 1):
            for chain in (
                tuple(zip(rs, cs)) for rs in combinations(rows, k) for cs in combinations(beta, k)
            ):
                assert is_chain(chain)
                pos, neg = chain_parts(chain)
                for j in range(1, k + 1):
                    for sub in combinations(chain, j):
                        sub_pos, sub_neg = chain_parts(sub)
                        if sub_pos:
                            assert bruhat_leq(
                                chain_value(sub_pos, beta), chain_value(pos, beta)
                            ), (beta, chain, sub)
                        if sub_neg:
                            assert bruhat_leq(
                                chain_value(neg, beta), chain_value(sub_neg, beta)
                            ), (beta, chain, sub)


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


@pytest.mark.parametrize("d, top", [(1, 6), (2, 6), (3, 6)])
def test_bitableau_cells_group_the_enumeration(d, top):
    for beta in enumerate_indices(d):
        for m in range(top + 1):
            assert dict(_bitableau_profiles(beta, d, m)) == bitableau_cells_oracle(
                beta, d, m
            ), (beta, m)


def is_value(v, d):
    """A strictly increasing d-tuple of ints in [1, 2d]."""
    return (
        isinstance(v, tuple)
        and len(v) == d
        and all(type(x) is int and 1 <= x <= 2 * d for x in v)
        and all(a < b for a, b in zip(v, v[1:]))
    )


@pytest.mark.parametrize("d", [1, 2, 3])
def test_every_cell_is_one_low_and_one_high(d):
    """Every table, every beta and m <= 6: each cell is ((low, high),
    count) with two values and a positive count, and degree 0 is the one
    cell ((beta, beta), 1)."""
    for beta in enumerate_indices(d):
        for table in (_special_profiles, _bitableau_profiles, _standard_chains):
            assert table(beta, d, 0) == (((beta, beta), 1),), (table.__name__, beta)
            for m in range(7):
                for cell in table(beta, d, m):
                    (low, high), count = cell
                    assert is_value(low, d) and is_value(high, d), (table.__name__, beta, m, cell)
                    assert type(count) is int and count > 0, (table.__name__, beta, m, cell)


@pytest.mark.parametrize("d, top", [(1, 4), (2, 4), (3, 2)])
def test_count_columns_match_their_predicates(d, top):
    for alpha, beta, gamma in all_triples(d):
        case = (alpha, beta, gamma)
        for m in range(top + 1):
            specials = sum(
                multiset_bounded(multiset, alpha, gamma, beta)
                for multiset in special_multisets(beta, d, m)
            )
            tests = _bruhat_tests(alpha, gamma)
            assert _count_specials(beta, d, m, *tests) == specials, (case, m)
            bitableaux = sum(
                is_bounded_bitableau(t, alpha, gamma, beta)
                for t in enumerate_on_starred_oracle(beta, d, 2 * m)
            )
            assert _count_bitableaux(beta, d, m, *tests) == bitableaux, (case, m)
            standard = sum(
                is_standard_on_y(pairs, alpha, beta, gamma)
                for pairs in standard_sequences(beta, d, m)
            )
            assert _count_standard(beta, d, m, *tests) == standard, (case, m)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_count_cells_matches_oracle_on_every_table(d):
    """Every table at d <= 3 up to degree 6, filtered for every triple
    through one pair of lazy tests per triple, as ``verify_case`` does."""
    for alpha, beta, gamma in all_triples(d):
        tests = _bruhat_tests(alpha, gamma)
        for table in (_special_profiles, _bitableau_profiles, _standard_chains):
            for m in range(7):
                cells = table(beta, d, m)
                assert _count_cells(cells, *tests) == count_cells_oracle(
                    cells, alpha, gamma
                ), (table.__name__, alpha, beta, gamma, m)
