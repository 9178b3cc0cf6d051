"""The per-beta count tables against brute-force oracles.

Each table holds weighted cells (key, count).  The oracles list every
object the table counts (special multisets by their multiplicities,
standard sequences by DFS, bitableaux by direct enumeration) and group
them by the same key; the two must agree cell for cell.
"""

from collections import Counter
from itertools import combinations_with_replacement
from math import comb

import pytest

from tancone.brsk import delta_sequence, enumerate_on_starred
from tancone.grid import double_multiset, multiset_chain_values, upper_points
from tancone.indexsets import enumerate_indices
from tancone.standard_monomials import _standard_chains, _standard_sequences
from tancone.verify import _bitableau_profiles, _special_profiles

# (d, highest degree m checked); specials have degree 2m
SCALES = [(1, 6), (2, 6), (3, 6), (4, 4)]


def special_cells_oracle(beta, d, degree2):
    """Every special multiset of degree ``degree2``, one by one."""
    cells = Counter()
    for combo in combinations_with_replacement(upper_points(beta, d), degree2 // 2):
        m = double_multiset(dict(Counter(combo)), d)
        cells[multiset_chain_values(m, beta)] += 1
    return dict(cells)


def standard_cells_oracle(beta, d, max_degree):
    """Every standard sequence, found by DFS, grouped by its key."""
    return dict(
        Counter(
            (degree, bot0, top1)
            for _, degree, bot0, top1 in _standard_sequences(beta, d, max_degree)
        )
    )


@pytest.mark.parametrize("d, top", SCALES)
def test_special_cells_match_oracle(d, top):
    for beta in enumerate_indices(d):
        for m in range(top + 1):
            assert dict(_special_profiles(beta, d, 2 * m)) == special_cells_oracle(
                beta, d, 2 * m
            ), (beta, m)


@pytest.mark.parametrize("d, top", SCALES)
def test_special_weights_count_every_multiset(d, top):
    for beta in enumerate_indices(d):
        n = len(upper_points(beta, d))
        for k in range(top + 1):
            total = sum(count for _, count in _special_profiles(beta, d, 2 * k))
            assert total == comb(n + k - 1, k), (beta, k)


@pytest.mark.parametrize("d, top", SCALES)
def test_standard_cells_match_dfs(d, top):
    for beta in enumerate_indices(d):
        for max_degree in range(top + 1):
            assert dict(_standard_chains(beta, d, max_degree)) == standard_cells_oracle(
                beta, d, max_degree
            ), (beta, max_degree)


@pytest.mark.parametrize("d, top", [(1, 6), (2, 6), (3, 3)])
def test_bitableau_cells_group_the_enumeration(d, top):
    for beta in enumerate_indices(d):
        for m in range(1, top + 1):
            oracle = Counter()
            for t in enumerate_on_starred(beta, d, 2 * m):
                delta = delta_sequence(t, beta)
                oracle[(delta[0], delta[-1])] += 1
            assert dict(_bitableau_profiles(beta, d, 2 * m)) == dict(oracle), (beta, m)
