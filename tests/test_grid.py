import random
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from tancone.definitions import (
    chain_bounded,
    chain_value,
    double_multiset,
    enumerate_chains,
    fold_chain,
    is_chain,
    is_diagonal,
    is_special,
    is_upper_chain,
    multiset_bounded,
    sharp_multiset,
    sqrt_special,
)
from tancone.grid import (
    bound_value,
    grid_points,
    is_positive,
    is_upper,
    maximal_paths,
    multiset_from_json,
    multiset_to_json,
    sharp_point,
    upper_points,
)
from tancone.indexsets import enumerate_indices


def maximal_chains_oracle(points):
    """Brute-force maximal chains: every subset of the support that is a
    chain and that no further support point extends."""
    support = set(points)
    result = []
    for ch in enumerate_chains(support, nonempty=True):
        s = set(ch)
        extendable = any(
            is_chain(tuple(sorted(s | {q}, key=lambda p: (-p[0], p[1]))))
            for q in support - s
        )
        if not extendable:
            result.append(ch)
    return result


def test_grid_regions_beta_13():
    pts = grid_points((1, 3), 2)
    assert set(pts) == {(2, 1), (2, 3), (4, 1), (4, 3)}
    assert set(upper_points((1, 3), 2)) == {(2, 1), (2, 3), (4, 1)}
    assert {p for p in pts if is_diagonal(p, 2)} == {(2, 3), (4, 1)}
    ups = upper_points((1, 3), 2)
    assert {p for p in ups if is_positive(p)} == {(2, 1), (4, 1)}
    assert {p for p in ups if not is_positive(p)} == {(2, 3)}


def test_grid_rejects_non_isotropic():
    with pytest.raises(ValueError):
        grid_points((1, 4), 2)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_region_partition(d):
    for beta in enumerate_indices(d):
        pts = grid_points(beta, d)
        assert len(pts) == d * d
        assert len(upper_points(beta, d)) == d * (d + 1) // 2
        for p in pts:
            assert (p[0] <= 2 * d + 1 - p[1]) == is_upper(p, d)
            if is_diagonal(p, d):
                assert is_upper(p, d)
            assert p[0] != p[1]


def test_sharp_point_examples():
    assert sharp_point((2, 1), 2) == (4, 3)
    assert sharp_point((4, 1), 2) == (4, 1)


@pytest.mark.parametrize("d", [2, 3])
def test_sharp_point_involution(d):
    for beta in enumerate_indices(d):
        for p in grid_points(beta, d):
            q = sharp_point(p, d)
            assert q in grid_points(beta, d)
            assert sharp_point(q, d) == p
            assert (q == p) == is_diagonal(p, d)


def test_sharp_multiset_involution():
    m = {(2, 1): 2, (4, 3): 1}
    assert sharp_multiset(sharp_multiset(m, 2), 2) == m


def test_chain_examples():
    assert is_chain([(4, 1), (2, 3)])
    assert is_upper_chain(((4, 1), (2, 3)), 2)
    assert not is_chain([(4, 3), (2, 1)])
    assert is_chain([])


def test_bound_value_examples():
    assert bound_value({4}, {1}, (1, 3)) == (3, 4)
    assert bound_value({2}, {3}, (1, 3)) == (1, 2)
    assert bound_value(set(), set(), (1, 3)) == (1, 3)
    with pytest.raises(ValueError):
        bound_value({4}, {1, 3}, (1, 3))
    with pytest.raises(ValueError):
        bound_value({1}, {1}, (1, 3))


def test_chain_bounded_examples():
    assert chain_bounded([(4, 1), (2, 3)], (1, 2), (3, 4), (1, 3))
    assert not chain_bounded([(2, 1)], (1, 3), (1, 3), (1, 3))
    assert chain_bounded([], (1, 3), (1, 3), (1, 3))


@pytest.mark.parametrize("d", [2, 3])
def test_chain_bounded_monotone_in_subchains(d):
    for beta in enumerate_indices(d):
        iso = enumerate_indices(d)
        chains = enumerate_chains(upper_points(beta, d))
        for alpha in iso:
            for gamma in iso:
                for ch in chains:
                    if chain_bounded(ch, alpha, gamma, beta):
                        for k in range(len(ch)):
                            sub = ch[:k] + ch[k + 1 :]
                            assert chain_bounded(sub, alpha, gamma, beta)


def test_multiset_bounded_examples():
    assert multiset_bounded({(4, 1): 1}, (1, 2), (3, 4), (1, 3))
    assert not multiset_bounded({(2, 1): 1}, (1, 3), (1, 3), (1, 3))
    assert multiset_bounded({}, (1, 3), (1, 3), (1, 3))


def test_maximal_chains_cover_support():
    m = {(2, 1): 1, (4, 1): 2, (2, 3): 1}
    chains = maximal_paths(m.keys())
    covered = {p for ch in chains for p in ch}
    assert covered == set(m)
    for ch in chains:
        assert is_chain(ch)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_maximal_paths_match_oracle_every_support(d):
    for beta in enumerate_indices(d):
        pts = grid_points(beta, d)
        for size in range(1, len(pts) + 1):
            for support in combinations(pts, size):
                assert sorted(maximal_paths(support)) == sorted(
                    maximal_chains_oracle(support)
                ), (beta, support)


def test_maximal_paths_match_oracle_d4_sampled_supports():
    """Doubled supports of up to six upper points, as the degree <= 6
    special tables use them: 300 seeded draws per beta."""
    rng = random.Random(4)
    for beta in enumerate_indices(4):
        ups = upper_points(beta, 4)
        for _ in range(300):
            u = dict.fromkeys(rng.sample(ups, rng.randint(1, 6)), 1)
            support = double_multiset(u, 4).keys()
            assert sorted(maximal_paths(support)) == sorted(
                maximal_chains_oracle(support)
            ), (beta, support)


def test_sqrt_special_examples():
    assert sqrt_special({(2, 1): 1, (4, 3): 1}, 2) == {(2, 1): 1}
    assert sqrt_special({(4, 1): 2}, 2) == {(4, 1): 1}
    with pytest.raises(ValueError):
        sqrt_special({(4, 1): 1}, 2)
    with pytest.raises(ValueError):
        sqrt_special({(2, 1): 1}, 2)


@pytest.mark.parametrize("d", [2, 3])
def test_doubling_round_trip(d):
    for beta in enumerate_indices(d):
        ups = upper_points(beta, d)
        for k in range(1, 3):
            for combo in combinations_with_replacement(ups, k):
                u = {}
                for p in combo:
                    u[p] = u.get(p, 0) + 1
                m = double_multiset(u, d)
                assert is_special(m, d)
                assert sum(m.values()) == 2 * sum(u.values())
                assert sqrt_special(m, d) == u


@pytest.mark.parametrize("d", [2, 3])
def test_folding_chains_of_doubled_multiset(d):
    for beta in enumerate_indices(d):
        ups = upper_points(beta, d)
        for combo in combinations_with_replacement(ups, 2):
            u = {}
            for p in combo:
                u[p] = u.get(p, 0) + 1
            m = double_multiset(u, d)
            for ch in enumerate_chains(m.keys()):
                folded = fold_chain(ch, d)
                ordered = tuple(sorted(set(folded), key=lambda p: (-p[0], p[1])))
                assert is_upper_chain(ordered, d)
                assert set(ordered) <= set(u)


@given(st.integers(min_value=1, max_value=4), st.data())
def test_sharp_multiset_preserves_degree(d, data):
    beta = data.draw(st.sampled_from(enumerate_indices(d)))
    pts = grid_points(beta, d)
    m = data.draw(
        st.dictionaries(
            st.sampled_from(pts), st.integers(min_value=1, max_value=3), max_size=4
        )
    )
    assert sum(sharp_multiset(m, d).values()) == sum(m.values())


def test_multiset_json_round_trip():
    m = {(2, 1): 2, (4, 3): 1}
    assert multiset_from_json(multiset_to_json(m)) == m
    assert multiset_to_json(m) == [
        {"r": 2, "c": 1, "mult": 2},
        {"r": 4, "c": 3, "mult": 1},
    ]


def test_chain_value_matches_bound_value():
    assert chain_value([(4, 1)], (1, 3)) == (3, 4)
    assert chain_value([(2, 3)], (1, 3)) == (1, 2)


@pytest.mark.parametrize("d", [2, 3])
def test_canonical_bounds_invert_bound_value(d):
    from tancone.indexsets import bruhat_leq

    iso = enumerate_indices(d)
    for beta in iso:
        for alpha in iso:
            for gamma in iso:
                if not (bruhat_leq(alpha, beta) and bruhat_leq(beta, gamma)):
                    continue
                for bound in (alpha, gamma):
                    rows = set(bound) - set(beta)
                    cols = set(beta) - set(bound)
                    assert bound_value(rows, cols, beta) == bound
