"""The per-beta count tables against brute-force oracles.

Each table ``table(beta, d, m)`` holds the column's objects at monomial
degree m as cells ((low, high), count), low and high kept as their
``bruhat_mask``s.  The oracles list every object the table counts
(special multisets by their multiplicities, standard sequences by DFS,
bitableaux by the unpruned direct enumeration of ``test_brsk``) and
group them by the same key as tuples, the meet of the values bounded
below by alpha and the join of those bounded above by gamma (beta for a
side with none); ``by_masks`` turns those keys into masks, and the two
must agree cell for cell.  The filter is checked against ``bruhat_leq``
on the decoded values, and each column's count against a brute-force
count by the column's own predicate.
The special table was once built from two-sign support tables keyed by
every chain value, kept here as ``special_profiles_oracle``; its keys
differ, so the two are compared by their filtered counts.
"""

import gc
import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from test_brsk import enumerate_on_starred_oracle

from tancone.brsk import enumerate_on_starred
from tancone.definitions import (
    _standard_sequences,
    chain_value,
    pair_is_plain,
    delta_sequence,
    double_multiset,
    is_bounded_bitableau,
    is_chain,
    is_standard_on_y,
    monomial_degree,
    multiset_bounded,
    special_multisets,
)
from tancone.grid import (
    chain_parts,
    grid_points,
    is_positive,
    maximal_paths,
    multiset_chain_values,
    sharp_point,
    upper_points,
)
from tancone.indexsets import admissible_pairs, bruhat_leq, bruhat_mask, enumerate_indices
from tancone.verify import (
    _bitableau_profiles,
    _count_bitableaux,
    _count_cells,
    _count_specials,
    _count_standard,
    _sign_supports,
    _special_profiles,
    _standard_chains,
    all_triples,
    sample_triples,
    sweep,
)

# (d, highest degree m checked); specials have degree 2m
SCALES = [(1, 6), (2, 6), (3, 6), (4, 4)]


TABLES = (_special_profiles, _bitableau_profiles, _standard_chains)


def by_masks(cells, d):
    """Cells ``((low, high), count)`` keyed by tuples, keyed by their
    ``bruhat_mask``s instead, in the same order; a dict stays a dict."""
    items = cells.items() if isinstance(cells, dict) else cells
    out = tuple(
        ((bruhat_mask(low, d), bruhat_mask(high, d)), count) for (low, high), count in items
    )
    return dict(out) if isinstance(cells, dict) else out


def decode(mask, d):
    """The d-tuple whose i-th entry is the number of bits set in block i
    of 2d + 1 bits: the inverse of ``bruhat_mask`` on its image."""
    width = 2 * d + 1
    return tuple((mask >> i * width & (1 << width) - 1).bit_count() for i in range(d))


def case_masks(alpha, gamma, d):
    """The two masks ``verify_case`` filters a case's cells by."""
    return bruhat_mask(alpha, d), ~bruhat_mask(gamma, d)


def count_cells_oracle(cells, alpha, gamma, d):
    """``_count_cells`` by definition: every cell's two decoded values
    are compared with ``bruhat_leq``."""
    return sum(
        count
        for (low, high), count in cells
        if bruhat_leq(alpha, decode(low, d)) and bruhat_leq(decode(high, d), gamma)
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
            assert dict(_special_profiles(beta, d, m)) == by_masks(
                special_cells_oracle(beta, d, m), d
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
                    got = _count_cells(new, *case_masks(alpha, gamma, d))
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
            assert dict(_standard_chains(beta, d, m)) == by_masks(
                standard_cells_oracle(beta, d, m), d
            ), (beta, m)


def standard_chains_oracle(beta, d, top):
    """The standard table at degrees 0..top as it was built before its bit
    tables: plain pairs by ``pair_is_plain``, beta-degrees by set
    difference, and each pair after a cell of lower degree by
    ``bruhat_leq`` of the cell's top and the pair's bot."""
    tables = [(((beta, beta), 1),)]
    plain = [w for w in admissible_pairs(d) if pair_is_plain(w, beta)]
    for m in range(1, top + 1):
        cells = Counter()
        for w in plain:
            wdeg = w.beta_degree(beta)
            if wdeg == m:
                cells[(w.bot, w.top)] += 1
            elif 0 < wdeg < m:
                for (bot, high), count in tables[m - wdeg]:
                    if bruhat_leq(high, w.bot):
                        cells[(bot, w.top)] += count
        tables.append(tuple(cells.items()))
    return tables


def sampled_betas(d, draws, seed):
    """Every fixed point at d, or a seeded sample of ``draws`` of them."""
    betas = enumerate_indices(d)
    return betas if draws is None else random.Random(seed).sample(betas, draws)


# (d, highest degree m, fixed points drawn or None for all, seed)
BIT_SCALES = [
    (1, 6, None, 0),
    (2, 6, None, 0),
    (3, 6, None, 0),
    (4, 4, None, 0),
    (5, 4, 6, 5),
    (6, 3, 3, 6),
]


@pytest.mark.parametrize("d, top, draws, seed", BIT_SCALES)
def test_standard_chains_match_the_pair_oracle(d, top, draws, seed):
    """The table read off the per-d pair masks equals the
    ``pair_is_plain`` / ``bruhat_leq`` loop cell for cell, in order."""
    for beta in sampled_betas(d, draws, seed):
        want = standard_chains_oracle(beta, d, top)
        for m in range(top + 1):
            assert _standard_chains(beta, d, m) == by_masks(want[m], d), (beta, m)


def chain_values_oracle(m, beta):
    """``multiset_chain_values`` on tuples: each maximal chain's parts
    split by ``chain_parts`` and valued by ``chain_value``."""
    pos_vals, neg_vals = set(), set()
    for ch in maximal_paths(m.keys()):
        pos, neg = chain_parts(ch)
        if pos:
            pos_vals.add(chain_value(pos, beta))
        if neg:
            neg_vals.add(chain_value(neg, beta))
    return tuple(sorted(pos_vals)), tuple(sorted(neg_vals))


@pytest.mark.parametrize("d, top, draws, seed", BIT_SCALES)
def test_chain_values_match_the_tuple_oracle(d, top, draws, seed):
    """The bitset chain values equal the tuple ones on the doubled
    supports of at most ``top`` upper points, every such support at
    d <= 4 and 300 seeded ones per drawn fixed point at d = 5 and 6, and
    at d <= 3 on every subset of the grid, doubled or not."""
    rng = random.Random(seed)
    for beta in sampled_betas(d, draws, seed):
        upper = upper_points(beta, d)
        if draws is None:
            supports = [s for k in range(1, top + 1) for s in combinations(upper, k)]
        else:
            supports = [rng.sample(upper, rng.randint(1, top)) for _ in range(300)]
        multisets = [double_multiset(dict.fromkeys(s, 1), d) for s in supports]
        if d <= 3:
            points = grid_points(beta, d)
            multisets += [
                dict.fromkeys(s, 1)
                for k in range(1, len(points) + 1)
                for s in combinations(points, k)
            ]
        for m in multisets:
            want = chain_values_oracle(m, beta)
            assert multiset_chain_values(m, beta) == want, (beta, m)


@pytest.mark.parametrize(
    "m, beta",
    [
        ({(1, 3): 1}, (1, 3)),  # a row in beta
        ({(4, 2): 1}, (1, 3)),  # a column outside beta
        ({(3, 4): 1}, (1, 3)),  # both, so the checks' order shows
        ({(2, 1): 1, (4, 3): 1}, (1, 3)),  # on the grid: two one-point chains
    ],
)
def test_chain_values_keep_the_bound_value_checks(m, beta):
    """A support off the grid fails as ``bound_value`` fails on it, with
    the same message, and one on the grid gives the same values."""
    try:
        want = chain_values_oracle(m, beta)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            multiset_chain_values(m, beta)
    else:
        assert multiset_chain_values(m, beta) == want


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
            assert dict(_bitableau_profiles(beta, d, m)) == by_masks(
                bitableau_cells_oracle(beta, d, m), d
            ), (beta, m)


def is_value(v, d):
    """A strictly increasing d-tuple of ints in [1, 2d]."""
    return (
        isinstance(v, tuple)
        and len(v) == d
        and all(type(x) is int and 1 <= x <= 2 * d for x in v)
        and all(a < b for a, b in zip(v, v[1:]))
    )


def is_value_mask(mask, d):
    """The ``bruhat_mask`` of a strictly increasing d-tuple in [1, 2d]."""
    if type(mask) is not int:
        return False
    v = decode(mask, d)
    return is_value(v, d) and bruhat_mask(v, d) == mask


@pytest.mark.parametrize("d", [1, 2, 3])
def test_every_cell_is_one_low_and_one_high(d):
    """Every table, every beta and m <= 6: each cell is ((low, high),
    count) with the masks of two values and a positive count, and degree
    0 is the one cell of beta's mask twice."""
    for beta in enumerate_indices(d):
        key = bruhat_mask(beta, d)
        for table in TABLES:
            assert table(beta, d, 0) == (((key, key), 1),), (table.__name__, beta)
            for m in range(7):
                for cell in table(beta, d, m):
                    (low, high), count = cell
                    assert is_value_mask(low, d) and is_value_mask(high, d), (
                        table.__name__, beta, m, cell
                    )
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
            tests = case_masks(alpha, gamma, d)
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


def _filter_matches_oracle(d, triples, top):
    for alpha, beta, gamma in triples:
        above, below = case_masks(alpha, gamma, d)
        for table in TABLES:
            for m in range(top + 1):
                cells = table(beta, d, m)
                assert _count_cells(cells, above, below) == count_cells_oracle(
                    cells, alpha, gamma, d
                ), (table.__name__, alpha, beta, gamma, m)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_count_cells_matches_oracle_on_every_table(d):
    """Every table at d <= 3 up to degree 6, filtered for every triple by
    the two masks ``verify_case`` forms."""
    _filter_matches_oracle(d, all_triples(d), 6)


# (d, triples drawn, seed, highest m)
@pytest.mark.parametrize("d, draws, seed, top", [(4, 100, 4, 4), (5, 30, 5, 3)])
def test_count_cells_matches_oracle_on_a_sample(d, draws, seed, top):
    """A seeded sample of triples at d = 4 and 5 and low degree, where a
    mask spans more than one 30-bit digit of a Python int."""
    _filter_matches_oracle(d, sample_triples(d, draws, seed), top)


def test_a_sweep_leaves_no_cyclic_garbage():
    """With the count tables cold and the cyclic collector off, a sweep and
    one bitableau enumeration free everything they drop by refcount: the
    enumeration's recursive walk holds no reference cycle, so a sweep's
    bitableaux never wait for the collector."""
    for table in (*TABLES, _sign_supports):
        table.cache_clear()
    gc.collect()
    gc.disable()
    try:
        assert len(sweep(2, max_degree=6)) == 20
        assert gc.collect() == 0
        assert len(enumerate_on_starred((1, 3), 2, 6)) == 10
        assert gc.collect() == 0
    finally:
        gc.enable()
