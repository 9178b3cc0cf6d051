import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from tancone.definitions import admissible_pair_by_ends, pair_leq
from tancone.indexsets import (
    MAX_D,
    admissible_pairs,
    bruhat_leq,
    bruhat_mask,
    enumerate_indices,
    format_index,
    is_isotropic,
    join_meet,
    pairs_outside,
    parse_index,
    sharp,
    star,
    star_set,
)


@pytest.mark.parametrize(
    "d, j, expected",
    [(2, 1, 4), (2, 2, 3), (3, 6, 1), (1, 1, 2), (1, 2, 1)],
)
def test_star(d, j, expected):
    assert star(j, d) == expected
    assert star(star(j, d), d) == j


def test_star_range_check():
    with pytest.raises(ValueError):
        star(0, 2)
    with pytest.raises(ValueError):
        star(5, 2)


def brute_isotropic(d):
    """Independent oracle: filter raw subsets by v and v* disjoint."""
    out = []
    for v in combinations(range(1, 2 * d + 1), d):
        mirror = {2 * d + 1 - j for j in v}
        if not set(v) & mirror:
            out.append(v)
    return out


def test_enumerate_d1():
    assert enumerate_indices(1) == ((1,), (2,))


def test_enumerate_d2_matches_brute_force():
    assert enumerate_indices(2) == ((1, 2), (1, 3), (2, 4), (3, 4))
    assert list(enumerate_indices(2)) == brute_isotropic(2)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_enumeration_sizes(d):
    assert len(enumerate_indices(d, ambient_only=True)) == len(
        list(combinations(range(2 * d), d))
    )
    assert len(enumerate_indices(d)) == 2**d
    assert list(enumerate_indices(d)) == brute_isotropic(d)


def test_ambient_count_d2():
    assert len(enumerate_indices(2, ambient_only=True)) == 6


@pytest.mark.parametrize("d", [0, MAX_D + 1, 100])
def test_enumerate_rejects_d_out_of_range(d):
    for ambient_only in (False, True):
        with pytest.raises(ValueError, match="d must be"):
            enumerate_indices(d, ambient_only)


@st.composite
def values_and_bounds(draw):
    """A nonempty list of values in I(d, 2d) and two bounds alpha, gamma
    in I(d), at some d <= 5."""
    d = draw(st.integers(1, 5))
    values = draw(st.lists(st.sampled_from(enumerate_indices(d, ambient_only=True)), min_size=1))
    iso = enumerate_indices(d)
    return values, draw(st.sampled_from(iso)), draw(st.sampled_from(iso))


@given(values_and_bounds())
def test_a_set_is_bounded_exactly_when_its_meet_or_join_is(case):
    """Bruhat order is componentwise, so a set of values lies at or above
    alpha exactly when its componentwise min does, and at or below gamma
    exactly when its componentwise max does; both are values again.  The
    count tables key each cell by that meet and join."""
    values, alpha, gamma = case
    meet = tuple(min(column) for column in zip(*values))
    join = tuple(max(column) for column in zip(*values))
    assert all(bruhat_leq(alpha, v) for v in values) == bruhat_leq(alpha, meet)
    assert all(bruhat_leq(v, gamma) for v in values) == bruhat_leq(join, gamma)
    for bound in (meet, join):
        assert all(a < b for a, b in zip(bound, bound[1:])), (values, bound)


@pytest.mark.parametrize(
    "v, w, expected",
    [((1, 3), (2, 4), True), ((1, 4), (2, 3), False), ((1, 3), (1, 3), True)],
)
def test_bruhat_examples(v, w, expected):
    assert bruhat_leq(v, w) is expected


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bruhat_is_partial_order(d):
    elems = enumerate_indices(d, ambient_only=True)
    for v in elems:
        assert bruhat_leq(v, v)
        for w in elems:
            if bruhat_leq(v, w) and bruhat_leq(w, v):
                assert v == w
            for u in elems:
                if bruhat_leq(v, w) and bruhat_leq(w, u):
                    assert bruhat_leq(v, u)


def test_bruhat_size_mismatch():
    with pytest.raises(ValueError):
        bruhat_leq((1,), (1, 2))
    with pytest.raises(ValueError):
        bruhat_leq((), (1,))
    with pytest.raises(ValueError):
        bruhat_leq((1, 2, 3), (4, 5))  # each shared entry is <=, still an error


def test_bruhat_equal_and_empty():
    assert bruhat_leq((), ()) is True
    assert bruhat_leq((2, 5, 6), (2, 5, 6)) is True
    assert bruhat_leq([1, 3], (1, 3)) is True


def _bruhat_leq_genexpr(v, w):
    if len(v) != len(w):
        raise ValueError("cannot compare indices of different lengths")
    return all(a <= b for a, b in zip(v, w))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bruhat_matches_the_genexpr_form(d):
    elems = enumerate_indices(d, ambient_only=True)
    for v in elems:
        for w in elems:
            assert bruhat_leq(v, w) is _bruhat_leq_genexpr(v, w), (v, w)


def _mask_leq(v, w, d):
    return not bruhat_mask(v, d) & ~bruhat_mask(w, d)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_bruhat_mask_containment_is_bruhat_order(d):
    """Every ordered pair of I(d, 2d): the masks are contained exactly when
    ``bruhat_leq`` holds."""
    elems = enumerate_indices(d, ambient_only=True)
    for v in elems:
        for w in elems:
            assert _mask_leq(v, w, d) is bruhat_leq(v, w), (v, w)


def test_bruhat_mask_containment_on_a_max_d_sample():
    """A seeded sample of pairs of I(MAX_D, 2 MAX_D), half of them pairs
    that differ at one position only, where a bit borrowed across blocks
    would show."""
    d, rng = MAX_D, random.Random(0)
    elems = enumerate_indices(d, ambient_only=True)
    answers = set()
    for _ in range(20000):
        v, w = rng.choice(elems), rng.choice(elems)
        answers.add(_mask_leq(v, w, d))
        assert _mask_leq(v, w, d) is bruhat_leq(v, w), (v, w)
        i = rng.randrange(d)
        low = v[i - 1] + 1 if i else 1
        high = v[i + 1] - 1 if i + 1 < d else 2 * d
        u = v[:i] + (rng.randint(low, high),) + v[i + 1 :]
        assert _mask_leq(v, u, d) is bruhat_leq(v, u), (v, u)
        assert _mask_leq(u, v, d) is bruhat_leq(u, v), (u, v)
    assert answers == {False, True}


def _assert_or_is_join_and_is_meet(v, w, d):
    join, meet = join_meet(v, w)
    mv, mw = bruhat_mask(v, d), bruhat_mask(w, d)
    assert bruhat_mask(join, d) == mv | mw, (v, w)
    assert bruhat_mask(meet, d) == mv & mw, (v, w)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bruhat_mask_or_is_join_and_is_meet(d):
    """Every ordered pair of I(d, 2d): the mask of the componentwise max
    is the OR of the two masks and that of the min their AND, and no two
    elements share a mask, so the count tables may key cells by masks."""
    elems = enumerate_indices(d, ambient_only=True)
    assert len({bruhat_mask(v, d) for v in elems}) == len(elems)
    for v in elems:
        for w in elems:
            _assert_or_is_join_and_is_meet(v, w, d)


@pytest.mark.parametrize("d", range(4, MAX_D + 1))
def test_bruhat_mask_or_is_join_and_is_meet_on_a_sample(d):
    """A seeded sample of pairs of I(d, 2d) for 4 <= d <= MAX_D, where a
    mask spans more than one 30-bit digit of a Python int; and no two
    elements of I(d, 2d) share a mask."""
    rng = random.Random(d)
    elems = enumerate_indices(d, ambient_only=True)
    assert len({bruhat_mask(v, d) for v in elems}) == len(elems)
    for _ in range(3000):
        _assert_or_is_join_and_is_meet(rng.choice(elems), rng.choice(elems), d)


def test_bruhat_mask_blocks():
    assert bruhat_mask((), 2) == 0
    assert bruhat_mask((1, 3), 2) == 0b00111_00001
    assert bruhat_mask((4,), 2) == 0b1111
    # entries of at most 2d + 1 stay in their own block of 2d + 1 bits
    assert bruhat_mask((2, 5), 2) == 0b11111_00011
    assert bruhat_mask((0, -3, 2), 1) == 0b011_000_000


@pytest.mark.parametrize(
    "d, theta, expected",
    [(2, (1, 4), (2, 3)), (2, (1, 2), (1, 2))],
)
def test_sharp_examples(d, theta, expected):
    assert sharp(theta, d) == expected


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sharp_involution_and_fixed_set(d):
    fixed = set()
    for theta in enumerate_indices(d, ambient_only=True):
        assert sharp(sharp(theta, d), d) == theta
        if sharp(theta, d) == theta:
            fixed.add(theta)
    assert fixed == set(enumerate_indices(d))


def test_join_meet_examples():
    assert join_meet((1, 4), (2, 3)) == ((2, 4), (1, 3))
    v = (1, 3)
    assert join_meet(v, v) == (v, v)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_orbit_join_meet_isotropic(d):
    for theta in enumerate_indices(d, ambient_only=True):
        join, meet = join_meet(theta, sharp(theta, d))
        assert is_isotropic(join, d)
        assert is_isotropic(meet, d)
        assert bruhat_leq(meet, join)


def test_admissible_pairs_d1():
    pairs = admissible_pairs(1)
    assert [(p.top, p.bot) for p in pairs] == [((1,), (1,)), ((2,), (2,))]


def test_admissible_pairs_d2():
    pairs = admissible_pairs(2)
    assert len(pairs) == 5
    nondiag = [p for p in pairs if p.top != p.bot]
    assert len(nondiag) == 1
    assert nondiag[0].top == (2, 4)
    assert nondiag[0].bot == (1, 3)
    assert {nondiag[0].rep, sharp(nondiag[0].rep, 2)} == {(1, 4), (2, 3)}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_admissible_pairs_properties(d):
    pairs = admissible_pairs(d)
    for p in pairs:
        assert bruhat_leq(p.bot, p.top)
        assert is_isotropic(p.top, d) and is_isotropic(p.bot, d)
    # ends determine the pair
    assert len({(p.top, p.bot) for p in pairs}) == len(pairs)


def test_admissible_pairs_d4_deduplicates_shared_ends():
    # two sharp-orbits share (join, meet) = ((2,4,6,8), (1,3,5,7)); the
    # pair set keeps one of them, giving 42 pairs rather than 43 orbits
    pairs = admissible_pairs(4)
    assert len(pairs) == 42
    dup = admissible_pair_by_ends(4)[((2, 4, 6, 8), (1, 3, 5, 7))]
    assert dup.rep == (1, 3, 6, 8)


@pytest.mark.parametrize("d", [7, 8])
def test_pairs_outside_is_the_definition_at_large_d(d):
    """30 seeded (alpha, gamma) with alpha <= gamma in I(d), where the
    pairs' masks are 105 and 136 bits wide: the pairs outside are those
    with alpha !<= bot or top !<= gamma, in the order of
    ``admissible_pairs``."""
    rng = random.Random(d)
    elems = enumerate_indices(d)
    pairs = admissible_pairs(d)
    sizes = set()
    for _ in range(30):
        alpha, gamma = rng.choice(elems), rng.choice(elems)
        while not bruhat_leq(alpha, gamma):
            alpha, gamma = rng.choice(elems), rng.choice(elems)
        expected = [
            p for p in pairs if not bruhat_leq(alpha, p.bot) or not bruhat_leq(p.top, gamma)
        ]
        assert pairs_outside(alpha, gamma, d) == expected, (alpha, gamma)
        sizes.add(len(expected))
    assert len(sizes) > 1


@pytest.mark.parametrize("d", [2, 3])
def test_beta_degree_same_for_both_representatives(d):
    for beta in enumerate_indices(d):
        for p in admissible_pairs(d):
            theta, mate = p.rep, sharp(p.rep, d)
            assert len(set(theta) - set(beta)) == len(set(mate) - set(beta))
            deg2 = len(set(p.top) - set(beta)) + len(set(p.bot) - set(beta))
            assert deg2 == 2 * p.beta_degree(beta)


def test_pair_order_via_top_bot():
    by_ends = admissible_pair_by_ends(2)
    a = by_ends[((1, 2), (1, 2))]
    b = by_ends[((2, 4), (1, 3))]
    assert pair_leq(a, b)
    assert not pair_leq(b, a)
    assert pair_leq(a, a)  # diagonal pairs may repeat in a chain
    assert not pair_leq(b, b)


def test_parse_and_format():
    assert parse_index("1,3", 2) == (1, 3)
    assert format_index((1, 3)) == "1,3"
    with pytest.raises(ValueError):
        parse_index("3,1", 2)
    with pytest.raises(ValueError):
        parse_index("1,5", 2)
    with pytest.raises(ValueError):
        parse_index("1", 2)


# near-miss index texts (small, negative, repeated or unordered entries)
# alongside arbitrary text
INDEX_TEXTS = (
    st.lists(st.integers(-2, 10), max_size=5).map(lambda xs: ",".join(map(str, xs)))
    | st.text(max_size=12)
)


@given(INDEX_TEXTS, st.integers(1, 4))
def test_parse_index_any_text(text, d):
    try:
        v = parse_index(text, d)
    except ValueError:
        return
    assert len(v) == d
    assert list(v) == sorted(set(v))
    assert 1 <= v[0] and v[-1] <= 2 * d


def test_star_set_sorted():
    assert star_set((1, 3), 2) == (2, 4)
