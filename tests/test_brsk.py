from itertools import combinations_with_replacement

import pytest

from tancone.brsk import (
    EMPTY,
    NEG,
    POS,
    NotchedBitableau,
    NotInImageError,
    Row,
    _row_from_value,
    _starred_row_values,
    brsk_inverse,
    brsk_map,
    delta_sequence,
    enumerate_on_starred,
    epsilon_degree,
    is_bounded_bitableau,
    is_on_starred,
    is_semistandard,
    top_bot_of_chain,
)
from tancone.grid import (
    double_multiset,
    enumerate_chains,
    is_upper_chain,
    multiset_bounded,
    upper_points,
)
from tancone.indexsets import bruhat_leq, enumerate_indices, is_isotropic


def enumerate_on_starred_oracle(beta, d, degree):
    """Every on-starred bitableau with the given box count, in the order
    of ``enumerate_on_starred``: each weakly increasing value sequence of
    that box count, filtered by ``is_on_starred`` alone (no pruning)."""
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


def special_multisets(beta, d, degree):
    """All special multisets of even degree: doubles of upper multisets."""
    out = []
    for combo in combinations_with_replacement(upper_points(beta, d), degree // 2):
        u = {}
        for p in combo:
            u[p] = u.get(p, 0) + 1
        out.append(double_multiset(u, d))
    return out


@pytest.mark.parametrize(
    "v, d, expected", [((1, 3), 2, 1), ((1, 2), 2, 0), ((3, 4), 2, 2)]
)
def test_epsilon_degree(v, d, expected):
    assert epsilon_degree(v, d) == expected


def test_brsk_empty():
    assert brsk_map({}, (1, 3), 2) == EMPTY
    assert brsk_inverse(EMPTY, (1, 3), 2) == {}


def test_brsk_single_positive_row_fixture():
    t = brsk_map({(2, 1): 1, (4, 3): 1}, (1, 3), 2)
    assert t.rows == (Row(p=(2, 4), q=(1, 3), sign=POS),)
    assert t.values((1, 3)) == ((2, 4),)
    assert is_on_starred(t, (1, 3), 2)
    # odd row count wedges beta into the delta sequence
    assert delta_sequence(t, (1, 3)) == ((1, 3), (2, 4))
    assert brsk_inverse(t, (1, 3), 2) == {(2, 1): 1, (4, 3): 1}


def test_brsk_stacks_negative_above_positive():
    m = {(2, 3): 2, (2, 1): 1, (4, 3): 1}
    t = brsk_map(m, (1, 3), 2)
    signs = [r.sign for r in t.rows]
    assert signs == sorted(signs)
    neg = {p: k for p, k in m.items() if p[0] < p[1]}
    pos = {p: k for p, k in m.items() if p[0] > p[1]}
    assert t.rows == brsk_map(neg, (1, 3), 2).rows + brsk_map(pos, (1, 3), 2).rows


@pytest.mark.parametrize("d", [1, 2])
def test_round_trip_and_image_small(d):
    for beta in enumerate_indices(d):
        for degree in (2, 4):
            for m in special_multisets(beta, d, degree):
                t = brsk_map(m, beta, d)
                assert t.degree() == sum(m.values())
                assert is_semistandard(t, beta, d)
                assert is_on_starred(t, beta, d)
                assert brsk_inverse(t, beta, d) == m


def test_bounded_equivalence_example():
    beta, d = (1, 3), 2
    m = {(2, 1): 1, (4, 3): 1}
    t = brsk_map(m, beta, d)
    for alpha in enumerate_indices(d):
        for gamma in enumerate_indices(d):
            if bruhat_leq(alpha, beta) and bruhat_leq(beta, gamma):
                assert multiset_bounded(m, alpha, gamma, beta) == is_bounded_bitableau(
                    t, alpha, gamma, beta
                )


def test_top_bot_examples():
    top, _ = top_bot_of_chain([(4, 1)], (1, 3), 2)
    assert top == (3, 4)
    _, bot = top_bot_of_chain([(2, 3)], (1, 3), 2)
    assert bot == (1, 2)
    with pytest.raises(ValueError):
        top_bot_of_chain([], (1, 3), 2)
    with pytest.raises(ValueError):
        top_bot_of_chain([(4, 3)], (1, 3), 2)  # lower point: not upper chain


@pytest.mark.parametrize("d", [2, 3])
def test_top_bot_isotropic_for_all_upper_chains(d):
    for beta in enumerate_indices(d):
        for ch in enumerate_chains(upper_points(beta, d)):
            ordered = tuple(sorted(ch, key=lambda p: (-p[0], p[1])))
            assert is_upper_chain(ordered, d)
            top, bot = top_bot_of_chain(ordered, beta, d)
            assert is_isotropic(top, d)
            assert is_isotropic(bot, d)


def test_semistandard_examples():
    beta, d = (1, 3), 2
    row = Row(p=(2, 4), q=(1, 3), sign=POS)
    assert is_semistandard(NotchedBitableau(rows=(row, row)), beta, d)
    bad = Row(p=(2, 4), q=(1, 3), sign=NEG)  # positive values tagged negative
    assert not is_semistandard(NotchedBitableau(rows=(bad,)), beta, d)


def test_on_starred_rejects_mirror_violation():
    beta, d = (1, 3), 2
    row = Row(p=(2,), q=(1,), sign=POS)  # value (2,3): q* = (4,) != p
    assert not is_on_starred(NotchedBitableau(rows=(row,)), beta, d)


def test_on_starred_rejects_odd_boxes():
    beta, d = (1, 3), 2
    row = Row(p=(4,), q=(1,), sign=POS)  # mirror-symmetric, but 1 box
    t = NotchedBitableau(rows=(row,))
    assert is_semistandard(t, beta, d)
    assert not is_on_starred(t, beta, d)


def test_on_starred_epsilon_pairing():
    beta, d = (1, 3), 2
    neg = Row(p=(2,), q=(3,), sign=NEG)  # value (1,2), eps-degree 0
    pos = Row(p=(4,), q=(1,), sign=POS)  # value (3,4), eps-degree 2
    t = NotchedBitableau(rows=(neg, pos))
    assert is_semistandard(t, beta, d)
    assert t.degree() % 2 == 0
    assert not is_on_starred(t, beta, d)


def test_not_in_image_reported():
    beta, d = (1, 3), 2
    # mirror-symmetric rows in an order no insertion would produce
    r1 = Row(p=(4,), q=(1,), sign=POS)
    r2 = Row(p=(2, 4), q=(1, 3), sign=POS)
    t = NotchedBitableau(rows=(r1, r2))
    with pytest.raises(NotInImageError):
        brsk_inverse(t, beta, d)


def test_enumerate_on_starred_matches_direct_filter():
    beta, d = (1, 3), 2
    found = enumerate_on_starred(beta, d, 2)
    # 2 boxes: either the two-box row (2,4), or a one-box value twice
    assert {t.values(beta) for t in found} == {
        ((2, 4),),
        ((1, 2), (1, 2)),
        ((3, 4), (3, 4)),
    }
    assert enumerate_on_starred(beta, d, 3) == []


@pytest.mark.parametrize("d, top", [(1, 6), (2, 6), (3, 6), (4, 4)])
def test_enumerate_on_starred_equals_the_unpruned_oracle(d, top):
    """The pairing-pruned enumerator lists the same bitableaux, in the same
    order, as the filter over every value sequence; odd box counts too."""
    for beta in enumerate_indices(d):
        for degree in range(2 * top + 2):
            assert enumerate_on_starred(beta, d, degree) == enumerate_on_starred_oracle(
                beta, d, degree
            ), (beta, degree)


def test_json_round_trip():
    t = brsk_map({(2, 1): 1, (4, 3): 1, (2, 3): 2}, (1, 3), 2)
    assert NotchedBitableau.from_json(t.to_json()) == t
