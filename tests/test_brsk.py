import importlib
import random
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path

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
    bound_value,
    double_multiset,
    enumerate_chains,
    is_upper_chain,
    multiset_bounded,
    upper_points,
)
from tancone.indexsets import bruhat_leq, enumerate_indices, is_isotropic, star_set

ROOT = Path(__file__).resolve().parents[1]


# The predicates as they were before their row facts were memoized, kept
# as oracles: every row value comes from ``bound_value`` on each call.


def _values_oracle(t, beta):
    return tuple(bound_value(r.p, r.q, beta) for r in t.rows)


def _row_well_formed_oracle(r, beta, d):
    bset = set(beta)
    if not r.p or len(r.p) != len(r.q):
        return False
    if list(r.p) != sorted(set(r.p)) or list(r.q) != sorted(set(r.q)):
        return False
    if set(r.p) & bset or not set(r.q) <= bset:
        return False
    return all(1 <= x <= 2 * d for x in r.p + r.q)


def is_semistandard_oracle(t, beta, d):
    if not all(_row_well_formed_oracle(r, beta, d) for r in t.rows):
        return False
    signs = [r.sign for r in t.rows]
    if signs != sorted(signs):
        return False
    vals = _values_oracle(t, beta)
    for a, b in zip(vals, vals[1:]):
        if not bruhat_leq(a, b):
            return False
    for r, v in zip(t.rows, vals):
        if r.sign == NEG and not bruhat_leq(v, beta):
            return False
        if r.sign == POS and not bruhat_leq(beta, v):
            return False
    return True


def delta_sequence_oracle(t, beta):
    vals = list(_values_oracle(t, beta))
    if len(vals) % 2 == 1:
        vals.insert(len(t.negative_rows()), tuple(beta))
    return tuple(vals)


def is_on_starred_oracle(t, beta, d):
    if not is_semistandard_oracle(t, beta, d):
        return False
    for r in t.rows:
        if r.p != star_set(r.q, d):
            return False
    delta = delta_sequence_oracle(t, beta)
    for j in range(0, len(delta) - 1, 2):
        if epsilon_degree(delta[j], d) != epsilon_degree(delta[j + 1], d):
            return False
    return t.degree() % 2 == 0


def enumerate_on_starred_oracle(beta, d, degree):
    """Every on-starred bitableau with the given box count, in the order
    of ``enumerate_on_starred``: each weakly increasing value sequence of
    that box count, filtered by ``is_on_starred_oracle`` alone (no
    pruning, no memos)."""
    if degree < 0 or degree % 2 == 1:
        return []
    candidates = _starred_row_values(tuple(beta), d)
    results = []

    def extend(seq, remaining):
        if remaining == 0:
            t = NotchedBitableau(
                rows=tuple(_row_from_value(v, beta, s) for v, _, s in seq)
            )
            if is_on_starred_oracle(t, beta, d):
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


def _rows_of(d):
    """Every row with P and Q disjoint, nonempty, equal-size strictly
    increasing subsets of [1, 2d], in both signs."""
    entries = range(1, 2 * d + 1)
    return [
        Row(p=p, q=q, sign=sign)
        for k in range(1, d + 1)
        for p in combinations(entries, k)
        for q in combinations(entries, k)
        if not set(p) & set(q)
        for sign in (NEG, POS)
    ]


def _assert_predicates_match_oracles(stacks, beta, d):
    answers = set()
    for rows in stacks:
        t = NotchedBitableau(rows=tuple(rows))
        semi, starred = is_semistandard(t, beta, d), is_on_starred(t, beta, d)
        assert semi == is_semistandard_oracle(t, beta, d), (t, beta, d)
        assert starred == is_on_starred_oracle(t, beta, d), (t, beta, d)
        # every stack, so that rows the memo rejects reach ``bound_value``
        try:
            values = _values_oracle(t, beta)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                t.values(beta)
            assert str(raised.value) == str(exc), (t, beta)
        else:
            assert t.values(beta) == values, (t, beta)
        if semi:
            assert delta_sequence(t, beta) == delta_sequence_oracle(t, beta)
        answers.add((semi, starred))
    return answers


@pytest.mark.parametrize("d", [1, 2])
def test_predicates_match_oracles_on_every_small_stack(d):
    """Every stack of up to three rows at d <= 2, at every beta: the
    memoized predicates answer as the unmemoized oracles."""
    rows = _rows_of(d)
    answers = set()
    for beta in enumerate_indices(d):
        for n in range(4):
            answers |= _assert_predicates_match_oracles(product(rows, repeat=n), beta, d)
    assert answers == {(False, False), (True, False), (True, True)}


def test_predicates_match_oracles_on_a_d3_sample():
    """A seeded sample of stacks at d = 3, at every beta, half of them
    drawn from the beta's own candidate rows so that many pass."""
    d, rng = 3, random.Random(0)
    rows = _rows_of(d)
    answers = set()
    for beta in enumerate_indices(d):
        own = [_row_from_value(v, beta, s) for v, _, s in _starred_row_values(beta, d)]
        stacks = [
            sorted(rng.choices(pool, k=rng.randint(1, 5)), key=lambda r: r.sign)
            for pool in (rows, own)
            for _ in range(1500)
        ]
        answers |= _assert_predicates_match_oracles(stacks, beta, d)
    assert answers == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize(
    "rows",
    [
        (Row(p=(), q=(), sign=POS),),  # empty
        (Row(p=(2, 4), q=(1,), sign=POS),),  # unequal lengths
        (Row(p=(4, 2), q=(1, 3), sign=POS),),  # unsorted
        (Row(p=(4, 4), q=(1, 3), sign=POS),),  # repeated
        (Row(p=(0,), q=(1,), sign=NEG),),  # out of range
        (Row(p=(5,), q=(1,), sign=POS),),  # out of range
        (Row(p=(3,), q=(1,), sign=POS),),  # P meets beta
        (Row(p=(4,), q=(2,), sign=POS),),  # Q outside beta
        (Row(p=(2,), q=(1,), sign=POS),) * 2,  # mirror violation
        (Row(p=(4,), q=(1,), sign=POS), Row(p=(2,), q=(3,), sign=NEG)),  # signs
    ],
)
def test_predicates_reject_malformed_rows_as_the_oracles_do(rows):
    beta, d = (1, 3), 2
    t = NotchedBitableau(rows=rows)
    assert not is_on_starred(t, beta, d)
    assert is_semistandard(t, beta, d) == is_semistandard_oracle(t, beta, d)
    assert is_on_starred_oracle(t, beta, d) is False


def test_row_memos_keep_beta_and_d_apart():
    """One Row object asked under two betas and under two values of d, and
    one (P, Q) asked under both signs at one (beta, d), in both orders: an
    answer memoized for one must not leak to the other."""
    two_box = Row(p=(2, 4), q=(1, 3), sign=POS)  # on-starred at beta (1,3) only
    one_box = Row(p=(4,), q=(1,), sign=POS)  # entry 4 is out of range at d = 1
    low = Row(p=(2,), q=(1,), sign=POS)  # mirror-symmetric at d = 1 only
    for _ in range(2):
        assert is_on_starred(NotchedBitableau(rows=(two_box,)), (1, 3), 2)
        assert not is_semistandard(NotchedBitableau(rows=(two_box,)), (1, 2), 2)
        t = NotchedBitableau(rows=(one_box,))
        assert t.values((1, 3)) == ((3, 4),) and t.values((1, 2)) == ((2, 4),)
        assert is_semistandard(t, (1, 3), 2)
        assert not is_semistandard(t, (1, 3), 1)
        t = NotchedBitableau(rows=(low, low))
        assert is_on_starred(t, (1,), 1)
        assert is_semistandard(t, (1,), 2) and not is_on_starred(t, (1,), 2)
    # at beta (1,3), value (2,3) stands only as POS and (1,2) only as NEG;
    # each (P, Q) is asked first under one sign, then under the other
    for (p, q), first in (((2,), (1,)), NEG), (((2,), (3,)), POS):
        for sign in (first, -first):
            t = NotchedBitableau(rows=(Row(p=p, q=q, sign=sign),))
            assert is_semistandard(t, (1, 3), 2) == is_semistandard_oracle(t, (1, 3), 2)


def test_enumeration_certifies_each_result_once(monkeypatch):
    """``enumerate_on_starred`` calls ``is_on_starred`` exactly once per
    bitableau it returns, counted through the benchmark trace's own
    rebinding, so the certification (and ``brsk.on_starred_tests``)
    cannot be dropped silently."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    rebind = importlib.import_module("layertrace").rebind
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return is_on_starred(*args)

    rebind(is_on_starred, counted)
    try:
        for d in (1, 2, 3):
            for beta in enumerate_indices(d):
                for m in range(1, 7):
                    calls = 0
                    found = enumerate_on_starred(beta, d, 2 * m)
                    assert calls == len(found), (beta, m)
    finally:
        rebind(counted, is_on_starred)
