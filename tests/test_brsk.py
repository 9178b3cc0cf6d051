import importlib
import random
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tancone.brsk import (
    EMPTY,
    NEG,
    POS,
    NotchedBitableau,
    NotInImageError,
    Row,
    _row_fact,
    _starred_candidates,
    brsk_inverse,
    brsk_map,
    enumerate_on_starred,
    epsilon_degree,
    is_on_starred,
)
from tancone.definitions import (
    _row_from_value,
    _starred_row_values,
    delta_sequence,
    enumerate_chains,
    is_bounded_bitableau,
    is_semistandard,
    is_upper_chain,
    multiset_bounded,
    row_values,
    special_multisets,
    top_bot_of_chain,
)
from tancone.grid import upper_points
from tancone.indexsets import (
    bruhat_leq,
    bruhat_mask,
    enumerate_indices,
    is_isotropic,
    star_set,
)

ROOT = Path(__file__).resolve().parents[1]


def memo_semistandard(t, beta, d):
    """Semistandardness from the row memo, as ``is_on_starred`` reads it:
    every row accepted by ``_row_fact``, the signs in order and the values
    a Bruhat chain."""
    beta = tuple(beta)
    facts = [_row_fact(r.p, r.q, r.sign, beta, d) for r in t.rows]
    if None in facts:
        return False
    signs = [r.sign for r in t.rows]
    if signs != sorted(signs):
        return False
    return all(bruhat_leq(a[0], b[0]) for a, b in zip(facts, facts[1:]))


def is_on_starred_oracle(t, beta, d):
    """``is_on_starred`` by the definitions: every row value from
    ``bound_value``, on each call."""
    if not is_semistandard(t, beta, d):
        return False
    for r in t.rows:
        if r.p != star_set(r.q, d):
            return False
    delta = delta_sequence(t, beta)
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
    assert row_values(t, (1, 3)) == ((2, 4),)
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
            for m in special_multisets(beta, d, degree // 2):
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
    assert {row_values(t, beta) for t, _ in found} == {
        ((2, 4),),
        ((1, 2), (1, 2)),
        ((3, 4), (3, 4)),
    }
    assert enumerate_on_starred(beta, d, 3) == []


# a seeded sample of the 32 betas at d = 5, plus (2,3,4,5,10)
D5_BETAS = sorted({(2, 3, 4, 5, 10), *random.Random(0).sample(enumerate_indices(5), 8)})


@pytest.mark.parametrize("d, top", [(1, 6), (2, 6), (3, 6), (4, 4), (5, 3)])
def test_enumerate_on_starred_equals_the_unpruned_oracle(d, top):
    """The enumerator over delta pairs lists the same bitableaux as the
    filter over every value sequence, odd box counts too, each with the
    first and last values of its delta sequence from the definitions, or
    beta twice for the empty one.  Order is not compared.  Every beta at
    d <= 4, the sample above at d = 5."""
    for beta in enumerate_indices(d) if d <= 4 else D5_BETAS:
        for degree in range(2 * top + 2):
            expected = Counter()
            for t in enumerate_on_starred_oracle(beta, d, degree):
                delta = delta_sequence(t, beta)
                expected[t, (delta[0], delta[-1]) if delta else (beta, beta)] += 1
            found = Counter(enumerate_on_starred(beta, d, degree))
            assert found == expected, (beta, degree)
        assert enumerate_on_starred(beta, d, 0) == [(EMPTY, (beta, beta))], beta


@pytest.mark.parametrize(
    "d, top, draws",
    [(1, 6, None), (2, 6, None), (3, 6, None), (4, 4, None), (5, 4, 6), (6, 3, 3)],
)
def test_starred_candidates_match_the_tuple_oracle(d, top, draws):
    """The candidates read off the per-d bit data on I(d) equal the
    ``bruhat_leq`` candidate list with set-difference boxes and rows, and
    ``epsilon_degree`` and ``bruhat_mask`` of each value, in order, for
    every box count 2m with m <= top: at every fixed point for d <= 4 and
    at a seeded sample for d = 5 and 6."""
    betas = enumerate_indices(d)
    if draws is not None:
        betas = random.Random(d).sample(betas, draws)
    for beta in betas:
        oracle = _starred_row_values(beta, d)
        for degree in range(0, 2 * top + 1, 2):
            want = [
                (v, w, epsilon_degree(v, d), (_row_from_value(v, beta, s),), s)
                for v, w, s in oracle
                if w <= degree
            ]
            values, masks = _starred_candidates(beta, d, degree)
            assert values == want, (beta, degree)
            assert masks == [bruhat_mask(v, d) for v, *_ in want], (beta, degree)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_candidate_rows_lie_below_then_above_beta(d):
    """NEG candidates lie at or below beta, POS ones at or above it, and no
    POS value lies at or below a NEG one: so in a Bruhat-weakly-increasing
    delta sequence the NEG rows come first and beta falls between the
    blocks, as ``enumerate_on_starred`` assumes."""
    for beta in enumerate_indices(d):
        candidates = _starred_row_values(beta, d)
        neg = [v for v, _, s in candidates if s == NEG]
        pos = [v for v, _, s in candidates if s == POS]
        assert all(bruhat_leq(v, beta) for v in neg), beta
        assert all(bruhat_leq(beta, v) for v in pos), beta
        assert not any(bruhat_leq(u, v) for u in pos for v in neg), beta


@pytest.mark.parametrize("d", [1, 2, 3])
def test_removing_the_last_delta_pair_leaves_an_enumerated_bitableau(d):
    """Every chain of whole delta pairs is itself on-starred, so the
    enumeration drops no prefix: an enumerated bitableau with its last
    delta pair removed is enumerated at its own box count (up to 8)."""
    for beta in enumerate_indices(d):
        found = {
            degree: {t for t, _ in enumerate_on_starred(beta, d, degree)}
            for degree in range(0, 9, 2)
        }
        for degree in range(2, 9, 2):
            for t in found[degree]:
                delta = delta_sequence(t, beta)
                wedged = len(delta) > len(t.rows)
                # the last pair holds one row when beta is wedged into it
                cut = 1 if wedged and len(t.negative_rows()) >= len(delta) - 2 else 2
                rest = NotchedBitableau(rows=t.rows[:-cut])
                assert rest in found.get(rest.degree(), ()), (beta, t)


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
        assert memo_semistandard(t, beta, d) == semi, (t, beta, d)
        assert starred == is_on_starred_oracle(t, beta, d), (t, beta, d)
        answers.add((semi, starred))
    return answers


@pytest.mark.parametrize("d", [1, 2])
def test_predicates_match_oracles_on_every_small_stack(d):
    """Every stack of up to three rows at d <= 2, at every beta: the
    memoized predicates answer as the definitions do."""
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


def _mirror_rows(beta, d):
    """Every mirror-symmetric row (Q*, Q) with Q inside both beta and
    [1, 2d] and Q* outside beta, whose value lies at or below beta (NEG)
    or at or above it (POS), by value: the rows that may stand at
    (beta, d), whether or not beta is an index at d."""
    inside = [j for j in beta if 1 <= j <= 2 * d]
    rows = []
    for k in range(1, len(inside) + 1):
        for q in combinations(inside, k):
            p = star_set(q, d)
            if set(p) & set(beta):
                continue
            value = tuple(sorted((set(beta) - set(q)) | set(p)))
            for sign, ok in ((NEG, bruhat_leq(value, beta)), (POS, bruhat_leq(beta, value))):
                if ok:
                    rows.append((sign, value, Row(p=p, q=q, sign=sign)))
    return [row for *_, row in sorted(rows, key=lambda x: x[:2])]


@st.composite
def _stacks_at_a_beta(draw):
    """(rows, beta, d) at d <= 3: beta an index of I(d), or a sorted tuple
    of distinct entries in [-1, 2d + 4] of length at most d (so shorter
    than d, or with entries outside [1, 2d]); the rows a sorted draw of
    the mirror-symmetric rows there, possibly doubled, and then kept
    sorted, shuffled, with one sign flipped or with a malformed row put
    in."""
    d = draw(st.integers(1, 3))
    beta = draw(
        st.sampled_from(enumerate_indices(d))
        | st.lists(st.integers(-1, 2 * d + 4), min_size=1, max_size=d, unique=True).map(
            lambda xs: tuple(sorted(xs))
        )
    )
    own = _mirror_rows(beta, d)
    rows = []
    if own:
        picks = draw(st.lists(st.integers(0, len(own) - 1), max_size=5))
        if draw(st.booleans()):  # rows in equal pairs pair up their eps-degrees
            picks *= 2
        rows = [own[i] for i in sorted(picks)]
    kind = draw(st.sampled_from(("sorted", "shuffled", "flipped", "malformed")))
    if kind == "shuffled":
        rows = draw(st.permutations(rows))
    elif kind == "flipped" and rows:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = Row(p=rows[i].p, q=rows[i].q, sign=-rows[i].sign)
    elif kind == "malformed":
        entries = st.lists(st.integers(-1, 2 * d + 2), max_size=3).map(tuple)
        malformed = Row(p=draw(entries), q=draw(entries), sign=draw(st.sampled_from((NEG, POS))))
        rows.insert(draw(st.integers(0, len(rows))), malformed)
    return tuple(rows), beta, d


@settings(max_examples=400, deadline=None)
@given(_stacks_at_a_beta())
def test_is_on_starred_equals_the_oracle_on_random_stacks(stack):
    rows, beta, d = stack
    t = NotchedBitableau(rows=rows)
    assert is_on_starred(t, beta, d) == is_on_starred_oracle(t, beta, d)


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
    assert memo_semistandard(t, beta, d) == is_semistandard(t, beta, d)
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
        assert not memo_semistandard(NotchedBitableau(rows=(two_box,)), (1, 2), 2)
        t = NotchedBitableau(rows=(one_box,))
        assert _row_fact(one_box.p, one_box.q, POS, (1, 3), 2)[0] == (3, 4)
        assert _row_fact(one_box.p, one_box.q, POS, (1, 2), 2)[0] == (2, 4)
        assert memo_semistandard(t, (1, 3), 2)
        assert not memo_semistandard(t, (1, 3), 1)
        t = NotchedBitableau(rows=(low, low))
        assert is_on_starred(t, (1,), 1)
        assert memo_semistandard(t, (1,), 2) and not is_on_starred(t, (1,), 2)
    # at beta (1,3), value (2,3) stands only as POS and (1,2) only as NEG;
    # each (P, Q) is asked first under one sign, then under the other
    for (p, q), first in (((2,), (1,)), NEG), (((2,), (3,)), POS):
        for sign in (first, -first):
            t = NotchedBitableau(rows=(Row(p=p, q=q, sign=sign),))
            assert memo_semistandard(t, (1, 3), 2) == is_semistandard(t, (1, 3), 2)


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
