from itertools import combinations_with_replacement

import pytest

from tancone.brsk import EMPTY, brsk_map, enumerate_on_starred
from tancone.definitions import (
    admissible_pair_by_ends,
    doubling_injection,
    enumerate_standard_on_y,
    evaluate,
    halving_injection,
    is_bounded_bitableau,
    is_standard_on_y,
    monomial_degree,
    multiset_bounded,
    sqrt_special,
    standard_basis_agrees,
)
from tancone.indexsets import bruhat_leq, enumerate_indices
from tancone.patch import build_patch, generator_set
from tancone.ring import reduced_groebner
from tancone.verify import all_triples


@pytest.fixture
def pairs2():
    return admissible_pair_by_ends(2)


def test_is_standard_examples(pairs2):
    w = pairs2[((2, 4), (1, 3))]
    assert is_standard_on_y((w,), (1, 2), (1, 3), (3, 4))
    wbb = pairs2[((1, 3), (1, 3))]
    assert not is_standard_on_y((wbb,), (1, 2), (1, 3), (3, 4))
    hi = pairs2[((3, 4), (3, 4))]
    lo = pairs2[((1, 2), (1, 2))]
    assert not is_standard_on_y((hi, lo), (1, 2), (1, 3), (3, 4))
    assert is_standard_on_y((lo, hi), (1, 2), (1, 3), (3, 4))


def test_enumerate_worked_case(pairs2):
    by_deg = enumerate_standard_on_y((1, 2), (1, 3), (3, 4), 2, 2)
    assert by_deg[0] == [()]
    assert len(by_deg[1]) == 3
    ends = {(w.top, w.bot) for (w,) in by_deg[1]}
    assert ends == {((1, 2), (1, 2)), ((2, 4), (1, 3)), ((3, 4), (3, 4))}
    assert len(by_deg[2]) == 6


def test_enumerate_point_case_empty():
    by_deg = enumerate_standard_on_y((1, 3), (1, 3), (1, 3), 2, 4)
    assert [len(x) for x in by_deg] == [1, 0, 0, 0, 0]


def test_evaluate_examples(pairs2):
    m = build_patch((1, 3), 2)
    assert str(evaluate((pairs2[((2, 4), (1, 3))],), m)) == "X(2,1)"
    assert str(evaluate((pairs2[((1, 2), (1, 2))],), m)) == "X(2,3)"
    assert evaluate((), m) == m.ring.one()


def test_doubling_injection_example():
    ring = build_patch((1, 3), 2).ring
    mono = tuple(1 if v == (2, 1) else 0 for v in ring.variables)
    m = doubling_injection(mono, ring, 2)
    assert m == {(2, 1): 1, (4, 3): 1}
    assert multiset_bounded(m, (1, 2), (3, 4), (1, 3))
    with pytest.raises(ValueError):
        doubling_injection((0,) * ring.nvars, ring, 2)


@pytest.mark.parametrize("d", [2, 3])
def test_doubling_injection_laws(d):
    for beta in enumerate_indices(d):
        ring = build_patch(beta, d).ring
        seen = set()
        for k in (1, 2):
            for combo in combinations_with_replacement(range(ring.nvars), k):
                mono = [0] * ring.nvars
                for i in combo:
                    mono[i] += 1
                m = doubling_injection(tuple(mono), ring, d)
                assert sum(m.values()) == 2 * k
                key = tuple(sorted(m.items()))
                assert key not in seen  # injective
                seen.add(key)
                root = sqrt_special(m, d)
                back = [0] * ring.nvars
                for p, mult in root.items():
                    back[ring.index[p]] = mult
                assert tuple(back) == tuple(mono)


def test_halving_injection_fixture():
    t = brsk_map({(2, 1): 1, (4, 3): 1}, (1, 3), 2)
    pairs = halving_injection(t, (1, 3), 2)
    assert [(w.top, w.bot) for w in pairs] == [((2, 4), (1, 3))]
    assert monomial_degree(pairs, (1, 3)) == 1
    assert halving_injection(EMPTY, (1, 3), 2) == ()


def test_halving_double_wedge_when_both_blocks_odd():
    # negative and positive blocks of one row each: beta enters twice
    beta, d = (1, 3, 5), 3
    m = {(2, 3): 1, (4, 5): 1, (2, 1): 1, (6, 5): 1}
    t = brsk_map(m, beta, d)
    assert len(t.negative_rows()) == 1 and len(t.positive_rows()) == 1
    pairs = halving_injection(t, beta, d)
    assert [(w.top, w.bot) for w in pairs] == [
        ((1, 3, 5), (1, 2, 4)),
        ((2, 3, 6), (1, 3, 5)),
    ]
    assert is_standard_on_y(pairs, (1, 2, 3), beta, (4, 5, 6))


@pytest.mark.parametrize("d", [2, 3])
def test_halving_injection_laws(d):
    for beta in enumerate_indices(d):
        for degree in (2, 4):
            seen = {}
            for t, _ in enumerate_on_starred(beta, d, degree):
                pairs = halving_injection(t, beta, d)
                assert 2 * monomial_degree(pairs, beta) == t.degree()
                key = tuple((w.top, w.bot) for w in pairs)
                assert key not in seen  # injective
                seen[key] = t
                # lands inside the standard monomials whenever bounded
                for alpha in enumerate_indices(d):
                    for gamma in enumerate_indices(d):
                        if not (bruhat_leq(alpha, beta) and bruhat_leq(beta, gamma)):
                            continue
                        if is_bounded_bitableau(t, alpha, gamma, beta):
                            assert is_standard_on_y(pairs, alpha, beta, gamma)


def test_evaluation_degree_matches(pairs2):
    m = build_patch((1, 3), 2)
    for pairs in enumerate_standard_on_y((1, 2), (1, 3), (3, 4), 2, 3)[3]:
        f = evaluate(pairs, m)
        assert f.degree() == monomial_degree(pairs, (1, 3)) == 3


@pytest.mark.parametrize("degree", range(7))
def test_basis_property_d2_all_cases(degree):
    for a, b, g in all_triples(2):
        patch = build_patch(b, 2)
        _, polys = generator_set(a, g, patch)
        gb = reduced_groebner(polys)
        assert standard_basis_agrees(
            polys, gb, patch, a, b, g, 2, degree
        ), (a, b, g, degree)
