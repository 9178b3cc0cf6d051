import random
from fractions import Fraction
from itertools import product

import pytest

from tancone._kernel_py import divisor_record
from tancone.definitions import column_inner_products, form_eps, patch_entries
from tancone.grid import chain_value, is_positive, is_upper, sharp_point, upper_points
from tancone.indexsets import (
    admissible_pairs,
    bruhat_leq,
    enumerate_indices,
    sharp,
    star,
)
from tancone.patch import (
    PatchMatrix,
    build_patch,
    generator_set,
    good_subset,
    initial_chain,
    mirror_sign,
    pair_minor,
)
from tancone.ring import PolyRing, minimal_monomial_generators, reduced_groebner
from tancone.verify import all_triples


def good_subset_oracle(gens):
    """``good_subset`` as it was before chain facts were memoized on the
    patch: each generator's initial chain is read afresh."""
    good_pairs = []
    good_polys = []
    for pair, f in zip(gens.pairs, gens.polys):
        ch = initial_chain(f)
        if ch is None:
            continue
        assert all(is_upper(q, gens.matrix.d) for q in ch)
        signs = {is_positive(q) for q in ch}
        if len(signs) != 1:
            continue
        value = chain_value(ch, gens.matrix.beta)
        if signs == {True}:
            if not bruhat_leq(value, gens.gamma):
                good_pairs.append(pair)
                good_polys.append(f)
        else:
            if not bruhat_leq(gens.alpha, value):
                good_pairs.append(pair)
                good_polys.append(f)
    return good_pairs, good_polys


def cofactor_det(entries, rows, cols, ring):
    """Independent determinant oracle: recursive first-row expansion."""
    if not rows:
        return ring.one()
    r, rest = rows[0], rows[1:]
    total = ring.zero()
    for j, c in enumerate(cols):
        rem = cols[:j] + cols[j + 1 :]
        sub = cofactor_det(entries, rest, rem, ring)
        term = entries[(r, c)] * sub
        total = total + (term if j % 2 == 0 else term.scale(-1))
    return total


def test_selected_convention_is_isotropic():
    for d in (1, 2, 3, 4, 5):
        for beta in enumerate_indices(d):
            entries = patch_entries(build_patch(beta, d))
            assert all(not p.terms for p in column_inner_products(entries, beta, d))


def test_verbatim_strict_rule_fails_isotropy_at_d2():
    # Read with strict inequalities, the paper's sign rule leaves X(c*, r*)
    # unsigned on the boundary r = d or c* = d.  Some d=2 patch is then not
    # isotropic under the standard form, nor under the alternating one;
    # this is why mirror_sign uses the split rule.
    d = 2

    def strict_sign(r, c):
        cs = star(c, d)
        return -1 if (r > d and cs < d) or (r < d and cs > d) else 1

    def alternating_eps(j):
        return 1 if j % 2 == 1 else -1

    def alternating_products(entries, beta, ring):
        prods = []
        for i, c in enumerate(beta):
            for c2 in beta[i + 1 :]:
                acc = ring.zero()
                for j in range(1, 2 * d + 1):
                    term = entries[(j, c)] * entries[(star(j, d), c2)]
                    acc = acc + term.scale(alternating_eps(j))
                prods.append(acc)
        return prods

    assert strict_sign(4, 3) == 1 and mirror_sign(4, 3, d) == -1
    assert [alternating_eps(j) for j in range(1, 5)] == [1, -1, 1, -1]
    broken_standard = broken_alternating = 0
    for beta in enumerate_indices(d):
        # the explicit matrix, its mirrored entries overwritten below
        m = build_patch(beta, d)
        entries = patch_entries(m)
        for r, c in entries:
            if r not in beta and not is_upper((r, c), d):
                mirror = m.ring.gen(sharp_point((r, c), d))
                entries[(r, c)] = mirror.scale(strict_sign(r, c))
        broken_standard += any(p.terms for p in column_inner_products(entries, beta, d))
        broken_alternating += any(p.terms for p in alternating_products(entries, beta, m.ring))
    assert broken_standard > 0 and broken_alternating > 0


def test_patch_matrix_beta_13():
    m = build_patch((1, 3), 2)
    ring = m.ring
    X = {v: ring.gen(v) for v in ring.variables}
    entry = patch_entries(m)
    assert entry[(1, 1)] == ring.one() and entry[(3, 3)] == ring.one()
    assert entry[(1, 3)] == ring.zero() and entry[(3, 1)] == ring.zero()
    assert entry[(2, 1)] == X[(2, 1)]
    assert entry[(2, 3)] == X[(2, 3)]
    assert entry[(4, 1)] == X[(4, 1)]
    # the mirrored entry carries the split rule's sign
    assert entry[(4, 3)] == X[(2, 1)].scale(-1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_patch_variable_count(d):
    for beta in enumerate_indices(d):
        m = build_patch(beta, d)
        seen = set()
        for entry in patch_entries(m).values():
            seen.update(entry.terms)
        seen.discard((0,) * m.ring.nvars)
        assert len(seen) == d * (d + 1) // 2


def test_minor_examples():
    m = build_patch((1, 3), 2)
    ring = m.ring
    X41, X21, X23 = (ring.gen(v) for v in ring.variables)
    assert m.minor((2, 4)) == (X41 * X23 + X21 * X21).scale(-1)
    assert m.minor((1, 2)) == X23
    assert m.minor((1, 3)) == ring.one()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_minor_matches_cofactor_oracle(d):
    for p, beta in product((0, 2, 3), enumerate_indices(d)):
        # a fresh matrix, so every minor is computed here, not recalled
        m = PatchMatrix(beta, d, PolyRing.for_patch(beta, d, p=p))
        entries = patch_entries(m)
        for theta in enumerate_indices(d, ambient_only=True):
            rows = sorted(set(theta) - set(beta))
            cols = sorted(set(beta) - set(theta))
            f = m.minor(theta)
            assert f == cofactor_det(entries, rows, cols, m.ring), (p, beta, theta)


def test_minor_memo_is_per_patch():
    for d in (2, 3):
        for beta in enumerate_indices(d):
            m0, m3 = build_patch(beta, d, 0), build_patch(beta, d, 3)
            assert m0 is not m3 and (m0.ring.p, m3.ring.p) == (0, 3)
            for theta in enumerate_indices(d, ambient_only=True):
                f0, f3 = m0.minor(theta), m3.minor(theta)
                assert f0 is not f3
                assert f0.ring is m0.ring and f3.ring is m3.ring


@pytest.mark.parametrize("d", [1, 2, 3])
def test_minor_sign_symmetry_with_sharp(d):
    for beta in enumerate_indices(d):
        m = build_patch(beta, d)
        for theta in enumerate_indices(d, ambient_only=True):
            f = m.minor(theta)
            g = m.minor(sharp(theta, d))
            assert f == g or f == g.scale(-1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_minor_homogeneous_of_beta_degree(d):
    for beta in enumerate_indices(d):
        m = build_patch(beta, d)
        for pair in admissible_pairs(d):
            f = pair_minor(m, pair)
            assert f.terms
            assert f.is_homogeneous()
            assert f.degree() == pair.beta_degree(beta)


def test_pair_minor_scales_each_minor_once_per_patch():
    m = build_patch((1, 3, 5), 3)
    for pair in admissible_pairs(3):
        assert pair_minor(m, pair) is pair_minor(m, pair)


def test_pair_minor_shares_the_memoized_minor_when_already_monic():
    m = build_patch((1, 3), 2)
    shared = scaled = 0
    for pair in admissible_pairs(2):
        minor = m.minor(pair.rep)  # built afresh: minor() keeps no memo
        f = pair_minor(m, pair)
        if minor.initial_term()[1] == 1:
            assert minor.monic_homogeneous().terms is minor.terms
            shared += 1
        else:
            assert f.initial_term()[1] == 1 and f.terms is not minor.terms
            assert minor.monic_homogeneous().terms is not minor.terms
            assert minor.initial_term()[1] == -1  # scaled into a copy, not in place
            scaled += 1
    assert shared and scaled


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_monic_minor_and_its_record_match_the_generic_ones(d):
    """The monic minor is ``minor.monic()``, and the record built with it
    is the generic ``divisor_record`` of its terms."""
    for p, beta in product((0, 3), enumerate_indices(d)):
        m = build_patch(beta, d, p)
        for pair in admissible_pairs(d):
            minor = m.minor(pair.rep)
            f = pair_minor(m, pair)
            assert f == minor.monic(), (p, beta, pair)
            assert f._record == divisor_record(f.terms, p), (p, beta, pair)


def test_monic_homogeneous_leaves_a_zero_polynomial_as_monic_does():
    """No minor of a pair vanishes at d <= 4, even over F_2, so the zero
    case is checked on the ring: it stays itself, with no record."""
    for p in (0, 2):
        zero = PolyRing.for_patch((1, 3), 2, p=p).zero()
        assert zero.monic_homogeneous() is zero.monic() is zero
        assert zero._record is None


def test_chain_facts_are_per_patch():
    """Two patches at one beta keep their own generator memos, each chain
    fact read off the monic minor stored beside it."""
    beta, d = (1, 3, 5), 3
    m1, m2 = build_patch(beta, d), build_patch(beta, d)
    assert m1._generators is not m2._generators
    for pair in admissible_pairs(d):
        m1.generator(pair.rep)
    assert m1._generators and not m2._generators
    for pair in admissible_pairs(d):
        f2, fact2 = m2.generator(pair.rep)
        f1, fact1 = m1.generator(pair.rep)
        assert fact2 == fact1 and f2 == f1 and f2 is not f1
        assert m1.generator(pair.rep)[0] is f1 is pair_minor(m1, pair)
    assert m1._generators.keys() == m2._generators.keys()


def _assert_good_subset_matches_oracle(alpha, beta, gamma, patch):
    gens = generator_set(alpha, gamma, patch)
    pairs, polys = good_subset(gens)
    want_pairs, want_polys = good_subset_oracle(gens)
    assert pairs == want_pairs, (alpha, beta, gamma)
    assert all(f is g for f, g in zip(polys, want_polys)), (alpha, beta, gamma)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_good_subset_matches_oracle(d):
    patches = {}
    for alpha, beta, gamma in all_triples(d):
        patch = patches.setdefault(beta, build_patch(beta, d))
        _assert_good_subset_matches_oracle(alpha, beta, gamma, patch)


def test_good_subset_matches_oracle_on_a_d5_sample():
    triples = random.Random(5).sample(all_triples(5), 40)
    patches = {}
    for alpha, beta, gamma in triples:
        patch = patches.setdefault(beta, build_patch(beta, 5))
        _assert_good_subset_matches_oracle(alpha, beta, gamma, patch)


def test_generator_set_point_case():
    gens = generator_set((1, 3), (1, 3), build_patch((1, 3), 2))
    ring = gens.matrix.ring
    X41, X21, X23 = (ring.gen(v) for v in ring.variables)
    assert set(map(str, gens.polys)) == {
        "X(2,3)",
        "X(2,1)",
        "X(4,1)",
        "X(4,1)*X(2,3) + X(2,1)^2",
    }
    gb = reduced_groebner(gens.polys)
    inits = minimal_monomial_generators(g.leading_monomial() for g in gb)
    assert sorted(ring.format_monomial(mo) for mo in inits) == [
        "X(2,1)",
        "X(2,3)",
        "X(4,1)",
    ]


def test_generator_set_free_case_empty():
    gens = generator_set((1, 2), (3, 4), build_patch((1, 3), 2))
    assert gens.polys == []


def test_generator_set_requires_valid_triple():
    with pytest.raises(ValueError):
        generator_set((3, 4), (1, 3), build_patch((1, 3), 2))
    with pytest.raises(ValueError):
        generator_set((1, 4), (1, 4), build_patch((1, 4), 2))


def test_good_subset_point_case():
    gens = generator_set((1, 3), (1, 3), build_patch((1, 3), 2))
    pairs, polys = good_subset(gens)
    assert set(map(str, polys)) == {"X(2,3)", "X(2,1)", "X(4,1)"}
    # the mixed-sign chain X(4,1)*X(2,3) disqualifies its pair
    excluded = [p for p in gens.pairs if p.top == (2, 4) and p.bot == (2, 4)]
    assert excluded and excluded[0] not in pairs


def test_good_subset_is_subset_of_generators():
    for a, b, g in all_triples(2):
        gens = generator_set(a, g, build_patch(b, 2))
        pairs, polys = good_subset(gens)
        assert set(pairs) <= set(gens.pairs)
        assert {str(p) for p in polys} <= {str(p) for p in gens.polys}


def test_initial_chain_classification():
    gens = generator_set((1, 3), (1, 3), build_patch((1, 3), 2))
    by_str = {str(f): f for f in gens.polys}
    mixed = by_str["X(4,1)*X(2,3) + X(2,1)^2"]
    ch = initial_chain(mixed)
    assert ch == ((4, 1), (2, 3))  # a chain, but mixed-sign
    ring = gens.matrix.ring
    X21 = ring.gen((2, 1))
    assert initial_chain(X21 * X21) is None  # not squarefree


def fixed_point_coords(betap, beta, d, ring):
    moved = set(beta) - set(betap)
    return [
        Fraction(1) if (c in moved and r == star(c, d)) else Fraction(0)
        for (r, c) in ring.variables
    ]


def eval_at(f, coords):
    total = Fraction(0)
    for mono, c in f.terms.items():
        v = Fraction(c)
        for i, e in enumerate(mono):
            if e:
                v *= coords[i] ** e
        total += v
    return total


def support_mixes(betap, beta, d):
    moved = sorted(set(beta) - set(betap))
    base = sorted(set(beta) - set(moved))
    for choice in product(*[(c, star(c, d)) for c in moved]):
        yield tuple(sorted(base + list(choice)))


@pytest.mark.parametrize("d", [2, 3])
def test_point_substitution_oracle(d):
    """Generators vanish at the indicator point of a fixed point exactly
    when the point's whole Pluecker support lies inside [alpha, gamma]."""
    for a, b, g in all_triples(d):
        gens = generator_set(a, g, build_patch(b, d))
        for bp in enumerate_indices(d):
            coords = fixed_point_coords(bp, b, d, gens.matrix.ring)
            vanishes = all(eval_at(f, coords) == 0 for f in gens.polys)
            in_variety = all(
                bruhat_leq(a, mix) and bruhat_leq(mix, g)
                for mix in support_mixes(bp, b, d)
            )
            assert vanishes == in_variety


def test_mirror_sign_rules():
    # strictly-lower points at d=2
    assert mirror_sign(4, 3, 2) == -1  # c* = d boundary
    assert mirror_sign(4, 2, 2) == 1


def test_form_eps_shapes():
    assert [form_eps(i, 2) for i in range(1, 5)] == [1, 1, -1, -1]
