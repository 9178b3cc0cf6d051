import random
from fractions import Fraction
from itertools import compress, permutations, product

import pytest

from tancone._kernel_py import divisor_record
from tancone.definitions import (
    chain_value,
    column_inner_products,
    form_eps,
    initial_chain,
    minimal_monomial_generators,
    patch_entries,
)
from tancone.grid import chain_gt, is_positive, is_upper, sharp_point, upper_points
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
    mirror_sign,
    pair_minor,
)
from tancone.ring import PolyRing, normal_form, reduced_groebner
from tancone.verify import all_triples, sample_triples


def good_subset_oracle(alpha, gamma, patch, pairs, polys):
    """``good_subset`` as it was before chain facts were memoized on the
    patch: each generator's initial chain is read afresh."""
    good_pairs = []
    good_polys = []
    for pair, f in zip(pairs, polys):
        ch = initial_chain(f)
        if ch is None:
            continue
        assert all(is_upper(q, patch.d) for q in ch)
        signs = {is_positive(q) for q in ch}
        if len(signs) != 1:
            continue
        value = chain_value(ch, patch.beta)
        if signs == {True}:
            if not bruhat_leq(value, gamma):
                good_pairs.append(pair)
                good_polys.append(f)
        else:
            if not bruhat_leq(alpha, value):
                good_pairs.append(pair)
                good_polys.append(f)
    return good_pairs, good_polys


def chain_fact_oracle(lead, ring, beta):
    """The chain fact of a lead exponent tuple as ``PatchMatrix.generator``
    read it before it used the lead's bits: the support listed in
    variable order, tested with ``chain_gt`` and ``is_positive``, and
    valued with the tuple ``chain_value``."""
    if any(e > 1 for e in lead):
        return None
    pts = list(compress(ring.variables, lead))
    if not all(map(chain_gt, pts, pts[1:])):
        return None
    signs = set(map(is_positive, pts))
    if len(signs) != 1:
        return None
    return signs.pop(), chain_value(pts, beta)


def generator_set_oracle(alpha, gamma, patch):
    """``generator_set`` by its definition: two ``bruhat_leq`` tests per
    admissible pair, where ``generator_set`` makes one AND of Bruhat
    masks a test."""
    pairs = []
    polys = []
    for pair in admissible_pairs(patch.d):
        if not bruhat_leq(alpha, pair.bot) or not bruhat_leq(pair.top, gamma):
            pairs.append(pair)
            polys.append(pair_minor(patch, pair))
    return pairs, polys


# The determinant oracles compute on {exponent tuple: integer} dicts with
# the helpers below, not with the ring's packed arithmetic they check; a
# result is compared through ``ring.poly``, which packs it and reduces its
# coefficients mod p.


def tuple_terms(f):
    """The terms of a ``Poly`` keyed by exponent tuples."""
    return {f.ring.unpack(m): c for m, c in f.terms.items()}


def tuple_add(f, g):
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def tuple_mul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def tuple_monic(terms, p):
    """``terms`` over Q (p = 0) or F_p, scaled to lead coefficient 1, the
    lead being the largest (degree, exponents)."""
    lead = max(terms, key=lambda m: (sum(m), m))
    inv = pow(terms[lead], p - 2, p) if p else Fraction(1, terms[lead])
    return {m: c * inv % p if p else c * inv for m, c in terms.items()}


def cofactor_det(entries, rows, cols, nvars):
    """Independent determinant oracle: recursive first-row expansion of the
    matrix ``entries``, whose cells are tuple-keyed dicts."""
    if not rows:
        return {(0,) * nvars: 1}
    r, rest = rows[0], rows[1:]
    total = {}
    for j, c in enumerate(cols):
        rem = cols[:j] + cols[j + 1 :]
        sub = cofactor_det(entries, rest, rem, nvars)
        sign = {(0,) * nvars: 1 if j % 2 == 0 else -1}
        total = tuple_add(total, tuple_mul(tuple_mul(entries[(r, c)], sub), sign))
    return total


def leibniz_det(patch, rows, cols):
    """Independent determinant oracle: the Leibniz sum over every
    permutation, signed by its inversions, on the patch's signed
    variables (how ``PatchMatrix.minor`` computed minors before it
    expanded along rows), as a tuple-keyed dict."""
    ring = patch.ring
    k = len(rows)
    acc = {}
    for perm in permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        sign = -1 if inversions % 2 else 1
        exps = [0] * ring.nvars
        for r, j in zip(rows, perm):
            var, s = patch.signed_vars[(r, cols[j])]
            exps[var] += 1
            sign *= s
        mono = tuple(exps)
        acc[mono] = acc.get(mono, 0) + sign
    return {m: c for m, c in acc.items() if c}


def minor_lines(theta, beta):
    return sorted(set(theta) - set(beta)), sorted(set(beta) - set(theta))


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
            seen.update(tuple_terms(entry))
        seen.discard((0,) * m.ring.nvars)
        assert len(seen) == d * (d + 1) // 2
        # so every chain ``generator`` reads off a lead is an upper chain
        assert all(is_upper(v, d) for v in m.ring.variables)


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
        entries = {cell: tuple_terms(f) for cell, f in patch_entries(m).items()}
        for theta in enumerate_indices(d, ambient_only=True):
            rows = sorted(set(theta) - set(beta))
            cols = sorted(set(beta) - set(theta))
            f = m.minor(theta)
            want = cofactor_det(entries, rows, cols, m.ring.nvars)
            assert f == m.ring.poly(want), (p, beta, theta)


def test_minor_memo_is_per_patch():
    for d in (2, 3):
        for beta in enumerate_indices(d):
            m0, m3 = build_patch(beta, d, 0), build_patch(beta, d, 3)
            assert m0 is not m3 and (m0.ring.p, m3.ring.p) == (0, 3)
            for theta in enumerate_indices(d, ambient_only=True):
                f0, f3 = m0.minor(theta), m3.minor(theta)
                assert f0 is not f3
                assert f0.ring is m0.ring and f3.ring is m3.ring


@pytest.mark.parametrize("d", [5, 6])
@pytest.mark.parametrize("p", [0, 2])
def test_minor_matches_leibniz_oracle_on_a_sample(d, p):
    rng = random.Random(d)
    thetas = enumerate_indices(d, ambient_only=True)
    for beta in rng.sample(enumerate_indices(d), 4):
        m = build_patch(beta, d, p)
        for theta in rng.sample(thetas, 40):
            want = m.ring.poly(leibniz_det(m, *minor_lines(theta, beta)))
            assert m.minor(theta) == want, (p, beta, theta)
            f, _ = m.generator(theta)
            assert f == m.ring.poly(tuple_monic(tuple_terms(want), p))
            assert f.divisor_record() == divisor_record(f.terms, p)


def test_minor_at_d8_matches_leibniz_oracle():
    """36 variables: one theta of each size 0..6 at one beta, so that the
    packed monomials span 36 bytes."""
    d, beta = 8, (2, 3, 5, 7, 9, 11, 13, 16)
    m = build_patch(beta, d)
    assert m.ring.nvars == 36
    by_size = {}
    for theta in enumerate_indices(d, ambient_only=True):
        by_size.setdefault(len(set(theta) - set(beta)), theta)
    for k in range(7):
        theta = by_size[k]
        want = leibniz_det(m, *minor_lines(theta, beta))
        assert {sum(mono) for mono in want} == {k}
        assert m.minor(theta) == m.ring.poly(want), theta
        f, _ = m.generator(theta)
        assert f == m.ring.poly(tuple_monic(want, 0))
        assert f.divisor_record() == divisor_record(f.terms, 0)


@pytest.mark.parametrize("d", [3, 4])
def test_build_order_does_not_change_generators(d):
    """The sub-minor memo fills in whatever order minors are asked for;
    each generator, its record (tail order included) and its fact come
    out the same in lex and in reverse order."""
    thetas = enumerate_indices(d, ambient_only=True)
    for p, beta in product((0, 2), enumerate_indices(d)):
        forward, backward = build_patch(beta, d, p), build_patch(beta, d, p)
        built = {theta: forward.generator(theta) for theta in thetas}
        for theta in reversed(thetas):
            f, fact = backward.generator(theta)
            g, want = built[theta]
            assert list(f.terms.items()) == list(g.terms.items()), (p, beta, theta)
            assert f.divisor_record() == g.divisor_record() and fact == want, (p, beta, theta)
        assert forward._minors.keys() == backward._minors.keys()


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


def test_pair_minor_is_the_minor_scaled_to_a_monic_lead():
    m = build_patch((1, 3), 2)
    kept = negated = 0
    for pair in admissible_pairs(2):
        minor = m.minor(pair.rep)
        f = pair_minor(m, pair)
        assert f.initial_term()[1] == 1
        assert f.divisor_record() == divisor_record(f.terms, 0)
        if minor.initial_term()[1] == 1:
            assert f == minor
            kept += 1
        else:
            assert minor.initial_term()[1] == -1 and f == minor.scale(-1)
            negated += 1
    assert kept and negated


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
            assert f.divisor_record() == divisor_record(f.terms, p), (p, beta, pair)


def resign(m, cell, var, sign):
    """Make one cell of a patch ``sign`` times variable ``var``, both in
    ``signed_vars`` and in the bit-indexed entries the minors read."""
    r, c = cell
    m.signed_vars[cell] = (var, sign)
    (unit,) = m.ring.gen(m.ring.variables[var]).terms
    row, col = m._row_bits[r].bit_length() - 1, m._col_bits[c].bit_length() - 1
    m._entries[row][col] = (unit, sign)


def test_entries_are_the_signed_variables_by_bit_position():
    """``_entries[row][col]`` is the packed variable and sign that
    ``signed_vars`` names for the cell at those bit positions: rows off
    beta and beta's columns, each ascending."""
    for d in (1, 2, 3, 4):
        for beta in enumerate_indices(d):
            m = build_patch(beta, d)
            rows = [r for r in range(1, 2 * d + 1) if r not in beta]
            assert list(m._row_bits) == rows and list(m._col_bits) == list(beta)
            assert [*m._row_bits.values()] == [*m._col_bits.values()] == [1 << i for i in range(d)]
            for i, r in enumerate(rows):
                for j, c in enumerate(beta):
                    var, sign = m.signed_vars[(r, c)]
                    (unit,) = m.ring.gen(m.ring.variables[var]).terms
                    assert m._entries[i][j] == (unit, sign)


@pytest.mark.parametrize("p", [0, 3])
def test_generator_holds_no_tail_until_it_divides(p):
    """A patch generator keeps its lead, ``max(f.terms)``, and no divisor
    record: Buchberger reads it only as a dividend.  Its record appears on
    its first division, as the generic one, and is then kept."""
    for beta in enumerate_indices(3):
        m = build_patch(beta, 3, p)
        gens = [pair_minor(m, pair) for pair in admissible_pairs(3)]
        for f in gens:
            assert f._record is None and f.lead() == max(f.terms)
        reduced_groebner(gens)
        assert all(f._record is None for f in gens), beta
        for f in gens:
            normal_form(f * f, [f])
            assert f._record == divisor_record(f.terms, p)
            assert f.divisor_record() is f._record and f.lead() == f._record[0]


def test_a_minor_vanishing_over_fp_gives_zero_and_no_fact():
    """No minor of a patch vanishes over F_2 or F_3 at d <= 6 (nor over F_2
    at d = 7), so the zero case is made by re-signing one cell: the
    minor on rows (2, 4), columns (1, 3) of the patch at (1, 3) becomes
    -2 X(2,1) X(2,3), which vanishes over F_2 only."""
    for p in (0, 2, 3):
        m = build_patch((1, 3), 2, p)
        resign(m, (4, 1), *m.signed_vars[(2, 1)])
        resign(m, (4, 3), m.signed_vars[(2, 3)][0], -1)
        f, fact = m.generator((2, 4))
        if p == 2:
            assert not f.terms and fact is None and f._record is None
        else:
            assert str(f) == "X(2,1)*X(2,3)" and fact is None
            assert f.divisor_record() == divisor_record(f.terms, p)


def test_chain_facts_are_per_patch():
    """Two patches at one beta keep their own generator memos, each chain
    fact read off the monic minor stored beside it."""
    beta, d = (1, 3, 5), 3
    m1, m2 = build_patch(beta, d), build_patch(beta, d)
    assert m1._generators is not m2._generators
    assert m1._minors is not m2._minors
    for pair in admissible_pairs(d):
        m1.generator(pair.rep)
    assert m1._generators and not m2._generators
    assert m1._minors and not m2._minors
    for pair in admissible_pairs(d):
        f2, fact2 = m2.generator(pair.rep)
        f1, fact1 = m1.generator(pair.rep)
        assert fact2 == fact1 and f2 == f1 and f2 is not f1
        assert m1.generator(pair.rep)[0] is f1 is pair_minor(m1, pair)
    assert m1._generators.keys() == m2._generators.keys()
    # the sub-minors agree, and neither patch holds one of the other's
    assert m1._minors == m2._minors
    assert not any(m2._minors[key] is sub for key, sub in m1._minors.items())


@pytest.mark.parametrize("p", [0, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_chain_facts_match_the_tuple_oracle(d, p):
    """Every generator of every fixed point at d <= 4, over Q and F_3: the
    chain fact read off the lead's bits equals the unpacked one, and the
    facts cover all three outcomes (none, positive, negative)."""
    seen = set()
    for beta in enumerate_indices(d):
        patch = build_patch(beta, d, p)
        for pair in admissible_pairs(d):
            f, fact = patch.generator(pair.rep)
            want = chain_fact_oracle(f.leading_monomial(), f.ring, beta) if f else None
            assert fact == want, (beta, pair)
            seen.add(None if fact is None else fact[0])
    assert seen == {None, True, False}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_chain_fact_of_every_squarefree_lead(d):
    """``_chain_fact`` on every squarefree monomial of every fixed point at
    d <= 4, not only on the leads that minors have: supports with two
    points in one row or one column, or of both signs, are no chain fact."""
    for beta in enumerate_indices(d):
        patch = build_patch(beta, d)
        ring = patch.ring
        for lead in product((0, 1), repeat=ring.nvars):
            want = chain_fact_oracle(lead, ring, beta)
            assert patch._chain_fact(ring.pack(lead)) == want, (beta, lead)


def _assert_good_subset_matches_oracle(alpha, beta, gamma, patch):
    gen_pairs, gen_polys = generator_set(alpha, gamma, patch)
    pairs, polys = good_subset(alpha, gamma, patch, gen_pairs)
    want_pairs, want_polys = good_subset_oracle(alpha, gamma, patch, gen_pairs, gen_polys)
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


def _assert_generator_set_matches_oracle(triples, d):
    patches = {}
    for alpha, beta, gamma in triples:
        patch = patches.setdefault(beta, build_patch(beta, d))
        pairs, polys = generator_set(alpha, gamma, patch)
        want_pairs, want_polys = generator_set_oracle(alpha, gamma, patch)
        assert pairs == want_pairs, (alpha, beta, gamma)
        assert polys == want_polys, (alpha, beta, gamma)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_generator_set_matches_oracle(d):
    _assert_generator_set_matches_oracle(all_triples(d), d)


@pytest.mark.parametrize("d, sample", [(5, 100), (6, 40)])
def test_generator_set_matches_oracle_on_a_sample(d, sample):
    _assert_generator_set_matches_oracle(sample_triples(d, sample, seed=d), d)


def test_generator_set_point_case():
    patch = build_patch((1, 3), 2)
    _, polys = generator_set((1, 3), (1, 3), patch)
    ring = patch.ring
    X41, X21, X23 = (ring.gen(v) for v in ring.variables)
    assert set(map(str, polys)) == {
        "X(2,3)",
        "X(2,1)",
        "X(4,1)",
        "X(4,1)*X(2,3) + X(2,1)^2",
    }
    gb = reduced_groebner(polys)
    inits = minimal_monomial_generators(g.leading_monomial() for g in gb)
    assert sorted(ring.format_monomial(mo) for mo in inits) == [
        "X(2,1)",
        "X(2,3)",
        "X(4,1)",
    ]


def test_generator_set_free_case_empty():
    assert generator_set((1, 2), (3, 4), build_patch((1, 3), 2)) == ([], [])


def test_good_subset_point_case():
    patch = build_patch((1, 3), 2)
    gen_pairs, _ = generator_set((1, 3), (1, 3), patch)
    pairs, polys = good_subset((1, 3), (1, 3), patch, gen_pairs)
    assert set(map(str, polys)) == {"X(2,3)", "X(2,1)", "X(4,1)"}
    # the mixed-sign chain X(4,1)*X(2,3) disqualifies its pair
    excluded = [p for p in gen_pairs if p.top == (2, 4) and p.bot == (2, 4)]
    assert excluded and excluded[0] not in pairs


def test_good_subset_is_subset_of_generators():
    for a, b, g in all_triples(2):
        patch = build_patch(b, 2)
        gen_pairs, gen_polys = generator_set(a, g, patch)
        pairs, polys = good_subset(a, g, patch, gen_pairs)
        assert set(pairs) <= set(gen_pairs)
        assert {str(p) for p in polys} <= {str(p) for p in gen_polys}


def test_initial_chain_classification():
    patch = build_patch((1, 3), 2)
    _, polys = generator_set((1, 3), (1, 3), patch)
    by_str = {str(f): f for f in polys}
    mixed = by_str["X(4,1)*X(2,3) + X(2,1)^2"]
    ch = initial_chain(mixed)
    assert ch == ((4, 1), (2, 3))  # a chain, but mixed-sign
    X21 = patch.ring.gen((2, 1))
    assert initial_chain(X21 * X21) is None  # not squarefree


def fixed_point_coords(betap, beta, d, ring):
    moved = set(beta) - set(betap)
    return [
        Fraction(1) if (c in moved and r == star(c, d)) else Fraction(0)
        for (r, c) in ring.variables
    ]


def eval_at(f, coords):
    total = Fraction(0)
    for mono, c in tuple_terms(f).items():
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
        patch = build_patch(b, d)
        _, polys = generator_set(a, g, patch)
        for bp in enumerate_indices(d):
            coords = fixed_point_coords(bp, b, d, patch.ring)
            vanishes = all(eval_at(f, coords) == 0 for f in polys)
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
