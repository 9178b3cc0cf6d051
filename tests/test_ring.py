import heapq
import pickle
import random
from fractions import Fraction
from itertools import islice, permutations, product
from math import comb

import pytest

import tancone.ring as R
from tancone._kernel_py import _inv, mono_div, mono_mul
from tancone.ring import (
    Poly,
    PolyRing,
    minimal_monomial_generators,
    monomials_of_degree,
    monomials_outside,
    normal_form,
    reduced_groebner,
)
from tancone.patch import build_patch, generator_set, good_subset
from tancone.verify import all_triples, sweep


@pytest.fixture
def ring13():
    """Patch ring at beta = {1,3}: variables X(4,1) > X(2,1) > X(2,3)."""
    return PolyRing.for_patch((1, 3), 2)


def test_variable_order(ring13):
    assert ring13.variables == ((4, 1), (2, 1), (2, 3))


def mono_key(m):
    return (sum(m), m)


def test_compare_examples(ring13):
    X41, X21, X23 = (ring13.gen(v) for v in ring13.variables)
    m_prod = (X41 * X23).leading_monomial()
    m_sq = (X21 * X21).leading_monomial()
    assert mono_key(m_prod) > mono_key(m_sq)
    assert mono_key(X21.leading_monomial()) > mono_key(X23.leading_monomial())
    m = (X21 * X23).leading_monomial()
    assert mono_key((X21 * X23 * X41).leading_monomial()) > mono_key(m)


def random_monomial(rng, nvars, max_exp=3):
    return tuple(rng.randint(0, max_exp) for _ in range(nvars))


def test_term_order_axioms_random():
    rng = random.Random(20240809)
    nvars = 6
    for _ in range(10_000):
        a = random_monomial(rng, nvars)
        b = random_monomial(rng, nvars)
        c = random_monomial(rng, nvars)
        ka, kb = mono_key(a), mono_key(b)
        # totality and consistency
        assert (ka < kb) + (kb < ka) + (ka == kb) == 1
        if a == b:
            assert ka == kb
        # degree compatibility
        if sum(a) < sum(b):
            assert ka < kb
        # multiplicativity
        if ka < kb:
            am = tuple(x + y for x, y in zip(a, c))
            bm = tuple(x + y for x, y in zip(b, c))
            assert mono_key(am) < mono_key(bm)


def test_initial_term_examples(ring13):
    X41, X21, X23 = (ring13.gen(v) for v in ring13.variables)
    f = X21 * X21 - X23 * X41
    mono, coeff = f.initial_term()
    assert ring13.format_monomial(mono) == "X(4,1)*X(2,3)"
    assert coeff == -1
    assert X23.initial_term() == (X23.leading_monomial(), 1)


def test_initial_term_multiplicative(ring13):
    rng = random.Random(7)
    vars_ = [ring13.gen(v) for v in ring13.variables]
    for _ in range(60):
        f = ring13.zero()
        g = ring13.zero()
        for _ in range(3):
            t1 = ring13.one().scale(rng.randint(1, 5))
            t2 = ring13.one().scale(rng.randint(1, 5))
            for v in vars_:
                for _ in range(rng.randint(0, 2)):
                    t1 = t1 * v
                t2 = t2 * v.scale(rng.randint(0, 1)) if False else t2
            for v in vars_:
                for _ in range(rng.randint(0, 2)):
                    t2 = t2 * v
            f = f + t1
            g = g + t2
        if f.terms and g.terms:
            lhs = (f * g).initial_term()
            lf, cf = f.initial_term()
            lg, cg = g.initial_term()
            assert lhs[0] == tuple(x + y for x, y in zip(lf, lg))
            assert lhs[1] == cf * cg


def test_zero_poly_has_no_initial_term(ring13):
    with pytest.raises(ValueError):
        ring13.zero().initial_term()


def test_reduce_examples(ring13):
    X41, X21, X23 = (ring13.gen(v) for v in ring13.variables)
    f = X21 * X21 - X23 * X41
    assert not normal_form(f, [f]).terms
    assert not normal_form(X21 * X21, [X21]).terms
    assert normal_form(f, [X23]) == X21 * X21


def test_normal_form_divides_in_the_order_given(ring13):
    X41, X21, X23 = (ring13.gen(v) for v in ring13.variables)
    # two divisors with the same lead X(4,1): not a Groebner basis
    g1, g2 = X41 - X21, X41 - X23
    f = X41 * X41 + X21
    # X41^2 -> X41*X21 -> X21^2 by g1 alone; X41^2 -> X41*X23 -> X23^2 by g2
    assert normal_form(f, [g1, g2]) == X21 * X21 + X21
    assert normal_form(f, [g2, g1]) == X23 * X23 + X21
    # modulo a Groebner basis every order gives the same remainder
    gb = reduced_groebner([X21 * X21 - X23 * X41, X41 * X23 - X21 * X23])
    h = X41 * X41 * X21 + X21 * X21 * X23 + X41 * X23 * X23
    remainders = {
        _frozen(normal_form(h, order).terms) for order in permutations(gb)
    }
    assert len(remainders) == 1


# -- division oracle -----------------------------------------------------------


def normal_form_oracle(f, basis, p):
    """The division loop before divisor records, kept as the reference.

    ``basis`` is a list of (leading monomial, terms) pairs.  The largest
    remaining term is found by a keyed ``max`` over the whole work
    polynomial, and it is reduced by the first pair in list order whose
    leading monomial divides it, every pair being tried by ``mono_div``.
    """
    work = dict(f)
    remainder = {}
    while work:
        m = max(work, key=mono_key)
        c = work.pop(m)
        for lm, g in basis:
            q = mono_div(m, lm)
            if q is None:
                continue
            factor = c * _inv(g[lm], p)
            if p:
                factor %= p
            for gm, gc in g.items():
                if gm == lm:
                    continue
                mm = mono_mul(gm, q)
                v = work.get(mm, 0) - factor * gc
                if p:
                    v %= p
                if v:
                    work[mm] = v
                else:
                    work.pop(mm, None)
            break
        else:
            remainder[m] = c
    return remainder


COEFFS = (-3, -2, -1, 1, 2, 3)


def random_poly(rng, ring, nterms, max_exp):
    """Random terms of mixed degrees, so most draws are not homogeneous."""
    return ring.poly(
        {
            random_monomial(rng, ring.nvars, max_exp): rng.choice(COEFFS)
            for _ in range(nterms)
        }
    )


def random_divisors(rng, ring):
    """A divisor list that is rarely a Groebner basis: zero divisors,
    monomials, and divisors that repeat an earlier divisor's lead with
    another tail."""
    divisors = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.random()
        earlier = [g for g in divisors if g.terms]
        if kind < 0.15:
            divisors.append(ring.zero())
        elif kind < 0.4 and earlier:
            lead = max(rng.choice(earlier).terms, key=mono_key)
            lower = random_poly(rng, ring, rng.randint(1, 4), 2).terms
            tail = {m: c for m, c in lower.items() if mono_key(m) < mono_key(lead)}
            g = ring.poly({**tail, lead: rng.choice(COEFFS)})
            if g.terms:
                divisors.append(g)
        elif kind < 0.5:
            divisors.append(random_poly(rng, ring, 1, 2))
        else:
            divisors.append(random_poly(rng, ring, rng.randint(2, 4), 2))
    return divisors


@pytest.mark.parametrize("p", [0, 2, 3])
def test_normal_form_matches_the_division_oracle(p):
    """Exactly the oracle's remainder, on non-homogeneous polynomials and
    non-Groebner divisor lists; every divisor is used three times, so its
    cached record is read as well as built."""
    rng = random.Random(8100 + p)
    mixed_degrees = repeated_leads = reduced = 0
    for _ in range(250):
        ring = PolyRing(range(rng.randint(1, 5)), p=p)
        divisors = random_divisors(rng, ring)
        basis = [(max(g.terms, key=mono_key), g.terms) for g in divisors if g.terms]
        leads = [lm for lm, _ in basis]
        repeated_leads += len(set(leads)) < len(leads)
        for _ in range(3):
            f = random_poly(rng, ring, rng.randint(1, 8), 3)
            expected = normal_form_oracle(f.terms, basis, p)
            got = normal_form(f, divisors)
            assert got.ring == ring
            assert got.terms == expected, (f, divisors)
            mixed_degrees += len({sum(m) for m in f.terms}) > 1
            reduced += bool(expected) and expected != f.terms
    assert mixed_degrees > 300 and repeated_leads > 40 and reduced > 200


@pytest.mark.parametrize("p", [0, 3])
def test_a_divisor_keeps_its_equality_hash_and_pickle(p):
    ring = PolyRing.for_patch((1, 3), 2, p=p)
    X41, X21, X23 = (ring.gen(v) for v in ring.variables)
    g = (X21 * X21 - X23 * X41).scale(2) + X21
    twin = Poly(ring, dict(g.terms))
    before = hash(g)
    f = X41 * X41 * X23 + X21 * X23
    remainder = normal_form(f, [g])
    assert g.divisor_record() is g.divisor_record()
    reduced_groebner([g, X41 * X23 - X21])
    assert g == twin and twin == g
    assert hash(g) == before == hash(twin)
    assert twin in {g} and g in {twin}
    clone = pickle.loads(pickle.dumps(g))
    assert clone == g and hash(clone) == before
    assert normal_form(f, [clone]) == remainder
    assert pickle.loads(pickle.dumps(remainder)) == remainder


def test_buchberger_examples(ring13):
    X41, X21, X23 = (ring13.gen(v) for v in ring13.variables)
    assert reduced_groebner([X23]) == [X23]
    gb = reduced_groebner([X21 * X21 - X23 * X41, X23, X41])
    assert gb == [X23, X41, X21 * X21]
    assert reduced_groebner([]) == []
    assert reduced_groebner([ring13.zero()]) == []


def test_reduced_groebner_unique_under_permutation(ring13):
    X41, X21, X23 = (ring13.gen(v) for v in ring13.variables)
    gens = [
        X21 * X21 + X23 * X41,
        X23 * X23 - X41 * X21,
        X41 * X23 - X21,
    ]
    rng = random.Random(3)
    reference = reduced_groebner(gens)
    for _ in range(8):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert reduced_groebner(shuffled) == reference


def test_spoly_pairs_all_reduce_to_zero(ring13):
    from tancone._kernel_py import spoly

    X41, X21, X23 = (ring13.gen(v) for v in ring13.variables)
    gb = reduced_groebner([X21 * X21 + X23 * X41, X23 * X23 - X41 * X21])
    for i in range(len(gb)):
        for j in range(i):
            s = spoly(gb[i].terms, gb[j].terms, 0)
            from tancone.ring import Poly

            assert not normal_form(Poly(ring13, s), gb).terms


def test_initial_ideal_and_staircase(ring13):
    X41, X21, X23 = (ring13.gen(v) for v in ring13.variables)
    gens = minimal_monomial_generators(g.leading_monomial() for g in [X21, X23, X41])
    assert len(monomials_outside(gens, 3, 1)) == 0
    assert len(monomials_outside([], 3, 2)) == 6
    lm = (X23 * X41).leading_monomial()
    assert len(monomials_outside([lm], 3, 2)) == 5


@pytest.mark.parametrize("nvars, m", [(3, 2), (4, 3), (6, 4), (1, 5)])
def test_staircase_of_zero_ideal_counts(nvars, m):
    mons = list(monomials_of_degree(nvars, m))
    assert len(mons) == comb(m + nvars - 1, nvars - 1)
    assert len(set(mons)) == len(mons)
    assert all(sum(mono) == m for mono in mons)


def degree_monomials_oracle(nvars, m):
    """Every exponent tuple of total degree m, from the full product."""
    return sorted(e for e in product(range(m + 1), repeat=nvars) if sum(e) == m)


SHAPES = [(nvars, m) for nvars in range(5) for m in range(6)]


def test_monomials_of_degree_match_the_product_enumeration():
    for nvars, m in SHAPES:
        assert list(monomials_of_degree(nvars, m)) == degree_monomials_oracle(
            nvars, m
        ), (nvars, m)


def test_monomials_of_degree_repeat_and_interleave():
    # the tables are shared between calls: asking again, in another
    # order, or while another iterator is half consumed gives the same
    first = {shape: list(monomials_of_degree(*shape)) for shape in SHAPES}
    for shape in reversed(SHAPES):
        assert list(monomials_of_degree(*shape)) == first[shape], shape
    for a, b in zip(SHAPES, SHAPES[::-1]):
        iters = {a: monomials_of_degree(*a), b: monomials_of_degree(*b)}
        seen = {a: [], b: []}
        for shape in [a, b] * (max(len(first[a]), len(first[b])) + 1):
            seen[shape].extend(islice(iters[shape], 1))
        assert seen[a] == first[a] and seen[b] == first[b], (a, b)


def test_a_sweep_builds_each_degree_table_once():
    """A sweep to degree 17 asks for 17 tables of one nvars, once per case
    and degree; each is built once, whatever the maximum degree."""
    R._degree_table.cache_clear()
    try:
        verdicts = sweep(2, max_degree=17)
        info = R._degree_table.cache_info()
    finally:
        R._degree_table.cache_clear()
    assert len(verdicts) == 20 and all(v.ok for v in verdicts)
    assert (info.misses, info.currsize) == (17, 17)


def staircase_by_definition(gens, nvars, m):
    return [
        mono
        for mono in monomials_of_degree(nvars, m)
        if not any(all(x <= y for x, y in zip(g, mono)) for g in gens)
    ]


def assert_staircases_match(raw, nvars, degrees, rng):
    """``monomials_outside`` equals the definition at every degree, on the
    minimal generators of ``raw``, on a shuffled list padded with
    multiples and duplicates, and on that list as an iterator."""
    minimal = minimal_monomial_generators(raw)
    padded = minimal + raw + [
        tuple(x + y for x, y in zip(g, random_monomial(rng, nvars, max_exp=1)))
        for g in minimal
    ]
    padded += padded[:2]
    rng.shuffle(padded)
    for m in degrees:
        expected = staircase_by_definition(raw, nvars, m)
        assert monomials_outside(minimal, nvars, m) == expected, (raw, m)
        assert monomials_outside(padded, nvars, m) == expected, (raw, m)
        assert monomials_outside(iter(padded), nvars, m) == expected, (raw, m)


@pytest.mark.parametrize("nvars", [3, 4, 5, 6])
def test_staircase_does_not_depend_on_the_generating_set(nvars):
    rng = random.Random(nvars)
    for _ in range(6):
        raw = [random_monomial(rng, nvars, max_exp=2) for _ in range(rng.randint(1, 5))]
        assert_staircases_match(raw, nvars, range(5), rng)


def staircase_columns(d, sample=None, seed=0):
    """The generator lists of both staircase columns, ``good_init`` and
    ``init_ideal``, of every case at d or of a seeded sample of them,
    built as ``verify_case`` builds them, with the patch's variable count."""
    triples = all_triples(d)
    if sample is not None:
        triples = random.Random(seed).sample(triples, sample)
    patches = {}
    for alpha, beta, gamma in triples:
        if beta not in patches:
            patches[beta] = build_patch(beta, d)
        gens = generator_set(alpha, gamma, patches[beta])
        _, good = good_subset(gens)
        init_ideal = minimal_monomial_generators(
            g.leading_monomial() for g in reduced_groebner(gens.polys)
        )
        good_init = minimal_monomial_generators(g.leading_monomial() for g in good)
        yield good_init, init_ideal, gens.matrix.ring.nvars


@pytest.mark.parametrize(
    "d, sample, max_m",
    [(1, None, 6), (2, None, 6), (3, None, 6), (4, 24, 4), (5, 8, 4)],
)
def test_staircase_of_every_case_matches_the_definition(d, sample, max_m):
    """Both columns' generator lists of every d <= 3 case up to degree 6, and
    of a seeded d = 4 and d = 5 sample up to degree 4."""
    rng = random.Random(d)
    for good_init, init_ideal, nvars in staircase_columns(d, sample, seed=d):
        for raw in (good_init, init_ideal):
            assert_staircases_match(raw, nvars, range(max_m + 1), rng)


@pytest.mark.parametrize("p", [0, 2, 3])
@pytest.mark.parametrize("d, sample", [(1, None), (2, None), (3, None), (4, 200)])
def test_reduced_basis_leads_are_the_minimal_generators(d, sample, p):
    """``verify_case`` reads the initial ideal as the leads of the reduced
    basis: over Q, F_2 and F_3, for every d <= 3 case and a seeded d = 4
    sample, they are already minimal and in ascending ``mono_key`` order."""
    triples = all_triples(d)
    if sample is not None:
        triples = random.Random(d).sample(triples, sample)
    patches = {}
    for alpha, beta, gamma in triples:
        if beta not in patches:
            patches[beta] = build_patch(beta, d, p)
        gens = generator_set(alpha, gamma, patches[beta])
        leads = [g.leading_monomial() for g in reduced_groebner(gens.polys)]
        assert leads == minimal_monomial_generators(leads)


@pytest.mark.parametrize(
    "gens, nvars",
    [
        ([(0, 0, 0)], 3),  # the zero monomial: the whole ring, empty staircase
        ([(0, 1, 0), (0, 0, 0)], 3),
        ([(3, 0, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1)], 4),  # a pure power
        ([(0, 0, 2)], 3),
        ([()], 0),  # no variables: only the degree-0 monomial, and 1 = ()
        ([], 0),
    ],
)
def test_staircase_edge_cases_match_the_definition(gens, nvars):
    for m in range(6):
        expected = staircase_by_definition(gens, nvars, m)
        assert monomials_outside(gens, nvars, m) == expected, m


@pytest.mark.parametrize(
    "gens, nvars, m",
    [
        ([(300,)], 1, 300),  # exponents of two-byte fields
        ([(301,)], 1, 300),
        ([(120, 9), (0, 150)], 2, 200),
        ([(127, 0, 0), (0, 128, 0), (1, 1, 1)], 3, 130),
        ([(39999,)], 1, 40000),  # four-byte fields
    ],
)
def test_staircase_at_exponents_wider_than_a_byte(gens, nvars, m):
    assert monomials_outside(gens, nvars, m) == staircase_by_definition(gens, nvars, m)


def test_minimal_monomial_generators():
    gens = minimal_monomial_generators([(2, 0, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1)])
    assert gens == [(0, 0, 1), (1, 0, 0)]


@pytest.mark.parametrize("p", [2, 3])
def test_prime_field_spot_checks(p):
    ring = PolyRing.for_patch((1, 3), 2, p=p)
    X41, X21, X23 = (ring.gen(v) for v in ring.variables)
    f = X21 * X21 - X23 * X41
    gb = reduced_groebner([f, X23, X41])
    assert [g.leading_monomial() for g in gb] == [
        X23.leading_monomial(),
        X41.leading_monomial(),
        (X21 * X21).leading_monomial(),
    ]
    assert (X21.scale(p)).terms == {}  # p == 0 in F_p
    half = Fraction(1, 2)
    assert ring.coeff(1) == 1
    if p == 3:
        two_inv = pow(2, p - 2, p)
        assert (X21.scale(2) * X21.scale(two_inv)).terms == (X21 * X21).terms


def test_format_poly_deterministic(ring13):
    X41, X21, X23 = (ring13.gen(v) for v in ring13.variables)
    f = X21 * X21 - X23 * X41 + ring13.one()
    assert str(f) == "-X(4,1)*X(2,3) + X(2,1)^2 + 1"
    assert str(ring13.zero()) == "0"
    assert str(ring13.one().scale(-2)) == "-2"


def test_homogeneous_flag(ring13):
    X41, X21, X23 = (ring13.gen(v) for v in ring13.variables)
    assert (X21 * X21 - X23 * X41).is_homogeneous()
    assert not (X21 + ring13.one()).is_homogeneous()


# -- pair-order oracle --------------------------------------------------------


def oracle_groebner(gens):
    """The Buchberger loop as it was before the heap queue: every iteration
    rebuilds the lcm of every pending pair and takes the least by
    (lcm key, (i, j)).  Returns the reduced basis and the basis the loop
    built, before minimalization.  Kernel calls go through the
    ``tancone.ring`` module, so a wrapped ``spoly`` sees them."""
    gens = [g for g in gens if g.terms]
    if not gens:
        return [], []
    ring = gens[0].ring

    basis = []
    for g in sorted(gens, key=lambda h: mono_key(h.leading_monomial())):
        r = R.normal_form(g, basis)
        if r.terms:
            basis.append(r.monic())

    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}
    while pairs:
        lcm_of = {
            (i, j): R.mono_lcm(basis[i].leading_monomial(), basis[j].leading_monomial())
            for (i, j) in pairs
        }
        i, j = min(pairs, key=lambda ij: (mono_key(lcm_of[ij]), ij))
        pairs.remove((i, j))
        lmi = basis[i].leading_monomial()
        lmj = basis[j].leading_monomial()
        if lcm_of[(i, j)] == R.mono_mul(lmi, lmj):
            continue
        s = R.Poly(ring, R.spoly(basis[i].terms, basis[j].terms, ring.p))
        r = R.normal_form(s, basis)
        if r.terms:
            basis.append(r.monic())
            pairs |= {(t, len(basis) - 1) for t in range(len(basis) - 1)}
    built = list(basis)

    basis.sort(key=lambda h: mono_key(h.leading_monomial()))
    minimal = []
    for g in basis:
        lm = g.leading_monomial()
        if not any(R.mono_divides(h.leading_monomial(), lm) for h in minimal):
            minimal.append(g)
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        reduced.append(R.normal_form(g, others).monic())
    reduced.sort(key=lambda h: mono_key(h.leading_monomial()))
    return reduced, built


def _frozen(terms):
    return tuple(sorted(terms.items()))


def assert_same_pair_order(monkeypatch, gens, label):
    """The heap queue reduces the oracle's S-pairs in the oracle's order
    and returns the oracle's reduced basis."""
    real_spoly = R.spoly
    seen = []

    def recording_spoly(f, g, p):
        seen.append((_frozen(f), _frozen(g)))
        return real_spoly(f, g, p)

    monkeypatch.setattr(R, "spoly", recording_spoly)
    expected, built = oracle_groebner(gens)
    oracle_seen, seen[:] = seen[:], []
    got = reduced_groebner(gens)
    monkeypatch.setattr(R, "spoly", real_spoly)

    # name each S-pair by the (i, j) of its operands in the oracle's basis
    index = {_frozen(g.terms): k for k, g in enumerate(built)}
    assert len(index) == len(built), label

    def as_ij(log):
        return [(index[f], index[g]) for f, g in log]

    assert got == expected, label
    assert as_ij(seen) == as_ij(oracle_seen), label
    return len(seen)


@pytest.mark.parametrize("p", [0, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_pair_queue_matches_oracle_order(monkeypatch, d, p):
    from tancone.patch import build_patch, generator_set
    from tancone.verify import all_triples

    spolys = 0
    for a, b, g in all_triples(d):
        gens = generator_set(a, g, build_patch(b, d, p))
        spolys += assert_same_pair_order(monkeypatch, gens.polys, (a, b, g, p))
    assert spolys > 0 or d < 3  # no case at d <= 2 reduces an S-pair


def test_pair_queue_matches_oracle_order_d4_sample(monkeypatch):
    from tancone.patch import build_patch, generator_set
    from tancone.verify import all_triples

    rng = random.Random(4)
    spolys = 0
    for a, b, g in rng.sample(all_triples(4), 120):
        gens = generator_set(a, g, build_patch(b, 4))
        spolys += assert_same_pair_order(monkeypatch, gens.polys, (a, b, g))
    assert spolys > 0


# -- quotient oracle ------------------------------------------------------------


def reduced_groebner_oracle(gens):
    """``reduced_groebner`` as it was before the quotient by the ideal's
    variables: the heap-queue Buchberger loop on every generator, each
    variable among them reducing the others inside ``normal_form``."""
    gens = [g for g in gens if g.terms]
    if not gens:
        return []
    ring = gens[0].ring

    basis = []
    for g in sorted(gens, key=lambda h: mono_key(h.leading_monomial())):
        r = R.normal_form(g, basis)
        if r.terms:
            basis.append(r.monic())
    leads = [g.leading_monomial() for g in basis]
    pairs = []

    def push_pairs(j):
        for i in range(j):
            lcm = R.mono_lcm(leads[i], leads[j])
            heapq.heappush(pairs, (sum(lcm), lcm, i, j))

    for j in range(len(basis)):
        push_pairs(j)
    while pairs:
        _, lcm, i, j = heapq.heappop(pairs)
        if lcm == R.mono_mul(leads[i], leads[j]):
            continue
        s = R.Poly(ring, R.spoly(basis[i].terms, basis[j].terms, ring.p))
        r = R.normal_form(s, basis)
        if r.terms:
            g = r.monic()
            basis.append(g)
            leads.append(g.leading_monomial())
            push_pairs(len(basis) - 1)

    basis.sort(key=lambda h: mono_key(h.leading_monomial()))
    minimal = []
    for g in basis:
        lm = g.leading_monomial()
        if not any(R.mono_divides(h.leading_monomial(), lm) for h in minimal):
            minimal.append(g)
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        reduced.append(R.normal_form(g, others).monic())
    return reduced


def ideal_variables(gens):
    return {m for g in gens if len(g.terms) == 1 for m in g.terms if sum(m) == 1}


def assert_matches_quotient_oracle(gens, label):
    """The same reduced basis as the oracle, term for term and coefficient
    for coefficient, with only int (and over Q Fraction) coefficients."""
    got = reduced_groebner(gens)
    expected = reduced_groebner_oracle(gens)
    assert [g.terms for g in got] == [g.terms for g in expected], label
    allowed = (int,) if gens and gens[0].ring.p else (int, Fraction)
    for g in got:
        assert all(type(c) in allowed for c in g.terms.values()), label
    return got


def tangent_cone_cases(d, p, triples):
    from tancone.patch import build_patch, generator_set

    patches = {}
    for a, b, g in triples:
        if b not in patches:
            patches[b] = build_patch(b, d, p)
        yield (a, b, g, p), generator_set(a, g, patches[b]).polys


@pytest.mark.parametrize("p", [0, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_quotient_by_variables_matches_oracle(d, p):
    from tancone.verify import all_triples

    with_variables = with_rest = 0
    for label, gens in tangent_cone_cases(d, p, all_triples(d)):
        got = assert_matches_quotient_oracle(gens, label)
        variables = ideal_variables(gens)
        with_variables += bool(variables)
        with_rest += len(got) > len(variables)
    assert with_variables > 0 and (with_rest > 0 or d < 2)


@pytest.mark.parametrize("d, p, size", [(4, 0, 60), (4, 5, 40), (5, 0, 25)])
def test_quotient_by_variables_matches_oracle_sampled(d, p, size):
    from tancone.verify import all_triples

    rng = random.Random(1000 * d + p)
    triples = sorted(rng.sample(all_triples(d), size))
    for label, gens in tangent_cone_cases(d, p, triples):
        assert_matches_quotient_oracle(gens, label)


@pytest.fixture
def ring4():
    """Four variables, x0 > x1 > x2 > x3, over Q; a basis lists x3 before x0."""
    ring = PolyRing(range(4))
    return ring, [ring.gen(v) for v in ring.variables]


def test_quotient_scaled_variable_is_returned_monic(ring4):
    ring, (x0, x1, x2, x3) = ring4
    gens = [x0.scale(-3), x1 * x2 - x0 * x3, x2 * x2 + x0 * x1]
    got = assert_matches_quotient_oracle(gens, "scaled variable")
    assert got == [x0, x2 * x2, x1 * x2]
    assert got[0].terms == {x0.leading_monomial(): 1}


def test_quotient_generator_becomes_a_variable(ring4):
    ring, (x0, x1, x2, x3) = ring4
    # x0*x1 - x2 leaves -x2 once x0 is zeroed, which then kills x2*x3
    gens = [x0, x0 * x1 - x2, x2 * x3 + x3 * x3 * x3, x1 * x1 - x3 * x3]
    got = assert_matches_quotient_oracle(gens, "becomes a variable")
    assert got == [x2, x0, x1 * x1 - x3 * x3, x3 * x3 * x3]


def test_quotient_generator_becomes_zero(ring4):
    ring, (x0, x1, x2, x3) = ring4
    gens = [x1, x0 * x1 - x1 * x1.scale(Fraction(2, 3)), x2 * x3]
    got = assert_matches_quotient_oracle(gens, "becomes zero")
    assert got == [x1, x2 * x3]


def test_quotient_generator_becomes_a_constant(ring4):
    ring, (x0, x1, x2, x3) = ring4
    gens = [x2, x1 * x2 + ring.one().scale(5), x0 * x3]
    got = assert_matches_quotient_oracle(gens, "unit ideal")
    assert got == [ring.one()]


@pytest.mark.parametrize("p", [0, 3])
def test_quotient_ideal_of_only_variables(p):
    ring = PolyRing(range(4), p=p)
    x0, x1, x2, x3 = (ring.gen(v) for v in ring.variables)
    gens = [x3.scale(2), x1, x3, x1.scale(-1), ring.zero()]
    got = assert_matches_quotient_oracle(gens, "only variables")
    assert got == [x3, x1]


def test_quotient_ideal_without_variables(ring4):
    ring, (x0, x1, x2, x3) = ring4
    gens = [x0 * x1 - x2 * x3, x1 * x1 - x0 * x2.scale(Fraction(1, 2)), x0 * x0 * x3 - x2]
    got = assert_matches_quotient_oracle(gens, "no variables")
    assert len(got) > len(gens)  # the Buchberger loop still runs in full


# -- coefficient types --------------------------------------------------------


def test_rational_coefficients_are_int_when_integral():
    ring = PolyRing(range(2))
    for value, expected, kind in [
        (4, 4, int),
        (Fraction(4, 2), 2, int),
        (Fraction(1, 2), Fraction(1, 2), Fraction),
        (0.5, Fraction(1, 2), Fraction),
        (-3.0, -3, int),
    ]:
        c = ring.coeff(value)
        assert c == expected and type(c) is kind, value
    assert _inv(1, 0) == 1 and type(_inv(1, 0)) is int
    assert _inv(-1, 0) == -1 and type(_inv(-1, 0)) is int
    assert _inv(Fraction(-1, 3), 0) == -3 and type(_inv(Fraction(-1, 3), 0)) is int
    assert _inv(Fraction(1, 1), 0) == 1 and type(_inv(Fraction(1, 1), 0)) is int
    assert _inv(-2, 0) == Fraction(-1, 2)
    assert _inv(Fraction(2, 3), 0) == Fraction(3, 2)


def test_equality_and_hash_agree_across_int_and_fraction():
    ring = PolyRing(range(2))
    as_int = Poly(ring, {(1, 0): 2, (0, 1): -1})
    as_fraction = Poly(ring, {(1, 0): Fraction(2), (0, 1): Fraction(-1, 1)})
    assert as_int == as_fraction and as_fraction == as_int
    assert hash(as_int) == hash(as_fraction)
    assert len({as_int, as_fraction}) == 1
