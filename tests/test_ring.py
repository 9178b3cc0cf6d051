import random
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

import tancone.ring as R
from tancone.ring import (
    PolyRing,
    initial_ideal_generators,
    minimal_monomial_generators,
    monomials_of_degree,
    monomials_outside,
    normal_form,
    reduced_groebner,
)


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
    gens = initial_ideal_generators([X21, X23, X41])
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


@pytest.mark.parametrize("nvars", [3, 4, 5, 6])
def test_staircase_does_not_depend_on_the_generating_set(nvars):
    rng = random.Random(nvars)
    for _ in range(6):
        raw = [random_monomial(rng, nvars, max_exp=2) for _ in range(rng.randint(1, 5))]
        minimal = minimal_monomial_generators(raw)
        padded = minimal + raw + [
            tuple(x + y for x, y in zip(g, random_monomial(rng, nvars, max_exp=1)))
            for g in minimal
        ]
        padded += padded[:2]
        rng.shuffle(padded)
        for m in range(5):
            expected = [
                mono
                for mono in monomials_of_degree(nvars, m)
                if not any(all(x <= y for x, y in zip(g, mono)) for g in raw)
            ]
            assert monomials_outside(minimal, nvars, m) == expected, (raw, m)
            assert monomials_outside(padded, nvars, m) == expected, (raw, m)
            assert monomials_outside(iter(padded), nvars, m) == expected, (raw, m)


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
