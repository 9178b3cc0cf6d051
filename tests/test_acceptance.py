"""Acceptance suite: every headline guarantee of the package, each as one
test that prints its own PASS/FAIL line.  All checks are exact; there are
no tolerances anywhere.

Scales: the Groebner/counting sweeps run exhaustively for d in {1, 2, 3};
the combinatorial bijection and injection checks run exhaustively over
special multisets of degree <= 4 (equivalently bitableaux with <= 4
boxes) for every (alpha, gamma) at d <= 3.
"""

import hashlib
import json
import random
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from tancone.brsk import (
    brsk_inverse,
    brsk_map,
    enumerate_on_starred,
    is_bounded_bitableau,
    is_on_starred,
    is_semistandard,
    top_bot_of_chain,
)
from tancone.grid import (
    double_multiset,
    enumerate_chains,
    multiset_bounded,
    upper_points,
)
from tancone.indexsets import (
    admissible_pairs,
    bruhat_leq,
    enumerate_indices,
    is_isotropic,
    sharp,
)
from tancone.patch import build_patch, column_inner_products, pair_minor
from tancone.ring import reduced_groebner
from tancone.standard_monomials import (
    doubling_injection,
    halving_injection,
    is_standard_on_y,
    monomial_degree,
)
from tancone.verify import CaseSpec, all_triples, report_json, sweep, verify_case


def announce(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


@pytest.fixture(scope="module")
def sweep_d1():
    return sweep(1, max_degree=6)


@pytest.fixture(scope="module")
def sweep_d2():
    return sweep(2, max_degree=6)


@pytest.fixture(scope="module")
def sweep_d3():
    return sweep(3, max_degree=6)


def test_groebner_equality_d1_d2(sweep_d1, sweep_d2):
    ok = (
        len(sweep_d1) == 4
        and len(sweep_d2) == 20
        and all(v.groebner_equal for v in sweep_d1 + sweep_d2)
    )
    announce("groebner equality, exhaustive d=1 (4 cases) and d=2 (20 cases)", ok)


def test_groebner_equality_d3(sweep_d3):
    ok = len(sweep_d3) == 112 and all(v.groebner_equal for v in sweep_d3)
    announce("groebner equality, exhaustive d=3 (112 cases)", ok)


def test_worked_fixture_point_case():
    v = verify_case(CaseSpec(2, (1, 3), (1, 3), (1, 3)))
    ok = (
        v.groebner_equal
        and sorted(v.initial_ideal) == ["X(2,1)", "X(2,3)", "X(4,1)"]
        and all(set(row.values()) == {0} for row in v.per_degree.values())
    )
    announce("worked fixture: alpha=beta=gamma={1,3} has initial ideal "
             "<X(2,1), X(2,3), X(4,1)>", ok)


def test_worked_fixture_free_case():
    v = verify_case(CaseSpec(2, (1, 2), (1, 3), (3, 4)))
    ok = (
        v.groebner_equal
        and v.initial_ideal == []
        and v.per_degree[1]["standard_monomials"] == 3
    )
    announce("worked fixture: zero ideal with 3 standard monomials in degree 1", ok)


def test_counting_identity(sweep_d1, sweep_d2, sweep_d3):
    ok = True
    for v in sweep_d1 + sweep_d2 + sweep_d3:
        for m, row in v.per_degree.items():
            if len(set(row.values())) != 1:
                ok = False
    announce("counting identity: all five per-degree columns agree for every "
             "verified case, degrees 1..6", ok)


# sha256 of report_json(sweep(d, max_degree=6), stable=True) over Q.  A
# refactor must leave these bytes alone; a deliberate change to a verdict,
# a count, a label or a key re-pins them and says why.
STABLE_REPORT_SHA256 = {
    1: "06da770847106455d58a0436bf0af378310258b85fbde26194778f6aa146005c",
    2: "a053631eb91ad9dc7eeb27566749284f2232b84f652ca64e9b6e9f527c9c2ab2",
    3: "77f591bcefe96f742474cf08840185d4d09c2cb3219863657ce54230e9c7ebe3",
}


def test_stable_reports_pinned(sweep_d1, sweep_d2, sweep_d3):
    got = {
        d: hashlib.sha256(report_json(verdicts, stable=True).encode()).hexdigest()
        for d, verdicts in ((1, sweep_d1), (2, sweep_d2), (3, sweep_d3))
    }
    announce("--stable reports of the exhaustive d=1, 2, 3 sweeps match their "
             "pinned sha256", got == STABLE_REPORT_SHA256)


D5_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "d5_deg1.json"


@pytest.mark.slow
def test_exhaustive_d5_degree1_matches_reference():
    """Opt in with ``pytest -m slow``: all 4224 cases at d=5, degree 1
    (minutes), each against the digest of its initial ideal, good initial
    ideal and counting table in the benchmark's reference file."""
    reference = json.loads(D5_REFERENCE.read_text())
    report = json.loads(report_json(sweep(5, max_degree=1), stable=True))
    got = []
    for case in report["cases"]:
        payload = {k: case[k] for k in ("initial_ideal", "good_initial", "per_degree")}
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        got.append([case["alpha"], case["beta"], case["gamma"], digest[:20],
                    len(case["initial_ideal"])])
    ok = report["all_ok"] and len(got) == 4224 and got == reference["cases"]
    announce("exhaustive d=5, degree 1 sweep (4224 cases) matches the reference "
             "digests", ok)


def _special_multisets(beta, d, degree):
    for combo in combinations_with_replacement(upper_points(beta, d), degree // 2):
        u = {}
        for p in combo:
            u[p] = u.get(p, 0) + 1
        yield double_multiset(u, d)


def test_brsk_bijection():
    ok = True
    for d in (1, 2, 3):
        for beta in enumerate_indices(d):
            bounds = [
                (a, g)
                for a in enumerate_indices(d)
                if bruhat_leq(a, beta)
                for g in enumerate_indices(d)
                if bruhat_leq(beta, g)
            ]
            for degree in (2, 4):
                images = set()
                count = 0
                for m in _special_multisets(beta, d, degree):
                    count += 1
                    t = brsk_map(m, beta, d)
                    ok &= t.degree() == sum(m.values())  # degree preserving
                    ok &= is_semistandard(t, beta, d)
                    ok &= is_on_starred(t, beta, d)  # image characterisation
                    ok &= brsk_inverse(t, beta, d) == m  # round trip
                    images.add(t)
                    for a, g in bounds:
                        ok &= multiset_bounded(m, a, g, beta) == is_bounded_bitableau(
                            t, a, g, beta
                        )
                ok &= len(images) == count  # injectivity
                ok &= images == set(enumerate_on_starred(beta, d, degree))  # onto
    announce("bounded correspondence is a degree-preserving bijection onto the "
             "mirror-symmetric bitableaux (exhaustive, degree <= 4, d <= 3)", ok)


def test_injection_theorems():
    ok = True
    for d in (1, 2, 3):
        for beta in enumerate_indices(d):
            ring = build_patch(beta, d).ring
            doubled = set()
            for k in (1, 2):
                for combo in combinations_with_replacement(range(ring.nvars), k):
                    mono = [0] * ring.nvars
                    for i in combo:
                        mono[i] += 1
                    m = doubling_injection(tuple(mono), ring, d)
                    ok &= sum(m.values()) == 2 * k  # degree doubles
                    key = tuple(sorted(m.items()))
                    ok &= key not in doubled  # injective
                    doubled.add(key)
            for degree in (2, 4):
                halved = set()
                for t in enumerate_on_starred(beta, d, degree):
                    pairs = halving_injection(t, beta, d)
                    ok &= 2 * monomial_degree(pairs, beta) == degree  # degree halves
                    key = tuple((w.top, w.bot) for w in pairs)
                    ok &= key not in halved  # injective
                    halved.add(key)
                    for a in enumerate_indices(d):
                        for g in enumerate_indices(d):
                            if not (bruhat_leq(a, beta) and bruhat_leq(beta, g)):
                                continue
                            if is_bounded_bitableau(t, a, g, beta):
                                ok &= is_standard_on_y(pairs, a, beta, g)
    announce("degree-doubling and degree-halving maps are well-defined and "
             "injective on their enumerated domains (degree <= 4, d <= 3)", ok)


def test_structural_invariants():
    ok = True
    # mirrored minors agree up to sign; columns isotropic; minors homogeneous
    for d in (1, 2, 3):
        for beta in enumerate_indices(d):
            matrix = build_patch(beta, d)
            ok &= all(not p.terms for p in column_inner_products(matrix))
            for theta in enumerate_indices(d, ambient_only=True):
                f = matrix.minor(theta)
                g = matrix.minor(sharp(theta, d))
                ok &= f == g or f == g.scale(-1)
            for pair in admissible_pairs(d):
                f = pair_minor(matrix, pair)
                ok &= bool(f.terms)
                ok &= f.is_homogeneous()
                ok &= f.degree() == pair.beta_degree(beta)
    # term order axioms on 10^4 random monomial pairs
    rng = random.Random(424242)
    key = lambda m: (sum(m), m)
    for _ in range(10_000):
        a = tuple(rng.randint(0, 4) for _ in range(6))
        b = tuple(rng.randint(0, 4) for _ in range(6))
        c = tuple(rng.randint(0, 2) for _ in range(6))
        ok &= (key(a) < key(b)) + (key(b) < key(a)) + (a == b) == 1
        if sum(a) < sum(b):
            ok &= key(a) < key(b)
        if key(a) < key(b):
            am = tuple(x + y for x, y in zip(a, c))
            bm = tuple(x + y for x, y in zip(b, c))
            ok &= key(am) < key(bm)
    # reduced basis is independent of generator order
    rng = random.Random(7)
    for a, b, g in [((1, 3), (1, 3), (1, 3)), ((1, 2), (1, 3), (2, 4)),
                    ((1, 2), (2, 4), (3, 4))]:
        from tancone.patch import generator_set

        gens = generator_set(a, g, build_patch(b, 2))
        reference = reduced_groebner(gens.polys)
        for _ in range(6):
            shuffled = list(gens.polys)
            rng.shuffle(shuffled)
            ok &= reduced_groebner(shuffled) == reference
    announce("structural invariants: mirrored-minor sign symmetry, identical "
             "column isotropy, minor homogeneity, term-order axioms on 10^4 "
             "samples, reduced-basis uniqueness under permutation", ok)


def test_characteristic_robustness(sweep_d2):
    verdict_q = [(v.case.alpha, v.case.beta, v.case.gamma, v.groebner_equal,
                  v.counts_agree, tuple(sorted(v.per_degree.items())))
                 for v in sweep_d2]
    ok = True
    for field in ("Fp:2", "Fp:3"):
        vs = sweep(2, max_degree=6, field=field)
        got = [(v.case.alpha, v.case.beta, v.case.gamma, v.groebner_equal,
                v.counts_agree, tuple(sorted(v.per_degree.items())))
               for v in vs]
        ok &= got == verdict_q
    announce("characteristic robustness: d=2 sweep verdicts identical over "
             "the rationals, F_2 and F_3", ok)


def test_top_bot_isotropic():
    ok = True
    for d in (1, 2, 3):
        for beta in enumerate_indices(d):
            for ch in enumerate_chains(upper_points(beta, d)):
                ordered = tuple(sorted(ch, key=lambda p: (-p[0], p[1])))
                top, bot = top_bot_of_chain(ordered, beta, d)
                ok &= is_isotropic(top, d) and is_isotropic(bot, d)
    announce("top and bottom of every extended upper chain are isotropic "
             "(all chains, d <= 3)", ok)
