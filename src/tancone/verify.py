"""Case verification: the Groebner equality verdict and the five-column
counting table, plus exhaustive or sampled sweeps over index triples.

For a case (alpha, beta, gamma) the verdict compares the minimal
monomial generators of the Buchberger-computed initial ideal with those
of the distinguished set's initial monomials, and tabulates per degree m:

  outside_good        degree-m monomials outside <init of the good set>
  special_multisets   bounded special multisets of degree 2m
  bitableaux          bounded on-starred bitableaux with 2m boxes
  standard_monomials  degree-m standard monomials on the variety
  outside_init        degree-m monomials outside the initial ideal

Per-beta enumerations are cached: they are shared by every (alpha, gamma)
above the same fixed point.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache

from .brsk import delta_sequence, enumerate_on_starred
from .grid import double_multiset, multiset_chain_values, upper_points
from .indexsets import (
    Index,
    bruhat_leq,
    enumerate_indices,
    format_index,
    is_isotropic,
    parse_index,
)
from .patch import FORM_LABEL, generator_set, good_subset
from .ring import (
    initial_ideal_generators,
    minimal_monomial_generators,
    monomials_outside,
    reduced_groebner,
)
from .standard_monomials import _standard_chains

SCHEMA = "tancone/1"


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# PRIME_BOUND (Sorenson & Webster, Math. Comp. 86, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact for 0 <= n < PRIME_BOUND: deterministic Miller-Rabin."""
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def parse_field(text: str) -> int:
    """'Q' -> 0, 'Fp:<p>' -> p (p a prime below PRIME_BOUND)."""
    if text == "Q":
        return 0
    if text.startswith("Fp:"):
        p = int(text[3:])
        if p >= PRIME_BOUND:
            raise ValueError(
                f"Fp:{p} is too large: primality is checked exactly only below "
                f"{PRIME_BOUND}"
            )
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return p
    raise ValueError(f"field must be 'Q' or 'Fp:<p>', got {text!r}")


@dataclass(frozen=True)
class CaseSpec:
    d: int
    alpha: Index
    beta: Index
    gamma: Index
    field: str = "Q"
    max_degree: int = 6

    def __post_init__(self):
        for v in (self.alpha, self.beta, self.gamma):
            if not is_isotropic(v, self.d):
                raise ValueError(f"{v} is not isotropic for d={self.d}")
        if not (bruhat_leq(self.alpha, self.beta) and bruhat_leq(self.beta, self.gamma)):
            raise ValueError("need alpha <= beta <= gamma")
        if self.max_degree < 0:
            raise ValueError(f"max degree must be >= 0, got {self.max_degree}")
        parse_field(self.field)

    @property
    def p(self) -> int:
        return parse_field(self.field)

    @classmethod
    def from_text(
        cls, d: int, alpha: str, beta: str, gamma: str, field: str = "Q", max_degree: int = 6
    ) -> "CaseSpec":
        return cls(
            d=d,
            alpha=parse_index(alpha, d),
            beta=parse_index(beta, d),
            gamma=parse_index(gamma, d),
            field=field,
            max_degree=max_degree,
        )


@dataclass
class Verdict:
    case: CaseSpec
    groebner_equal: bool
    counts_agree: bool
    initial_ideal: list[str]
    good_initial: list[str]
    per_degree: dict[int, dict[str, int]]
    runtime_ms: int = 0

    @property
    def ok(self) -> bool:
        return self.groebner_equal and self.counts_agree

    def to_json(self) -> dict:
        return {
            "d": self.case.d,
            "alpha": format_index(self.case.alpha),
            "beta": format_index(self.case.beta),
            "gamma": format_index(self.case.gamma),
            "field": self.case.field,
            "max_degree": self.case.max_degree,
            "groebner_equal": self.groebner_equal,
            "counts_agree": self.counts_agree,
            "initial_ideal": self.initial_ideal,
            "good_initial": self.good_initial,
            "per_degree": {str(m): row for m, row in sorted(self.per_degree.items())},
            "form": FORM_LABEL,
            "runtime_ms": self.runtime_ms,
        }


# ---------------------------------------------------------------------------
# per-beta caches


@lru_cache(maxsize=None)
def _special_profiles(beta: Index, d: int, degree2: int):
    """For each special multiset of degree ``degree2``: the chain values of
    its positive and negative parts (enough to test boundedness)."""
    from itertools import combinations_with_replacement

    profiles = []
    for combo in combinations_with_replacement(upper_points(beta, d), degree2 // 2):
        u: dict = {}
        for pt in combo:
            u[pt] = u.get(pt, 0) + 1
        m = double_multiset(u, d)
        profiles.append(multiset_chain_values(m, beta))
    return tuple(profiles)


@lru_cache(maxsize=None)
def _bitableau_profiles(beta: Index, d: int, degree2: int):
    """(first, last) of the delta sequence for each on-starred bitableau."""
    profiles = []
    for t in enumerate_on_starred(beta, d, degree2):
        delta = delta_sequence(t, beta)
        profiles.append((delta[0], delta[-1]))
    return tuple(profiles)


def _count_specials(beta, d, degree2, alpha, gamma) -> int:
    count = 0
    for pos_vals, neg_vals in _special_profiles(tuple(beta), d, degree2):
        if all(bruhat_leq(alpha, v) for v in neg_vals) and all(
            bruhat_leq(v, gamma) for v in pos_vals
        ):
            count += 1
    return count


def _count_bitableaux(beta, d, degree2, alpha, gamma) -> int:
    return sum(
        1
        for first, last in _bitableau_profiles(tuple(beta), d, degree2)
        if bruhat_leq(alpha, first) and bruhat_leq(last, gamma)
    )


def _count_standard(beta, d, degree, alpha, gamma, max_degree) -> int:
    if degree == 0:
        return 1
    return sum(
        1
        for pairs, deg, bot0, top1 in _standard_chains(tuple(beta), d, max_degree)
        if deg == degree and bruhat_leq(alpha, bot0) and bruhat_leq(top1, gamma)
    )


# ---------------------------------------------------------------------------
# verification


def verify_case(case: CaseSpec) -> Verdict:
    start = time.monotonic()
    d = case.d
    gens = generator_set(case.alpha, case.beta, case.gamma, d, p=case.p)
    ring = gens.ring
    _, good_polys = good_subset(gens)

    groebner = reduced_groebner(gens.polys)
    init_ideal = initial_ideal_generators(groebner)
    good_init = minimal_monomial_generators(
        g.leading_monomial() for g in good_polys
    )
    groebner_equal = init_ideal == good_init

    per_degree: dict[int, dict[str, int]] = {}
    agree = True
    for m in range(1, case.max_degree + 1):
        row = {
            "outside_good": len(monomials_outside(good_init, ring.nvars, m)),
            "special_multisets": _count_specials(
                case.beta, d, 2 * m, case.alpha, case.gamma
            ),
            "bitableaux": _count_bitableaux(
                case.beta, d, 2 * m, case.alpha, case.gamma
            ),
            "standard_monomials": _count_standard(
                case.beta, d, m, case.alpha, case.gamma, case.max_degree
            ),
            "outside_init": len(monomials_outside(init_ideal, ring.nvars, m)),
        }
        per_degree[m] = row
        if len(set(row.values())) != 1:
            agree = False

    return Verdict(
        case=case,
        groebner_equal=groebner_equal,
        counts_agree=agree,
        initial_ideal=[ring.format_monomial(m) for m in init_ideal],
        good_initial=[ring.format_monomial(m) for m in good_init],
        per_degree=per_degree,
        runtime_ms=int((time.monotonic() - start) * 1000),
    )


def all_triples(d: int):
    """Weakly increasing Bruhat triples (alpha, beta, gamma), lex order."""
    iso = enumerate_indices(d)
    return [
        (a, b, g)
        for a in iso
        for b in iso
        if bruhat_leq(a, b)
        for g in iso
        if bruhat_leq(b, g)
    ]


def sweep(
    d: int,
    max_degree: int = 6,
    sample: int | None = None,
    seed: int = 0,
    field: str = "Q",
    jobs: int = 1,
) -> list[Verdict]:
    """Verify all triples at this d, or a seeded uniform sample of them."""
    triples = all_triples(d)
    if sample is not None and sample < len(triples):
        rng = random.Random(seed)
        triples = sorted(rng.sample(triples, sample))
    cases = [
        CaseSpec(d=d, alpha=a, beta=b, gamma=g, field=field, max_degree=max_degree)
        for a, b, g in triples
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(verify_case, cases))
    return [verify_case(c) for c in cases]


# ---------------------------------------------------------------------------
# reports


def report_json(verdicts, stable: bool = False) -> str:
    payload = {
        "schema": SCHEMA,
        "all_ok": all(v.ok for v in verdicts),
        "cases": [v.to_json() for v in verdicts],
    }
    if stable:
        for case in payload["cases"]:
            case["runtime_ms"] = 0
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_csv(verdicts, stable: bool = False) -> str:
    lines = [
        "d,alpha,beta,gamma,field,groebner_equal,counts_agree,ok,max_degree,runtime_ms"
    ]
    for v in verdicts:
        ms = 0 if stable else v.runtime_ms
        lines.append(
            ",".join(
                [
                    str(v.case.d),
                    '"' + format_index(v.case.alpha) + '"',
                    '"' + format_index(v.case.beta) + '"',
                    '"' + format_index(v.case.gamma) + '"',
                    v.case.field,
                    str(v.groebner_equal).lower(),
                    str(v.counts_agree).lower(),
                    str(v.ok).lower(),
                    str(v.case.max_degree),
                    str(ms),
                ]
            )
        )
    return "\n".join(lines) + "\n"
