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

Everything that depends on the fixed point alone is shared by every
(alpha, gamma) above it: ``sweep`` verifies one beta at a time on one
patch, whose minor memo goes when that beta is done, and the per-beta
count tables are cached by beta.

The three count tables share one contract: ``table(beta, d, m)`` holds
the column's objects at monomial degree m as cells ``((lows, highs), count)``.
Every value in ``lows`` must lie at or above alpha and every value in
``highs`` at or below gamma for the objects to be bounded, and the count
is how many objects share the key; degree 0 is the one cell
``(((), ()), 1)``.  One filter, ``_count_cells``, sums the counts of the
cells that pass, so a case makes its Bruhat tests once per cell.
Specials are counted by support (every multiset on one support has the
same chain values), standard monomials by recursion on their last pair
through the table's own cache, and bitableaux by enumerating them
(dropping each value sequence once its epsilon pairing fails) and
grouping by their first and last delta values.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb

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
from .patch import FORM_LABEL, PatchMatrix, build_patch, generator_set, good_subset
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
    """'Q' -> 0, 'Fp:<p>' -> p (p a prime below PRIME_BOUND, written in
    ASCII decimal digits only)."""
    if text == "Q":
        return 0
    digits = text[3:] if text.startswith("Fp:") else ""
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"field must be 'Q' or 'Fp:<p>', got {text!r}")
    p = int(digits)
    if p >= PRIME_BOUND:
        raise ValueError(
            f"Fp:{p} is too large: primality is checked exactly only below "
            f"{PRIME_BOUND}"
        )
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


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


# lru_cache kept: perfbench/layertrace.py reads its cache_info for beta_cache_hit_ratio
@lru_cache(maxsize=None)
def _special_profiles(beta: Index, d: int, m: int):
    """Special multisets of degree 2m as cells ``((neg_values,
    pos_values), count)``: the chain values of the negative and positive
    parts, and how many specials have them.

    A special multiset is U union U# for a multiset U of degree m on the
    upper region, and its chain values depend only on the support S of
    U.  So each support S of size 1..m gives one cell of weight
    C(m-1, |S|-1), the number of degree-m multisets with support exactly
    S.
    """
    if m == 0:
        return ((((), ()), 1),)
    upper = upper_points(beta, d)
    cells: Counter = Counter()
    for size in range(1, m + 1):
        weight = comb(m - 1, size - 1)
        for support in combinations(upper, size):
            doubled = double_multiset(dict.fromkeys(support, 1), d)
            pos_vals, neg_vals = multiset_chain_values(doubled, beta)
            cells[(neg_vals, pos_vals)] += weight
    return tuple(cells.items())


# lru_cache kept: perfbench/layertrace.py reads its cache_info for beta_cache_hit_ratio
@lru_cache(maxsize=None)
def _bitableau_profiles(beta: Index, d: int, m: int):
    """On-starred bitableaux with 2m boxes as cells ``(((first,),
    (last,)), count)``: the first and last delta values, and how many
    bitableaux have them.  They are enumerated by ``enumerate_on_starred``,
    which drops a value sequence as soon as its epsilon pairing fails, and
    grouped.  The empty bitableau (m = 0) has neither value, and its cell
    is ``((), ())``."""
    cells: Counter = Counter()
    for t in enumerate_on_starred(beta, d, 2 * m):
        delta = delta_sequence(t, beta)
        cells[(delta[:1], delta[-1:])] += 1
    return tuple(cells.items())


def _count_cells(cells, alpha, gamma) -> int:
    """Total count of the cells ``((lows, highs), count)`` whose lows all
    lie at or above alpha and whose highs all lie at or below gamma."""
    total = 0
    for (lows, highs), count in cells:
        for v in lows:
            if not bruhat_leq(alpha, v):
                break
        else:
            for v in highs:
                if not bruhat_leq(v, gamma):
                    break
            else:
                total += count
    return total


def _count_specials(beta, d, m, alpha, gamma) -> int:
    return _count_cells(_special_profiles(tuple(beta), d, m), alpha, gamma)


def _count_bitableaux(beta, d, m, alpha, gamma) -> int:
    return _count_cells(_bitableau_profiles(tuple(beta), d, m), alpha, gamma)


def _count_standard(beta, d, m, alpha, gamma) -> int:
    return _count_cells(_standard_chains(tuple(beta), d, m), alpha, gamma)


# ---------------------------------------------------------------------------
# verification


def verify_case(case: CaseSpec, patch: PatchMatrix | None = None) -> Verdict:
    """Verdict of one case, on ``patch`` (the patch at the case's beta over
    its field) or on a fresh patch when none is given."""
    start = time.monotonic()
    d = case.d
    if patch is None:
        patch = build_patch(case.beta, d, case.p)
    elif (patch.beta, patch.d, patch.ring.p) != (case.beta, d, case.p):
        raise ValueError(
            f"patch at beta={format_index(patch.beta)}, d={patch.d}, p={patch.ring.p} "
            f"does not fit the case at beta={format_index(case.beta)}, d={d}, p={case.p}"
        )
    gens = generator_set(case.alpha, case.gamma, patch)
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
    alpha, beta, gamma = case.alpha, case.beta, case.gamma
    for m in range(1, case.max_degree + 1):
        row = {
            "outside_good": len(monomials_outside(good_init, ring.nvars, m)),
            "special_multisets": _count_specials(beta, d, m, alpha, gamma),
            "bitableaux": _count_bitableaux(beta, d, m, alpha, gamma),
            "standard_monomials": _count_standard(beta, d, m, alpha, gamma),
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
    """Verify all triples at this d, or a seeded uniform sample of them.

    Cases are verified one fixed point at a time, on one patch per beta;
    with ``jobs`` > 1 whole fixed points go to a pool of that many worker
    processes.  Verdicts come back in the lex order of the triples.
    """
    if sample is not None and sample < 1:
        raise ValueError(f"sample must be >= 1, got {sample}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    triples = all_triples(d)
    if sample is not None and sample < len(triples):
        rng = random.Random(seed)
        triples = sorted(rng.sample(triples, sample))
    cases = [
        CaseSpec(d=d, alpha=a, beta=b, gamma=g, field=field, max_degree=max_degree)
        for a, b, g in triples
    ]
    by_beta: dict[Index, list[int]] = {}
    for i, case in enumerate(cases):
        by_beta.setdefault(case.beta, []).append(i)
    groups = [[cases[i] for i in indices] for indices in by_beta.values()]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_verify_fixed_point, groups))
    else:
        results = map(_verify_fixed_point, groups)
    verdicts = [None] * len(cases)
    for indices, group in zip(by_beta.values(), results):
        for i, verdict in zip(indices, group):
            verdicts[i] = verdict
    return verdicts


def _verify_fixed_point(cases: list[CaseSpec]) -> list[Verdict]:
    """Verdicts of cases that share one beta and field, on one patch that
    is dropped when they are done."""
    first = cases[0]
    patch = build_patch(first.beta, first.d, first.p)
    return [verify_case(case, patch) for case in cases]


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
