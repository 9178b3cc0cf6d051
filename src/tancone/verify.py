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
patch, whose generator memo goes when that beta is done, and the per-beta
count tables are cached by beta.

The three count tables share one contract: ``table(beta, d, m)`` holds
the column's objects at monomial degree m as cells ``((low, high),
count)``: they are bounded exactly when alpha <= low and high <= gamma.
Bruhat order is componentwise, so values lie at or above alpha exactly
when their meet (componentwise min) does, and at or below gamma exactly
when their join (max) does; low and high are those of the values an
object must bound, or beta, which every case bounds, for a side with
none.  Degree 0 is the one cell ``((beta, beta), 1)``.  One filter,
``_count_cells``, sums the counts of the cells that pass, through two
lazy Bruhat tests that a case builds once (``_bruhat_tests``) for all
its tables and degrees.
Specials are counted by support (every multiset on one support has the
same chain values), as products of the cells of one-sign supports of
each size, which every degree reuses; standard monomials by recursion
on their last pair through the table's own cache; and bitableaux by
enumerating their delta sequences as chains of pairs of equal epsilon
degree, each counted under the first and last delta values that its
chain was built from.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb

from .brsk import enumerate_on_starred
from .grid import chain_parts, double_multiset, multiset_chain_values, upper_points
from .indexsets import (
    MAX_TABLE_MONOMIALS,
    AdmissiblePair,
    Index,
    _FrozenRecord,
    _Record,
    admissible_pairs,
    bruhat_leq,
    enumerate_indices,
    format_index,
    is_isotropic,
    parse_index,
)
from .patch import FORM_LABEL, PatchMatrix, build_patch, generator_set, good_subset
from .ring import minimal_monomial_generators, monomials_outside, reduced_groebner

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


class CaseSpec(_FrozenRecord):
    __slots__ = ("d", "alpha", "beta", "gamma", "field", "max_degree")

    def __init__(
        self,
        d: int,
        alpha: Index,
        beta: Index,
        gamma: Index,
        field: str = "Q",
        max_degree: int = 6,
    ):
        enumerate_indices(d)  # rejects a d outside [1, MAX_D] by name
        for v in (alpha, beta, gamma):
            if not is_isotropic(v, d):
                raise ValueError(f"{v} is not isotropic for d={d}")
        if not (bruhat_leq(alpha, beta) and bruhat_leq(beta, gamma)):
            raise ValueError("need alpha <= beta <= gamma")
        if max_degree < 0:
            raise ValueError(f"max degree must be >= 0, got {max_degree}")
        n = d * (d + 1) // 2
        monomials = comb(n + max_degree, n)
        if monomials > MAX_TABLE_MONOMIALS:
            raise ValueError(
                f"max degree {max_degree} at d={d} needs {monomials} "
                f"staircase monomials, more than {MAX_TABLE_MONOMIALS}"
            )
        # one label per field, so 'Fp:007' and 'Fp:7' report alike
        p = parse_field(field)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "field", f"Fp:{p}" if p else "Q")
        object.__setattr__(self, "max_degree", max_degree)

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


class Verdict(_Record):
    __slots__ = (
        "case",
        "groebner_equal",
        "counts_agree",
        "initial_ideal",
        "good_initial",
        "per_degree",
        "runtime_ms",
    )

    def __init__(
        self,
        case: CaseSpec,
        groebner_equal: bool,
        counts_agree: bool,
        initial_ideal: list[str],
        good_initial: list[str],
        per_degree: dict[int, dict[str, int]],
        runtime_ms: int = 0,
    ):
        self.case = case
        self.groebner_equal = groebner_equal
        self.counts_agree = counts_agree
        self.initial_ideal = initial_ideal
        self.good_initial = good_initial
        self.per_degree = per_degree
        self.runtime_ms = runtime_ms

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
    """Special multisets of degree 2m as cells ``((low, high), count)``:
    the meet of the negative and the join of the positive chain values of
    their supports, and how many specials have them.

    A special multiset is U union U# for a multiset U of degree m on the
    upper region, and its chain values depend only on the support of U.
    A support of a positive and b negative points carries C(m-1, a+b-1)
    such U, and its key pairs those of its two one-sign parts
    (``_sign_supports``), since sharp keeps a point's sign; an empty part
    is keyed by beta.
    """
    if m == 0:
        return (((beta, beta), 1),)
    positive, negative = chain_parts(upper_points(beta, d))
    empty = ((beta, 1),)  # the one empty part, of either sign
    cells: dict = {}
    for a in range(min(m, len(positive)) + 1):
        pos_cells = _sign_supports(beta, d, positive, a) if a else empty
        for b in range(max(1 - a, 0), min(m - a, len(negative)) + 1):
            weight = comb(m - 1, a + b - 1)
            for low, neg_count in _sign_supports(beta, d, negative, b) if b else empty:
                scale = weight * neg_count
                for high, pos_count in pos_cells:
                    key = (low, high)
                    cells[key] = cells.get(key, 0) + scale * pos_count
    return tuple(cells.items())


# one fixed point's tables, both signs and every size up to 31: a sweep fills
# every degree of one beta before the next
@lru_cache(maxsize=64)
def _sign_supports(beta: Index, d: int, points: tuple, size: int):
    """The supports of exactly ``size`` of ``points``, the upper points of
    one sign, as cells ``(key, number of supports)``: the join of the
    doubled support's positive chain values or the meet of its negative
    ones, and beta for the empty support.  A support of both signs has
    the join and meet of its parts, as each of its chains' one-sign parts
    is a sub-chain of a maximal chain of that part, whose positive value
    lies at or above the sub-chain's and negative value at or below."""
    cells: Counter = Counter()
    for support in combinations(points, size):
        pos_vals, neg_vals = multiset_chain_values(
            double_multiset(dict.fromkeys(support, 1), d), beta
        )
        join, meet = tuple(map(max, zip(*pos_vals))), tuple(map(min, zip(*neg_vals)))
        cells[join or meet or beta] += 1
    return tuple(cells.items())


# lru_cache kept: perfbench/layertrace.py reads its cache_info for beta_cache_hit_ratio
@lru_cache(maxsize=None)
def _bitableau_profiles(beta: Index, d: int, m: int):
    """On-starred bitableaux with 2m boxes as cells ``((first, last),
    count)``: the first and last delta values, and how many bitableaux
    have them (the meet and join of the increasing delta sequence).
    ``enumerate_on_starred`` builds each delta sequence as a chain of
    pairs of equal epsilon degree and returns each bitableau with those
    two values, ``(beta, beta)`` for the empty one (m = 0)."""
    cells = Counter(ends for _, ends in enumerate_on_starred(beta, d, 2 * m))
    return tuple(cells.items())


def pair_is_plain(pair: AdmissiblePair, beta: Index) -> bool:
    """Not (beta, beta), and beta is above the top or below the bottom."""
    if pair.top == tuple(beta) and pair.bot == tuple(beta):
        return False
    return bruhat_leq(pair.top, beta) or bruhat_leq(beta, pair.bot)


# lru_cache kept: perfbench/layertrace.py reads its cache_info for beta_cache_hit_ratio
@lru_cache(maxsize=None)
def _standard_chains(beta: Index, d: int, m: int):
    """Standard monomials of degree m as cells ``((bot of first, top of
    last), count)``; the empty one (m = 0) has neither end, and its cell
    is ``((beta, beta), 1)``.

    A standard monomial is a weakly increasing sequence of admissible
    pairs (consecutively top(w_i) <= bot(w_{i+1})), each plain
    (``pair_is_plain``); it lies on the variety when alpha <= bot of the
    first pair and top of the last pair <= gamma, the meet of the bots
    and the join of the tops, which rise along the sequence.  Its degree
    is the sum of the pairs' beta-degrees, positive for every plain pair.

    A sequence of degree m that ends in the pair w is (w) alone, or one
    of degree m - deg(w) whose last top is <= bot(w), extended by w.
    Whether w may follow reads only that last top, so the cells of lower
    degree, taken through this function's cache, are the whole state.
    A cold call fills the lower degrees in ascending order first, so the
    recursion stays two calls deep whatever m is.
    """
    if m == 0:
        return (((beta, beta), 1),)
    for lower in range(1, m):
        _standard_chains(beta, d, lower)
    cells: Counter = Counter()
    for w in admissible_pairs(d):
        if not pair_is_plain(w, beta):
            continue
        wdeg = w.beta_degree(beta)
        if wdeg == m:
            cells[(w.bot, w.top)] += 1
        elif 0 < wdeg < m:
            for (bot, top), count in _standard_chains(beta, d, m - wdeg):
                if bruhat_leq(top, w.bot):
                    cells[(bot, w.top)] += count
    return tuple(cells.items())


class _LazyTests(dict):
    """A lazy dict from a value to ``test(value)``, each computed on first
    lookup."""

    def __init__(self, test):
        self.test = test

    def __missing__(self, value):
        result = self[value] = self.test(value)
        return result


def _bruhat_tests(alpha, gamma) -> tuple[_LazyTests, _LazyTests]:
    """The lazy tests alpha <= v and v <= gamma of one case, which every
    table and degree of that case reads."""
    return (
        _LazyTests(lambda v: bruhat_leq(alpha, v)),
        _LazyTests(lambda v: bruhat_leq(v, gamma)),
    )


def _count_cells(cells, above, below) -> int:
    """Total count of the cells ``((low, high), count)`` with ``above[low]``
    and ``below[high]``: a case's ``_bruhat_tests``, which test each
    distinct value once per case, on first meeting it.  Special chain
    values and their meets and joins lie in I(d, 2d), not only in I(d),
    so the values are not listed beforehand."""
    total = 0
    for (low, high), count in cells:
        if above[low] and below[high]:
            total += count
    return total


def _count_specials(beta, d, m, above, below) -> int:
    return _count_cells(_special_profiles(tuple(beta), d, m), above, below)


def _count_bitableaux(beta, d, m, above, below) -> int:
    return _count_cells(_bitableau_profiles(tuple(beta), d, m), above, below)


def _count_standard(beta, d, m, above, below) -> int:
    return _count_cells(_standard_chains(tuple(beta), d, m), above, below)


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
    ring = patch.ring
    _, good_polys = good_subset(gens)

    # the reduced basis is minimal and sorted by ascending lead
    init_ideal = [g.leading_monomial() for g in reduced_groebner(gens.polys)]
    good_init = minimal_monomial_generators(
        g.leading_monomial() for g in good_polys
    )
    groebner_equal = init_ideal == good_init

    per_degree: dict[int, dict[str, int]] = {}
    agree = True
    beta = case.beta
    above, below = _bruhat_tests(case.alpha, case.gamma)
    for m in range(1, case.max_degree + 1):
        row = {
            "outside_good": len(monomials_outside(good_init, ring.nvars, m)),
            "special_multisets": _count_specials(beta, d, m, above, below),
            "bitableaux": _count_bitableaux(beta, d, m, above, below),
            "standard_monomials": _count_standard(beta, d, m, above, below),
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
    """Weakly increasing Bruhat triples (alpha, beta, gamma), lex order.
    Each index's up-set is listed once, in lex order."""
    iso = enumerate_indices(d)
    above = {v: [w for w in iso if bruhat_leq(v, w)] for v in iso}
    return [(a, b, g) for a in iso for b in above[a] for g in above[b]]


def sweep(
    d: int,
    max_degree: int = 6,
    sample: int | None = None,
    seed: int = 0,
    field: str = "Q",
    jobs: int = 1,
) -> list[Verdict]:
    """Verify all triples at this d, or a seeded uniform sample of them.

    Cases are verified one fixed point at a time, on one patch per beta,
    the fixed points with the most cases first; with ``jobs`` > 1 whole
    fixed points go to a pool of that many worker processes, but never
    more than there are fixed points.  Verdicts come back in the lex
    order of the triples.
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
    # the largest fixed points first, so that no large one starts last in a pool
    positions = sorted(by_beta.values(), key=len, reverse=True)
    groups = [[cases[i] for i in indices] for indices in positions]
    # a pool forks all its workers on the first submit
    workers = min(jobs, len(groups))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_verify_fixed_point, groups))
    else:
        results = map(_verify_fixed_point, groups)
    verdicts = [None] * len(cases)
    for indices, group in zip(positions, results):
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


def report_json_chunks(verdicts, stable: bool = False):
    """The JSON report in pieces, one per case, so that a writer never
    holds the whole text.  The bytes are those of
    ``json.dumps({"schema", "all_ok", "cases"}, indent=2, sort_keys=True)``
    and a newline: each case is dumped alone and indented two levels,
    which is safe because ``json.dumps`` escapes newlines inside strings."""
    yield f'{{\n  "all_ok": {json.dumps(all(v.ok for v in verdicts))},\n  "cases": ['
    separator = "\n    "
    for v in verdicts:
        case = v.to_json()
        if stable:
            case["runtime_ms"] = 0
        yield separator + json.dumps(case, indent=2, sort_keys=True).replace("\n", "\n    ")
        separator = ",\n    "
    yield ("\n  ]" if verdicts else "]") + f',\n  "schema": {json.dumps(SCHEMA)}\n}}\n'


def report_json(verdicts, stable: bool = False) -> str:
    return "".join(report_json_chunks(verdicts, stable))


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
