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
patch, whose lead records go when that beta is done, and the per-beta
count tables are cached by beta.

The three count tables share one contract: ``table(beta, d, m)`` holds
the column's objects at monomial degree m as cells ``((low, high),
count)``: they are bounded exactly when alpha <= low and high <= gamma.
Bruhat order is componentwise, so values lie at or above alpha exactly
when their meet (componentwise min) does, and at or below gamma exactly
when their join (max) does; low and high are those of the values an
object must bound, or beta, which every case bounds, for a side with
none.  Each is kept as its ``indexsets.bruhat_mask``, under which the
order is bit containment, the meet an AND and the join an OR; degree 0
is the one cell of beta's mask twice.  One filter, ``_count_cells``,
sums the counts of the cells that pass, at two ANDs a cell.
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
from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb
from operator import itemgetter

from .brsk import enumerate_on_starred
from .grid import chain_parts, multiset_chain_values, sharp_point, upper_points
from .indexsets import (
    MAX_BITABLEAU_WORK,
    MAX_TABLE_MONOMIALS,
    Index,
    _FrozenRecord,
    _Record,
    bruhat_leq,
    bruhat_mask,
    enumerate_indices,
    format_index,
    index_bits,
    is_isotropic,
    isotropic_masks,
    pair_masks,
    parse_index,
)
from .patch import FORM_LABEL, PatchMatrix, build_patch, generator_set, good_subset
from .ring import minimal_leads, monomials_outside, reduced_groebner

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
        work = n * comb(n + max_degree, n + 1)
        if work > MAX_BITABLEAU_WORK:
            raise ValueError(
                f"max degree {max_degree} at d={d} needs {work} bitableau "
                f"box pairs, more than {MAX_BITABLEAU_WORK}"
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


# ---------------------------------------------------------------------------
# per-beta caches


# lru_cache kept: perfbench/layertrace.py reads its cache_info for beta_cache_hit_ratio
@lru_cache(maxsize=None)
def _special_profiles(beta: Index, d: int, m: int):
    """Special multisets of degree 2m as cells ``((low, high), count)``:
    the masks of the meet of the negative and the join of the positive
    chain values of their supports, and how many specials have them.

    A special multiset is U union U# for a multiset U of degree m on the
    upper region, and its chain values depend only on the support of U.
    A support of a positive and b negative points carries C(m-1, a+b-1)
    such U, and its key pairs those of its two one-sign parts
    (``_sign_supports``), since sharp keeps a point's sign; an empty part
    is keyed by beta's mask.
    """
    beta_mask = bruhat_mask(beta, d)
    if m == 0:
        return (((beta_mask, beta_mask), 1),)
    positive, negative = chain_parts(upper_points(beta, d))
    empty = ((beta_mask, 1),)  # the one empty part, of either sign
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
    doubled support's (its points and their sharps) positive chain
    values, the OR of their masks, or the meet of its negative ones, the
    AND of theirs and beta's, which is above them, so beta's for the
    empty support.  A support of both signs has the join and meet of its
    parts, as each of its chains' one-sign parts is a sub-chain of a
    maximal chain of that part, whose positive value lies at or above the
    sub-chain's and negative value at or below."""
    beta_mask = bruhat_mask(beta, d)
    cells: Counter = Counter()
    masks: dict = {}  # each distinct chain value's mask, taken once
    for support in combinations(points, size):
        pos_vals, neg_vals = multiset_chain_values(
            support + tuple(sharp_point(p, d) for p in support), beta
        )
        for v in pos_vals + neg_vals:
            if v not in masks:
                masks[v] = bruhat_mask(v, d)
        join, meet = 0, beta_mask
        for v in pos_vals:
            join |= masks[v]
        for v in neg_vals:
            meet &= masks[v]
        cells[join or meet] += 1
    return tuple(cells.items())


# lru_cache kept: perfbench/layertrace.py reads its cache_info for beta_cache_hit_ratio
@lru_cache(maxsize=None)
def _bitableau_profiles(beta: Index, d: int, m: int):
    """On-starred bitableaux with 2m boxes as cells ``((first, last),
    count)``: the masks of the first and last delta values (the meet and
    join of the increasing delta sequence), and how many bitableaux have
    them.  ``enumerate_on_starred`` builds each delta sequence as a chain
    of pairs of equal epsilon degree and returns each bitableau with
    those two values, ``(beta, beta)`` for the empty one (m = 0), and
    each value's mask is read off the per-d bit table on I(d)
    (``indexsets.isotropic_masks``)."""
    masks = isotropic_masks(d)
    cells = Counter(map(itemgetter(1), enumerate_on_starred(beta, d, 2 * m)))
    return tuple(
        ((masks[first][1], masks[last][1]), count) for (first, last), count in cells.items()
    )


# lru_cache kept: perfbench/layertrace.py reads its cache_info for beta_cache_hit_ratio
@lru_cache(maxsize=None)
def _standard_chains(beta: Index, d: int, m: int):
    """Standard monomials of degree m as cells ``((bot of first, top of
    last), count)``, as masks; the empty one (m = 0) has neither end, and
    its cell is beta's mask twice.

    A standard monomial is a weakly increasing sequence of admissible
    pairs (consecutively top(w_i) <= bot(w_{i+1})), each plain: not
    (beta, beta), and beta is above its top or below its bot
    (``definitions.pair_is_plain``).  It lies on the variety when alpha
    <= bot of the first pair and top of the last pair <= gamma, the meet
    of the bots and the join of the tops, which rise along the sequence.
    Its degree is the sum of the pairs' beta-degrees, positive for every
    plain pair.

    A sequence of degree m that ends in the pair w is (w) alone, or one
    of degree m - deg(w) whose last top is <= bot(w), extended by w.
    Whether w may follow reads only that last top, so the cells of lower
    degree, taken through this function's cache, are the whole state.
    A cold call fills the lower degrees in ascending order first, so the
    recursion stays two calls deep whatever m is.

    Everything is read off the pairs' bit table of d alone
    (``indexsets.pair_masks``), walked in index order: a pair's
    beta-degree is the entries of its rep outside beta, and the
    ``bruhat_mask``s of its top and bot are the cells' keys, so that
    each order test, of whether it is plain or may follow a cell, is one
    AND.  A pair is plain when beta lies on exactly one side of it, top
    <= beta or beta <= bot, as beta lies on both sides of (beta, beta)
    alone.
    """
    beta_mask = bruhat_mask(beta, d)
    if m == 0:
        return (((beta_mask, beta_mask), 1),)
    for lower in range(1, m):
        _standard_chains(beta, d, lower)
    not_beta, outside = ~beta_mask, ~index_bits(beta)
    cells: Counter = Counter()
    for rep, top, bot in zip(*pair_masks(d)):
        if (not top & not_beta) == (not beta_mask & ~bot):
            continue
        wdeg = (rep & outside).bit_count()
        if wdeg == m:
            cells[(bot, top)] += 1
        elif 0 < wdeg < m:
            not_bot = ~bot
            for (low, high), count in _standard_chains(beta, d, m - wdeg):
                if not high & not_bot:
                    cells[(low, top)] += count
    return tuple(cells.items())


def _count_cells(cells, above, below) -> int:
    """Total count of the cells ``((low, high), count)``, keyed by
    ``bruhat_mask``s, with alpha <= low and high <= gamma: ``above`` is
    alpha's mask and ``below`` the complement of gamma's, so that each
    test is one AND, as mask containment is Bruhat order."""
    total = 0
    for (low, high), count in cells:
        if not (above & ~low or high & below):
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
    pairs, polys = generator_set(case.alpha, case.gamma, patch)
    ring = patch.ring
    _, good = good_subset(case.alpha, case.gamma, patch, pairs)

    # the reduced basis is minimal and sorted by ascending lead, and both
    # sides are compared packed, in the integer order that is the term order
    init_leads = [g.lead() for g in reduced_groebner(polys)]
    good_leads = minimal_leads(good, ring.guards)
    groebner_equal = init_leads == good_leads
    init_ideal = list(map(ring.unpack, init_leads))
    good_init = list(map(ring.unpack, good_leads))

    per_degree: dict[int, dict[str, int]] = {}
    agree = True
    beta = case.beta
    above, below = bruhat_mask(case.alpha, d), ~bruhat_mask(case.gamma, d)
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
        initial_ideal=list(map(ring.monomial_text, init_leads)),
        good_initial=list(map(ring.monomial_text, good_leads)),
        per_degree=per_degree,
        runtime_ms=int((time.monotonic() - start) * 1000),
    )


def _up_sets(d: int) -> dict[Index, list[Index]]:
    """Each isotropic index's up-set, both in lex order: w is above v when
    the ``bruhat_mask`` of v has no bit outside that of w, one AND on the
    per-d masks (``indexsets.isotropic_masks``)."""
    masks = {v: mask for v, (_, mask) in isotropic_masks(d).items()}
    return {
        v: [w for w, upper in masks.items() if not mask & ~upper]
        for v, mask in masks.items()
    }


def all_triples(d: int):
    """Weakly increasing Bruhat triples (alpha, beta, gamma), lex order."""
    above = _up_sets(d)
    return [(a, b, g) for a in above for b in above[a] for g in above[b]]


def sample_triples(d: int, sample: int, seed: int) -> list:
    """``sorted(random.Random(seed).sample(all_triples(d), sample))``, or
    all triples if no more, without listing them (1,244,672 at d = 8): the
    same positions are drawn from a range and mapped by up-set sizes."""
    above = _up_sets(d)
    pairs = [(a, b) for a in above for b in above[a]]
    ends = list(accumulate(len(above[b]) for _, b in pairs))
    triples = []
    for k in sorted(random.Random(seed).sample(range(ends[-1]), min(sample, ends[-1]))):
        r = bisect_right(ends, k)
        a, b = pairs[r]
        triples.append((a, b, above[b][k - ends[r] + len(above[b])]))
    return triples


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
    triples = all_triples(d) if sample is None else sample_triples(d, sample, seed)
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


# the C routine that ``json.dumps`` escapes its strings with (ensure_ascii)
_quote = json.encoder.encode_basestring_ascii

# one case of the tancone/1 schema as ``json.dumps(case, indent=2,
# sort_keys=True)`` lays it out, the keys in sorted order
_CASE = """{
  "alpha": %s,
  "beta": %s,
  "counts_agree": %s,
  "d": %d,
  "field": %s,
  "form": %s,
  "gamma": %s,
  "good_initial": %s,
  "groebner_equal": %s,
  "initial_ideal": %s,
  "max_degree": %d,
  "per_degree": %s,
  "runtime_ms": %d
}"""
# a row of ``per_degree``, the five columns' counts, at that key's depth
_ROW = """{
      "bitableaux": %d,
      "outside_good": %d,
      "outside_init": %d,
      "special_multisets": %d,
      "standard_monomials": %d
    }"""
_columns = itemgetter(
    "bitableaux", "outside_good", "outside_init", "special_multisets", "standard_monomials"
)


def _block(open_: str, close: str, items: list[str]) -> str:
    """A JSON array or object at a depth-1 key of a case, as ``json.dumps``
    indents it: ``items`` one a line, and an empty one as ``[]`` or ``{}``."""
    if not items:
        return open_ + close
    return open_ + "\n    " + ",\n    ".join(items) + "\n  " + close


def case_json(v: Verdict, stable: bool = False, indent: int = 0) -> str:
    """One case of the tancone/1 schema, in the bytes of
    ``json.dumps(case, indent=2, sort_keys=True)`` with ``indent`` more
    spaces before every line but the first: ``_CASE`` filled in, with
    ``per_degree`` keyed by degree as a string and sorted as strings
    ("1", "10", "2") and every string escaped as ``json.dumps`` escapes
    it, so that no newline is inside a string when the lines are
    indented.  ``runtime_ms`` is 0 when ``stable``."""
    case = v.case
    per_degree = [
        f'"{m}": ' + _ROW % _columns(row)
        for m, row in sorted([(str(m), row) for m, row in v.per_degree.items()])
    ]
    text = _CASE % (
        _quote(format_index(case.alpha)),
        _quote(format_index(case.beta)),
        "true" if v.counts_agree else "false",
        case.d,
        _quote(case.field),
        _quote(FORM_LABEL),
        _quote(format_index(case.gamma)),
        _block("[", "]", list(map(_quote, v.good_initial))),
        "true" if v.groebner_equal else "false",
        _block("[", "]", list(map(_quote, v.initial_ideal))),
        case.max_degree,
        _block("{", "}", per_degree),
        0 if stable else v.runtime_ms,
    )
    return text.replace("\n", "\n" + " " * indent) if indent else text


def report_json_chunks(verdicts, stable: bool = False):
    """The JSON report in pieces, one per case, so that a writer never
    holds the whole text.  The bytes are those of
    ``json.dumps({"schema", "all_ok", "cases"}, indent=2, sort_keys=True)``
    and a newline, each case written by ``case_json`` two levels in."""
    yield f'{{\n  "all_ok": {json.dumps(all(v.ok for v in verdicts))},\n  "cases": ['
    separator = "\n    "
    for v in verdicts:
        yield separator + case_json(v, stable, 4)
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
