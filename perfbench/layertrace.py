"""Layer tracing for tancone, attached from outside the program.

Every boundary is looked up by its dotted name at run time and replaced,
in every loaded ``tancone`` module that binds the same function object,
by a wrapper that calls through to the original (so ``lru_cache`` hit
ratios do not change).  A boundary that no longer exists is recorded as
missing, and every metric that depends on it is left out, so the trace
keeps running after renames in the program.

Three kinds of wrapper are used:

- span: records [name, parent index, start, end] at a layer entry
  point, and optionally adds the size of its result to a counter (for an
  ``lru_cache``, only on calls that missed the cache);
- count: counts the calls of a hot leaf function, and for a predicate
  the calls that returned true, without recording a span;
- yields: counts the items a generator produced.

Spans are held in memory and written out with the counters at the end of
a sweep (``snapshot``); ``layer_metrics`` turns that record into metrics.
Self time is a span's duration minus the durations of its direct
children; the sweep runs one case at a time, so children never overlap.
Only the tracing process is traced: cases run by ``--jobs`` pool workers
are not.
"""

from __future__ import annotations

import functools
import gc
import importlib
import sys
import time
from collections import Counter

# (span name, dotted boundary, counter of result sizes or None, size function)
SPANS = (
    ("verify.case", "tancone.verify.verify_case", None, None),
    ("patch.generators", "tancone.verify.generator_set", None, None),
    ("patch.good", "tancone.verify.good_subset", "patch.good", lambda r: len(r[0])),
    ("ring.groebner", "tancone.verify.reduced_groebner", "ring.basis_size", len),
    ("ring.normal_form", "tancone.ring.normal_form", None, None),
    ("ring.staircase", "tancone.verify.monomials_outside", "ring.staircase_kept", len),
    ("verify.filter", "tancone.verify._count_specials", None, None),
    ("verify.filter", "tancone.verify._count_bitableaux", None, None),
    ("verify.filter", "tancone.verify._count_standard", None, None),
    ("grid.specials", "tancone.verify._special_profiles", None, None),
    ("brsk.profiles", "tancone.verify._bitableau_profiles", None, None),
    ("brsk.enumerate", "tancone.verify.enumerate_on_starred", None, None),
    ("standard_monomials.chains", "tancone.verify._standard_chains",
     "standard_monomials.chains", len),
)

# (metric, span name): how many times the span was entered
SPAN_CALLS = (
    ("verify.cases", "verify.case"),
    ("ring.normal_form_calls", "ring.normal_form"),
)

# (metric, dotted boundary, metric for the share of calls returning true)
CALL_COUNTS = (
    ("indexsets.bruhat_tests", "tancone.indexsets.bruhat_leq", None),
    ("brsk.on_starred_tests", "tancone.brsk.is_on_starred", "brsk.on_starred_yield"),
    ("grid.specials_enumerated", "tancone.grid.multiset_chain_values", None),
    ("patch.minors", "tancone.patch.pair_minor", None),
    ("ring.spolys", "tancone._kernel_py.spoly", None),
)

# (metric, dotted boundary of a generator)
YIELD_COUNTS = (("ring.staircase_scanned", "tancone.ring.monomials_of_degree"),)

# per-beta tables whose cache statistics give verify.beta_cache_hit_ratio
BETA_CACHES = (
    "tancone.verify._special_profiles",
    "tancone.verify._bitableau_profiles",
    "tancone.verify._standard_chains",
)

COUNTING_LAYERS = (
    "brsk.enumerate",
    "brsk.profiles",
    "grid.specials",
    "standard_monomials.chains",
    "ring.staircase",
    "verify.filter",
)
GROEBNER_PATCH_LAYERS = ("ring.groebner", "ring.normal_form", "patch.generators", "patch.good")


def resolve(dotted: str):
    """The object a dotted name refers to, or None."""
    module_name, _, attr = dotted.rpartition(".")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, attr, None)


def rebind(orig, wrapper) -> None:
    """Replace ``orig`` by ``wrapper`` wherever a loaded tancone module binds it."""
    for modname, module in list(sys.modules.items()):
        if modname == "tancone" or modname.startswith("tancone."):
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)


def speed_probe() -> tuple[float, float]:
    """Wall and CPU time of a fixed pure-Python loop of about 1 ms.

    It does dict and tuple work, as the program does.  The cyclic
    collector is held off meanwhile, so that the program's heap cannot
    slow the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    c0, w0 = time.process_time(), time.perf_counter()
    table = {}
    for i in range(PROBE_LOOPS):
        key = (i & 127, i >> 4)
        table[key] = table.get(key, 0) + len(table)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if enabled:
        gc.enable()
    return wall, cpu


PROBE_LOOPS = 5000


class CaseTimer:
    """Wall and CPU time of every case of a sweep, in call order, and of a
    speed probe run just before each case.

    Much lighter than ``Tracer``: one wrapper around the case boundary.
    ``probe`` adds a probe outside the cases; run before and after the
    sweep, it gives every case a probe on either side.  ``installed`` is
    false when the boundary no longer exists.
    """

    BOUNDARY = "tancone.verify.verify_case"

    def __init__(self):
        self.installed = False
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.probe_wall: list[float] = []
        self.probe_cpu: list[float] = []

    def probe(self) -> None:
        wall, cpu = speed_probe()
        self.probe_wall.append(wall)
        self.probe_cpu.append(cpu)

    def install(self) -> None:
        orig = resolve(self.BOUNDARY)
        if orig is None:
            return
        wall, cpu, probe = self.wall, self.cpu, self.probe
        perf_counter, process_time = time.perf_counter, time.process_time

        def wrapper(*args, **kwargs):
            probe()
            c0, w0 = process_time(), perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                wall.append(perf_counter() - w0)
                cpu.append(process_time() - c0)

        rebind(orig, functools.update_wrapper(wrapper, orig))
        self.installed = True


class Tracer:
    """Wraps the boundaries above and collects spans and counters."""

    def __init__(self):
        self.missing: list[str] = []
        self.caches: list = []
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for dotted in BETA_CACHES:
            fn = resolve(dotted)
            if hasattr(fn, "cache_info"):
                self.caches.append(fn)
            else:
                self.missing.append(dotted + ".cache_info")
        for name, dotted, size_metric, size in SPANS:
            self._wrap(dotted, functools.partial(self._span, name, size_metric, size))
        for name, dotted, yield_metric in CALL_COUNTS:
            self._wrap(dotted, functools.partial(self._count, name, yield_metric))
        for name, dotted in YIELD_COUNTS:
            self._wrap(dotted, functools.partial(self._yields, name))

    def _wrap(self, dotted: str, make) -> None:
        orig = resolve(dotted)
        if orig is None:
            self.missing.append(dotted)
            return
        rebind(orig, functools.update_wrapper(make(orig), orig))

    def _span(self, name, size_metric, size, orig):
        cache_info = getattr(orig, "cache_info", None)

        def wrapper(*args, **kwargs):
            stack = self.stack
            record = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(self.spans))
            self.spans.append(record)
            misses = cache_info().misses if cache_info else 0
            record[2] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if size_metric and (cache_info is None or cache_info().misses > misses):
                self.counts[size_metric] += size(result)
            return result

        return wrapper

    def _count(self, name, yield_metric, orig):
        def wrapper(*args, **kwargs):
            result = orig(*args, **kwargs)
            self.counts[name] += 1
            if yield_metric and result:
                self.counts[name + ":true"] += 1
            return result

        return wrapper

    def _yields(self, name, orig):
        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in orig(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                self.counts[name] += n

        return wrapper

    def snapshot(self) -> dict:
        """Everything recorded, as JSON-ready data."""
        return {
            "missing": self.missing,
            "spans": self.spans,
            "counts": dict(self.counts),
            "cache": [
                sum(fn.cache_info().hits for fn in self.caches),
                sum(fn.cache_info().misses for fn in self.caches),
            ],
        }


# ---------------------------------------------------------------------------
# derived metrics


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def nesting_errors(spans) -> list[str]:
    """Spans outside their parent's interval, or with negative self time."""
    errors = []
    for i, (name, parent, start, end) in enumerate(spans):
        if end < start:
            errors.append(f"span {i} ({name}) ends before it starts")
        if parent >= 0:
            pname, _, pstart, pend = spans[parent]
            if start < pstart or end > pend:
                errors.append(f"span {i} ({name}) lies outside its parent {pname}")
    for i, own in enumerate(self_times(spans)):
        if own < 0:
            errors.append(f"span {i} ({spans[i][0]}) has negative self time {own}")
    return errors


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced sweep, from its snapshot; those of
    missing boundaries are left out."""
    missing = set(trace["missing"])
    counts = Counter(trace["counts"])
    self_s: Counter = Counter()
    calls: Counter = Counter()
    root_s = 0.0
    for (name, parent, start, end), own in zip(trace["spans"], self_times(trace["spans"])):
        self_s[name] += own
        calls[name] += 1
        if parent < 0:
            root_s += end - start
    hits, misses = trace["cache"]

    present = {name for name, *_ in SPANS}
    present -= {name for name, dotted, *_ in SPANS if dotted in missing}
    metrics: dict[str, float] = {f"{name}_s": self_s[name] for name in present}
    for name, dotted, size_metric, _ in SPANS:
        if size_metric and dotted not in missing:
            metrics[size_metric] = counts[size_metric]
    for metric, name in SPAN_CALLS:
        if name in present:
            metrics[metric] = calls[name]
    for metric, dotted, yield_metric in CALL_COUNTS:
        if dotted not in missing:
            metrics[metric] = counts[metric]
            if yield_metric:
                metrics[yield_metric] = counts[metric + ":true"] / max(counts[metric], 1)
    for metric, dotted in YIELD_COUNTS:
        if dotted not in missing:
            metrics[metric] = counts[metric]
    if not any(m.endswith(".cache_info") for m in missing) and hits + misses:
        metrics["verify.beta_cache_hit_ratio"] = hits / (hits + misses)
    for metric, layers in (
        ("share.counting", COUNTING_LAYERS),
        ("share.groebner_patch", GROEBNER_PATCH_LAYERS),
    ):
        if root_s > 0 and present.issuperset(layers):
            metrics[metric] = sum(self_s[name] for name in layers) / root_s
    return metrics
