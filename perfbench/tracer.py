"""Spans and counters recorded around shiu's public functions, from outside.

install() replaces each traced function, in every shiu module that holds a
reference to it, with a wrapper that records a span (name, start, end, busy
time, parent) and bumps counters at the same boundary; uninstall() puts the
originals back. Nothing in src/ is edited. Spans stay in memory until the
run ends. A generator's span runs from its first pull to its last, and its
busy time is the time spent inside it; for a plain call busy time is its
duration. Self time is busy time minus the busy time of the spans (and
aggregated leaf calls) beneath it.

Functions called tens of thousands of times per round get no span of their
own: classify_prime is timed in aggregate, its time charged as child time
to the span that called it, and APIndex.nth and residue_coverage are only
counted, their time staying in the caller's self time.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import wraps
from itertools import islice
from math import gcd
from time import perf_counter

U64 = 1 << 64

EXTEND = "sieve.APIndex.extend_to"


class Tracer:
    def __init__(self):
        # [name, start, end, busy, parent index or -1, child busy]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.coeff: int | None = None  # coefficient of the certificate being scanned
        self._indexes: dict[int, list] = {}  # id -> [index, max consulted, height]
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> list:
        stack = self.stack
        span = [name, 0.0, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _charge_parent(self, dt: float) -> None:
        if self.stack:
            self.spans[self.stack[-1]][5] += dt

    def op(self, kind: str, call):
        """Run one benchmark operation as a root span."""
        span = self._open("op." + kind)
        t0 = perf_counter()
        try:
            return call()
        finally:
            t1 = perf_counter()
            self.stack.pop()
            span[1], span[2], span[3] = t0, t1, t1 - t0
            self._fold_indexes()

    def _call(self, name, fn, before=None, after=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = self._open(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                span[1], span[2], span[3] = t0, t1, t1 - t0
                self._charge_parent(t1 - t0)
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def _gen(self, name, fn, items_key, on_end=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            return self._iterate(name, fn(*args, **kwargs), args, items_key, on_end)
        return traced

    def _iterate(self, name, gen, args, items_key, on_end):
        """Pull the stream in chunks of 1, 2, 4, ... 4096 items, timing each
        pull, so the per-item cost of tracing stays small and a consumer
        that stops early makes the stream run at most one chunk ahead."""
        span = None
        index = -1
        items = 0
        last = None
        size = 1
        exhausted = False
        try:
            while not exhausted:
                if span is None:
                    span = self._open(name)
                    index = self.stack[-1]
                    span[1] = perf_counter()
                else:
                    self.stack.append(index)
                t0 = perf_counter()
                try:
                    chunk = list(islice(gen, size))
                finally:
                    t1 = perf_counter()
                    self.stack.pop()
                    span[2] = t1
                    span[3] += t1 - t0
                    self._charge_parent(t1 - t0)
                exhausted = len(chunk) < size
                size = min(2 * size, 4096)
                if chunk:
                    items += len(chunk)
                    last = chunk[-1]
                    yield from chunk
        finally:
            gen.close()
            self.counts[items_key] += items
            if on_end is not None and span is not None:
                on_end(args, span, last, exhausted)

    def _leaf(self, name, fn, after):
        """Aggregate a hot function that calls nothing traced: one call count
        and one time total, charged to the calling span."""
        @wraps(fn)
        def traced(*args):
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            self.counts[name + ".time"] += dt
            self.counts[name + ".calls"] += 1
            self._charge_parent(dt)
            after(args, result)
            return result
        return traced

    def _tally(self, name, fn, after=None):
        """Count calls of a hot function without timing it; its time stays
        in the calling span's self time."""
        @wraps(fn)
        def traced(*args):
            result = fn(*args)
            self.counts[name + ".calls"] += 1
            if after is not None:
                after(args, result)
            return result
        return traced

    # -- counters at the boundaries ------------------------------------------

    def _index_state(self, idx) -> list:
        state = self._indexes.get(id(idx))
        if state is None:
            state = self._indexes[id(idx)] = [idx, 0, 0]
        return state

    def _fold_indexes(self) -> None:
        for _, consulted, height in self._indexes.values():
            self.counts["apindex.consulted"] += consulted
            self.counts["apindex.height"] += height
        self._indexes.clear()

    def _on_iter_primes(self, args, span, last, exhausted) -> None:
        """Integers the stream covered: its whole range if drained, else up
        to the last prime it produced."""
        lo, hi = max(args[0], 2), args[1]
        if exhausted:
            n = max(0, hi - lo)
        else:
            n = 0 if last is None else last - lo + 1
        self.counts["sieve.integers_sieved"] += n
        parent = span[4]
        if parent >= 0 and self.spans[parent][0] == EXTEND:
            self.counts["sieve.apindex_integers_sieved"] += n

    def _on_extend(self, args, kwargs) -> None:
        state = self._index_state(args[0])
        state[2] = max(state[2], args[1])

    def _on_nth(self, args, result) -> None:
        state = self._index_state(args[0])
        state[1] = max(state[1], result)

    def _on_classify(self, args, result) -> None:
        n = args[0]
        c = self.counts
        if n >= U64:
            c["primality.wide_calls"] += 1
        if not result[1]:
            c["primality.unproven_verdicts"] += 1
        if self.coeff is not None and gcd(n, self.coeff) > 1:
            c["primality.coefficient_blocked_calls"] += 1

    def _on_scan_start(self, args, kwargs) -> None:
        c, n_lo, n_hi = args[0], args[1], args[2]
        self.coeff = c.coefficient()
        self.counts["construction.windows"] += n_hi - n_lo + 1

    def _on_scan_end(self, args, kwargs, result) -> None:
        self.coeff = None

    def _count_len(self, key):
        def after(args, kwargs, result):
            self.counts[key] += len(result)
        return after

    # -- installing -------------------------------------------------------------

    def _replace(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "shiu" and not modname.startswith("shiu."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _replace_method(self, cls, attr, replacement) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        from shiu import bounds, construction, primality, search, sieve, tuples

        self._replace(sieve.iter_primes, self._gen(
            "sieve.iter_primes", sieve.iter_primes, "sieve.primes_yielded",
            on_end=self._on_iter_primes))
        self._replace(sieve.primes_up_to, self._call("sieve.primes_up_to", sieve.primes_up_to))
        api = sieve.APIndex
        self._replace_method(api, "extend_to", self._call(EXTEND, api.extend_to, before=self._on_extend))
        self._replace_method(api, "nth", self._tally("sieve.APIndex.nth", api.nth, self._on_nth))
        self._replace(primality.classify_prime, self._leaf(
            "primality.classify_prime", primality.classify_prime, self._on_classify))
        self._replace(tuples.is_admissible, self._call("tuples.is_admissible", tuples.is_admissible))
        self._replace(tuples.residue_coverage, self._tally(
            "tuples.residue_coverage", tuples.residue_coverage))
        for fname in ("choose_t", "build", "verify_admissible", "reverify", "construction_to_json"):
            fn = getattr(construction, fname)
            self._replace(fn, self._call("construction." + fname, fn))
        self._replace(construction.verify_isolation, self._call(
            "construction.verify_isolation", construction.verify_isolation,
            after=self._count_len("construction.blocking_pairs")))
        self._replace(construction.scan_windows, self._call(
            "construction.scan_windows", construction.scan_windows,
            before=self._on_scan_start, after=self._on_scan_end))
        self._replace(bounds.bound_table, self._call(
            "bounds.bound_table", bounds.bound_table,
            after=self._count_len("bounds.cells")))
        self._replace(search.all_strings, self._gen(
            "search.all_strings", search.all_strings, "search.strings_found"))
        for fname in ("first_string", "diameter_stats"):
            fn = getattr(search, fname)
            self._replace(fn, self._call("search." + fname, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# Per-layer metrics: name, unit. Each is a total over one round of the
# workload's operations, and a run reports its median over traced rounds.
# Times are busy (inclusive) time, except where SELF_TIMED says self time.
LAYER_METRICS = (
    ("sieve.iter_primes_s", "s"),
    ("sieve.integers_sieved", "count"),
    ("sieve.primes_yielded", "count"),
    ("sieve.apindex_extend_s", "s"),
    ("sieve.apindex_integers_sieved", "count"),
    ("sieve.apindex_useful_ratio", "ratio"),
    ("sieve.primes_up_to_calls", "count"),
    ("sieve.primes_up_to_s", "s"),
    ("primality.classify_calls", "count"),
    ("primality.classify_s", "s"),
    ("primality.wide_calls", "count"),
    ("primality.unproven_verdicts", "count"),
    ("primality.coefficient_blocked_calls", "count"),
    ("primality.useful_ratio", "ratio"),
    ("tuples.is_admissible_s", "s"),
    ("tuples.is_admissible_calls", "count"),
    ("tuples.residue_coverage_calls", "count"),
    ("construction.choose_t_s", "s"),
    ("construction.build_s", "s"),
    ("construction.verify_admissible_s", "s"),
    ("construction.verify_isolation_s", "s"),
    ("construction.blocking_pairs", "count"),
    ("construction.reverify_s", "s"),
    ("construction.json_s", "s"),
    ("construction.scan_windows_s", "s"),
    ("construction.windows", "count"),
    ("bounds.bound_table_s", "s"),
    ("bounds.cells", "count"),
    ("search.all_strings_s", "s"),
    ("search.first_string_s", "s"),
    ("search.diameter_stats_s", "s"),
    ("search.strings_found", "count"),
    ("cli.import_s", "s"),
    ("cli.construct_s", "s"),
    ("cli.verify_s", "s"),
    ("cli.scan_s", "s"),
    ("cli.bounds_s", "s"),
    ("cli.search_s", "s"),
    ("cli.seed_doc_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
)

# metric -> span name whose time it reports
SPAN_TIMES = {
    "sieve.iter_primes_s": "sieve.iter_primes",
    "sieve.apindex_extend_s": EXTEND,
    "sieve.primes_up_to_s": "sieve.primes_up_to",
    "tuples.is_admissible_s": "tuples.is_admissible",
    "construction.choose_t_s": "construction.choose_t",
    "construction.build_s": "construction.build",
    "construction.verify_admissible_s": "construction.verify_admissible",
    "construction.verify_isolation_s": "construction.verify_isolation",
    "construction.reverify_s": "construction.reverify",
    "construction.json_s": "construction.construction_to_json",
    "construction.scan_windows_s": "construction.scan_windows",
    "bounds.bound_table_s": "bounds.bound_table",
    "search.all_strings_s": "search.all_strings",
    "search.first_string_s": "search.first_string",
    "search.diameter_stats_s": "search.diameter_stats",
}
# The stream these pull runs inside them, so only self time says what they cost.
SELF_TIMED = {"search.all_strings_s", "search.diameter_stats_s"}

SPAN_CALLS = {
    "sieve.primes_up_to_calls": "sieve.primes_up_to",
    "tuples.is_admissible_calls": "tuples.is_admissible",
}
COUNTS = {
    "sieve.integers_sieved": "sieve.integers_sieved",
    "sieve.primes_yielded": "sieve.primes_yielded",
    "sieve.apindex_integers_sieved": "sieve.apindex_integers_sieved",
    "primality.classify_calls": "primality.classify_prime.calls",
    "primality.classify_s": "primality.classify_prime.time",
    "primality.wide_calls": "primality.wide_calls",
    "primality.unproven_verdicts": "primality.unproven_verdicts",
    "primality.coefficient_blocked_calls": "primality.coefficient_blocked_calls",
    "tuples.residue_coverage_calls": "tuples.residue_coverage.calls",
    "construction.blocking_pairs": "construction.blocking_pairs",
    "construction.windows": "construction.windows",
    "bounds.cells": "bounds.cells",
    "search.strings_found": "search.strings_found",
}


def round_metrics(spans: list[list], counts: Counter) -> dict:
    """The in-process layer metrics of one round, from its spans and counts."""
    busy: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    for name, _, _, b, _, child in spans:
        busy[name] += b
        own[name] += b - child
        calls[name] += 1
    out = {}
    for metric, span in SPAN_TIMES.items():
        out[metric] = (own if metric in SELF_TIMED else busy)[span]
    for metric, span in SPAN_CALLS.items():
        out[metric] = calls[span]
    for metric, key in COUNTS.items():
        out[metric] = counts[key]
    height = counts["apindex.height"]
    out["sieve.apindex_useful_ratio"] = counts["apindex.consulted"] / height if height else 0.0
    n = counts["primality.classify_prime.calls"]
    blocked = counts["primality.coefficient_blocked_calls"]
    out["primality.useful_ratio"] = (n - blocked) / n if n else 0.0
    out["trace.spans"] = len(spans)
    return out
