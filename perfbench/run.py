"""Benchmark for shiu: four workloads, checked outputs, end-to-end and per-layer metrics.

Usage, from the root of the repository:

  python3 perfbench/run.py --workload census|grid|scan|cli --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --self-check

One run sets its workload up, then repeats whole rounds of the workload's
operations, one at a time in this single process (cli: one child process at
a time), until S seconds have passed and at least two rounds are done. It
checks every output, prints each metric by name and unit, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the runs alternate untraced
and traced rounds, the metrics are per-layer medians over the traced rounds,
and every span is written to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

MIN_ROUNDS = 2
SETUP_PROBES = 4

# No worker threads anywhere: numpy's BLAS would otherwise start a thread pool
# in every process, which shiu never uses and whose start-up made the time of
# one `python -m shiu` jump by up to half on a 2-vCPU machine. Children
# (set-up probes, cli invocations) inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MiB"))


class Raised(str):
    """The output of an operation that raised instead of returning."""


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("census", "grid", "scan", "cli", "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the self-check")
    p.add_argument("--self-check", action="store_true",
                   help="test the oracles on known values and run every workload at toy size")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.self_check and args.workload is None:
        p.error("--workload is required")
    return args


def _child_argv(workload, args, *extra):
    argv = [sys.executable, str(Path(__file__)), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    return argv + (["--toy"] if args.toy else []) + list(extra)


def _setup_probe(args) -> float:
    """Set the workload up once more in a fresh interpreter; its setup time."""
    res = subprocess.run(_child_argv(args.workload, args, "--setup-probe"),
                         capture_output=True, text=True, cwd=ROOT, check=True)
    return json.loads(res.stdout.splitlines()[-1])["setup_s"]


def _quantile(values, fraction):
    s = sorted(values)
    return s[min(len(s) - 1, int(fraction * len(s)))]


def run_workload(args) -> int:
    from workloads import WORKLOADS
    from tracer import LAYER_METRICS, Tracer, round_metrics

    t0 = perf_counter()
    wl = WORKLOADS[args.workload](ROOT, args.seed, args.toy)
    try:
        wl.setup()
        setups = [perf_counter() - t0]
        if args.setup_probe:
            print(json.dumps({"setup_s": setups[0]}))
            return 0
        if not args.trace:
            setups += [_setup_probe(args) for _ in range(SETUP_PROBES)]
        ops = wl.ops()
        tracer = Tracer() if args.trace else None

        first: list = []
        differed = [0] * len(ops)  # rounds whose output differed from the first
        walls = {False: [], True: []}
        latencies: list[float] = []
        kind_rounds: list[dict] = []
        layer_rounds: list[dict] = []
        round_spans: list[tuple[int, int]] = []
        start = perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS or perf_counter() - start < args.seconds:
            traced = tracer is not None and rounds % 2 == 1
            if traced:
                tracer.counts = Counter()
                span_lo = len(tracer.spans)
                tracer.install()
            wl.set_traced(traced)
            kind_seconds: dict = defaultdict(float)
            outputs = []
            for i, op in enumerate(ops):
                call = (lambda: tracer.op(op.kind, op.call)) if traced else op.call
                t = perf_counter()
                try:
                    raw = call()
                except Exception as exc:  # an operation's failure is a result
                    raw = Raised(f"{type(exc).__name__}: {exc}")
                    print(f"{op.label}: {raw}", file=sys.stderr)
                dt = perf_counter() - t
                latencies.append(dt)
                kind_seconds[op.kind] += dt
                out = op.compact(raw) if op.compact and not isinstance(raw, Raised) else raw
                outputs.append(out)
                if rounds == 0:
                    first.append(out)
                elif out != first[i]:
                    differed[i] += 1
            if traced:
                tracer.uninstall()
                layer = round_metrics(tracer.spans[span_lo:], tracer.counts)
                layer.update(wl.layer_extra(outputs, kind_seconds))
                layer_rounds.append(layer)
                round_spans.append((span_lo, len(tracer.spans)))
            walls[traced].append(sum(kind_seconds.values()))
            kind_rounds.append(kind_seconds)
            rounds += 1
        wl.set_traced(False)
        peak_rss_mb = wl.peak_rss_mb()

        ok = []
        for op, out in zip(ops, first):
            try:
                ok.append(not isinstance(out, Raised) and bool(op.check(out)))
            except Exception:
                traceback.print_exc()
                ok.append(False)
        failed = sum(differed[i] if ok[i] else rounds for i in range(len(ops)))
        correct = not any(differed) and all(ok[i] or op.known_fault for i, op in enumerate(ops))
        for i, op in enumerate(ops):
            if not ok[i] or differed[i]:
                tag = "known fault" if op.known_fault and not differed[i] else "WRONG"
                print(f"failed ({tag}): {op.label}", file=sys.stderr)

        if args.trace:
            metrics = {}
            for name, unit in LAYER_METRICS:
                if name == "trace.overhead":
                    value = median(walls[True]) / median(walls[False]) - 1
                else:
                    value = median(r[name] for r in layer_rounds)
                metrics[name] = {"value": value, "unit": unit}
            _write_trace(args, tracer, round_spans, metrics)
            extras = {}
        else:
            values = {"setup_s": median(setups), "wall_s": median(walls[False]),
                      "op_p50_ms": median(latencies) * 1000, "peak_rss_mb": peak_rss_mb}
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            extras = wl.rates(first, {k: median(r[k] for r in kind_rounds) for k in kind_rounds[0]})
            if len(latencies) >= 100:
                extras["op_p90_ms"] = (_quantile(latencies, 0.9) * 1000, "ms")
    finally:
        wl.close()

    print(f"{args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
          f"ops/round={len(ops)} attempted={rounds * len(ops)} failed={failed} "
          f"correct={str(correct).lower()}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in extras.items():
        print(f"  {name:40s} {value:.6g} {unit}   (not in BENCHMARK.json)")
    print(json.dumps({"correct": correct, "attempted": rounds * len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


def _write_trace(args, tracer, round_spans, metrics) -> None:
    names: dict[str, int] = {}
    spans = [[names.setdefault(name, len(names)), round(start * 1e6), round(end * 1e6),
              round(busy * 1e6), parent, round(child * 1e6)]
             for name, start, end, busy, parent, child in tracer.spans]
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "span_fields": ["name", "start_us", "end_us", "busy_us", "parent",
                                   "child_busy_us"],
                   "names": list(names), "rounds": round_spans, "spans": spans,
                   "metrics": metrics}, fh, separators=(",", ":"))
    print(f"trace: {len(spans)} spans written to {path.relative_to(ROOT)}", file=sys.stderr)


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    from workloads import WORKLOADS

    status = 0
    summary = []
    for name in WORKLOADS:
        res = subprocess.run(_child_argv(name, args), capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write("\n".join(res.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(res.stderr)
        result = _last_json(res.stdout) if res.returncode == 0 else None
        if result is None or not result["correct"]:
            status = 1
        summary.append((name, result))
    print("workload  attempted  failed  correct")
    for name, result in summary:
        if result is None:
            print(f"{name:9s} run failed")
        else:
            print(f"{name:9s} {result['attempted']:9d} {result['failed']:7d}  "
                  f"{str(result['correct']).lower()}")
    return status


def self_check(args) -> int:
    """The oracles on known values, then every workload at toy size, traced
    and untraced. A broken oracle or harness shows here, not in a benchmark."""
    from random import Random

    import oracles as O
    from sympy import isprime
    from workloads import WORKLOADS

    primes = O.primes_below(10**7)
    small = O.primes_below(10**5)
    first_starts = {m: O.census_expectation(small, 3, 1, m, False)["first"][1][0]
                    for m in (2, 3, 4, 7)}
    c = O.certificate(3, 1, 5)
    carmichaels = [O.chernick_carmichael(Random(s), 10**5, 10**6) for s in range(3)]
    checks = {
        "pi(10^7) = 664579": len(primes) == 664579,
        "trial division agrees with the sieve below 10^4":
            [n for n in range(10**4) if O.is_prime_td(n)] == O.primes_below(10**4),
        "Miller-Rabin agrees with the sieve below 10^5":
            [n for n in range(10**5) if O.is_prime_mr(n)] == small,
        "first (3,1,m) strings start at 31, 151, 1741, 19471":
            first_starts == {2: 31, 3: 151, 4: 1741, 7: 19471},
        "first (10,1,7) string starts at 3873011":
            O.census_expectation(primes, 10, 1, 7, False)["first"][1][0] == 3873011,
        "psi12 = 399165290221 * 798330580441, both prime":
            O.PSI12 == O.PSI12_FACTORS[0] * O.PSI12_FACTORS[1]
            and all(O.is_prime_mr(f) for f in O.PSI12_FACTORS),
        "psi13 = 1287836182261 * 2575672364521, both prime":
            O.PSI13 == O.PSI13_FACTORS[0] * O.PSI13_FACTORS[1]
            and all(O.is_prime_mr(f) for f in O.PSI13_FACTORS),
        "sympy: psi12 and psi13 composite, 2^89-1 and 2^127-1 prime":
            not isprime(O.PSI12) and not isprime(O.PSI13)
            and isprime(2**89 - 1) and isprime(2**127 - 1),
        "Chernick numbers are Carmichael numbers":
            all(pow(b, n - 1, n) == 1 for n in carmichaels for b in (2, 3, 5, 7)),
        "(3,1,5): t=0, offsets 7 13 19 31 37, B=30, admissible, isolated":
            (c["t"], c["offsets"], c["B"]) == (0, [7, 13, 19, 31, 37], 30)
            and O.admissible(O.coefficient(c), c["offsets"], 5) and O.isolated(c),
        "x+1, x+2, x+3 cover every class mod 2; x+1, x+3 do not":
            not O.admissible(1, [1, 2, 3], 3) and O.admissible(1, [1, 3], 2),
        "runs of 1 mod 3 among 7..43": O.congruent_runs([7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43],
                                                       3, 1) == [(0, 1), (2, 1), (4, 1), (7, 2), (10, 1)],
    }
    status = 0
    for label, passed in checks.items():
        print(f"{'ok  ' if passed else 'FAIL'} oracle: {label}")
        status |= not passed
    for name in WORKLOADS:
        wl = WORKLOADS[name](ROOT, 1, True)
        wl.setup()
        ops = wl.ops()
        wl.close()
        share = sum(op.known_fault for op in ops) / len(ops)
        for trace in (0, 1):
            toy = argparse.Namespace(seed=1, seconds=0, trace=trace, toy=True)
            res = subprocess.run(_child_argv(name, toy), capture_output=True, text=True, cwd=ROOT)
            result = _last_json(res.stdout) if res.returncode == 0 else None
            passed = (result is not None and result["correct"]
                      and result["failed"] == share * result["attempted"])
            print(f"{'ok  ' if passed else 'FAIL'} toy {name} trace={trace}: "
                  + (json.dumps({k: result[k] for k in ("correct", "attempted", "failed")})
                     if result else res.stderr.strip()[-500:]))
            status |= not passed
    return status


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "shiu" / "__init__.py").is_file():
        print(f"error: no shiu package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
