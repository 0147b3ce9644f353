"""The four workloads: inputs from a seed, one round of operations, checks.

A workload's round is a fixed list of operations. The runner times each
call, keeps the first round's outputs and requires every later round to
repeat them exactly, then checks the first round's outputs against the
oracles once the timed rounds are over, so that the oracles' memory and
imports never count in a measurement. The seed only chooses among inputs of
equal size (a residue class, a window range, a sample of cells), so runs
with different seeds do the same amount of work.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import resource
import shutil
import subprocess
import sys
from functools import partial
from math import isclose, prod
from pathlib import Path
from random import Random
from time import perf_counter
from typing import Callable, NamedTuple

import oracles as O


CLI_KINDS = ("construct", "verify", "scan", "bounds", "search", "seed_doc")


class Op(NamedTuple):
    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    compact: Callable[[object], object] | None = None
    known_fault: bool = False


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, toy: bool):
        self.root = root
        self.rng = Random(seed)
        self.toy = toy
        self.import_s = 0.0

    def _import_shiu(self):
        t0 = perf_counter()
        import shiu
        self.import_s = perf_counter() - t0
        return shiu

    def setup(self) -> None:
        """Import the package and make the inputs; this is what setup_s times."""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def rates(self, outputs: list, kind_seconds: dict) -> dict:
        """Throughputs in this workload's own unit of work, from one round."""
        return {}

    def set_traced(self, on: bool) -> None:
        """Switch measurement inside child processes (cli only)."""

    def layer_extra(self, outputs: list, kind_seconds: dict) -> dict:
        """Per-layer metrics the tracer cannot see. An in-process workload
        runs no shiu child, and its one import is the one it timed in setup."""
        extra = {f"cli.{kind}_s": 0.0 for kind in CLI_KINDS}
        extra["cli.stdout_bytes"] = 0
        extra["cli.import_s"] = self.import_s
        return extra

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        pass


# -- census --------------------------------------------------------------------


def _tap(stream, seen: list):
    """Pass a stream of strings through, keeping the first and a digest of all."""
    h = 0
    first = None
    for s in stream:
        if first is None:
            first = (s.start_index, s.primes)
        h = O.chain_digest(h, s.start_index, s.primes)
        yield s
    seen += [first, h]


class Census(Workload):
    """Bulk streaming: whole searches up to a cap, summarized on the fly."""

    name = "census"

    def setup(self):
        shiu = self._import_shiu()
        self.search = shiu.search
        self.cap = 10**5 if self.toy else 10**7
        # a run-heavy class (many strings) and a sparse one (few strings)
        self.classes = [(3, self.rng.choice((1, 2)), 2),
                        (5, self.rng.choice((1, 2, 3, 4)), 3)]
        self.deep = (3, 1, 4) if self.toy else (10, 1, 7)
        self._primes = None
        self._expected = {}

    def ops(self):
        out = []
        for q, a, m in self.classes:
            for maximal in (False, True):
                out.append(Op("search", f"all_strings({q},{a},{m},maximal_only={maximal})",
                              partial(self._summary, q, a, m, maximal),
                              partial(self._check_summary, q, a, m, maximal)))
        q, a, m = self.deep
        out.append(Op("search", f"first_string({q},{a},{m})",
                      partial(self._first, q, a, m), partial(self._check_first, q, a, m),
                      compact=lambda s: (s.start_index, s.primes)))
        return out

    def _summary(self, q, a, m, maximal):
        seen: list = []
        stream = self.search.all_strings(q, a, m, cap=self.cap, maximal_only=maximal)
        st = self.search.diameter_stats(_tap(stream, seen))
        return {"count": st.count, "min": st.min_diameter, "median": st.median_diameter,
                "max": st.max_diameter, "mean": st.mean_diameter, "buckets": st.buckets,
                "first": seen[0], "digest": seen[1]}

    def _first(self, q, a, m):
        return self.search.first_string(q, a, m)

    def _oracle_primes(self):
        if self._primes is None:
            self._primes = O.primes_below(self.cap)
        return self._primes

    def _check_summary(self, q, a, m, maximal, out):
        key = (q, a, m, maximal)
        if key not in self._expected:
            self._expected[key] = O.census_expectation(self._oracle_primes(), q, a, m, maximal)
        return out == self._expected[key]

    def _check_first(self, q, a, m, out):
        primes = self._oracle_primes()
        for start, length in O.congruent_runs(primes, q, a):
            if length >= m:
                return out == (start, tuple(primes[start:start + m]))
        return False

    def rates(self, outputs, kind_seconds):
        covered = 4 * (self.cap - 2) + outputs[-1][1][-1]
        return {"integers_per_s": (covered / kind_seconds["search"], "1/s")}


# -- grid --------------------------------------------------------------------------

TAMPERINGS = ("drop_g_factor", "shift_offset", "wrong_t")


def tamper(cert: dict, how: str, rng: Random) -> dict:
    bad = json.loads(json.dumps(cert))
    if how == "drop_g_factor":
        del bad["g_factors"][rng.randrange(len(bad["g_factors"]))]
    elif how == "shift_offset":
        bad["offsets"][rng.randrange(len(bad["offsets"]))] += bad["q"]
    else:
        bad["t"] += 1
    return bad


class Grid(Workload):
    """Many small fresh progression indexes: a B(q, a, k) sweep plus
    certificate round trips on one cell per (q, k)."""

    name = "grid"

    def setup(self):
        shiu = self._import_shiu()
        self.bounds, self.C, self.errors = shiu.bounds, shiu.construction, shiu.errors
        self.qs = range(3, 9) if self.toy else range(3, 31)
        self.ks = range(2, 7) if self.toy else range(2, 13)
        self.cells = [(q, self.rng.choice(O.coprime_residues(q)), k)
                      for q in self.qs for k in self.ks]
        picks = self.rng.sample(self.cells, len(TAMPERINGS))
        self.tampered = [(how, tamper(O.certificate(*cell), how, self.rng))
                         for how, cell in zip(TAMPERINGS, picks)]

    def ops(self):
        out = [Op("sweep", f"bound_table(q {self.qs.start}..{self.qs.stop - 1}, "
                           f"k {self.ks.start}..{self.ks.stop - 1})",
                  self._sweep, self._check_sweep,
                  compact=lambda rows: tuple((r.q, r.a, r.k, r.t, r.B, r.window_cap,
                                              r.t_in_window, r.error) for r in rows))]
        for q, a, k in self.cells:
            out.append(Op("certificate", f"round trip ({q},{a},{k})",
                          partial(self._round_trip, q, a, k),
                          partial(self._check_round_trip, q, a, k),
                          compact=self._compact_round_trip))
        for how, bad in self.tampered:
            out.append(Op("tamper", f"reverify rejects {how}",
                          partial(self._reverify_rejects, bad), lambda out: out == "rejected"))
        return out

    def _sweep(self):
        return self.bounds.bound_table(self.qs, self.ks)

    def _check_sweep(self, rows):
        return rows == tuple(row + (None,) for row in O.bound_rows(self.qs, self.ks))

    def _round_trip(self, q, a, k):
        C = self.C
        c = C.build(C.ConstructionParams(q=q, a=a, k=k))
        text = C.construction_to_json(c)
        rebuilt = C.reverify(json.loads(text))
        return text, rebuilt, C.verify_admissible(rebuilt), C.verify_isolation(rebuilt)

    @staticmethod
    def _compact_round_trip(raw):
        text, c, report, blocking = raw
        gset = set(c.g_factors)
        blocking_ok = all(h % p == 0 and p in gset for h, p in blocking)
        return (text,
                {"q": c.params.q, "a": c.params.a, "k": c.params.k, "t": c.t,
                 "offsets": list(c.offsets), "g_factors": list(c.g_factors), "B": c.B},
                (report.admissible, report.witness, report.checked_primes),
                ([h for h, _ in blocking], blocking_ok))

    def _check_round_trip(self, q, a, k, out):
        text, rebuilt, report, (blocked, blocking_ok) = out
        want = O.certificate(q, a, k)
        return (json.loads(text) == want and rebuilt == want
                and report == (True, None, tuple(O.primes_below(k + 1)))
                and O.admissible(O.coefficient(want), want["offsets"], k)
                and blocked == O.interior(want) and blocking_ok and O.isolated(want))

    def _reverify_rejects(self, data):
        try:
            self.C.reverify(data)
        except self.errors.DomainError:
            return "rejected"
        return "accepted"

    def rates(self, outputs, kind_seconds):
        return {"cells_per_s": (len(outputs[0]) / kind_seconds["sweep"], "1/s"),
                "certs_per_s": (len(self.cells) / kind_seconds["certificate"], "1/s")}


# -- scan ---------------------------------------------------------------------------

# (q, a, k), bit length of every window value, windows per call, calls per
# round. A call covers several windows because one small window costs many
# times more when an offset value is prime, which would make the median
# call cost flip with the seed.
SCAN_PLAN = (((3, 1, 5), 60, 10, 100),   # below 2^64: deterministic path
             ((5, 2, 6), 140, 5, 30),
             ((10, 1, 8), 205, 2, 30),
             ((13, 1, 8), 690, 1, 3))
TOY_CALLS = (2, 1, 1, 1)

MERSENNE_PRIMES = tuple((1 << e) - 1 for e in (89, 107, 127))


def report_fields(r) -> dict:
    return {"n": r.n, "prime_offsets": list(r.prime_offsets),
            "window_prime_count": r.window_prime_count, "degenerate": r.degenerate,
            "congruence_ok": r.congruence_ok, "isolation_ok": r.isolation_ok,
            "primality_proven": r.primality_proven}


class Scan(Workload):
    """Window scans at three value sizes plus primality probes above 2^64."""

    name = "scan"

    def setup(self):
        shiu = self._import_shiu()
        self.C, self.P = shiu.construction, shiu.primality
        rng = self.rng
        self.calls = []  # (cert, Construction, n_lo, n_hi)
        for ((q, a, k), bits, width, calls), toy in zip(SCAN_PLAN, TOY_CALLS):
            cert = O.certificate(q, a, k)
            c = self.C.construction_from_dict(cert)
            coeff = O.coefficient(cert)
            count = width * (toy if self.toy else calls)
            # every value g*q*n + h of every window has exactly `bits` bits
            n0 = rng.randrange((1 << (bits - 1)) // coeff + 1, (1 << bits) // coeff - count)
            self.calls += [(cert, c, n, n + width - 1) for n in range(n0, n0 + count, width)]
        # The two Sorenson-Webster numbers are the same in every run: they are
        # composites the twelve-base battery calls prime, a known fault.
        self.probes = [(O.PSI12, True), (O.PSI13, True)]
        self.probes += [(v, False) for v in MERSENNE_PRIMES]
        self.probes += [(O.chernick_carmichael(rng, 3 * 10**5, 3 * 10**6), False)
                        for _ in range(6)]
        self.probes += [(O.random_prime(rng, 40) * O.random_prime(rng, 40), False)
                        for _ in range(6)]
        self._isprime = None

    def ops(self):
        out = [Op("window", f"scan ({c.params.q},{c.params.a},{c.params.k}) n={lo}..{hi}",
                  partial(self._scan, c, lo, hi), partial(self._check_windows, cert, lo, hi),
                  compact=lambda reports: tuple(report_fields(r) for r in reports))
               for cert, c, lo, hi in self.calls]
        out += [Op("probe", f"classify_prime({v})", partial(self._probe, v),
                   partial(self._check_probe, v), known_fault=fault)
                for v, fault in self.probes]
        return out

    def _scan(self, c, lo, hi):
        return self.C.scan_windows(c, lo, hi)

    def _probe(self, v):
        return self.P.classify_prime(v)

    def _oracle_isprime(self, n):
        if self._isprime is None:
            from sympy import isprime
            self._isprime = isprime
        return self._isprime(n)

    def _check_windows(self, cert, lo, hi, out):
        coeff = O.coefficient(cert)
        want = tuple(O.expected_window(cert, coeff, n, self._oracle_isprime)
                     for n in range(lo, hi + 1))
        return None not in want and out == want

    def _check_probe(self, v, out):
        return out == (self._oracle_isprime(v), v < O.U64)

    def rates(self, outputs, kind_seconds):
        values = sum((cert["B"] + 1) * (hi - lo + 1) for cert, _, lo, hi in self.calls)
        return {"values_per_s": (values / kind_seconds["window"], "1/s")}


# -- cli --------------------------------------------------------------------------------

_IMPORT_LINE = re.compile(rb"^import time:\s*\d+ \|\s*(\d+) \| (\S.*)$")
_SCAN_LINE = re.compile(r"^n=(\d+) primes=(\d+) offsets=\[([0-9,]*)\]((?: [a-zA-Z-]+)*)$")
_VERIFY_LINE = re.compile(r"^ok: .*\(q=(\d+) a=(\d+) k=(\d+) t=(\d+) B=(\d+)\)$")


class Cli(Workload):
    """Sequential `python -m shiu` invocations on small inputs, one per
    subcommand and output form."""

    name = "cli"

    def setup(self):
        rng = self.rng
        self.dir = self.root / "perfbench" / "out" / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.importtime = False
        self.peak_kb = 0
        self.import_times: list[float] = []
        self._oracle_primes = None
        self.cert = O.certificate(*rng.choice(((3, 1, 5), (3, 2, 5), (4, 1, 5), (4, 3, 5))))
        self.coeff = O.coefficient(self.cert)
        self.n_lo = rng.randrange(1, 10**6)
        self.search_a = rng.choice((1, 2))
        (self.dir / "cert.json").write_text(json.dumps(self.cert, indent=2) + "\n")
        # The tampered certificate is the same in every run: `scan` accepting
        # it is a known fault, so it must not depend on the seed.
        bad = O.certificate(3, 1, 5)
        del bad["g_factors"][0]
        (self.dir / "tampered.json").write_text(json.dumps(bad, indent=2) + "\n")
        # one untimed invocation, so the package's bytecode is cached before timing
        self._invoke(["--help"])
        self.peak_kb = 0

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def set_traced(self, on):
        self.importtime = on

    def _invoke(self, args):
        argv = [sys.executable] + (["-X", "importtime"] if self.importtime else [])
        argv += ["-m", "shiu"] + args
        out_path, err_path = self.dir / "stdout", self.dir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.root, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        stderr = []
        imported = 0
        for line in err_path.read_bytes().splitlines(keepends=True):
            if not line.startswith(b"import time:"):
                stderr.append(line)
                continue
            m = _IMPORT_LINE.match(line)  # top-level imports only
            if m and (m.group(2) == b"shiu" or m.group(2).startswith(b"shiu.")):
                imported += int(m.group(1))
        if self.importtime:
            self.import_times.append(imported / 1e6)
        return proc.returncode, out_path.read_bytes(), b"".join(stderr)

    def ops(self):
        cert, tampered = str(self.dir / "cert.json"), str(self.dir / "tampered.json")
        c = self.cert
        qak = ["--q", str(c["q"]), "--a", str(c["a"]), "--k", str(c["k"])]
        window = ["--n-lo", str(self.n_lo), "--n-hi", str(self.n_lo + 19)]
        grid = ["--q-min", "3", "--q-max", "8", "--k-min", "2", "--k-max", "6"]
        find = ["--q", "3", "--a", str(self.search_a), "--m", "3", "--cap", "100000"]
        plan = [
            ("construct", ["construct"] + qak, self._check_construct_json),
            ("construct", ["construct"] + qak + ["--with-g"], self._check_construct_with_g),
            ("construct", ["construct"] + qak + ["--format", "text"], self._check_construct_text),
            ("verify", ["verify", "--cert", cert], self._check_verify),
            ("scan", ["scan", "--cert", cert] + window, self._check_scan_json),
            ("scan", ["scan", "--cert", cert] + window + ["--format", "text"],
             self._check_scan_text),
            ("bounds", ["bounds"] + grid, self._check_bounds_csv),
            ("bounds", ["bounds"] + grid + ["--format", "json"], self._check_bounds_json),
            ("search", ["search"] + find, self._check_search_first),
            ("search", ["search"] + find + ["--all", "--format", "csv"],
             self._check_search_csv),
            ("search", ["search"] + find + ["--all"], self._check_search_jsonl),
            ("seed_doc", ["--seed-doc"], self._check_seed_doc),
            ("verify", ["verify", "--cert", tampered], self._check_rejected),
            ("scan", ["scan", "--cert", tampered, "--n-lo", "1", "--n-hi", "20"],
             self._check_rejected),
        ]
        return [Op(kind, "shiu " + " ".join(args).replace(str(self.dir) + "/", ""),
                   partial(self._invoke, args), check,
                   known_fault=args[0] == "scan" and tampered in args)
                for kind, args, check in plan]

    # Each check takes (exit status, stdout, stderr without import timings).

    @staticmethod
    def _ok(out):
        return out[0] == 0 and out[2] == b""

    def _check_construct_json(self, out):
        return self._ok(out) and json.loads(out[1]) == self.cert

    def _check_construct_with_g(self, out):
        want = dict(self.cert, g_decimal=str(prod(self.cert["g_factors"])))
        return self._ok(out) and json.loads(out[1]) == want

    def _check_construct_text(self, out):
        want = [f"{self.coeff}*x+{h}" for h in self.cert["offsets"]]
        return self._ok(out) and out[1].decode().splitlines() == want

    def _check_verify(self, out):
        lines = out[1].decode().splitlines()
        m = _VERIFY_LINE.match(lines[0]) if len(lines) == 1 else None
        c = self.cert
        return (self._ok(out) and m is not None
                and [int(x) for x in m.groups()] == [c["q"], c["a"], c["k"], c["t"], c["B"]])

    def _expected_windows(self):
        from sympy import isprime
        return [O.expected_window(self.cert, self.coeff, n, isprime)
                for n in range(self.n_lo, self.n_lo + 20)]

    def _check_scan_json(self, out):
        got = [json.loads(line) for line in out[1].decode().splitlines()]
        return self._ok(out) and got == self._expected_windows()

    def _check_scan_text(self, out):
        got = []
        for line in out[1].decode().splitlines():
            m = _SCAN_LINE.match(line)
            if m is None:
                return False
            offsets = [int(x) for x in m.group(3).split(",") if x]
            got.append((int(m.group(1)), int(m.group(2)), offsets, m.group(4).split()))
        want = [(w["n"], w["window_prime_count"], w["prime_offsets"],
                 [] if w["primality_proven"] else ["probable-prime"])
                for w in self._expected_windows()]
        return self._ok(out) and got == want

    @staticmethod
    def _expected_rows():
        keys = ("q", "a", "k", "t", "B", "window_cap", "t_in_window")
        return [dict(zip(keys, row)) for row in O.bound_rows(range(3, 9), range(2, 7))]

    def _check_bounds_csv(self, out):
        table = list(csv.DictReader(io.StringIO(out[1].decode())))
        flag = {"true": True, "false": False}
        got = [{key: flag[v] if key == "t_in_window" else int(v) for key, v in row.items()}
               for row in table]
        return self._ok(out) and got == self._expected_rows()

    def _check_bounds_json(self, out):
        want = [dict(row, error=None) for row in self._expected_rows()]
        return self._ok(out) and json.loads(out[1]) == want

    def _search_primes(self):
        if self._oracle_primes is None:
            self._oracle_primes = O.primes_below(100000)
        return self._oracle_primes

    def _strings(self):
        primes = self._search_primes()
        runs = O.congruent_runs(primes, 3, self.search_a)
        return [ps for _, ps in O.strings_from_runs(primes, runs, 3, maximal=False)]

    @staticmethod
    def _string_dict(a, ps):
        return {"q": 3, "a": a, "m": 3, "start_prime": ps[0], "primes": list(ps),
                "diameter": ps[-1] - ps[0]}

    def _check_search_first(self, out):
        want = self._string_dict(self.search_a, self._strings()[0])
        return self._ok(out) and json.loads(out[1]) == want

    def _check_search_jsonl(self, out):
        got = [json.loads(line) for line in out[1].decode().splitlines()]
        want = [self._string_dict(self.search_a, ps) for ps in self._strings()]
        return self._ok(out) and got == want

    def _check_search_csv(self, out):
        fields = dict(line.split(",", 1) for line in out[1].decode().splitlines()[1:])
        want = O.census_expectation(self._search_primes(), 3, self.search_a, 3, False)
        buckets = tuple((int(key[len("bucket_"):]), int(v)) for key, v in fields.items()
                        if key.startswith("bucket_") and key != "bucket_width")
        return (self._ok(out) and out[1].startswith(b"field,value\n")
                and int(fields["count"]) == want["count"]
                and int(fields["min_diameter"]) == want["min"]
                and int(fields["max_diameter"]) == want["max"]
                and isclose(float(fields["median_diameter"]), want["median"], rel_tol=1e-5)
                and isclose(float(fields["mean_diameter"]), want["mean"], rel_tol=1e-5)
                and int(fields["bucket_width"]) == 10 and buckets == want["buckets"])

    def _check_seed_doc(self, out):
        c = O.certificate(3, 1, 5)
        text = out[1].decode()
        facts = [", ".join(map(str, c["offsets"])), f"t = {c['t']}",
                 f"= {prod(c['g_factors'])}.", f"g*q = {O.coefficient(c)}.",
                 f"B = {c['B']}.", "admissible = True"]
        return self._ok(out) and all(fact in text for fact in facts)

    @staticmethod
    def _check_rejected(out):
        return out[0] == 1 and out[1] == b"" and out[2].startswith(b"error: domain:")

    def rates(self, outputs, kind_seconds):
        return {"invocations_per_s": (len(outputs) / sum(kind_seconds.values()), "1/s")}

    def layer_extra(self, outputs, kind_seconds):
        times = sorted(self.import_times)
        self.import_times = []
        extra = {f"cli.{kind}_s": kind_seconds.get(kind, 0.0) for kind in CLI_KINDS}
        extra["cli.stdout_bytes"] = sum(len(out[1]) for out in outputs)
        extra["cli.import_s"] = times[len(times) // 2] if times else 0.0
        return extra

    def peak_rss_mb(self):
        return self.peak_kb / 1024


WORKLOADS = {w.name: w for w in (Census, Grid, Scan, Cli)}
