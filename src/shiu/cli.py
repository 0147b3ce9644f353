"""Command-line front end.

One subcommand per library capability: construct and verify certificates,
scan windows, tabulate the diameter bound over a grid, and hunt strings of
consecutive congruent primes. Identical invocations produce byte-identical
output; all diagnostics go to stderr as one machine-parsable line. Exit
statuses: 0 success, 1 bad input, nothing found, an output that cannot be
opened or written or a closed stdout pipe, 2 resource limits and running
out of memory, 3 internal inconsistency (a bug, reported with a
reproduction bundle). Each handler checks its --format before any work, so
an unavailable format is refused ahead of a bad parameter or certificate,
though not ahead of argparse's own errors, such as a missing option; the
check and the --help line both read the formats from _FORMATS.
This module writes every report but the certificate, which construction.py
both writes and reads, each from the record's own fields: a report is a
named tuple, so its _asdict() keys are its fields in order. Each handler
imports the modules it runs, so no subcommand pays for another's imports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DomainError, InternalConsistencyError, NotFoundError, ResourceError


class _Parser(argparse.ArgumentParser):
    """argparse maps usage problems to exit 2, which this tool reserves for
    resource errors; raise them as domain errors instead."""

    def error(self, message):
        raise DomainError(message)


# Each report's default format and the formats it offers: --help and
# _pick's refusal are both written from these.
_FORMATS = {
    "construct": ("json", ("json", "text")),
    "verify": ("text", ("json", "text")),
    "scan": ("json", ("json", "text")),
    "bounds": ("csv", ("json", "csv")),
    "search": ("json", ("json", "text")),
    "search --all": ("json", ("json", "csv")),
}


def _format_help(subcommand: str) -> str:
    offers = []
    for key, (default, offered) in _FORMATS.items():
        name, _, flag = key.partition(" ")
        if name == subcommand:
            offer = " or ".join(f + " (default)" if f == default else f for f in offered)
            offers.append(f"with {flag}, {offer}" if flag else offer)
    return "output format: " + "; ".join(offers)


def _build_parser() -> _Parser:
    top = _Parser(prog="shiu", description=__doc__.splitlines()[0])
    top.add_argument("--seed-doc", action="store_true",
                     help="print a computed walkthrough of the q=3, a=1, k=5 "
                          "construction and exit")
    sub = top.add_subparsers(dest="subcommand")

    def add_subcommand(name: str, help: str) -> _Parser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", default=None, help=_format_help(name))
        p.add_argument("--output", default=None, metavar="PATH",
                       help="write output to PATH instead of stdout")
        return p

    p = add_subcommand("construct", "build a certificate for (q, a, k)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--with-g", action="store_true",
                   help="include the multiplied-out coefficient quotient")

    p = add_subcommand("verify", "re-derive a certificate and demand equality")
    p.add_argument("--cert", required=True, metavar="PATH")

    p = add_subcommand("scan", "re-derive a certificate, then exhaustively "
                               "primality-test its windows")
    p.add_argument("--cert", required=True, metavar="PATH")
    p.add_argument("--n-lo", type=int, required=True)
    p.add_argument("--n-hi", type=int, required=True)

    p = add_subcommand("bounds", "tabulate the diameter bound over a (q, k) grid")
    p.add_argument("--q-min", type=int, required=True)
    p.add_argument("--q-max", type=int, required=True)
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--a", type=int, default=None,
                   help="fix one residue (default: all coprime residues)")
    p.add_argument("--L", type=float, default=5.0,
                   help="exponent for the shift-window policy")

    p = add_subcommand("search", "scan for runs of consecutive congruent primes")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cap", type=int, default=10**8)
    p.add_argument("--all", action="store_true", dest="emit_all",
                   help="emit every string below the cap, not just the first")
    p.add_argument("--maximal-only", action="store_true",
                   help="with --all, emit whole maximal runs once")
    p.add_argument("--bucket-width", type=int, default=None,
                   help="histogram bucket width for --all --format csv (default 10)")
    p.add_argument("--reference-b", type=int, default=None,
                   help="with --all --format csv, also count diameters at or "
                        "below this value")

    return top


def _emit(output: str | None, out: str | Iterable[str]) -> None:
    """Write a handler's text, or its lines as they are produced, to the
    output path or else to stdout. The first line is taken before anything
    is written, so an input or resource error a stream raises on start
    leaves stdout empty and creates no file. A failed write is a domain
    error; a closed stdout pipe propagates as it is."""
    chunks = iter((out,) if isinstance(out, str) else out)
    first = next(chunks, "")
    try:
        if output:
            with open(output, "w") as f:
                f.write(first)
                f.writelines(chunks)
        else:
            sys.stdout.write(first)
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
    except OSError as exc:
        if output:
            raise DomainError(f"cannot write output {output}: {exc}") from exc
        # point stdout at devnull so that the flush at exit does not fail
        # again, as the Python docs advise for a closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise
        raise DomainError(f"cannot write output <stdout>: {exc}") from exc


def _pick(args, key: str) -> str:
    """The --format asked for, or the default of the report _FORMATS[key]."""
    default, offered = _FORMATS[key]
    fmt = args.format or default
    if fmt not in offered:
        raise DomainError(
            f"format {fmt!r} is not available for this subcommand "
            f"(choose from {', '.join(offered)})"
        )
    return fmt


def _refuse_unused(args, dests: tuple[str, ...], where: str) -> None:
    """Refuse the first of these search flags that was given, since it
    would have no effect."""
    for dest in dests:
        value = getattr(args, dest)  # None or False when not given; 0 is given
        if value is not None and value is not False:
            flag = "--" + dest.replace("_", "-")
            raise DomainError(f"{flag} has no effect {where}")


_BOUNDS_CSV_FIELDS = ("q", "a", "k", "t", "B", "window_cap", "t_in_window")


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _strings_jsonl(strings) -> Iterator[str]:
    """One JSON line per string, produced as the strings arrive."""
    for s in strings:
        yield json.dumps({"q": s.q, "a": s.a, "m": s.m, "start_prime": s.start_prime,
                          "primes": s.primes, "diameter": s.diameter}) + "\n"


def _stats_csv(stats) -> str:
    lines = ["field,value"]
    lines.append(f"count,{stats.count}")
    if stats.count:
        lines.append(f"min_diameter,{stats.min_diameter}")
        lines.append(f"median_diameter,{stats.median_diameter:.6g}")
        lines.append(f"max_diameter,{stats.max_diameter}")
        lines.append(f"mean_diameter,{stats.mean_diameter:.6g}")
    lines.append(f"bucket_width,{stats.bucket_width}")
    for lo, n in stats.buckets:
        lines.append(f"bucket_{lo},{n}")
    if stats.reference_b is not None:
        lines.append(f"reference_b,{stats.reference_b}")
        lines.append(f"at_or_below_reference,{stats.at_or_below_reference}")
    return "\n".join(lines) + "\n"


def _cmd_construct(args) -> str:
    from .construction import ConstructionParams, _decimal, build, construction_to_json

    fmt = _pick(args, "construct")
    c = build(ConstructionParams(q=args.q, a=args.a, k=args.k))
    if fmt == "json":
        return construction_to_json(c, include_g=args.with_g)
    # every offset is a prime above k >= 2, so each constant is positive
    coeff = _decimal(c.g_factors + (c.params.q,))
    return "".join(f"{coeff}*x+{h}\n" for h in c.offsets)


def _read_cert(path: str) -> dict:
    from .sieve import _check_allocation

    try:
        # reading and parsing peak at 4.11 times the file's size at (10007,1,3)
        # and 3.85 at (100003,1,3) (tracemalloc); a pipe reports 0, charged nothing
        _check_allocation(4 * Path(path).stat().st_size)
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read certificate {path}: {exc}") from exc
    try:
        return json.loads(text, object_pairs_hook=_unique_fields)
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad syntax and integers past the int-string
        # digit limit; RecursionError, nesting deeper than the parser goes
        raise DomainError(f"malformed certificate JSON: {exc}") from exc


def _unique_fields(pairs: list) -> dict:
    """A JSON object as a dict, refused if it names a field twice: readers
    differ on which value wins, so neither may be trusted."""
    data = dict(pairs)
    if len(data) < len(pairs):
        seen, repeated = set(), set()
        for key, _ in pairs:
            (repeated if key in seen else seen).add(key)
        raise DomainError(f"certificate repeats fields: {sorted(repeated)}")
    return data


def _cmd_verify(args) -> str:
    from .construction import cert_to_json, reverify

    fmt = _pick(args, "verify")
    data = _read_cert(args.cert)
    c = reverify(data)
    if fmt == "json":
        # reverify has checked every field, so they are written as read
        return cert_to_json(data)
    p = c.params
    return (f"ok: certificate re-derived and checked "
            f"(q={p.q} a={p.a} k={p.k} t={c.t} B={c.B})\n")


def _cmd_scan(args) -> str:
    from .construction import reverify, scan_windows

    fmt = _pick(args, "scan")
    if args.n_lo < 0 or args.n_hi < args.n_lo:  # before the certificate is read
        raise DomainError("need 0 <= n_lo <= n_hi")
    c = reverify(_read_cert(args.cert))
    reports = scan_windows(c, args.n_lo, args.n_hi)
    if fmt == "json":
        return "".join(json.dumps(r._asdict()) + "\n" for r in reports)
    lines = []
    for r in reports:
        offs = ",".join(str(o) for o in r.prime_offsets)
        flags = "".join((
            " degenerate" if r.degenerate else "",
            "" if r.congruence_ok else " BAD-CONGRUENCE",
            "" if r.isolation_ok else " OFF-OFFSET-PRIME",
            "" if r.primality_proven else " probable-prime",
        ))
        lines.append(f"n={r.n} primes={r.window_prime_count} "
                     f"offsets=[{offs}]{flags}")
    return "\n".join(lines) + "\n"


def _cmd_bounds(args) -> str:
    from .bounds import bound_table

    fmt = _pick(args, "bounds")
    rows = bound_table(
        range(args.q_min, args.q_max + 1),
        range(args.k_min, args.k_max + 1),
        a=args.a,
        L=args.L,
    )
    if fmt == "json":
        return json.dumps([r._asdict() for r in rows], indent=2) + "\n"
    # cells are ints or true/false, neither of which CSV quotes
    lines = [",".join(_BOUNDS_CSV_FIELDS)]
    lines += [",".join(_cell(getattr(r, f)) for f in _BOUNDS_CSV_FIELDS) for r in rows]
    return "\n".join(lines) + "\n"


def _cmd_search(args) -> str | Iterable[str]:
    from .search import all_strings, diameter_stats, first_string

    if not args.emit_all:
        fmt = _pick(args, "search")
        _refuse_unused(args, ("maximal_only", "bucket_width", "reference_b"), "without --all")
        s = first_string(args.q, args.a, args.m, cap=args.cap)
        if fmt == "json":
            return _strings_jsonl((s,))
        primes = ",".join(str(p) for p in s.primes)
        return (f"q={s.q} a={s.a} m={s.m} start_index={s.start_index} "
                f"diameter={s.diameter} primes={primes}\n")
    fmt = _pick(args, "search --all")
    if fmt == "json":
        _refuse_unused(args, ("bucket_width", "reference_b"), "without --format csv")
    stream = all_strings(args.q, args.a, args.m, cap=args.cap,
                         maximal_only=args.maximal_only)
    if fmt == "json":
        return _strings_jsonl(stream)
    width = 10 if args.bucket_width is None else args.bucket_width
    stats = diameter_stats(stream, bucket_width=width, reference_b=args.reference_b)
    return _stats_csv(stats)


def _seed_doc() -> str:
    from .construction import (ConstructionParams, _product, build, verify_admissible,
                               verify_isolation)

    params = ConstructionParams(q=3, a=1, k=5)
    c = build(params)
    report = verify_admissible(c)
    blocking = verify_isolation(c)
    offs = ", ".join(str(o) for o in c.offsets)
    g_factors = c.g_factors
    facs = " * ".join(map(str, g_factors))
    g = _product(g_factors)
    sample = "; ".join(f"{h} -> {p}" for h, p in blocking[:6])
    lo, hi = c.offsets[0], c.offsets[-1]
    lines = [
        "How to force consecutive primes into one residue class",
        "======================================================",
        "",
        f"Worked example with q = {params.q}, a = {params.a}, k = {params.k}.",
        "",
        f"1. List the primes congruent to {params.a} mod {params.q} in order.",
        f"   The first few are {offs}, ...",
        "",
        "2. Find the least shift t >= 0 so that the k primes starting at",
        "   position t+1 satisfy two size conditions: k below the first of",
        f"   them, and the last below the square of the first. Here t = {c.t}",
        f"   works: {params.k} < {lo} and {hi} < {lo * lo} = {lo}^2.",
        f"   These k primes become the offsets: {offs}.",
        "",
        f"3. Multiply every prime up to {hi} that is not an offset:",
        f"   g = {facs} = {g}.",
        f"   The common coefficient of the tuple is g*q = {g * params.q}.",
        "",
        "4. The forms g*q*x + offset make an admissible tuple (verified:",
        f"   admissible = {report.admissible}). Each prime p dividing g*q",
        "   divides no offset, and each other small prime leaves at least",
        "   one residue class uncovered, so no prime kills every value.",
        "",
        f"5. Isolation: each of the {len(blocking)} other integers h between",
        f"   {lo} and {hi} shares a prime factor with g*q ({sample}; ...),",
        "   so g*q*n + h is composite for every n >= 1.",
        "",
        "6. Consequence: for n >= 1, any primes in the window",
        f"   [g*q*n + {lo}, g*q*n + {hi}] sit at the offsets. They are",
        f"   consecutive primes, every one congruent to {params.a} mod"
        f" {params.q},",
        f"   and they fit in an interval of length B = {c.B}.",
        "",
        "If some n puts m primes among the k offsets, those are m",
        f"consecutive primes, congruent to {params.a} mod {params.q}, at most"
        f" {c.B} apart.",
        "",
    ]
    return "\n".join(lines)


_HANDLERS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
    "bounds": _cmd_bounds,
    "search": _cmd_search,
}


def _diagnose(kind: str, exc: Exception | str) -> None:
    print(f"error: {kind}: {exc}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed_doc:
            _emit(None, _seed_doc())
        elif args.subcommand is None:
            raise DomainError("a subcommand is required (see --help)")
        else:
            _emit(args.output, _HANDLERS[args.subcommand](args))
        return 0
    except BrokenPipeError:
        return 1  # the reader closed stdout, as `| head` does
    except NotFoundError as exc:
        _diagnose("not-found", exc)
        return 1
    except DomainError as exc:
        _diagnose("domain", exc)
        return 1
    except ResourceError as exc:
        _diagnose("resource", exc)
        return 2
    except MemoryError:
        _diagnose("resource", "out of memory")
        return 2
    except InternalConsistencyError as exc:
        _diagnose("internal", exc)
        bundle = {"argv": argv, "context": exc.context}
        print(json.dumps(bundle), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
