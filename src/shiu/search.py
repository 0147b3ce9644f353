"""Hunting real runs of consecutive primes in one residue class.

The construction promises such runs exist far out; this module looks for the
ones that occur naturally at small height. A run here is m consecutive
primes, consecutive in the full prime sequence, all congruent to a mod q.
The scanner takes the primes one sieve segment at a time as a numpy array,
finds the length of the matching run ending at each prime with a running
maximum over the misses, and carries the run still open at the segment's
end into the next one. Only the strings it yields become Python objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import compress
from operator import lt
from statistics import median
from typing import Iterable, Iterator

from .errors import DomainError, NotFoundError
from .sieve import _prime_arrays, _segments, check_progression

DEFAULT_HEIGHT_CAP = 10**8


@dataclass(frozen=True)
class ShiuString:
    """m consecutive primes sharing the residue a mod q.

    start_index is the count of primes below the first member, so the run
    occupies positions start_index+1 .. start_index+len(primes) in the
    prime sequence.
    """

    q: int
    a: int
    start_index: int
    primes: tuple[int, ...]
    diameter: int

    def __post_init__(self):
        check_progression(self.q, self.a)
        if self.start_index < 0:
            raise DomainError("start_index must be nonnegative")
        if len(self.primes) < 2:
            raise DomainError("a string needs at least two primes")
        if not all(map(lt, self.primes, self.primes[1:])):
            raise DomainError("primes must be strictly increasing")
        if set(map(self.q.__rmod__, self.primes)) != {self.a % self.q}:
            raise DomainError("every member must be congruent to a mod q")
        if self.diameter != self.primes[-1] - self.primes[0]:
            raise DomainError("diameter must equal last prime minus first")

    @property
    def m(self) -> int:
        return len(self.primes)

    @property
    def start_prime(self) -> int:
        return self.primes[0]


def all_strings(
    q: int,
    a: int,
    m: int,
    *,
    cap: int = DEFAULT_HEIGHT_CAP,
    maximal_only: bool = False,
) -> Iterator[ShiuString]:
    """Yield strings of length >= m with every member below cap.

    Default mode emits each length-m window of a qualifying run, so a
    maximal run of r matching primes produces r - m + 1 strings. With
    maximal_only the run is emitted once, whole, after it breaks; a run
    still open at the cap is emitted as found, so its maximality is only
    relative to the scanned range.
    """
    if m < 2:
        raise DomainError("m must be >= 2")
    if cap < 3:
        raise DomainError("cap must be >= 3")
    check_progression(q, a)
    import numpy as np

    res = a % q
    # below cap, p % min(q, cap) == p % q, and the modulus then fits int64
    modulus = min(q, cap)
    # the open run's last m - 1 primes, or all of it with maximal_only
    carry = np.empty(0, dtype=np.int64)
    before = 0  # primes below the current segment
    for segment in _prime_arrays(2, cap):
        primes = np.concatenate((carry, segment))
        offset = before - len(carry)  # start_index of primes[0]
        before += len(segment)
        if not len(primes):
            continue
        pos = np.arange(len(primes))
        hit = primes % modulus == res
        # run[i]: matching primes ending at i, counted from the last miss
        run = np.where(hit, -1, pos)
        np.maximum.accumulate(run, out=run)
        np.subtract(pos, run, out=run)
        if maximal_only:
            # a run closes at the prime before each miss
            ends = np.flatnonzero(~hit[1:] & (run[:-1] >= m))
            starts = ends + 1 - run[ends]
            vals = primes.tolist()
            for i, j in zip(starts.tolist(), (ends + 1).tolist()):
                members = tuple(vals[i:j])
                yield ShiuString(q=q, a=a, start_index=offset + i, primes=members,
                                 diameter=members[-1] - members[0])
            keep = int(run[-1])
        else:
            ends = np.flatnonzero(run >= m)  # the carry is too short to hold one
            if len(ends):  # so m <= len(primes), and the gather stays small
                columns = primes[ends + np.arange(1 - m, 1)[:, None]].tolist()
                for i, row in zip((ends + offset + 1 - m).tolist(), zip(*columns)):
                    yield ShiuString(q=q, a=a, start_index=i, primes=row,
                                     diameter=row[-1] - row[0])
            keep = min(int(run[-1]), m - 1)
        carry = primes[len(primes) - keep:]
    if maximal_only and len(carry) >= m:
        members = tuple(carry.tolist())
        yield ShiuString(q=q, a=a, start_index=before - len(members), primes=members,
                         diameter=members[-1] - members[0])


def first_string(q: int, a: int, m: int, *, cap: int = DEFAULT_HEIGHT_CAP) -> ShiuString:
    """The earliest length-m string, or NotFoundError if none lives below
    cap."""
    for s in all_strings(q, a, m, cap=cap):
        return s
    raise NotFoundError(
        f"no string of {m} consecutive primes congruent to {a} mod {q} below {cap}"
    )


def verify_string(s: ShiuString) -> bool:
    """Recheck a claimed string against a fresh sieve.

    The span between the first and last member is re-sieved and must contain
    exactly the claimed primes, which pins down consecutiveness; residues and
    the diameter are rechecked by arithmetic, and the count of primes below
    the first member is recomputed from scratch by counting sieve flags.
    """
    span = tuple(
        p
        for seg_lo, flags in _segments(s.primes[0], s.primes[-1] + 1)
        for p in compress(range(seg_lo, seg_lo + len(flags)), flags)
    )
    if span != s.primes:
        raise DomainError(
            f"span re-sieve found {len(span)} primes where the string claims {s.m}"
        )
    below = sum(flags.count(1) for _, flags in _segments(2, s.primes[0]))
    if below != s.start_index:
        raise DomainError(
            f"start_index is {s.start_index} but {below} primes precede "
            f"{s.primes[0]}"
        )
    return True


# -- diameter summaries ---------------------------------------------------


@dataclass(frozen=True)
class DiameterStats:
    """Summary of string diameters. The None fields appear only for an
    empty input, which yields an empty histogram rather than an error."""

    count: int
    min_diameter: int | None
    median_diameter: float | None
    max_diameter: int | None
    mean_diameter: float | None
    buckets: tuple[tuple[int, int], ...]
    bucket_width: int
    reference_b: int | None = None
    at_or_below_reference: int | None = None


def diameter_stats(
    strings: Iterable[ShiuString],
    *,
    bucket_width: int = 10,
    reference_b: int | None = None,
) -> DiameterStats:
    """Histogram of string diameters; bucket floors are multiples of the
    width. With reference_b set, also count how many diameters fit inside
    that bound."""
    if bucket_width < 1:
        raise DomainError("bucket_width must be >= 1")
    ds = [s.diameter for s in strings]
    if not ds:
        return DiameterStats(count=0, min_diameter=None, median_diameter=None,
                             max_diameter=None, mean_diameter=None,
                             buckets=(), bucket_width=bucket_width,
                             reference_b=reference_b,
                             at_or_below_reference=0 if reference_b is not None else None)
    hist: dict[int, int] = {}
    for d in ds:
        lo = (d // bucket_width) * bucket_width
        hist[lo] = hist.get(lo, 0) + 1
    at_or_below = None
    if reference_b is not None:
        at_or_below = sum(1 for d in ds if d <= reference_b)
    return DiameterStats(
        count=len(ds),
        min_diameter=min(ds),
        median_diameter=float(median(ds)),
        max_diameter=max(ds),
        mean_diameter=sum(ds) / len(ds),
        buckets=tuple(sorted(hist.items())),
        bucket_width=bucket_width,
        reference_b=reference_b,
        at_or_below_reference=at_or_below,
    )


def string_to_dict(s: ShiuString) -> dict:
    return {
        "q": s.q,
        "a": s.a,
        "m": s.m,
        "start_prime": s.start_prime,
        "primes": list(s.primes),
        "diameter": s.diameter,
    }


def strings_to_jsonl(strings: Iterable[ShiuString]) -> Iterator[str]:
    """One JSON line per string, produced as the strings arrive."""
    for s in strings:
        yield json.dumps(string_to_dict(s)) + "\n"


def stats_to_csv(stats: DiameterStats) -> str:
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
