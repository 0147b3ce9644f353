"""Hunting real runs of consecutive primes in one residue class.

The construction promises such runs exist far out; this module looks for the
ones that occur naturally at small height. A run here is m consecutive
primes, consecutive in the full prime sequence, all congruent to a mod q.
The scanner has two paths, picked by the cap alone, with equal output. Up
to LOOP_CAP it runs one plain loop over the primes as Python ints, carrying
the open run, and never imports numpy, whose import costs a fresh process
more than the loop saves. Above it, it takes the primes one odd-only sieve
segment at a time as a numpy array, finds the length of the matching run
ending at each prime with a running maximum over the misses, and carries
the run still open at the segment's end into the next one; only the
strings it yields become Python objects.

A ShiuString is a named tuple whose public constructor validates every
field. Neither path calls it: each checks that the primes arrive in
strictly ascending order, the one invariant not true by construction (the
array path once per segment, in bulk), and builds its strings with
tuple.__new__, the array path with one C-level map over numpy-built
columns (start indices, member tuples, diameters), so no per-object
re-check runs per string.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import repeat
from operator import attrgetter, lt
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError, NotFoundError
from .sieve import _prime_arrays, check_progression, iter_primes

DEFAULT_HEIGHT_CAP = 10**8
LOOP_CAP = 1 << 20  # caps up to this skip numpy (see all_strings); results never depend on it


class ShiuString(namedtuple("ShiuString", "q a start_index primes diameter")):
    """m consecutive primes sharing the residue a mod q.

    start_index is the count of primes below the first member, so the run
    occupies positions start_index+1 .. start_index+len(primes) in the
    prime sequence. A ShiuString is a tuple of its five fields: it has
    length 5, unpacks, and equals the plain tuple of those fields. The
    constructor validates every field; all_strings checks only the order of
    the primes its strings come from, and builds them with tuple.__new__.
    """

    __slots__ = ()

    def __new__(cls, q: int, a: int, start_index: int, primes: tuple[int, ...], diameter: int):
        check_progression(q, a)
        if start_index < 0:
            raise DomainError("start_index must be nonnegative")
        if len(primes) < 2:
            raise DomainError("a string needs at least two primes")
        if not all(map(lt, primes, primes[1:])):
            raise DomainError("primes must be strictly increasing")
        if set(map(q.__rmod__, primes)) != {a % q}:
            raise DomainError("every member must be congruent to a mod q")
        if diameter != primes[-1] - primes[0]:
            raise DomainError("diameter must equal last prime minus first")
        return super().__new__(cls, q, a, start_index, primes, diameter)

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

    A cap up to LOOP_CAP, eight sieve segments, takes the plain loop, a
    larger one the numpy arrays. Measured in process on a 2-vCPU machine,
    the loop takes 2-3 ms at 10^5 and 19-26 ms at 10^6, the arrays
    0.3-0.8 ms and 2.5-6.7 ms; but a fresh process pays about 125 ms to
    import numpy, so a short search is faster and smaller without it.
    """
    if m < 2:
        raise DomainError("m must be >= 2")
    if cap < 3:
        raise DomainError("cap must be >= 3")
    check_progression(q, a)
    if cap <= LOOP_CAP:
        yield from _loop_strings(q, a, m, cap, maximal_only)
        return
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
        # The one check of this segment's strings: their members are the
        # array's primes in strictly increasing order, and offset >= 0 makes
        # every start_index nonnegative. The rest holds by construction:
        # every member is a hit, so it is congruent to a mod q; each diameter
        # is last minus first; and m >= 2 gives each string two primes.
        if offset < 0 or not (primes[1:] > primes[:-1]).all():
            raise DomainError(f"the primes below {cap} are not strictly ascending")
        pos = np.arange(len(primes))
        hit = primes % modulus == res
        # run[i]: matching primes ending at i, counted from the last miss
        run = np.where(hit, -1, pos)
        np.maximum.accumulate(run, out=run)
        np.subtract(pos, run, out=run)
        if maximal_only:
            # a run closes at the prime before each miss
            ends = np.flatnonzero(~hit[1:] & (run[:-1] >= m))
            if len(ends):
                lengths = run[ends]
                starts = ends + 1 - lengths
                # gather only the members: run k fills vals[firsts[k]:stops[k]].
                # Slices size each tuple exactly; tuple(islice(...)) resizes
                # each one, which fragmented the heap over a long census.
                stops = np.cumsum(lengths)
                firsts = stops - lengths
                vals = primes[np.arange(stops[-1]) + np.repeat(starts - firsts, lengths)].tolist()
                rows = map(tuple, map(vals.__getitem__,
                                      map(slice, firsts.tolist(), stops.tolist())))
                yield from map(tuple.__new__, repeat(ShiuString), zip(
                    repeat(q), repeat(a), (starts + offset).tolist(), rows,
                    (primes[ends] - primes[starts]).tolist()))
            keep = int(run[-1])
        else:
            ends = np.flatnonzero(run >= m)  # the carry is too short to hold one
            if len(ends):  # so m <= len(primes), and the gather stays small
                columns = primes[ends + np.arange(1 - m, 1)[:, None]].tolist()
                yield from map(tuple.__new__, repeat(ShiuString), zip(
                    repeat(q), repeat(a), (ends + offset + 1 - m).tolist(), zip(*columns),
                    (primes[ends] - primes[ends + 1 - m]).tolist()))
            keep = min(int(run[-1]), m - 1)
        carry = primes[len(primes) - keep:]
    if maximal_only and len(carry) >= m:
        members = tuple(carry.tolist())
        yield tuple.__new__(ShiuString, (q, a, before - len(members), members,
                                         members[-1] - members[0]))


def _loop_strings(q: int, a: int, m: int, cap: int, maximal_only: bool) -> Iterator[ShiuString]:
    """all_strings for a cap up to LOOP_CAP: one pass over the primes as
    Python ints, carrying the open run. Its one check, as on the arrays, is
    that the primes arrive in strictly ascending order."""
    res = a % q
    run: list[int] = []  # the open run's members
    last = i = -1
    for i, p in enumerate(iter_primes(2, cap)):
        if p <= last:
            raise DomainError(f"the primes below {cap} are not strictly ascending")
        last = p
        if p % q == res:
            run.append(p)
            if not maximal_only and len(run) >= m:
                members = tuple(run[-m:])
                yield tuple.__new__(ShiuString, (q, a, i + 1 - m, members, p - members[0]))
        elif run:
            if maximal_only and len(run) >= m:
                yield tuple.__new__(ShiuString, (q, a, i - len(run), tuple(run),
                                                 run[-1] - run[0]))
            run = []
    if maximal_only and len(run) >= m:
        yield tuple.__new__(ShiuString, (q, a, i + 1 - len(run), tuple(run), run[-1] - run[0]))


def first_string(q: int, a: int, m: int, *, cap: int = DEFAULT_HEIGHT_CAP) -> ShiuString:
    """The earliest length-m string, or NotFoundError if none lives below
    cap."""
    for s in all_strings(q, a, m, cap=cap):
        return s
    raise NotFoundError(
        f"no string of {m} consecutive primes congruent to {a} mod {q} below {cap}"
    )


# -- diameter summaries ---------------------------------------------------


class DiameterStats(NamedTuple):
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
    ds = sorted(map(attrgetter("diameter"), strings))
    n = len(ds)
    if not ds:
        return DiameterStats(count=0, min_diameter=None, median_diameter=None,
                             max_diameter=None, mean_diameter=None,
                             buckets=(), bucket_width=bucket_width,
                             reference_b=reference_b,
                             at_or_below_reference=0 if reference_b is not None else None)
    # the list is sorted, so each bucket is one slice of it
    buckets = []
    i = 0
    while i < n:
        lo = ds[i] // bucket_width * bucket_width
        j = bisect_left(ds, lo + bucket_width, i)
        buckets.append((lo, j - i))
        i = j
    half = n // 2
    return DiameterStats(
        count=n,
        min_diameter=ds[0],
        median_diameter=float(ds[half]) if n % 2 else (ds[half - 1] + ds[half]) / 2,
        max_diameter=ds[-1],
        mean_diameter=sum(ds) / n,
        buckets=tuple(buckets),
        bucket_width=bucket_width,
        reference_b=reference_b,
        at_or_below_reference=None if reference_b is None else bisect_right(ds, reference_b),
    )
