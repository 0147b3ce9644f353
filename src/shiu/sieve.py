"""Segmented sieve of Eratosthenes and indexed access to progression primes.

Everything downstream sits on this module: plain prime enumeration up to a
height, the lazily extended 1-based index into the primes congruent to a
fixed residue a modulo q, which keeps those primes and no others, and
check_progression, the one test of which (q, a) are accepted. A single loop,
_segment_flags, does all the sieving: it flags the odd primes of one
interval given the odd primes up to the square root of its end. It fills,
once per process, a 32 KiB table of the odd numbers below TABLE_LIMIT =
2^16; each block ending there and each list of base primes up to there is
a slice of it, and larger base primes come from the loop run over [3,
root]. The sieve is odd-only (Crandall and Pomerance, Prime Numbers,
section 3.2): one flag per odd number, and the one even prime, 2, is added
apart by each consumer. One private generator sieves four segments at a
time as one block, so the loop over the base primes runs once per block,
and hands out each segment as its odd start and a fresh bytearray of
primality flags; each consumer takes from the flags only what it needs,
with itertools.compress and strided slices: iter_primes, the plain stream
of Python ints, compresses each segment's flags whole. numpy is imported
only by _prime_arrays, which reads each segment's flags as a bool array and
takes its nonzero positions, far faster than compress; the run search reads
those arrays above its loop cap. Heights are
bounded by the HEIGHT_CEILING constant so that searches whose termination
is only guaranteed asymptotically fail cleanly instead of running away, and
each large allocation is checked against one limit, decided once per
process at the first check: the memory budget in SHIU_SIEVE_BUDGET_MB, or
physical memory when that is unset. The table is never charged:
no budget is below 1 MiB. Neither limit, nor the segment width, nor the
table's end, changes any result.
"""

from __future__ import annotations

import os
from functools import cache
from itertools import compress
from math import gcd, isqrt, log
from typing import Iterator

from .errors import DomainError, ResourceError

SEGMENT_WIDTH = 1 << 17  # numbers per segment, one flag per odd one; results never depend on it
TABLE_LIMIT = 1 << 16  # odd numbers below this are flagged once per process; results never depend on it
HEIGHT_CEILING = 1 << 40  # hard upper bound on any number examined


@cache
def _limit() -> tuple[int, str] | None:
    """The bytes one allocation may take and their name in a refusal: the
    SHIU_SIEVE_BUDGET_MB budget, else physical memory (past it, only swap or
    the OOM killer), else None. Decided once per process, at the first charge;
    cache keeps no exception, so a malformed budget raises at every charge."""
    raw = os.environ.get("SHIU_SIEVE_BUDGET_MB")
    if raw is not None:
        try:
            mb = int(raw)
        except ValueError as exc:
            raise DomainError(f"SHIU_SIEVE_BUDGET_MB must be an integer, got {raw!r}") from exc
        if mb <= 0:
            raise DomainError("SHIU_SIEVE_BUDGET_MB must be positive")
        return mb << 20, "byte budget"
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return (pages * size, "bytes of physical memory") if pages > 0 and size > 0 else None


def _check_allocation(nbytes: int) -> None:
    """Refuse an allocation of nbytes over _limit() before it is made."""
    limit = _limit()
    if limit is not None and nbytes > limit[0]:
        raise ResourceError(f"sieve needs {nbytes} bytes, over the {limit[0]} {limit[1]}")


def _check_height(y: int) -> None:
    if y > HEIGHT_CEILING:
        raise ResourceError(f"height {y} exceeds the ceiling {HEIGHT_CEILING}")


def check_progression(q: int, a: int) -> None:
    """Refuse the progression a mod q unless q >= 3 and gcd(a, q) = 1."""
    if q < 3:
        raise DomainError("q must be >= 3")
    if gcd(a, q) != 1:
        raise DomainError("gcd(a,q) != 1")


def _segment_flags(lo: int, hi: int, base: list[int]) -> bytearray:
    """Flags over the odd numbers of [lo, hi): flags[i] set iff lo + 2*i is
    prime. Requires lo odd and >= 3, and base to hold every odd prime
    <= isqrt(hi - 1) but not 2."""
    size = (hi - lo + 1) >> 1
    flags = bytearray([1]) * size
    for p in base:
        pp = p * p
        if pp >= hi:
            break
        # the odd multiples of p sit p flags apart; strike from p*p, or from
        # the first one >= lo, where lo + 2*i = 0 mod p (lo + p is even)
        i = (pp - lo) >> 1 if pp >= lo else (-(lo + p) >> 1) % p
        if i < size:
            flags[i::p] = b"\x00" * ((size - 1 - i) // p + 1)
    return flags


@cache
def _table() -> bytearray:
    """Flags over the odd numbers of [3, TABLE_LIMIT): flags[i] is set iff
    3 + 2*i is prime. Each pass sieves [3, hi) with the primes the last
    pass flagged, and hi squares. Consumers get only slices, which copy."""
    hi, flags = 3, bytearray()
    while hi < TABLE_LIMIT:
        base = list(compress(range(3, hi, 2), flags))
        hi = min(hi * hi, TABLE_LIMIT)
        flags = _segment_flags(3, hi, base)
    return flags


def _base_primes(limit: int) -> list[int]:
    """Every odd prime <= limit: read from the table up to TABLE_LIMIT, and
    above it from one segment over [3, limit] sieved by the odd primes up
    to its square root."""
    flags = (_table() if limit <= TABLE_LIMIT
             else _segment_flags(3, limit + 1, _base_primes(isqrt(limit))))
    return list(compress(range(3, limit + 1, 2), flags))


def _segments(lo: int, hi: int) -> Iterator[tuple[int, bytearray]]:
    """Yield (seg_lo, flags) for consecutive segments covering the odd
    numbers of [max(lo, 3), hi): seg_lo is odd, and flags[i] is 1 iff
    seg_lo + 2*i is prime. Every segment spans SEGMENT_WIDTH numbers (one
    more when the width is odd) but the last, which ends at hi. Four
    segments are sieved at a time, as one block, so each base prime is
    visited once per block; a block that ends at or below TABLE_LIMIT is a
    slice of the table instead. Each bytearray yielded is still a fresh
    copy of one segment's flags. The one even prime, 2, is in no segment;
    each consumer adds it apart."""
    _check_height(hi - 1)
    lo = max(lo, 3) | 1
    if hi <= lo:
        return
    step = SEGMENT_WIDTH + (SEGMENT_WIDTH & 1)  # even, so every seg_lo is odd
    block = 4 * step
    base_limit = isqrt(hi - 1)
    # the base sieve's flags, the list of base primes it keeps and one block's flags
    _check_allocation((base_limit >> 1) + _prime_list_bytes(base_limit)
                      + ((min(block, hi - lo) + 1) >> 1))
    base = _base_primes(base_limit) if hi > TABLE_LIMIT else []  # the table needs none
    half = step >> 1  # flags per segment
    block_lo = lo
    while block_lo < hi:
        block_hi = min(block_lo + block, hi)
        if block_hi <= TABLE_LIMIT:
            flags = _table()[(block_lo - 3) >> 1:(block_hi - 2) >> 1]
        else:
            flags = _segment_flags(block_lo, block_hi, base)
        for i in range(0, len(flags), half):
            yield block_lo + 2 * i, flags[i:i + half]
        block_lo = block_hi


def _prime_arrays(lo: int, hi: int):
    """Yield the primes of [lo, hi) as ascending int64 numpy arrays, possibly
    empty: [2] first when 2 is in range, then one array per segment. numpy
    is imported when the first array is asked for. Each flag byte is 0 or
    1, so the flags can be read as a bool view, whose flatnonzero skips the
    per-byte test a uint8 view needs; astype copies nothing on a 64-bit
    build, where flatnonzero already returns int64."""
    import numpy as np

    if lo <= 2 < hi:
        yield np.array([2], dtype=np.int64)
    for seg_lo, flags in _segments(lo, hi):
        primes = np.flatnonzero(np.frombuffer(flags, dtype=np.bool_)).astype(np.int64, copy=False)
        primes <<= 1
        primes += seg_lo
        yield primes


def iter_primes(lo: int, hi: int) -> Iterator[int]:
    """Yield the primes in [lo, hi) in increasing order, as Python ints: 2
    apart, then each segment's from one compress over its flags."""
    if lo <= 2 < hi:
        yield 2
    for seg_lo, flags in _segments(lo, hi):
        yield from compress(range(seg_lo, seg_lo + 2 * len(flags), 2), flags)


def _prime_list_bytes(y: int) -> int:
    # pi(y) < 1.3 y / ln y for y >= 17; a list slot plus small int runs ~40 bytes
    if y < 17:
        return 512
    return int(1.3 * y / log(y)) * 40


def _charge_primes_up_to(y: int) -> None:
    """The two checks made before the primes up to y, or anything that
    needs them, are listed: y past the height ceiling is refused, then
    the list is charged to the memory limit."""
    _check_height(y)
    _check_allocation(_prime_list_bytes(y))


def primes_up_to(y: int) -> list[int]:
    """All primes in [2, y], ascending, read from the table up to
    TABLE_LIMIT and from one unsegmented sieve above it. Unlike iter_primes
    this materializes the whole list, so the memory budget is checked
    against an upper estimate of its size; that estimate also exceeds the
    sieve's one byte per odd number."""
    if y < 0:
        raise DomainError("upper bound must be nonnegative")
    _charge_primes_up_to(y)
    return [2, *_base_primes(y)] if y >= 2 else []


class APIndex:
    """The primes congruent to a modulo q, indexed from 1 in increasing order.

    Extends itself by sieving further on demand and memoizes the members it
    has found, and nothing else. The first extension reaches 8*q, which
    already holds the first few entries; each later one doubles the height,
    so the index never sieves more than about twice the height its largest
    answer needs. The memory budget is charged for the member list.
    Heights above HEIGHT_CEILING are refused with ResourceError.
    Consecutive entries differ by a positive multiple of q, so the (k+1)-st
    entry always exceeds q*k. Mutation is not thread-safe; queries on an
    index that is no longer extending are.
    """

    def __init__(self, q: int, a: int):
        check_progression(q, a)
        self.q = q
        self.a = a % q
        self._members: list[int] = []
        self._height = 2  # everything below this has been scanned

    def nth(self, n: int) -> int:
        if n < 1:
            raise DomainError("progression index is 1-based")
        while len(self._members) < n:
            if self._height >= HEIGHT_CEILING + 1:
                raise ResourceError(
                    f"only {len(self._members)} primes = {self.a} mod {self.q} "
                    f"below the ceiling {HEIGHT_CEILING}"
                )
            self.extend_to(min(max(self._height * 2, 8 * self.q), HEIGHT_CEILING + 1))
        return self._members[n - 1]

    def extend_to(self, height: int) -> None:
        if height <= self._height:
            return
        _check_height(height - 1)
        q, a = self.q, self.a
        # the odd n = a mod q are lcm(2, q) apart: q flags when q is odd,
        # q/2 when q is even (a is then odd); with the even prime, at most
        # height // q + 2 members, about 40 bytes each
        _check_allocation((height // q + 2) * 40)
        if self._height <= 2 < height and a == 2:
            self._members.append(2)
        stride = q if q & 1 else q >> 1
        for seg_lo, flags in _segments(self._height, height):
            # the first odd n >= seg_lo with n = a mod q is seg_lo + 2*off
            d = (a - seg_lo) % q
            off = (d + q if d & 1 else d) >> 1
            self._members.extend(compress(range(seg_lo + 2 * off, seg_lo + 2 * len(flags),
                                                2 * stride), flags[off::stride]))
        self._height = height

