"""Segmented sieve of Eratosthenes and indexed access to progression primes.

Everything downstream sits on this module: plain prime enumeration up to a
height, and the lazily extended 1-based index into the primes congruent to
a fixed residue a modulo q. Heights are bounded by a hard ceiling so that
searches whose termination is only guaranteed asymptotically fail cleanly
instead of running away.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import compress
from math import gcd, isqrt, log
from typing import Iterator

import numpy as np

from .errors import DomainError, ResourceError

DEFAULT_SEGMENT_WIDTH = 1 << 16
DEFAULT_HEIGHT_CEILING = 1 << 40


def _env_budget_bytes() -> int | None:
    raw = os.environ.get("SHIU_SIEVE_BUDGET_MB")
    if raw is None:
        return None
    try:
        mb = int(raw)
    except ValueError as exc:
        raise DomainError(f"SHIU_SIEVE_BUDGET_MB must be an integer, got {raw!r}") from exc
    if mb <= 0:
        raise DomainError("SHIU_SIEVE_BUDGET_MB must be positive")
    return mb << 20


@dataclass(frozen=True)
class SieveConfig:
    """Knobs for all sieving work.

    segment_width: cap on the numbers sieved per segment; results never
        depend on it. It is not a minimum: APIndex grows by doubling its
        height and sieves only as far as that.
    height_ceiling: hard upper bound on any number examined.
    budget_bytes: memory cap per allocation (defaults to SHIU_SIEVE_BUDGET_MB).
    """

    segment_width: int = DEFAULT_SEGMENT_WIDTH
    height_ceiling: int = DEFAULT_HEIGHT_CEILING
    budget_bytes: int | None = field(default_factory=_env_budget_bytes)

    def __post_init__(self):
        if self.segment_width < 8:
            raise DomainError("segment_width must be at least 8")
        if self.height_ceiling < 4:
            raise DomainError("height_ceiling must be at least 4")

    def effective_width(self) -> int:
        if self.budget_bytes is not None and self.budget_bytes < self.segment_width:
            return max(8, self.budget_bytes)
        return self.segment_width

    def check_allocation(self, nbytes: int) -> None:
        if self.budget_bytes is not None and nbytes > self.budget_bytes:
            raise ResourceError(
                f"sieve needs {nbytes} bytes, over the {self.budget_bytes} byte budget"
            )


def _simple_flags(n: int) -> bytearray:
    """Byte-per-number primality flags for [0, n]."""
    if n < 1:
        return bytearray(n + 1)
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            start = p * p
            flags[start::p] = b"\x00" * ((n - start) // p + 1)
    return flags


def _base_primes(limit: int) -> list[int]:
    if limit < 2:
        return []
    flags = _simple_flags(limit)
    return list(compress(range(limit + 1), flags))


def _segment_flags(lo: int, hi: int, base: list[int]) -> bytearray:
    """Flags over [lo, hi): flags[i] set iff lo + i is prime. Requires lo >= 2
    and base to contain every prime <= isqrt(hi - 1)."""
    size = hi - lo
    flags = bytearray([1]) * size
    for p in base:
        if p * p >= hi:
            break
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start >= hi:
            continue
        flags[start - lo::p] = b"\x00" * ((hi - 1 - start) // p + 1)
    return flags


def least_prime_factors(lo: int, hi: int) -> np.ndarray:
    """Least prime factor of each integer in [lo, hi) as an int64 array, a
    prime being its own. Requires lo >= 2; memory is 8 bytes per integer."""
    if lo < 2:
        raise DomainError("least prime factors need lo >= 2")
    least = np.arange(lo, max(lo, hi), dtype=np.int64)
    if hi <= lo:
        return least
    # larger primes first, so the smallest divisor is written last
    for p in reversed(_base_primes(isqrt(hi - 1))):
        start = max(p * p, -(-lo // p) * p)
        least[start - lo::p] = p
    return least


def iter_prime_arrays(lo: int, hi: int, config: SieveConfig | None = None) -> Iterator[np.ndarray]:
    """Yield the primes in [lo, hi) as ascending int64 arrays, one per
    segment. Each array is freshly allocated, so callers may keep or
    filter it without copying."""
    config = config or SieveConfig()
    if hi > config.height_ceiling + 1:
        raise ResourceError(
            f"requested height {hi - 1} exceeds the ceiling {config.height_ceiling}"
        )
    lo = max(lo, 2)
    if hi <= lo:
        return
    base_limit = isqrt(hi - 1)
    config.check_allocation(base_limit + 1)
    base = _base_primes(base_limit)
    width = config.effective_width()
    seg_lo = lo
    while seg_lo < hi:
        seg_hi = min(seg_lo + width, hi)
        flags = _segment_flags(seg_lo, seg_hi, base)
        primes = np.flatnonzero(np.frombuffer(flags, dtype=np.uint8)).astype(np.int64, copy=False)
        primes += seg_lo
        yield primes
        seg_lo = seg_hi


def iter_primes(lo: int, hi: int, config: SieveConfig | None = None) -> Iterator[int]:
    """Yield the primes in [lo, hi) in increasing order, as Python ints."""
    for primes in iter_prime_arrays(lo, hi, config):
        yield from primes.tolist()


def _prime_list_bytes(y: int) -> int:
    # pi(y) < 1.3 y / ln y for y >= 17; a list slot plus small int runs ~40 bytes
    if y < 17:
        return 512
    return int(1.3 * y / log(y)) * 40


def primes_up_to(y: int, config: SieveConfig | None = None) -> list[int]:
    """All primes in [2, y], ascending. Unlike iter_primes this materializes
    the whole list, so the memory budget is checked against an upper estimate
    of its size."""
    if y < 0:
        raise DomainError("upper bound must be nonnegative")
    config = config or SieveConfig()
    if y > config.height_ceiling:
        raise ResourceError(f"height {y} exceeds the ceiling {config.height_ceiling}")
    config.check_allocation(_prime_list_bytes(y))
    out: list[int] = []
    for primes in iter_prime_arrays(2, y + 1, config):
        out.extend(primes.tolist())
    return out


class APIndex:
    """Every prime below a height, and the primes congruent to a modulo q
    among them indexed from 1 in increasing order.

    Extends itself by sieving further on demand and memoizes what it has
    found. The first extension reaches 8*q, which already holds the first
    few entries; each later one doubles the height, so the index never sieves
    more than about twice the height its largest answer needs. `primes`
    keeps every prime sieved, so build reads its offsets and coefficient
    factors from one sieve; the memory budget is charged for that list.
    Consecutive entries differ by a positive multiple of q, so the (k+1)-st
    entry always exceeds q*k. Mutation is not thread-safe; queries on an
    index that is no longer extending are.
    """

    def __init__(self, q: int, a: int, config: SieveConfig | None = None):
        if q < 3:
            raise DomainError("q must be >= 3")
        if gcd(a, q) != 1:
            raise DomainError("gcd(a,q) != 1")
        self.q = q
        self.a = a % q
        self._config = config or SieveConfig()
        self.primes: list[int] = []
        self._members: list[int] = []
        self._height = 2  # everything below this has been scanned

    def nth(self, n: int) -> int:
        if n < 1:
            raise DomainError("progression index is 1-based")
        while len(self._members) < n:
            self._extend()
        return self._members[n - 1]

    def extend_to(self, height: int) -> None:
        if height <= self._height:
            return
        if height > self._config.height_ceiling + 1:
            raise ResourceError(
                f"height {height - 1} exceeds the ceiling {self._config.height_ceiling}"
            )
        self._config.check_allocation(_prime_list_bytes(height))
        q, a = self.q, self.a
        for primes in iter_prime_arrays(self._height, height, self._config):
            self.primes.extend(primes.tolist())
            self._members.extend(primes[primes % q == a].tolist())
        self._height = height

    def _extend(self) -> None:
        ceiling = self._config.height_ceiling
        if self._height >= ceiling + 1:
            raise ResourceError(
                f"only {len(self._members)} primes = {self.a} mod {self.q} "
                f"below the ceiling {ceiling}"
            )
        target = max(self._height * 2, 8 * self.q)
        self.extend_to(min(target, ceiling + 1))

    def count_up_to(self, y: int) -> int:
        """Number of progression primes <= y."""
        if y >= self._height:
            if y > self._config.height_ceiling:
                raise ResourceError(
                    f"height {y} exceeds the ceiling {self._config.height_ceiling}"
                )
            self.extend_to(y + 1)
        return bisect_right(self._members, y)
