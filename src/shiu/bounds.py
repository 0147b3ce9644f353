"""Measuring the interval length B(q, a, k) across parameter ranges.

B is the diameter of the chosen offsets, so it depends only on where the
first k usable progression primes sit. The table builder sweeps (q, a, k)
grids, records B next to the shift t that produced it, and checks t against
window_cap(k, L), the window a Linnik-type bound p(q, a) << q^L on the least
progression prime suggests. Each row is a named tuple, so it equals the
plain tuple of its fields. A cell that cannot be built ends the sweep with
its error, as any command fails, so no row is ever left without its
measurements.
"""

from __future__ import annotations

from math import ceil, gcd, inf
from typing import NamedTuple

from .construction import choose_t
from .errors import DomainError
from .sieve import APIndex, _charge_primes_up_to, check_progression

DEFAULT_LINNIK_EXPONENT = 5.0


def window_cap(k: int, L: float) -> int:
    """The shift window suggested by p(q, a) << q^L:
    t <= (k - 1) * max(k, ceil(L)) + k."""
    return (k - 1) * max(k, ceil(L)) + k


class BoundRow(NamedTuple):
    """One grid cell. error is always None; it is kept only because the
    bounds JSON carries it."""

    q: int
    a: int
    k: int
    t: int
    B: int
    window_cap: int
    t_in_window: bool
    error: None = None


def _residues(q: int) -> list[int]:
    return [a for a in range(1, q) if gcd(a, q) == 1]


def bound_table(
    q_range,
    k_range,
    *,
    a: int | None = None,
    L: float = DEFAULT_LINNIK_EXPONENT,
) -> list[BoundRow]:
    """Sweep the grid in lexicographic (q, a, k) order, checking each shift
    against window_cap(k, L). With a=None every residue coprime to each q
    is measured. One progression index is shared across the k column so
    the sieve work is paid once per (q, a); each cell asks choose_t of it
    for t and reads B = l_{t+k} - l_{t+1}, as build would. Each q is first
    charged as build charges it, before its residues are listed, so a q
    that construct refuses ends the sweep at once. Any ShiuError from a
    cell, a resource limit included, ends the sweep."""
    if L <= 0:
        raise DomainError("L must be positive")
    if not L < inf:  # inf or nan, which ceil refuses
        raise DomainError(f"L must be finite, got {L}")
    qs = sorted(set(q_range))
    ks = sorted(set(k_range))
    if not qs or not ks:
        raise DomainError("empty q or k range")
    if any(q < 3 for q in qs):
        raise DomainError("q must be >= 3")
    pairs = []
    for q in qs:
        _charge_primes_up_to(q)
        for res in (_residues(q) if a is None else [a]):
            check_progression(q, res)
            pairs.append((q, res))
    rows = []
    for q, res in pairs:
        idx = APIndex(q, res)
        for k in ks:
            t = choose_t(idx.nth, k)
            cap = window_cap(k, L)
            rows.append(BoundRow(q, res, k, t, idx.nth(t + k) - idx.nth(t + 1), cap, t <= cap))
    return rows
