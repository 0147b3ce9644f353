"""Tuples of integer linear forms and exact admissibility checking.

A tuple of forms g_i*x + h_i is admissible when, for every prime p, the
residues n mod p at which the product of the forms vanishes cover fewer
than p classes. Only finitely many primes can achieve full coverage: any
p exceeding the tuple length covers at most k < p classes unless some form
has p dividing both its coefficient and its constant. That observation
gives the finite check set used here. LinearForm and KTuple are named
tuples whose constructor validates them.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from typing import NamedTuple

from .errors import DomainError, ResourceError
from .primality import classify_prime
from .sieve import primes_up_to

TRIAL_LIMIT = 10**6  # largest trial divisor tried when factoring a gcd(g, h)


class LinearForm(namedtuple("LinearForm", "g h")):
    """g*x + h with a positive integer coefficient g and integer constant h.
    Only the constructor validates: _make and _replace skip it."""

    __slots__ = ()

    def __new__(cls, g: int, h: int):
        if g < 1:
            raise DomainError("form coefficient must be a positive integer")
        return super().__new__(cls, g, h)


class KTuple(namedtuple("KTuple", "forms")):
    """An ordered tuple of pairwise distinct linear forms. Only the
    constructor validates: _make and _replace skip it."""

    __slots__ = ()

    def __new__(cls, forms: tuple[LinearForm, ...]):
        if len(forms) < 1:
            raise DomainError("a tuple needs at least one form")
        if len(set(forms)) != len(forms):
            raise DomainError("forms must be pairwise distinct")
        return super().__new__(cls, forms)

    @property
    def k(self) -> int:
        return len(self.forms)


class AdmissibilityReport(NamedTuple):
    """Verdict plus the evidence examined to reach it.

    witness is (p, covered) for the first prime whose residue classes are
    fully covered; present exactly when the tuple is inadmissible.
    """

    admissible: bool
    witness: tuple[int, int] | None
    checked_primes: tuple[int, ...]


def residue_coverage(t: KTuple, p: int) -> set[int]:
    """The set {n mod p : prod_i (g_i*n + h_i) = 0 mod p}, computed exactly.

    A form with p not dividing g contributes its single root; a form with
    p dividing both g and h vanishes identically and covers everything; a
    form with p dividing g only contributes nothing.
    """
    if p < 2 or not classify_prime(p)[0]:
        raise DomainError(f"{p} is not prime")
    covered: set[int] = set()
    for f in t.forms:
        g_mod = f.g % p
        if g_mod:
            covered.add(-f.h * pow(g_mod, -1, p) % p)
        elif f.h % p == 0:
            return set(range(p))
    return covered


def _least_prime_factor(d: int) -> int:
    """The least prime factor of d > 1 by trial division, with a primality
    test deciding a d that has none up to the trial bound. Such a d, if
    composite, is a resource error, not a wrong answer."""
    if d % 2 == 0:
        return 2
    f = 3
    while f * f <= d and f <= TRIAL_LIMIT:
        if d % f == 0:
            return f
        f += 2
    if f * f > d or classify_prime(d)[0]:
        return d
    raise ResourceError(f"cannot factor {d} within trial bound {TRIAL_LIMIT}")


def _check_primes(t: KTuple) -> list[int]:
    """Finite prime set deciding admissibility: every p <= k, plus the least
    prime dividing both g_i and h_i of each form. A form vanishes at every
    prime dividing both, so the least is already a full cover, and
    is_admissible stops at its first; no larger one is ever checked."""
    candidates = set(primes_up_to(t.k))
    for f in t.forms:
        d = gcd(f.g, f.h)
        if d > 1:
            candidates.add(_least_prime_factor(d))
    return sorted(candidates)


def is_admissible(t: KTuple) -> AdmissibilityReport:
    """Decide admissibility exactly, checking primes in increasing order."""
    checked: list[int] = []
    for p in _check_primes(t):
        checked.append(p)
        covered = residue_coverage(t, p)
        if len(covered) == p:
            return AdmissibilityReport(False, (p, len(covered)), tuple(checked))
    return AdmissibilityReport(True, None, tuple(checked))
