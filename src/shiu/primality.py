"""Primality testing with the certainty reported to callers.

Below 2^64 a fixed seven-witness Miller-Rabin set is deterministic. Above
2^64 the test is Baillie-PSW: a strong base-2 test, a perfect-square check
and a strong Lucas test with Selfridge's parameters (Baillie and Wagstaff,
Math. Comp. 35, 1980). No composite is known to pass it, but none is proven
impossible, so verdicts in that range are reported as unproven. Fixed prime
bases are not enough there: psi_12 = 318665857834031151167461 is a strong
pseudoprime to every prime base up to 37 (Sorenson and Webster, Math. Comp.
86, 2017).
"""

from __future__ import annotations

from math import gcd, isqrt, prod

from .sieve import _base_primes

# Deterministic for all n < 2^64 (witness set from miller-rabin.appspot.com).
_U64_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

DETERMINISTIC_LIMIT = 1 << 64

# Every prime below 1000, and their product for a one-gcd trial division.
_SMALL_PRIMES = frozenset([2, *_base_primes(999)])
_SMALL_PRODUCT = prod(_SMALL_PRIMES)


def _strong_probable_prime(n: int, a: int) -> bool:
    """One strong probable-prime round; n odd, n > 2."""
    a %= n
    if a == 0:
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters: the first D in
    5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4. n odd and not
    a perfect square, so such a D exists."""
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and D % n:
            return False  # gcd(D, n) is a proper factor of n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k mod n, from k = 1 up to k = d by the bits of d.
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U & 1 else U) // 2 % n
            V = (V + n if V & 1 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def classify_prime(n: int) -> tuple[bool, bool]:
    """Return (is_prime, proven): proven is True iff n < 2^64, where the
    verdict is deterministic; above that Baillie-PSW decides."""
    if n < 1000:
        return n in _SMALL_PRIMES, True
    proven = n < DETERMINISTIC_LIMIT
    if gcd(n, _SMALL_PRODUCT) > 1:
        return False, proven
    if proven:
        return all(_strong_probable_prime(n, a) for a in _U64_WITNESSES), True
    return (_strong_probable_prime(n, 2)
            and isqrt(n) ** 2 != n
            and _strong_lucas_probable_prime(n)), False
