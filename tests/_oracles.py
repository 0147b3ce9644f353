"""Brute-force reference implementations the tests compare against.

Everything here is deliberately naive and shares no code with the package:
trial division, full residue enumeration, linear scans. Slow is fine;
independent is the point.
"""

from math import gcd, isqrt, prod


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def trial_primes(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if is_prime_trial(n)]


def simple_sieve(limit: int) -> list[int]:
    """Plain full-array sieve, used where trial division is too slow."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [n for n in range(limit + 1) if flags[n]]


def coverage_oracle(pairs, p: int) -> set[int]:
    """Residues n mod p where the product of the forms vanishes, found by
    trying every n."""
    return {
        n for n in range(p)
        if prod(g * n + h for g, h in pairs) % p == 0
    }


def admissible_oracle(pairs) -> bool:
    """Check every prime up to max(k, all g, all |h|) + 1 by enumeration."""
    bound = max(len(pairs), max(g for g, _ in pairs),
                max(abs(h) for _, h in pairs)) + 1
    for p in trial_primes(bound):
        if len(coverage_oracle(pairs, p)) == p:
            return False
    return True


def ap_primes_oracle(q: int, a: int, count: int) -> list[int]:
    """First `count` primes congruent to a mod q, by trial division."""
    out = []
    n = 2
    while len(out) < count:
        if n % q == a % q and is_prime_trial(n):
            out.append(n)
        n += 1
    return out


def choose_t_oracle(q: int, a: int, k: int, t_max: int = 1000) -> int:
    """Least t with k < l_{t+1} and l_{t+k} < l_{t+1}^2, by enumeration."""
    ells = ap_primes_oracle(q, a, t_max + k + 1)
    for t in range(t_max + 1):
        first, last = ells[t], ells[t + k - 1]
        if k < first and last < first * first:
            return t
    raise AssertionError("oracle exhausted its shift range")


def first_string_oracle(q: int, a: int, m: int, cap: int,
                        primes: list[int] | None = None):
    """Leftmost run of m consecutive primes all congruent to a mod q, as a
    (start_index, primes) pair, or None. Scans the full prime list."""
    if primes is None:
        primes = simple_sieve(cap - 1)
    run: list[int] = []
    start = 0
    for i, p in enumerate(primes):
        if p >= cap:
            break
        if p % q == a % q:
            if not run:
                start = i
            run.append(p)
            if len(run) == m:
                return start, tuple(run)
        else:
            run = []
    return None


def all_strings_oracle(q: int, a: int, m: int, cap: int, maximal_only: bool,
                       primes: list[int]) -> list[tuple[int, tuple[int, ...]]]:
    """Every (start_index, primes) string below cap, by one linear scan:
    each length-m window of a run of primes congruent to a mod q, or with
    maximal_only each whole run of at least m, the one open at cap
    included. primes must hold every prime below cap."""
    out = []
    run: list[int] = []
    start = 0
    for i, p in enumerate(primes + [None]):
        if p is not None and p < cap and p % q == a % q:
            if not run:
                start = i
            run.append(p)
            if not maximal_only and len(run) >= m:
                out.append((i + 1 - m, tuple(run[-m:])))
            continue
        if maximal_only and len(run) >= m:
            out.append((start, tuple(run)))
        run = []
        if p is None or p >= cap:
            break
    return out


def blocking_oracle(offsets, g_factors) -> list[tuple[int, int]]:
    """(h, least g_factor dividing h) for every non-offset h between the first
    and last offset, by a linear scan of g_factors; None marks an h no factor
    divides."""
    return [
        (h, next((f for f in g_factors if h % f == 0), None))
        for h in range(offsets[0], offsets[-1] + 1)
        if h not in offsets
    ]


def window_oracle(q: int, a: int, offsets, coeff: int, n: int, isprime) -> dict:
    """What a scan of window n must report, found by running isprime on every
    value in it. A verdict counts as proven when the value is below 2^64 or
    has a proper factor that divides coeff."""
    base = coeff * n
    values = range(base + offsets[0], base + offsets[-1] + 1)
    primes = [v for v in values if isprime(v)]
    prime_offsets = [v - base for v in primes if v - base in offsets]
    return {
        "n": n,
        "prime_offsets": prime_offsets,
        "window_prime_count": len(primes),
        "degenerate": n == 0,
        "congruence_ok": all(v % q == a % q for v in primes),
        "isolation_ok": len(prime_offsets) == len(primes),
        "primality_proven": all(v < 1 << 64 or 1 < gcd(v, coeff) < v for v in values),
    }
