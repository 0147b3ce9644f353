"""Reference computations the benchmark checks shiu's outputs against.

Nothing here imports shiu. Every answer comes from a plain bytearray sieve,
trial division, a textbook Miller-Rabin or brute-force enumeration, so a
fault in the package cannot pass by agreeing with itself. The scan checks
add sympy.isprime, imported only when they run.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress
from math import ceil, gcd, isqrt, prod
from statistics import mean, median

U64 = 1 << 64

# Sorenson-Webster (2017): the least strong pseudoprimes to the first twelve
# and thirteen prime bases, with their factorizations.
PSI12 = 318665857834031151167461
PSI12_FACTORS = (399165290221, 798330580441)
PSI13 = 3317044064679887385961981
PSI13_FACTORS = (1287836182261, 2575672364521)


# -- primes ----------------------------------------------------------------


def sieve_flags(n: int) -> bytearray:
    """flags[i] == 1 exactly when i is prime, for 0 <= i < n."""
    flags = bytearray([1]) * n
    flags[:2] = bytes(min(n, 2))
    for p in range(2, isqrt(max(n - 1, 0)) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, n, p)))
    return flags


def primes_below(n: int) -> list[int]:
    return list(compress(range(n), sieve_flags(n)))


def is_prime_td(n: int) -> bool:
    """Trial division; for the small numbers the grid oracle handles."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % d for d in range(3, isqrt(n) + 1, 2))


def is_prime_mr(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below PSI12,
    which is far above every number the benchmark generates with it."""
    if n >= PSI12:
        raise ValueError("outside the exact range of twelve prime bases")
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng, bits: int) -> int:
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime_mr(n):
            return n


def chernick_carmichael(rng, k_lo: int, k_hi: int) -> int:
    """(6k+1)(12k+1)(18k+1) with all three factors prime, for the first such
    k at or after a random start in [k_lo, k_hi): a Carmichael number."""
    k = rng.randrange(k_lo, k_hi)
    while not all(is_prime_mr(c * k + 1) for c in (6, 12, 18)):
        k += 1
    return (6 * k + 1) * (12 * k + 1) * (18 * k + 1)


# -- runs of consecutive congruent primes ----------------------------------


def congruent_runs(primes: list[int], q: int, a: int) -> list[tuple[int, int]]:
    """Maximal runs of consecutive entries of primes that are all a mod q, as
    (index of the first member, length)."""
    res = a % q
    runs = []
    start = None
    for i, p in enumerate(primes):
        if p % q == res:
            if start is None:
                start = i
        elif start is not None:
            runs.append((start, i - start))
            start = None
    if start is not None:
        runs.append((start, len(primes) - start))
    return runs


def strings_from_runs(primes, runs, m: int, maximal: bool):
    """The (start_index, primes) strings a search emits, in emission order."""
    for start, length in runs:
        if length < m:
            continue
        if maximal:
            yield start, tuple(primes[start:start + length])
        else:
            for j in range(start, start + length - m + 1):
                yield j, tuple(primes[j:j + m])


def chain_digest(h: int, start_index: int, primes: tuple[int, ...]) -> int:
    """One step of an order-sensitive digest over emitted strings. Hashes of
    ints and tuples of ints are the same in every process."""
    return hash((h, start_index, primes))


def census_expectation(primes, q: int, a: int, m: int, maximal: bool,
                       bucket_width: int = 10) -> dict:
    """Everything a search plus diameter summary must report."""
    h = 0
    first = None
    ds = []
    for start, ps in strings_from_runs(primes, congruent_runs(primes, q, a), m, maximal):
        if first is None:
            first = (start, ps)
        h = chain_digest(h, start, ps)
        ds.append(ps[-1] - ps[0])
    buckets = Counter(d // bucket_width * bucket_width for d in ds)
    return {
        "count": len(ds),
        "min": min(ds) if ds else None,
        "median": float(median(ds)) if ds else None,
        "max": max(ds) if ds else None,
        "mean": float(mean(ds)) if ds else None,
        "buckets": tuple(sorted(buckets.items())),
        "first": first,
        "digest": h,
    }


# -- certificates ------------------------------------------------------------


def progression_primes(q: int, a: int):
    n = a % q
    while True:
        if is_prime_td(n):
            yield n
        n += q


def certificate(q: int, a: int, k: int) -> dict:
    """The Shiu certificate for (q, a, k) by direct enumeration: the least
    shift t with k < l_{t+1} and l_{t+k} < l_{t+1}^2, its k offsets, the primes
    up to the last offset that are not offsets, and B."""
    source = progression_primes(q, a)
    ls: list[int] = []
    t = 0
    while True:
        while len(ls) < t + k:
            ls.append(next(source))
        first, last = ls[t], ls[t + k - 1]
        if k < first and last < first * first:
            break
        t += 1
    offsets = ls[t:t + k]
    chosen = set(offsets)
    g_factors = [p for p in primes_below(last + 1) if p not in chosen]
    return {"q": q, "a": a, "k": k, "t": t, "offsets": offsets,
            "g_factors": g_factors, "B": last - first}


def coefficient(cert: dict) -> int:
    return prod(cert["g_factors"]) * cert["q"]


def admissible(coeff: int, offsets, k: int) -> bool:
    """Brute-force admissibility of the forms coeff*x + l: no form shares a
    factor with the coefficient, and every prime p <= k leaves some residue
    class n mod p where no form vanishes. Primes above k cannot be covered."""
    if any(gcd(coeff, l) != 1 for l in offsets):
        return False
    for p in primes_below(k + 1):
        c = coeff % p
        if all(any((c * n + l) % p == 0 for l in offsets) for n in range(p)):
            return False
    return True


def interior(cert: dict) -> list[int]:
    """The non-offset integers between the first and last offset."""
    chosen = set(cert["offsets"])
    return [h for h in range(cert["offsets"][0], cert["offsets"][-1] + 1)
            if h not in chosen]


def isolated(cert: dict) -> bool:
    coeff = coefficient(cert)
    return all(gcd(h, coeff) > 1 for h in interior(cert))


def linnik_window_cap(k: int, L: float = 5.0) -> int:
    return (k - 1) * max(k, ceil(L)) + k


def coprime_residues(q: int) -> list[int]:
    return [a for a in range(1, q) if gcd(a, q) == 1]


def bound_rows(qs, ks) -> list[tuple]:
    """(q, a, k, t, B, window_cap, t_in_window) for every coprime residue, in
    lexicographic order."""
    rows = []
    for q in qs:
        for a in coprime_residues(q):
            for k in ks:
                c = certificate(q, a, k)
                cap = linnik_window_cap(k)
                rows.append((q, a, k, c["t"], c["B"], cap, c["t"] <= cap))
    return rows


# -- windows -------------------------------------------------------------------


def expected_window(cert: dict, coeff: int, n: int, isprime) -> dict | None:
    """What a scan of window n >= 1 must report: the offsets whose values are
    prime (by isprime), no other prime anywhere in the window, and a proven
    verdict exactly when the whole window lies below 2^64. None when some
    interior value is coprime to coeff, so the window is not isolated; an
    interior value sharing a factor with coeff exceeds it and is composite."""
    if n < 1:
        raise ValueError("the isolation argument needs n >= 1")
    base = coeff * n
    if not all(gcd(base + h, coeff) > 1 for h in interior(cert)):
        return None
    prime_offsets = [h for h in cert["offsets"] if isprime(base + h)]
    return {
        "n": n,
        "prime_offsets": prime_offsets,
        "window_prime_count": len(prime_offsets),
        "degenerate": False,
        "congruence_ok": True,
        "isolation_ok": True,
        "primality_proven": base + cert["offsets"][-1] < U64,
    }
