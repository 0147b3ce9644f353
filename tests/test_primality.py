from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import isprime, nextprime

from shiu.primality import (
    DETERMINISTIC_LIMIT,
    _strong_lucas_probable_prime,
    classify_prime,
)

from ._oracles import is_prime_trial, simple_sieve, strong_probable_prime

U64 = 1 << 64

# Strong pseudoprimes to every prime base up to 37 (Sorenson-Webster 2017).
PSI12 = 318665857834031151167461
PSI13 = 3317044064679887385961981

# m with 6m+1, 12m+1 and 18m+1 all prime, so their product is a Carmichael
# number (Chernick). Every factor exceeds 1000; the last three products
# exceed 2^64.
CHERNICK_M = (195, 206, 216, 250180, 250631, 250890)

# Every composite below 30000 that passes the strong Lucas test with
# Selfridge's parameters (OEIS A217255).
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199)

# The least strong pseudoprime to all of the first j prime bases, for each j
# whose value lies below 2^64 (OEIS A014233).
A014233 = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 3825123056546413051)


@pytest.mark.parametrize("n", [PSI12, PSI13])
def test_sorenson_webster_numbers_are_composite(n):
    assert all(strong_probable_prime(n, a)
               for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    assert classify_prime(n) == (False, False)


@pytest.mark.parametrize("m", CHERNICK_M)
def test_chernick_carmichael_numbers_are_composite(m):
    factors = (6 * m + 1, 12 * m + 1, 18 * m + 1)
    assert all(is_prime_trial(f) for f in factors)
    n = factors[0] * factors[1] * factors[2]
    assert pow(2, n - 1, n) == 1  # a Fermat pseudoprime to base 2
    assert classify_prime(n) == (False, n < U64)


@pytest.mark.parametrize("n", [2047, 3215031751])
def test_base_2_strong_pseudoprimes_are_composite(n):
    assert strong_probable_prime(n, 2)
    assert classify_prime(n) == (False, True)


def test_lucas_half_rejects_base_2_strong_pseudoprimes_below_2_64():
    # each passes the strong base-2 round, so below 2^64 only the gcd with
    # the primes below 1000 or the strong Lucas test can find it composite;
    # five of the A014233 values have no prime factor below 1000
    primes = set(simple_sieve(10**6))
    below_10_6 = [n for n in range(3, 10**6, 2)
                  if n not in primes and strong_probable_prime(n, 2)]
    assert len(below_10_6) == 46
    assert below_10_6[:3] == [2047, 3277, 4033]
    for n in below_10_6 + list(A014233):
        assert strong_probable_prime(n, 2)
        assert classify_prime(n) == (False, True), n


@pytest.mark.parametrize("n", [5459, 5777, 10877])
def test_strong_lucas_pseudoprimes_are_composite(n):
    assert _strong_lucas_probable_prime(n)
    assert classify_prime(n) == (False, True)


def test_strong_lucas_test_is_the_selfridge_one():
    fooled = [n for n in range(3, 30000, 2)
              if isqrt(n) ** 2 != n and _strong_lucas_probable_prime(n)
              and not is_prime_trial(n)]
    assert tuple(fooled) == STRONG_LUCAS_PSEUDOPRIMES


@pytest.mark.parametrize("e", [89, 107, 127])
def test_mersenne_primes_are_prime(e):
    assert classify_prime((1 << e) - 1) == (True, False)


@pytest.mark.parametrize("n, prime", [
    (U64 - 59, True),   # the largest prime below 2^64
    (U64 - 1, False),
    (U64, False),
    (U64 + 1, False),   # 274177 * 67280421310721
    (U64 + 13, True),   # the least prime above 2^64
])
def test_verdicts_on_both_sides_of_2_64(n, prime):
    assert classify_prime(n) == (prime, n < U64)


@pytest.mark.parametrize("p", [1093, 3511, nextprime(1 << 40), (1 << 61) - 1])
def test_prime_squares_are_composite(p):
    # 1093^2 and 3511^2 are base-2 strong pseudoprimes; a square above 2^64
    # has no Selfridge parameter D, so it must be caught before the Lucas test
    assert classify_prime(p * p) == (False, p * p < U64)


def test_small_values_are_exact():
    # every n from 1000 up with no prime factor below 1000 meets Baillie-PSW
    small = [n for n in range(-5, 2 * 10**5) if classify_prime(n)[0]]
    assert small == simple_sieve(2 * 10**5 - 1)


def test_proven_exactly_below_2_64():
    assert DETERMINISTIC_LIMIT == U64
    for n in (-1, 0, 1, 2, 4, U64 - 1):
        assert classify_prime(n)[1]
    for n in (U64, U64 + 2, U64 + 3, 3 * U64):  # composite by a small factor too
        assert not classify_prime(n)[1]


values = st.one_of(
    st.integers(0, U64 - 1),
    st.integers(U64, 1 << 256),
    st.integers(2, 1 << 200).map(nextprime),
    st.tuples(st.integers(1000, 1 << 100), st.integers(1000, 1 << 100))
    .map(lambda pair: nextprime(pair[0]) * nextprime(pair[1])),
)


@settings(max_examples=300, deadline=None)
@given(values)
def test_agrees_with_sympy(n):
    assert classify_prime(n) == (isprime(n), n < U64)
