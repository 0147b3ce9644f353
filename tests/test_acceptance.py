"""Acceptance gate: the eight end-to-end claims this package stands on.

Each test prints one PASS/FAIL line (with wall time) straight to the
terminal, bypassing capture, so a full run always shows the scorecard.
"""

import json
import random
from contextlib import contextmanager
from functools import lru_cache
from math import gcd
from time import perf_counter

import pytest
import sympy

from shiu.bounds import bound_table, window_cap
from shiu.construction import (
    ConstructionParams,
    build,
    construction_to_json,
    reverify,
    scan_windows,
    verify_admissible,
    verify_isolation,
)
from shiu.errors import NotFoundError
from shiu.search import first_string
from shiu.tuples import KTuple, LinearForm, is_admissible

from ._oracles import (
    admissible_oracle,
    choose_t_oracle,
    first_string_oracle,
    simple_sieve,
)

GRID_Q = range(3, 31)
GRID_K = range(2, 13)


def grid_columns():
    for q in GRID_Q:
        for a in range(1, q):
            if gcd(a, q) == 1:
                yield q, a


@pytest.fixture
def announce(capsys):
    @contextmanager
    def _run(tag, budget=None):
        t0 = perf_counter()
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"acceptance {tag}: FAIL ({perf_counter() - t0:.2f}s)")
            raise
        elapsed = perf_counter() - t0
        with capsys.disabled():
            print(f"acceptance {tag}: PASS ({elapsed:.2f}s)")
        if budget is not None:
            assert elapsed < budget, f"{tag} took {elapsed:.2f}s, budget {budget}s"
    return _run


def test_1_random_tuples_match_brute_force(announce):
    rng = random.Random(20260822)
    with announce("1/8 random tuples vs enumeration", budget=10.0):
        for _ in range(500):
            k = rng.randint(1, 8)
            pairs = set()
            while len(pairs) < k:
                pairs.add((rng.randint(1, 50), rng.randint(-200, 200)))
            pairs = sorted(pairs)
            forms = KTuple(tuple(LinearForm(g, h) for g, h in pairs))
            got = is_admissible(forms).admissible
            assert got == admissible_oracle(pairs), f"disagreement on {pairs}"


def test_2_grid_builds_and_checks(announce):
    with announce("2/8 grid build and verification", budget=120.0):
        for q, a in grid_columns():
            for k in GRID_K:
                c = build(ConstructionParams(q=q, a=a, k=k))
                assert k < c.offsets[0]
                assert c.offsets[-1] < c.offsets[0] ** 2
                assert verify_admissible(c).admissible
                blocking = verify_isolation(c)
                assert len(blocking) == c.B + 1 - k


def test_3_worked_example_is_exact(announce):
    with announce("3/8 worked example"):
        c = build(ConstructionParams(q=3, a=1, k=5))
        assert c.t == 0
        assert c.offsets == (7, 13, 19, 31, 37)
        assert c.g_factors == (2, 3, 5, 11, 17, 23, 29)
        assert c.coefficient() == 3741870 * 3
        assert c.B == 30


def test_4_window_scan_is_clean_and_deterministic(announce):
    with announce("4/8 window scan over n=1..1000", budget=60.0):
        c = build(ConstructionParams(q=3, a=1, k=5))
        reports = scan_windows(c, 1, 1000)
        assert len(reports) == 1000
        offsets = set(c.offsets)
        for r in reports:
            assert not r.degenerate
            assert r.congruence_ok
            assert r.isolation_ok
            assert r.primality_proven
            assert set(r.prime_offsets) <= offsets
        again = scan_windows(c, 1, 1000)
        assert reports == again


@lru_cache(maxsize=1)
def _primes_to_a_million():
    return simple_sieve(10**6)


@lru_cache(maxsize=1)
def _small_grid_strings():
    found = {}
    for q in range(3, 13):
        for a in range(1, q):
            if gcd(a, q) != 1:
                continue
            for m in (2, 3):
                try:
                    found[(q, a, m)] = first_string(q, a, m, cap=10**6)
                except NotFoundError:
                    found[(q, a, m)] = None
    return found


def test_5_first_strings_match_linear_scan(announce):
    with announce("5/8 first strings vs linear scan", budget=30.0):
        primes = _primes_to_a_million()
        found = _small_grid_strings()
        for (q, a, m), s in found.items():
            want = first_string_oracle(q, a, m, 10**6, primes)
            if s is None:
                assert want is None, f"missed the string for {(q, a, m)}"
            else:
                assert want == (s.start_index, s.primes), f"wrong at {(q, a, m)}"
        assert found[(4, 1, 2)].primes == (13, 17)
        assert found[(3, 1, 2)].primes == (31, 37)
        assert found[(4, 3, 2)].primes == (7, 11)


def test_6_found_strings_survive_reverification(announce):
    with announce("6/8 independent string re-verification"):
        strings = [s for s in _small_grid_strings().values() if s is not None]
        assert strings
        for s in strings:
            assert s.diameter >= (s.m - 1) * s.q
            assert sympy.primepi(s.start_prime) - 1 == s.start_index
            for p in s.primes:
                assert sympy.isprime(p)
                assert p % s.q == s.a % s.q
            for lo, hi in zip(s.primes, s.primes[1:]):
                assert sympy.nextprime(lo) == hi


def test_7_shift_windows_and_bound_table(announce):
    with announce("7/8 shift windows and bound table"):
        rows = bound_table(GRID_Q, GRID_K, L=5.0)
        again = bound_table(GRID_Q, GRID_K, L=5.0)
        assert rows == again
        for row in rows:
            assert row.error is None
            assert row.B > 0
            assert row.B % row.q == 0
            # every shift on this grid lies in its window, so the oracle
            # searches only that far and fails the test if it finds none
            cap = window_cap(row.k, 5.0)
            assert row.t_in_window == (choose_t_oracle(row.q, row.a, row.k, t_max=cap) <= cap)


def test_8_certificates_round_trip_byte_exact(announce):
    with announce("8/8 certificate round trips"):
        for q, a in grid_columns():
            for k in GRID_K:
                c = build(ConstructionParams(q=q, a=a, k=k))
                text = construction_to_json(c, include_g=True)
                back = reverify(json.loads(text))
                assert construction_to_json(back, include_g=True) == text
