import sys
from itertools import compress
from math import isqrt

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shiu.sieve as sieve
from shiu.errors import DomainError, ResourceError
from shiu.sieve import (
    APIndex,
    check_progression,
    iter_primes,
    primes_up_to,
)

from ._oracles import ap_primes_oracle, simple_sieve, trial_primes


def test_primes_up_to_edge_cases():
    assert primes_up_to(0) == []
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(10) == [2, 3, 5, 7]
    # every call hands out its own list and flags, so what a caller does to
    # them reaches no later call, though all of these are read from one table
    primes_up_to(100).clear()
    for _, flags in sieve._segments(3, 101):
        flags[:] = bytes(len(flags))
    assert primes_up_to(100) == trial_primes(100)
    assert [n for seg_lo, flags in sieve._segments(3, 101)
            for n in compress(range(seg_lo, 101, 2), flags)] == trial_primes(100)[1:]


def test_prime_counts_at_known_heights():
    assert len(primes_up_to(10**4)) == 1229
    assert len(primes_up_to(10**6)) == 78498


@given(st.integers(min_value=0, max_value=2000))
@example(3)
@example(4)  # the base primes' own root first reaches 2
@example(961)  # a prime square
@example(sieve.TABLE_LIMIT - 1)  # the flag table's last number, its end and just past it
@example(sieve.TABLE_LIMIT)
@example(sieve.TABLE_LIMIT + 1)
def test_matches_trial_division(y):
    assert primes_up_to(y) == trial_primes(y)


def test_window_matches_sympy_near_a_million():
    lo, hi = 999000, 1000100
    assert list(iter_primes(lo, hi)) == list(sympy.primerange(lo, hi))


@pytest.mark.parametrize("width", [2**10, 2**16, 2**20])
def test_segment_boundary_independence(monkeypatch, width):
    monkeypatch.setattr(sieve, "SEGMENT_WIDTH", width)
    assert list(iter_primes(2, 10**5 + 1)) == primes_up_to(10**5)


_TRIAL_500 = trial_primes(500)


def test_iter_primes_from_every_low_end_with_odd_and_even_high_ends():
    # 2 is handled apart from the odd-only flags, so every lo near it, and
    # either parity of lo and hi, must give the oracle's window
    for lo in range(401):
        for hi in (lo, lo + 1, lo + 2, lo + 3, lo + 30, lo + 31, 500):
            want = [p for p in _TRIAL_500 if lo <= p < hi]
            assert list(iter_primes(lo, hi)) == want, (lo, hi)


@pytest.mark.parametrize("width", [1, 2, 7, 8, 64, 1 << 17])
def test_iter_primes_at_odd_and_even_segment_widths(monkeypatch, width):
    monkeypatch.setattr(sieve, "SEGMENT_WIDTH", width)
    want = trial_primes(3000)
    for lo, hi in [(0, 3001), (2, 3), (3, 4), (4, 2999), (961, 1024), (2000, 2001)]:
        assert list(iter_primes(lo, hi)) == [p for p in want if lo <= p < hi], (lo, hi)


@pytest.mark.parametrize("width", [1, 2, 7, 8, 64, 1 << 17])
def test_segments_span_the_width_across_block_boundaries(monkeypatch, width):
    # four segments are sieved as one block, yet each is yielded alone: every
    # segment but the last spans the width, and the flags mark the primes
    monkeypatch.setattr(sieve, "SEGMENT_WIDTH", width)
    step = width + (width & 1)
    # ends: inside the first segment, mid-segment in the first block, at
    # the first block's end, and at a segment boundary and mid-segment in
    # the second block
    spans = (step // 2 + 1, 3 * step + step // 2 + 1, 4 * step, 5 * step, 6 * step + step // 2 + 1)
    # starts near 3, and starts below the flag table's end from which every
    # span ends above it: blocks read from the table meet a sieved block
    # that straddles its edge
    edge = [lo for lo in (sieve.TABLE_LIMIT - 4 * step - 1, sieve.TABLE_LIMIT - step // 2,
                          sieve.TABLE_LIMIT - 1) if lo >= 3]
    top = max(15, *edge) + max(spans)
    # trial division is too slow for the blocks of the default width
    want = trial_primes(top) if width <= 64 else simple_sieve(top)
    for lo in (*range(3, 16), *edge):
        for hi in (lo + span for span in spans):
            segments = list(sieve._segments(lo, hi))
            assert [seg_lo for seg_lo, _ in segments] == list(range(lo | 1, hi, step)), (lo, hi)
            assert all(type(flags) is bytearray for _, flags in segments)
            assert all(2 * len(flags) == step for _, flags in segments[:-1]), (lo, hi)
            seg_lo, flags = segments[-1]
            assert hi <= seg_lo + 2 * len(flags) <= hi + 1, (lo, hi)
            got = [n for seg_lo, flags in segments
                   for n in compress(range(seg_lo, hi, 2), flags)]
            assert got == [p for p in want if lo <= p < hi], (lo, hi)


@pytest.mark.parametrize("width", [8, 64])
def test_prime_lists_past_the_table_are_sieved_one_block_at_a_time(monkeypatch, width):
    # past the flag table every list of primes is collected from the
    # segments: no call to the sieving loop spans more than one block of
    # four, whether the list ends inside a block or at its end
    sieve._table()
    spans = []
    real = sieve._segment_flags
    monkeypatch.setattr(sieve, "_segment_flags",
                        lambda lo, hi, base: spans.append(hi - lo) or real(lo, hi, base))
    monkeypatch.setattr(sieve, "SEGMENT_WIDTH", width)
    block = 4 * width
    end = 3 + (sieve.TABLE_LIMIT // block + 1) * block  # the first block end past the table
    for y in (sieve.TABLE_LIMIT - 1, sieve.TABLE_LIMIT, sieve.TABLE_LIMIT + 1, end - 1, end):
        assert primes_up_to(y) == simple_sieve(y), y
    if width == 64:
        assert len(primes_up_to(10**6)) == 78498
    assert spans and max(spans) <= block


def test_iter_primes_empty_and_reversed_ranges():
    assert list(iter_primes(10, 10)) == []
    assert list(iter_primes(50, 20)) == []
    assert list(iter_primes(0, 3)) == [2]


def test_height_ceiling_is_enforced(monkeypatch):
    monkeypatch.setattr(sieve, "HEIGHT_CEILING", 1000)
    with pytest.raises(ResourceError):
        list(iter_primes(2, 2000))
    with pytest.raises(ResourceError):
        primes_up_to(1001)
    assert primes_up_to(1000)[-1] == 997


def test_budget_blocks_large_materialization(monkeypatch):
    monkeypatch.setenv("SHIU_SIEVE_BUDGET_MB", "1")
    with pytest.raises(ResourceError):
        primes_up_to(10**6)


def test_segments_charge_the_base_sieve_they_keep(monkeypatch):
    # above 2^32 the root passes the flag table, so the base primes are
    # themselves collected from a stream of segments, which charges its own
    # block after the first charge: that one covers the list of odd base
    # primes and one block of flags, the most the stream keeps at a time
    charges = []
    monkeypatch.setattr(sieve, "_check_allocation", charges.append)
    hi = 1 << 36
    next(sieve._segments(2, hi))
    assert len(charges) == 2
    base = sieve._base_primes(isqrt(hi - 1))
    assert base[-1] > sieve.TABLE_LIMIT
    block = 2 * sieve.SEGMENT_WIDTH  # four segments, a flag per odd number
    assert charges[0] >= sys.getsizeof(base) + sum(map(sys.getsizeof, base)) + block


def test_budget_refuses_a_base_sieve_over_it(monkeypatch):
    monkeypatch.setenv("SHIU_SIEVE_BUDGET_MB", "1")
    # the base primes below 2^20 alone take about 3 MiB as a list
    with pytest.raises(ResourceError):
        next(iter_primes(1 << 39, 1 << 40))


def test_budget_charges_the_block_before_sieving(monkeypatch):
    # a block of four 2^22-number segments spans all of [3, 10^7): about
    # 5 MB of flags, refused before anything is sieved
    calls = []
    real = sieve._segment_flags
    monkeypatch.setattr(sieve, "_segment_flags",
                        lambda lo, hi, base: calls.append((lo, hi)) or real(lo, hi, base))
    monkeypatch.setattr(sieve, "SEGMENT_WIDTH", 1 << 22)
    monkeypatch.setenv("SHIU_SIEVE_BUDGET_MB", "1")
    with pytest.raises(ResourceError):
        list(iter_primes(3, 10**7))
    assert calls == []


def test_env_budget_validation(monkeypatch):
    # a bad budget is never cached, so it raises at every charge
    for bad in ("not-a-number", "0"):
        monkeypatch.setenv("SHIU_SIEVE_BUDGET_MB", bad)
        for _ in range(2):
            with pytest.raises(DomainError):
                primes_up_to(10)
    monkeypatch.setenv("SHIU_SIEVE_BUDGET_MB", "64")
    sieve._check_allocation(64 << 20)
    with pytest.raises(ResourceError):
        sieve._check_allocation((64 << 20) + 1)


def test_budget_is_read_once_per_process(monkeypatch):
    monkeypatch.setenv("SHIU_SIEVE_BUDGET_MB", "1")
    with pytest.raises(ResourceError, match="over the 1048576 byte budget$"):
        sieve._check_allocation(2 << 20)
    # the limit was decided at the first charge, so a new value is not read
    monkeypatch.setenv("SHIU_SIEVE_BUDGET_MB", "64")
    with pytest.raises(ResourceError, match="over the 1048576 byte budget$"):
        sieve._check_allocation(2 << 20)
    sieve._limit.cache_clear()
    sieve._check_allocation(2 << 20)


def test_physical_memory_bounds_allocation_without_budget(monkeypatch):
    # each change of limit clears the cache, as a new process would start
    monkeypatch.delenv("SHIU_SIEVE_BUDGET_MB", raising=False)
    monkeypatch.setattr(sieve.os, "sysconf",
                        {"SC_PHYS_PAGES": 250, "SC_PAGE_SIZE": 4}.__getitem__)
    sieve._check_allocation(1000)
    with pytest.raises(ResourceError,
                       match="^sieve needs 1001 bytes, over the 1000 bytes of physical memory$"):
        sieve._check_allocation(1001)
    monkeypatch.setenv("SHIU_SIEVE_BUDGET_MB", "1")
    sieve._limit.cache_clear()
    sieve._check_allocation(1 << 20)  # a set budget replaces the fallback
    monkeypatch.delenv("SHIU_SIEVE_BUDGET_MB")
    monkeypatch.setattr(sieve.os, "sysconf", lambda name: -1)  # size unknown
    sieve._limit.cache_clear()
    sieve._check_allocation(1 << 60)


def test_physical_memory_is_unknown_without_sysconf(monkeypatch):
    def unsupported(name):
        raise ValueError(name)

    # the uncached probe, so that no None is cached for later callers
    probe = sieve._limit.__wrapped__
    monkeypatch.delenv("SHIU_SIEVE_BUDGET_MB", raising=False)
    monkeypatch.setattr(sieve.os, "sysconf", unsupported)
    assert probe() is None
    monkeypatch.delattr(sieve.os, "sysconf")
    assert probe() is None


class TestAPIndex:
    def test_known_sequences(self):
        idx = APIndex(3, 1)
        assert [idx.nth(i) for i in range(1, 7)] == [7, 13, 19, 31, 37, 43]
        idx = APIndex(3, 2)
        assert [idx.nth(i) for i in range(1, 9)] == [2, 5, 11, 17, 23, 29, 41, 47]
        idx = APIndex(4, 1)
        assert [idx.nth(i) for i in range(1, 5)] == [5, 13, 17, 29]

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            APIndex(2, 1)
        with pytest.raises(DomainError):
            APIndex(4, 2)
        with pytest.raises(DomainError):
            APIndex(3, 1).nth(0)

    @pytest.mark.parametrize("q,a", [(3, 1), (3, 2), (4, 3), (5, 2), (7, 5), (12, 7)])
    def test_matches_trial_oracle(self, q, a):
        idx = APIndex(q, a)
        assert [idx.nth(i) for i in range(1, 21)] == ap_primes_oracle(q, a, 20)

    @pytest.mark.parametrize("q,a", [(3, 1), (5, 3), (8, 5)])
    def test_gaps_are_positive_multiples_of_q(self, q, a):
        idx = APIndex(q, a)
        vals = [idx.nth(i) for i in range(1, 60)]
        for x, y in zip(vals, vals[1:]):
            assert (y - x) % q == 0 and y - x >= q

    def test_kth_entry_beats_qk(self):
        # gaps of at least q force the (k+1)-st entry above q*k
        for q, a in [(3, 1), (3, 2), (4, 1), (7, 3), (10, 9)]:
            idx = APIndex(q, a)
            for k in range(1, 101):
                assert idx.nth(k + 1) > q * k

    def test_first_extension_is_sized_to_the_query(self, monkeypatch):
        heights = []
        real = sieve._segments

        def recording(lo, hi):
            heights.append(hi)
            return real(lo, hi)

        monkeypatch.setattr(sieve, "_segments", recording)
        idx = APIndex(3, 1)
        assert idx.nth(5) == 37
        assert heights and max(heights) < 64

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(3, 1), (3, 2), (4, 3), (5, 2), (7, 5), (12, 7), (29, 1), (30, 7)]),
           st.integers(min_value=1, max_value=40),
           st.sampled_from([7, 8, 64, 1 << 16]))
    @example((30, 7), 40, 7)  # a width that is no multiple of q
    def test_answers_do_not_depend_on_segment_width(self, qa, n, width):
        q, a = qa
        want = ap_primes_oracle(q, a, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve, "SEGMENT_WIDTH", width)
            # one fixed height first: a wrong member slice then fails here
            # instead of sending nth after members that never come
            idx = APIndex(q, a)
            idx.extend_to(want[-1] + 1)
            assert idx._members == want
            assert [idx.nth(i) for i in range(1, n + 1)] == want
            idx = APIndex(q, a)
            assert [idx.nth(i) for i in range(1, n + 1)] == want

    # even q puts a member every q/2 flags; (3, 2) starts with the even prime
    @pytest.mark.parametrize("q,a", [(4, 1), (4, 3), (8, 3), (8, 5), (10, 3), (10, 9),
                                     (12, 11), (30, 13), (3, 2), (3, 1), (7, 2)])
    @pytest.mark.parametrize("width", [1, 2, 7, 8, 64, 1 << 17])
    def test_matches_oracle_at_odd_and_even_widths(self, monkeypatch, q, a, width):
        want = ap_primes_oracle(q, a, 30)
        monkeypatch.setattr(sieve, "SEGMENT_WIDTH", width)
        idx = APIndex(q, a)
        idx.extend_to(want[-1] + 1)
        assert idx._members == want
        idx = APIndex(q, a)
        assert [idx.nth(i) for i in range(1, 31)] == want

    def test_ceiling_error(self, monkeypatch):
        monkeypatch.setattr(sieve, "HEIGHT_CEILING", 5000)
        with pytest.raises(ResourceError):
            APIndex(9973, 1).nth(1)

    def test_budget_covers_the_kept_members(self, monkeypatch):
        # below 10^6 the index keeps at most 10^6 // 3 + 2 members of 1 mod
        # 3, charged at 40 bytes each, about 13 MB; the segments fit in 1 MiB
        monkeypatch.setenv("SHIU_SIEVE_BUDGET_MB", "1")
        with pytest.raises(ResourceError,
                           match="^sieve needs 13333400 bytes, over the 1048576 byte budget$"):
            APIndex(3, 1).extend_to(10**6)
        # the first extension of a q = 100003 index reaches 800024 and keeps
        # a handful of members, so 1 MiB is enough
        assert APIndex(100003, 1).nth(1) == ap_primes_oracle(100003, 1, 1)[0]

    @pytest.mark.parametrize("q,a", [(3, 1), (4, 3), (29, 1)])
    def test_keeps_only_its_members(self, q, a):
        idx = APIndex(q, a)
        idx.nth(30)
        assert not hasattr(idx, "primes")
        assert set(vars(idx)) == {"q", "a", "_members", "_height"}
        assert idx._members == ap_primes_oracle(q, a, len(idx._members))


@settings(max_examples=30)
@given(st.integers(min_value=2, max_value=300), st.integers(min_value=2, max_value=300))
def test_iter_primes_windows_agree_with_oracle(a, b):
    lo, hi = min(a, b), max(a, b)
    assert list(iter_primes(lo, hi)) == [p for p in trial_primes(hi - 1) if p >= lo]


@pytest.mark.parametrize("q,a,message", [
    (2, 1, "q must be >= 3"), (-6, 2, "q must be >= 3"), (4, 2, "gcd"), (9, 0, "gcd"),
])
def test_check_progression_is_the_one_progression_check(q, a, message):
    with pytest.raises(DomainError, match=message):
        check_progression(q, a)
    with pytest.raises(DomainError, match=message):
        APIndex(q, a)
    check_progression(9, 4)
