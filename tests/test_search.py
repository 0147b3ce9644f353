import json
import pickle
import statistics
from contextlib import contextmanager
from itertools import product
from math import gcd, isqrt
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shiu.search as search
import shiu.sieve as sieve

from shiu import cli
from shiu.errors import DomainError, NotFoundError
from shiu.search import (
    ShiuString,
    all_strings,
    diameter_stats,
    first_string,
)

from ._oracles import all_strings_oracle, first_string_oracle, simple_sieve

# all_strings has two paths, picked by its cap alone: these LOOP_CAP values
# send every cap down the plain loop, or down the numpy arrays
PATHS = {"loop": sieve.HEIGHT_CEILING, "arrays": 0}


@contextmanager
def on_path(path):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "LOOP_CAP", PATHS[path])
        yield

FIRSTS = {
    (4, 1, 2): (13, 17),
    (3, 1, 2): (31, 37),
    (4, 3, 2): (7, 11),
    (3, 2, 2): (23, 29),
    (3, 1, 3): (151, 157, 163),
    (4, 1, 3): (89, 97, 101),
}


@pytest.mark.parametrize("q,a,m", sorted(FIRSTS))
def test_first_string_known_values(q, a, m):
    for path in PATHS:
        with on_path(path):
            s = first_string(q, a, m, cap=10**4)
        assert s.primes == FIRSTS[(q, a, m)]
        assert s.diameter == s.primes[-1] - s.primes[0]


def test_first_string_start_index():
    s = first_string(3, 1, 2, cap=1000)
    # 31 is the 11th prime, so ten primes precede the run
    assert s.start_index == 10
    assert s.start_prime == 31


def test_first_string_not_found_below_cap():
    with pytest.raises(NotFoundError):
        first_string(3, 1, 2, cap=30)


def test_input_validation():
    with pytest.raises(DomainError):
        first_string(3, 1, 1)
    with pytest.raises(DomainError):
        first_string(4, 2, 2)
    with pytest.raises(DomainError):
        first_string(2, 1, 2)


def test_all_strings_overlapping_windows_below_100():
    found = [s.primes for s in all_strings(3, 1, 2, cap=100)]
    assert found == [(31, 37), (61, 67), (73, 79)]


def test_empty_stream_when_cap_too_low():
    assert list(all_strings(3, 1, 2, cap=10)) == []


def test_longer_run_yields_overlapping_windows():
    # the first triple for (3, 1) spans 151..163, so both of its pairs
    # must appear in the pair stream
    pairs = {s.primes for s in all_strings(3, 1, 2, cap=200)}
    assert (151, 157) in pairs
    assert (157, 163) in pairs


def test_maximal_only_emits_whole_runs_once():
    windows = list(all_strings(3, 1, 2, cap=1000))
    maximal = list(all_strings(3, 1, 2, cap=1000, maximal_only=True))
    assert len(maximal) < len(windows)
    for s in maximal:
        assert s.m >= 2
    starts = [s.start_index for s in maximal]
    assert starts == sorted(starts)
    # window count r - m + 1 summed over maximal runs matches the stream
    assert sum(s.m - 2 + 1 for s in maximal) == len(windows)


def test_first_string_is_prefix_of_stream():
    for q, a, m in [(3, 1, 2), (4, 3, 2), (5, 2, 2), (3, 2, 3)]:
        first = first_string(q, a, m, cap=10**5)
        stream_head = next(iter(all_strings(q, a, m, cap=10**5)))
        assert first == stream_head


@pytest.mark.parametrize("q", range(3, 13))
def test_matches_linear_scan_oracle(q):
    primes = simple_sieve(10**5)
    for path, a, m in product(PATHS, range(1, q), (2, 3)):
        if gcd(a, q) != 1:
            continue
        want = first_string_oracle(q, a, m, 10**5, primes)
        with on_path(path):
            if want is None:
                with pytest.raises(NotFoundError):
                    first_string(q, a, m, cap=10**5)
            else:
                got = first_string(q, a, m, cap=10**5)
                assert (got.start_index, got.primes) == want, path


_ORACLE_CAP = 20000
_ORACLE_PRIMES = simple_sieve(_ORACLE_CAP)
_CLASSES = [(q, a) for q in (3, 4, 5, 10) for a in range(1, q) if gcd(a, q) == 1]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((8, 64, 1 << 16)), st.sampled_from(_CLASSES),
       st.integers(2, 5), st.booleans(), st.integers(3, _ORACLE_CAP))
# (31, 37) is a run still open at the cap; 151, 157, 163 spans three
# width-8 segments, so its windows come from carried primes
@example(8, (3, 1), 2, True, 38)
@example(8, (3, 1), 3, False, 164)
@example(8, (3, 1), 3, True, 164)
@example(8, (4, 1), 5, True, _ORACLE_CAP)
def test_all_strings_matches_the_oracle_at_any_segment_width(width, cls, m, maximal, cap):
    q, a = cls
    want = all_strings_oracle(q, a, m, cap, maximal, _ORACLE_PRIMES)
    for path in PATHS:
        with pytest.MonkeyPatch.context() as mp, on_path(path):
            mp.setattr(sieve, "SEGMENT_WIDTH", width)
            got = [(s.start_index, s.primes)
                   for s in all_strings(q, a, m, cap=cap, maximal_only=maximal)]
        assert got == want, path


@st.composite
def _width_and_cap(draw):
    """A segment width, and a cap of 3, 4 or 5 or one off the end of a
    segment or of a block of four; segments start at 3."""
    width = draw(st.sampled_from((8, 64, 1 << 17)))
    span = draw(st.sampled_from((width, 4 * width)))
    ends = st.builds(lambda n, d: 3 + n * span + d, st.integers(1, 3), st.integers(-1, 1))
    return width, draw(st.sampled_from((3, 4, 5)) | ends)


@settings(max_examples=60, deadline=None)
@given(_width_and_cap(), st.sampled_from(_CLASSES), st.integers(2, 5), st.booleans())
@example((8, 38), (3, 1), 2, True)  # (31, 37) is a run still open at the cap
def test_the_loop_and_the_arrays_yield_equal_streams(width_cap, cls, m, maximal):
    (width, cap), (q, a) = width_cap, cls
    streams = []
    for path in PATHS:
        with pytest.MonkeyPatch.context() as mp, on_path(path):
            mp.setattr(sieve, "SEGMENT_WIDTH", width)
            streams.append(list(all_strings(q, a, m, cap=cap, maximal_only=maximal)))
    assert streams[0] == streams[1]
    assert all(type(s) is ShiuString for s in streams[0] + streams[1])


def test_all_strings_stops_at_the_segment_holding_its_string(monkeypatch):
    sieved = []
    segments = sieve._segments

    def counting(lo, hi):
        for seg_lo, flags in segments(lo, hi):
            sieved.append(seg_lo)
            yield seg_lo, flags

    # the loop reads them through iter_primes, the arrays by name
    monkeypatch.setattr(sieve, "_segments", counting)
    monkeypatch.setattr(search, "_segments", counting)
    monkeypatch.setattr(sieve, "SEGMENT_WIDTH", 64)
    for path in PATHS:
        sieved.clear()
        with on_path(path):
            assert next(all_strings(3, 1, 3, cap=10**6)).primes == (151, 157, 163)
        assert sieved == [3, 67, 131], path


def test_first_string_sieves_only_the_block_holding_its_string(monkeypatch):
    # at width 2^14 a block spans 2^16 numbers: the first, [3, 65539), ends
    # past the flag table and is sieved, and the second, [65539, 131075),
    # holds the string 118801, ..., 118897
    base = sieve._base_primes(isqrt(10**6 - 1))
    calls = []
    real = sieve._segment_flags

    def recording(lo, hi, primes):
        calls.append((lo, hi, primes))
        return real(lo, hi, primes)

    monkeypatch.setattr(sieve, "_segment_flags", recording)
    monkeypatch.setattr(sieve, "SEGMENT_WIDTH", 1 << 14)
    for path in PATHS:
        calls.clear()
        with on_path(path):
            assert first_string(3, 1, 8, cap=10**6).primes == (
                118801, 118819, 118831, 118843, 118861, 118873, 118891, 118897)
        # every call with the primes below the cap's root sieves the run
        # search's range
        assert [(lo, hi) for lo, hi, primes in calls if primes == base] == [
            (3, 65539), (65539, 131075)], path


def test_all_strings_drains_to_ten_million_under_a_one_mib_budget(monkeypatch):
    # the stream holds one segment and the base primes below 3163 at a time
    monkeypatch.setenv("SHIU_SIEVE_BUDGET_MB", "1")
    stream = all_strings(3, 1, 2, cap=10**7)
    assert sum(1 for _ in stream) == 142910


def test_all_strings_with_a_modulus_beyond_int64():
    # two congruent primes differ by at least q, so none lie below the cap
    for path in PATHS:
        with on_path(path):
            assert list(all_strings(1 << 70, 1, 2, cap=1000, maximal_only=True)) == []


def test_all_strings_with_more_primes_per_string_than_below_the_cap():
    # nothing is allocated per prime of a string that cannot exist
    for path in PATHS:
        with on_path(path):
            assert list(all_strings(3, 1, 10**12, cap=1000)) == []


def test_diameter_laws_on_found_strings():
    for s in all_strings(5, 2, 2, cap=10**4):
        assert s.diameter >= (s.m - 1) * s.q
        assert s.diameter % s.q == 0


def test_first_occurrence_height_is_monotone_in_m():
    for q, a in [(3, 1), (3, 2), (4, 1)]:
        h2 = first_string(q, a, 2, cap=10**6).start_prime
        h3 = first_string(q, a, 3, cap=10**6).start_prime
        assert h3 >= h2


def test_string_dataclass_validation():
    with pytest.raises(DomainError):
        ShiuString(q=3, a=1, start_index=0, primes=(7,), diameter=0)
    with pytest.raises(DomainError):
        ShiuString(q=3, a=1, start_index=0, primes=(13, 7), diameter=6)
    with pytest.raises(DomainError):
        ShiuString(q=3, a=1, start_index=0, primes=(7, 11), diameter=4)
    with pytest.raises(DomainError):
        ShiuString(q=3, a=1, start_index=0, primes=(7, 13), diameter=5)
    with pytest.raises(DomainError):
        ShiuString(q=3, a=1, start_index=-1, primes=(7, 13), diameter=6)


def test_string_repr_text():
    s = ShiuString(q=3, a=1, start_index=10, primes=(31, 37), diameter=6)
    assert repr(s) == "ShiuString(q=3, a=1, start_index=10, primes=(31, 37), diameter=6)"


@pytest.mark.parametrize("field", ["q", "a", "start_index", "primes", "diameter"])
def test_string_fields_cannot_be_set(field):
    s = ShiuString(q=3, a=1, start_index=10, primes=(31, 37), diameter=6)
    with pytest.raises(AttributeError):
        setattr(s, field, 0)
    assert s.primes == (31, 37)


def test_equal_strings_hash_equal():
    s = ShiuString(q=3, a=1, start_index=10, primes=(31, 37), diameter=6)
    t = next(all_strings(3, 1, 2, cap=100))
    assert s == t and hash(s) == hash(t)
    assert s != ShiuString(q=3, a=1, start_index=11, primes=(37, 43), diameter=6)
    assert len({s, t}) == 1


@pytest.mark.parametrize("maximal", [False, True])
def test_strings_survive_a_pickle_round_trip(maximal):
    strings = list(all_strings(3, 1, 3, cap=2000, maximal_only=maximal))
    back = pickle.loads(pickle.dumps(strings))
    assert back == strings
    assert all(type(s) is ShiuString for s in back)
    assert [s.m for s in back] == [s.m for s in strings]


@pytest.mark.parametrize("maximal", [False, True])
def test_both_emission_paths_yield_shiu_strings(maximal):
    # cap 38 leaves the maximal run (31, 37) open at the cap, so with
    # maximal_only it comes from the emission after the last prime
    for path in PATHS:
        with on_path(path):
            (s,) = all_strings(3, 1, 2, cap=38, maximal_only=maximal)
        assert type(s) is ShiuString
        assert s == ShiuString(q=3, a=1, start_index=10, primes=(31, 37), diameter=6)


def test_a_string_is_the_tuple_of_its_fields():
    s = ShiuString(q=3, a=1, start_index=10, primes=(31, 37), diameter=6)
    assert len(s) == 5
    q, a, start_index, primes, diameter = s
    assert (q, a, start_index, primes, diameter) == (3, 1, 10, (31, 37), 6)
    assert s == (3, 1, 10, (31, 37), 6)
    assert (s.m, s.start_prime) == (2, 31)


@pytest.mark.parametrize("maximal", [False, True])
@pytest.mark.parametrize("width", [8, 64, 1 << 16])
def test_all_strings_yields_what_the_validating_constructor_builds(monkeypatch, width, maximal):
    monkeypatch.setattr(sieve, "SEGMENT_WIDTH", width)
    for path in PATHS:
        seen = 0
        with on_path(path):
            for q, a, m in [(3, 1, 2), (4, 7, 3), (10, 7, 2)]:
                for s in all_strings(q, a, m, cap=5000, maximal_only=maximal):
                    assert type(s) is ShiuString
                    assert (s.q, s.a) == (q, a)
                    assert s == ShiuString(q=s.q, a=s.a, start_index=s.start_index,
                                           primes=s.primes, diameter=s.diameter)
                    seen += 1
        assert seen > 100, path


@pytest.mark.parametrize("maximal", [False, True])
@pytest.mark.parametrize("primes", [[7, 19, 13], [7, 13, 13]])
def test_all_strings_refuses_a_segment_out_of_order(monkeypatch, primes, maximal):
    # every member is 1 mod 3, so without the order check the scan would
    # yield a string that is not strictly increasing, (19, 13) or (13, 13);
    # the loop reads the primes one at a time, the arrays a segment at a
    # time, and here each prime is a segment of its own, so the segments
    # arrive out of order
    monkeypatch.setattr(search, "iter_primes", lambda lo, hi: iter(primes))
    monkeypatch.setattr(search, "_segments",
                        lambda lo, hi: iter([(p, bytearray([1])) for p in primes]))
    for path in PATHS:
        with on_path(path), pytest.raises(DomainError, match="ascending"):
            for s in all_strings(3, 1, 2, cap=100, maximal_only=maximal):
                assert s.primes[0] < s.primes[1], path


class TestDiameterStats:
    def test_single_string_single_bucket(self):
        s = ShiuString(q=3, a=1, start_index=10, primes=(31, 37), diameter=6)
        stats = diameter_stats([s], bucket_width=5)
        assert stats.buckets == ((5, 1),)
        assert stats.count == 1
        assert stats.min_diameter == stats.max_diameter == 6
        assert stats.median_diameter == 6.0

    def test_empty_stream(self):
        stats = diameter_stats([], bucket_width=5)
        assert stats.count == 0
        assert stats.buckets == ()
        assert stats.min_diameter is None

    def test_reference_bound_counting(self):
        strings = list(all_strings(3, 1, 2, cap=10**4))
        stats = diameter_stats(strings, reference_b=30)
        by_hand = sum(1 for s in strings if s.diameter <= 30)
        assert stats.at_or_below_reference == by_hand
        assert stats.count == len(strings)
        assert sum(n for _, n in stats.buckets) == stats.count

    def test_bucket_floors_are_multiples_of_width(self):
        strings = all_strings(4, 1, 2, cap=10**4)
        stats = diameter_stats(strings, bucket_width=8)
        for lo, _ in stats.buckets:
            assert lo % 8 == 0

    def test_width_validation(self):
        with pytest.raises(DomainError):
            diameter_stats([], bucket_width=0)

    @given(st.lists(st.integers(0, 10**30), min_size=1))
    def test_mean_is_the_correctly_rounded_mean(self, ds):
        stats = diameter_stats(SimpleNamespace(diameter=d) for d in ds)
        assert stats.mean_diameter == float(statistics.mean(ds))

    @given(st.lists(st.integers(0, 10**30)), st.integers(1, 50), st.integers(-5, 10**30))
    def test_matches_a_direct_computation(self, ds, width, reference_b):
        stats = diameter_stats((SimpleNamespace(diameter=d) for d in ds),
                               bucket_width=width, reference_b=reference_b)
        hist = {}
        for d in ds:
            hist[d // width * width] = hist.get(d // width * width, 0) + 1
        assert stats.count == len(ds)
        assert stats.buckets == tuple(sorted(hist.items()))
        assert stats.at_or_below_reference == sum(d <= reference_b for d in ds)
        if ds:
            assert (stats.min_diameter, stats.max_diameter) == (min(ds), max(ds))
            assert stats.median_diameter == float(statistics.median(ds))

    def test_csv_rendering(self, capsys):
        # (31, 37) is the one string of 1 mod 3 below 38
        assert cli.main(["search", "--q", "3", "--a", "1", "--m", "2", "--cap", "38",
                         "--all", "--format", "csv", "--bucket-width", "5",
                         "--reference-b", "30"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "field,value"
        assert "count,1" in lines
        assert "bucket_5,1" in lines
        assert "at_or_below_reference,1" in lines


def test_jsonl_schema(capsys):
    s = first_string(4, 1, 2, cap=100)
    # the first string alone, and the one string of 1 mod 4 below 18
    for emit_all in ((), ("--all",)):
        assert cli.main(["search", "--q", "4", "--a", "1", "--m", "2", "--cap", "18",
                         *emit_all]) == 0
        line = capsys.readouterr().out
        assert line.endswith("}\n") and line.count("\n") == 1
        data = json.loads(line)
        assert list(data) == ["q", "a", "m", "start_prime", "primes", "diameter"]
        assert data == {"q": 4, "a": 1, "m": 2, "start_prime": 13,
                        "primes": [13, 17], "diameter": 4}
        assert data["m"] == len(s.primes)
