import copy
import json
import pickle
import tracemalloc
from decimal import Decimal
from math import gcd, prod
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import isprime, nextprime

import shiu.construction as construction
from shiu import cli
from shiu.construction import (
    Construction,
    ConstructionParams,
    build,
    choose_t,
    construction_from_dict,
    construction_to_json,
    reverify,
    scan_windows,
    verify_admissible,
    verify_isolation,
)
import shiu.sieve as sieve
from shiu.errors import DomainError, InternalConsistencyError, ResourceError
from shiu.sieve import APIndex
from shiu.tuples import AdmissibilityReport, KTuple, LinearForm, is_admissible

from ._oracles import (
    blocking_oracle,
    choose_t_oracle,
    trial_primes,
    window_oracle,
)
from .test_tuples import refuses

# the worked example, every field pinned by independent derivation
EX_OFFSETS = (7, 13, 19, 31, 37)
EX_G_FACTORS = (2, 3, 5, 11, 17, 23, 29)
EX_G = 3741870
EX_COEFF = 11225610
EX_BLOCKING = [
    (8, 2), (9, 3), (10, 2), (11, 11), (12, 2), (14, 2), (15, 3), (16, 2),
    (17, 17), (18, 2), (20, 2), (21, 3), (22, 2), (23, 23), (24, 2), (25, 5),
    (26, 2), (27, 3), (28, 2), (29, 29), (30, 2), (32, 2), (33, 3), (34, 2),
    (35, 5), (36, 2),
]


def as_ktuple(c: Construction) -> KTuple:
    """The k forms coeff*x + offset, with the multiplied-out coefficient."""
    coeff = c.coefficient()
    return KTuple(tuple(LinearForm(coeff, h) for h in c.offsets))


def _cert(c: Construction, include_g: bool = False) -> dict:
    """The certificate of c as a dict, its g_factors from trial division."""
    g_factors = [p for p in trial_primes(c.offsets[-1]) if p not in c.offsets]
    cert = {"q": c.params.q, "a": c.params.a, "k": c.params.k, "t": c.t,
            "offsets": list(c.offsets), "g_factors": g_factors, "B": c.B}
    if include_g:
        cert["g_decimal"] = str(prod(g_factors))
    return cert


@st.composite
def _cells(draw, q_max=30, k_max=12):
    q = draw(st.integers(3, q_max))
    a = draw(st.sampled_from([a for a in range(1, q) if gcd(a, q) == 1]))
    return q, a, draw(st.integers(2, k_max))


def test_params_validation():
    refuses(ConstructionParams, {"q": 2, "a": 1, "k": 5}, "q must be >= 3")
    refuses(ConstructionParams, {"q": 4, "a": 2, "k": 5}, "gcd")
    refuses(ConstructionParams, {"q": 3, "a": 1, "k": 1}, "k must be >= 2")
    assert ConstructionParams(q=3, a=4, k=2).residue == 1


def _inputs():
    """One of each validated input, with the plain tuple of its fields."""
    params = ConstructionParams(q=3, a=1, k=5)
    c = build(params)
    t = as_ktuple(c)
    return {"ConstructionParams": (params, (3, 1, 5)),
            "Construction": (c, (params, 0, EX_OFFSETS, 30)),
            "LinearForm": (t.forms[0], (EX_COEFF, 7)),
            "KTuple": (t, (tuple((EX_COEFF, h) for h in EX_OFFSETS),))}


@pytest.mark.parametrize("name", ["ConstructionParams", "Construction", "LinearForm", "KTuple"])
def test_an_input_is_the_tuple_of_its_fields(name):
    record, fields = _inputs()[name]
    assert type(record).__name__ == name
    assert record == fields and hash(record) == hash(fields)
    assert tuple(record) == fields and len(record) == len(fields)


@pytest.mark.parametrize("name", ["ConstructionParams", "Construction", "LinearForm", "KTuple"])
def test_an_input_survives_a_copy_and_a_pickle_round_trip(name):
    record, _ = _inputs()[name]
    for back in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert back == record and type(back) is type(record)


def test_choose_t_known_values():
    assert choose_t(APIndex(3, 1).nth, 5) == 0
    assert choose_t(APIndex(3, 2).nth, 5) == 2
    assert choose_t(APIndex(4, 1).nth, 2) == 0
    assert choose_t(APIndex(3, 1).nth, 2) == 0
    assert choose_t(APIndex(4, 1).nth, 4) == 1


@pytest.mark.parametrize("q,a", [(3, 1), (3, 2), (4, 1), (4, 3), (5, 2), (7, 3), (10, 7)])
@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_choose_t_matches_enumeration_oracle(q, a, k):
    assert choose_t(APIndex(q, a).nth, k) == choose_t_oracle(q, a, k, t_max=50)


def test_choose_t_cap_is_a_resource_error(monkeypatch):
    # (3, 2, 5) needs t = 2, so a cap of 1 is not enough
    monkeypatch.setattr(construction, "SHIFT_CAP", 1)
    with pytest.raises(ResourceError):
        choose_t(APIndex(3, 2).nth, 5)
    # t = 0 genuinely works here, so cap 0 still succeeds
    monkeypatch.setattr(construction, "SHIFT_CAP", 0)
    assert choose_t(APIndex(3, 1).nth, 5) == 0


def test_build_worked_example():
    c = build(ConstructionParams(q=3, a=1, k=5))
    assert c.t == 0
    assert c.offsets == EX_OFFSETS
    assert c.g_factors == EX_G_FACTORS
    assert c.B == 30
    assert c.coefficient() == EX_COEFF == EX_G * 3


def test_build_second_example():
    c = build(ConstructionParams(q=3, a=2, k=5))
    assert c.t == 2
    assert c.offsets == (11, 17, 23, 29, 41)
    assert c.g_factors == (2, 3, 5, 7, 13, 19, 31, 37)
    assert c.B == 30


def test_build_k2_example():
    c = build(ConstructionParams(q=3, a=1, k=2))
    assert c.t == 0
    assert c.offsets == (7, 13)
    assert c.B == 6


def test_build_charges_its_g_factors_before_sieving(monkeypatch):
    # the g_factors of q = 1000003 hold at least the primes up to q, about
    # 3.8 MB as a list, so a 1 MiB budget refuses the build unsieved; so
    # does the height ceiling, before any estimate, for a q past it
    def no_sieve(lo, hi, base):
        raise AssertionError(f"sieved [{lo}, {hi})")

    monkeypatch.setattr(sieve, "_segment_flags", no_sieve)
    monkeypatch.setenv("SHIU_SIEVE_BUDGET_MB", "1")
    with pytest.raises(ResourceError, match="byte budget"):
        build(ConstructionParams(q=1000003, a=1, k=2))
    monkeypatch.delenv("SHIU_SIEVE_BUDGET_MB")
    with pytest.raises(ResourceError, match="exceeds the ceiling"):
        build(ConstructionParams(q=10**400, a=1, k=2))


def test_construction_validation_catches_tampering():
    c = build(ConstructionParams(q=3, a=1, k=5))
    good = dict(params=c.params, t=c.t, offsets=c.offsets, B=c.B)
    for field, bad, message in [
        ("offsets", (7, 13, 19, 37, 31), "strictly increasing"),
        ("offsets", (7, 13, 19, 31), "expected 5 offsets, got 4"),
        ("offsets", (11, 13, 19, 31, 37), "congruent to a mod q"),
        ("B", 31, "B must equal last offset minus first offset"),
        ("t", -1, "shift must be nonnegative"),
    ]:
        refuses(Construction, {**good, field: bad}, message)


def test_verify_isolation_charges_the_pairs_it_returns(monkeypatch):
    # (10007, 1, 3) has 320,222 interior h: 0.6 MB of byte cover but about
    # 36 MB with the (h, p) pairs, so a 16 MB budget must refuse it before
    # the cover sieves the window
    c = build(ConstructionParams(q=10007, a=1, k=3))
    sieved = []
    monkeypatch.setattr(construction, "_segments",
                        lambda lo, hi: sieved.append(lo) or sieve._segments(lo, hi))
    monkeypatch.setenv("SHIU_SIEVE_BUDGET_MB", "16")
    sieve._limit.cache_clear()  # a new budget is read by a new process
    with pytest.raises(ResourceError):
        verify_isolation(c)
    assert sieved == []
    monkeypatch.setenv("SHIU_SIEVE_BUDGET_MB", "64")
    sieve._limit.cache_clear()  # a new budget is read by a new process
    assert len(verify_isolation(c)) == c.B + 1 - c.params.k


@pytest.mark.parametrize("q,a,k", [(10007, 1, 3), (1009, 1, 4)])
def test_verify_isolation_charges_at_least_its_peak(monkeypatch, q, a, k):
    # what the budget is charged bounds what tracemalloc sees allocated
    c = build(ConstructionParams(q, a, k))
    charged = []
    monkeypatch.setattr(construction, "_check_allocation", charged.append)
    tracemalloc.start()
    try:
        verify_isolation(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(charged)


def test_size_conditions_are_enforced():
    # 5 offsets of 1 mod 3 with the last at 61 >= 49 = 7^2
    refuses(Construction, {"params": ConstructionParams(q=3, a=1, k=5), "t": 0,
                           "offsets": (7, 13, 19, 31, 61), "B": 54},
            "need last offset below the square of the first")
    # k = 7 is not below the first offset 7
    refuses(Construction, {"params": ConstructionParams(q=3, a=1, k=7), "t": 0,
                           "offsets": (7, 13, 19, 31, 37, 43, 61), "B": 54},
            "need k < first offset")


def test_as_ktuple_shape():
    c = build(ConstructionParams(q=3, a=1, k=5))
    t = as_ktuple(c)
    assert t.k == 5
    assert {f.g for f in t.forms} == {EX_COEFF}
    assert tuple(f.h for f in t.forms) == EX_OFFSETS


def test_verify_admissible_on_examples():
    for q, a, k in [(3, 1, 5), (3, 2, 5), (4, 1, 4)]:
        rep = verify_admissible(build(ConstructionParams(q=q, a=a, k=k)))
        assert isinstance(rep, AdmissibilityReport)
        assert rep.admissible


def test_verify_admissible_cross_check_trips_on_disagreement(monkeypatch):
    c = build(ConstructionParams(q=3, a=1, k=5))

    def lying_checker(_):
        return AdmissibilityReport(False, (2, 2), (2,))

    monkeypatch.setattr(construction, "is_admissible", lying_checker)
    with pytest.raises(InternalConsistencyError) as info:
        verify_admissible(c)
    assert info.value.context["q"] == 3


def test_verify_isolation_worked_example():
    c = build(ConstructionParams(q=3, a=1, k=5))
    assert verify_isolation(c) == EX_BLOCKING


def test_verify_isolation_covers_whole_interior():
    for q, a, k in [(3, 1, 2), (3, 2, 5), (5, 4, 6), (8, 3, 4)]:
        c = build(ConstructionParams(q=q, a=a, k=k))
        pairs = verify_isolation(c)
        assert len(pairs) == c.B + 1 - k
        for h, p in pairs:
            assert h % p == 0
            assert p in c.g_factors
            assert c.offsets[0] < h < c.offsets[-1]
            assert h not in c.offsets


def test_verify_isolation_tight_k2_run():
    # consecutive progression primes exactly q apart: B - 1 interior values
    c = build(ConstructionParams(q=4, a=3, k=2))
    assert c.offsets == (3, 7)
    assert c.offsets[1] == c.offsets[0] + 4
    assert len(verify_isolation(c)) == c.B - 1


def test_verify_isolation_labels_a_hand_made_window():
    # a composite last offset, 25, and window primes 11 ... 23 that no
    # striking prime (2, 3, 5) divides, so each labels its own slot
    c = Construction(params=ConstructionParams(q=3, a=1, k=2), t=0,
                     offsets=(7, 25), B=18)
    g_factors = [p for p in trial_primes(25) if p not in c.offsets]
    assert verify_isolation(c) == blocking_oracle(c.offsets, g_factors)


def _without(dropped):
    """primes_up_to less the primes in dropped: the factor source of a
    cover that has lost them."""
    real = sieve.primes_up_to
    return lambda y: [p for p in real(y) if p not in dropped]


def test_verify_isolation_raises_on_uncovered_value(monkeypatch):
    # with no 2 among the striking primes, 8 = 2^3 is left with no factor
    c = build(ConstructionParams(q=3, a=1, k=5))
    monkeypatch.setattr(construction, "primes_up_to", _without({2}))
    with pytest.raises(InternalConsistencyError) as info:
        verify_isolation(c)
    assert info.value.context["h"] == 8


@pytest.mark.parametrize("q,a,k", [
    (3, 1, 5), (3, 2, 2), (4, 3, 7), (7, 3, 9), (10, 9, 12), (29, 1, 12), (30, 7, 8),
])
def test_verify_isolation_matches_linear_scan(q, a, k):
    c = build(ConstructionParams(q=q, a=a, k=k))
    assert verify_isolation(c) == blocking_oracle(c.offsets, c.g_factors)


def _isolation_outcome(c):
    try:
        return verify_isolation(c)
    except InternalConsistencyError as exc:
        return exc.context["h"]


# the primes that strike the worked example's window: those up to isqrt(37)
_EX_STRIKING = (2, 3, 5)


@settings(max_examples=20, deadline=None)
@given(st.sets(st.sampled_from(_EX_STRIKING)))
@example(frozenset())
@example(frozenset({2}))
@example(frozenset({5}))
def test_verify_isolation_equals_the_blocking_oracle(dropped):
    # a cover whose factor source has lost some primes stops at the h that
    # the oracle leaves uncovered when given every g_factor but those
    c = build(ConstructionParams(q=3, a=1, k=5))
    want = blocking_oracle(c.offsets, [f for f in EX_G_FACTORS if f not in dropped])
    uncovered = next((h for h, p in want if p is None), None)
    with patch.object(construction, "primes_up_to", _without(dropped)):
        assert _isolation_outcome(c) == (want if uncovered is None else uncovered)


def _cover_outcome(c):
    try:
        construction._check_cover(c)
    except InternalConsistencyError as exc:
        return exc.context["h"]
    return None


@settings(max_examples=60, deadline=None)
@given(_cells(), st.sets(st.sampled_from(trial_primes(40))))
@example((3, 1, 5), frozenset())
@example((3, 1, 5), frozenset({2}))
@example((3, 1, 5), frozenset({5}))
@example((29, 1, 12), frozenset({3}))
def test_cover_check_fails_where_verify_isolation_does(cell, dropped):
    # reverify's byte cover and verify_isolation's pairs, struck from the
    # same crippled factor source, refuse the same certificates at the same h
    c = build(ConstructionParams(*cell))
    with patch.object(construction, "primes_up_to", _without(dropped)):
        outcome = _isolation_outcome(c)
        assert _cover_outcome(c) == (outcome if isinstance(outcome, int) else None)


def test_verify_isolation_charges_its_interval_to_the_budget(monkeypatch):
    # the one-slot-per-h list over a million integers, and the pairs it
    # would return, about 113 bytes per h together, are refused before any
    # h is looked at; with room for them, a cover that strikes without 2
    # first fails at 2^10, every smaller even h having an odd prime factor
    c = Construction(params=ConstructionParams(q=3, a=1, k=2), t=0,
                     offsets=(1009, 1000000), B=1000000 - 1009)
    monkeypatch.setenv("SHIU_SIEVE_BUDGET_MB", "1")
    with pytest.raises(ResourceError):
        verify_isolation(c)
    monkeypatch.setenv("SHIU_SIEVE_BUDGET_MB", "128")
    sieve._limit.cache_clear()  # a new budget is read by a new process
    monkeypatch.setattr(construction, "primes_up_to", _without({2}))
    with pytest.raises(InternalConsistencyError) as info:
        verify_isolation(c)
    assert info.value.context["h"] == 1024


class TestScanWindows:
    def setup_method(self):
        self.c = build(ConstructionParams(q=3, a=1, k=5))

    def test_range_validation(self):
        with pytest.raises(DomainError):
            scan_windows(self.c, -1, 4)
        with pytest.raises(DomainError):
            scan_windows(self.c, 5, 4)

    def test_degenerate_zero_window(self):
        r = scan_windows(self.c, 0, 0)[0]
        assert r.degenerate
        assert r.prime_offsets == EX_OFFSETS
        # 11, 17, 23, 29 are prime and sit inside the window at n = 0
        assert r.window_prime_count == 9
        assert not r.isolation_ok
        assert not r.congruence_ok

    def test_first_windows_match_direct_derivation(self):
        r1, r2, r3 = scan_windows(self.c, 1, 3)
        assert (r1.n, r1.prime_offsets, r1.window_prime_count) == (1, (), 0)
        assert (r2.n, r2.prime_offsets, r2.window_prime_count) == (2, (37,), 1)
        assert (r3.n, r3.prime_offsets, r3.window_prime_count) == (3, (7, 13, 31), 3)
        for r in (r1, r2, r3):
            assert r.congruence_ok and r.isolation_ok and r.primality_proven
            assert not r.degenerate

    def test_jsonl_shape(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text(construction_to_json(self.c))
        assert cli.main(["scan", "--cert", str(path), "--n-lo", "1", "--n-hi", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert list(first) == ["n", "prime_offsets", "window_prime_count",
                               "degenerate", "congruence_ok", "isolation_ok",
                               "primality_proven"]


U64 = 1 << 64
SCAN_CERTS = [(3, 1, 5), (5, 2, 6)]


def _scan(c, lo, hi):
    return [{**r._asdict(), "prime_offsets": list(r.prime_offsets)}
            for r in scan_windows(c, lo, hi)]


def _oracle_scan(c, lo, hi):
    return [window_oracle(c.params.q, c.params.a, c.offsets, c.coefficient(), n, isprime)
            for n in range(lo, hi + 1)]


@pytest.mark.parametrize("q, a, k", SCAN_CERTS)
def test_scan_matches_brute_force_oracle(q, a, k):
    c = build(ConstructionParams(q=q, a=a, k=k))
    assert _scan(c, 0, 40) == _oracle_scan(c, 0, 40)
    # the last windows wholly below 2^64 and the first ones above it
    top = (U64 - 1 - c.offsets[-1]) // c.coefficient()
    lo, hi = max(top - 1, 0), top + 2
    reports = _scan(c, lo, hi)
    assert reports == _oracle_scan(c, lo, hi)
    assert {r["primality_proven"] for r in reports} == {True, False}


def test_scan_of_a_window_containing_2_64_matches_oracle():
    # (3,2,3) has offsets 5, 11, 17 and coefficient 1638; this window runs
    # from 2^64 - 11 to 2^64 + 1
    c = build(ConstructionParams(q=3, a=2, k=3))
    n = 11261748518748200
    assert c.coefficient() * n + c.offsets[0] < U64 < c.coefficient() * n + c.offsets[-1]
    reports = _scan(c, n, n)
    assert reports == _oracle_scan(c, n, n)
    assert not reports[0]["primality_proven"]


@pytest.mark.parametrize("q, a, k", SCAN_CERTS)
@pytest.mark.parametrize("drop", [0, -1])
def test_scan_never_trusts_the_certificate(q, a, k, drop, monkeypatch):
    c = build(ConstructionParams(q=q, a=a, k=k))
    g_factors = list(c.g_factors)
    del g_factors[drop]
    # a coefficient that has lost a factor no longer isolates the window;
    # the scan decides every value itself, so it reports just that
    monkeypatch.setattr(Construction, "g_factors", property(lambda self: tuple(g_factors)))
    reports = _scan(c, 0, 60)
    assert reports == _oracle_scan(c, 0, 60)
    assert not all(r["isolation_ok"] for r in reports[1:])


@pytest.mark.parametrize("q, a, k", SCAN_CERTS)
def test_scan_tests_only_the_offset_values(q, a, k, monkeypatch):
    tested = []
    classify = construction.classify_prime
    monkeypatch.setattr(construction, "classify_prime",
                        lambda v: tested.append(v) or classify(v))
    c = build(ConstructionParams(q=q, a=a, k=k))
    scan_windows(c, 1, 20)
    coeff = c.coefficient()
    assert tested == [coeff * n + h for n in range(1, 21) for h in c.offsets]


class TestCertificates:
    def setup_method(self):
        self.c = build(ConstructionParams(q=3, a=1, k=5))

    def test_dict_round_trip(self):
        d = json.loads(construction_to_json(self.c))
        assert list(d) == ["q", "a", "k", "t", "offsets", "g_factors", "B"]
        assert construction_from_dict(d) == self.c

    def test_json_round_trip_with_g(self):
        blob = construction_to_json(self.c, include_g=True)
        assert blob.endswith("\n")
        data = json.loads(blob)
        assert data["g_decimal"] == str(EX_G)
        assert construction_from_dict(json.loads(blob)) == self.c

    def test_rejects_unknown_and_missing_fields(self):
        d = json.loads(construction_to_json(self.c))
        with pytest.raises(DomainError, match="unknown"):
            construction_from_dict({**d, "extra": 1})
        with pytest.raises(DomainError, match="unknown"):
            construction_from_dict({**d, "m": 3})
        short = dict(d)
        del short["offsets"]
        with pytest.raises(DomainError, match="missing"):
            construction_from_dict(short)

    def test_rejects_wrong_types(self):
        d = json.loads(construction_to_json(self.c))
        with pytest.raises(DomainError):
            construction_from_dict({**d, "q": "3"})
        with pytest.raises(DomainError):
            construction_from_dict({**d, "q": True})
        with pytest.raises(DomainError):
            construction_from_dict({**d, "offsets": [7, 13, 19, 31, "37"]})

    @pytest.mark.parametrize("key", ["offsets", "g_factors"])
    @pytest.mark.parametrize("entry", [True, 7.0, None, "7", [7]],
                             ids=["true", "float", "null", "string", "list"])
    def test_rejects_a_list_entry_that_is_not_an_integer(self, key, entry):
        d = json.loads(construction_to_json(self.c))
        values = list(d[key])
        values[1] = entry
        with pytest.raises(DomainError,
                           match=f"^certificate field {key} must be a list of integers$"):
            construction_from_dict({**d, key: values})

    def test_rejects_bad_g_decimal(self):
        d = json.loads(construction_to_json(self.c, include_g=True))
        with pytest.raises(DomainError, match="^g_decimal does not match the product"):
            reverify({**d, "g_decimal": str(EX_G + 1)})
        with pytest.raises(DomainError, match="g_decimal must be a decimal string"):
            reverify({**d, "g_decimal": None})

    def test_padded_g_factors_are_not_multiplied_out(self, monkeypatch):
        # a list padded far past the primes up to the last offset fails the
        # derivation, which reports it before any g_decimal is checked
        def no_product(factors):
            raise AssertionError("g_decimal checked against an underived list")

        d = json.loads(construction_to_json(self.c, include_g=True))
        padded = {**d, "g_factors": d["g_factors"] + [10**30 + 57] * 100000}
        monkeypatch.setattr(construction, "_decimal", no_product)
        with pytest.raises(DomainError,
                           match=r"mismatched fields: \['g_factors'\]$"):
            reverify(padded)

    def test_reverify_accepts_emitted_certificate(self):
        d = json.loads(construction_to_json(self.c, include_g=True))
        assert reverify(d) == self.c

    def test_reverify_rejects_tampering(self):
        d = json.loads(construction_to_json(self.c))
        # breaks a local invariant, caught while parsing
        with pytest.raises(DomainError):
            reverify({**d, "B": 33})
        # internally consistent but not the minimal shift: only the
        # re-derivation can tell
        shifted = {
            "q": 3, "a": 1, "k": 5, "t": 1,
            "offsets": [13, 19, 31, 37, 43],
            "g_factors": [2, 3, 5, 7, 11, 17, 23, 29, 41],
            "B": 30,
        }
        construction_from_dict(shifted)  # sanity: parses fine on its own
        listed = r"re-derivation; mismatched fields: \['g_factors', 'offsets', 't'\]$"
        with pytest.raises(DomainError, match=listed):
            reverify(shifted)
        # a g_decimal true to the shifted g_factors is not listed on its own
        with pytest.raises(DomainError, match=listed):
            reverify({**shifted, "g_decimal": str(prod(shifted["g_factors"]))})


def test_b_is_positive_multiple_of_q_across_a_sample():
    for q in range(3, 16):
        for a in range(1, q):
            if gcd(a, q) != 1:
                continue
            c = build(ConstructionParams(q=q, a=a, k=4))
            assert c.B > 0 and c.B % q == 0
            assert c.params.k < c.offsets[0]
            assert c.offsets[-1] < c.offsets[0] ** 2


def test_build_respects_sieve_ceiling(monkeypatch):
    monkeypatch.setattr(sieve, "HEIGHT_CEILING", 8)
    with pytest.raises(ResourceError):
        build(ConstructionParams(q=3, a=1, k=5))


def test_product_tree_equals_a_running_product():
    for n in (0, 1, 2, 3, 7, 8, 9, 64, 65, 1000):
        xs = [p for p in trial_primes(8000)][:n]
        assert construction._product(xs) == prod(xs)
        assert construction._decimal(xs) == str(Decimal(prod(xs)))
    c = build(ConstructionParams(q=997, a=1, k=3))
    g = prod(c.g_factors)
    assert c.coefficient() == 997 * g
    # past the int-string digit limit: 12,021 digits
    assert construction._decimal(c.g_factors) == str(Decimal(g))


@settings(max_examples=40, deadline=None)
@given(_cells())
@example((3, 1, 5))
@example((3, 2, 5))
@example((4, 3, 2))
def test_reverify_accepts_every_built_certificate(cell):
    c = build(ConstructionParams(*cell))
    assert c.g_factors == tuple(p for p in trial_primes(c.offsets[-1]) if p not in c.offsets)
    for include_g in (False, True):
        text = construction_to_json(c, include_g=include_g)
        assert text == json.dumps(_cert(c, include_g), indent=2) + "\n"
        assert reverify(json.loads(text)) == c


def test_construction_to_json_on_hand_made_certificates():
    # not the least shift, an unreduced residue, a composite offset
    for c in (Construction(params=ConstructionParams(q=3, a=1, k=2), t=1,
                           offsets=(13, 19), B=6),
              Construction(params=ConstructionParams(q=3, a=4, k=2), t=0,
                           offsets=(7, 13), B=6),
              Construction(params=ConstructionParams(q=3, a=1, k=3), t=0,
                           offsets=(7, 13, 25), B=18)):
        for include_g in (False, True):
            assert construction_to_json(c, include_g=include_g) == json.dumps(
                _cert(c, include_g), indent=2) + "\n"


def _tamperings(cert):
    """Each one-field change to a genuine certificate that still parses."""
    g, offs = cert["g_factors"], cert["offsets"]
    last_shifted = offs[:-1] + [offs[-1] + cert["q"]]
    out = {
        "drop first factor": {"g_factors": g[1:]},
        "drop last factor": {"g_factors": g[:-1]},
        "add a prime": {"g_factors": g + [nextprime(offs[-1])]},
        "add a composite": {"g_factors": sorted(set(g) | {4})},
        "add a unit": {"g_factors": [1] + g},
        "t + 1": {"t": cert["t"] + 1},
    }
    if last_shifted[-1] < offs[0] ** 2:
        out["shift last offset"] = {"offsets": last_shifted, "B": last_shifted[-1] - offs[0]}
    if cert["t"]:
        out["t - 1"] = {"t": cert["t"] - 1}
    return out


@pytest.mark.parametrize("cell", [(3, 1, 5), (3, 2, 5), (4, 3, 2), (29, 1, 12), (997, 1, 3)])
def test_reverify_refuses_every_one_field_tampering(cell):
    cert = json.loads(construction_to_json(build(ConstructionParams(*cell))))
    for how, change in _tamperings(cert).items():
        bad = {**cert, **change}
        # the fields named are exactly the ones changed, build's order
        changed = [key for key in ("B", "g_factors", "offsets", "t") if bad[key] != cert[key]]
        with pytest.raises(DomainError) as info:
            reverify(bad)
        assert str(info.value) == (
            f"certificate does not match re-derivation; mismatched fields: {changed}"), how
    with pytest.raises(DomainError, match="^B must equal last offset minus first offset$"):
        reverify({**cert, "B": cert["B"] + 1})


def test_reverify_refuses_a_height_its_length_cannot_back_without_sieving(monkeypatch):
    # offsets up to 10^9 with three g_factors: pi(10^9) is over 50 million,
    # so the certificate is refused before any sieve reaches that height;
    # build's own sieve of (3, 1, 3) stays small and still runs. Its heights
    # are below 2^16, read from the flag table and never sieved, so they
    # are recorded where segments are handed out
    first, last = 40003, 999999997
    forged = {"q": 3, "a": 1, "k": 3, "t": 0, "offsets": [first, 500000002, last],
              "g_factors": [2, 3, 5], "B": last - first}
    heights = []
    real_segments, real_flags = sieve._segments, sieve._segment_flags

    def recording(lo, hi):
        heights.append(hi)
        return real_segments(lo, hi)

    def small_only(lo, hi, base):
        if hi > 10**6:
            raise AssertionError(f"sieved to {hi}")
        return real_flags(lo, hi, base)

    monkeypatch.setattr(sieve, "_segments", recording)
    monkeypatch.setattr(construction, "_segments", recording)
    monkeypatch.setattr(sieve, "_segment_flags", small_only)
    listed = r"mismatched fields: \['B', 'g_factors', 'offsets'\]$"
    with pytest.raises(DomainError, match=listed):
        reverify(forged)
    # a g_decimal changes nothing: the mismatch is reported before it is read
    with pytest.raises(DomainError, match=listed):
        reverify({**forged, "g_decimal": "30"})
    assert heights and max(heights) <= 10**6


def test_reverify_raises_when_build_disagrees_with_the_sieve(monkeypatch, capsys, tmp_path):
    # a build that re-derives the tampered certificate leaves no field to
    # list, so the two derivations disagree: a bug, exit 3
    cert = json.loads(construction_to_json(build(ConstructionParams(q=3, a=1, k=5))))
    shifted = {"q": 3, "a": 1, "k": 5, "t": 1, "offsets": [13, 19, 31, 37, 43],
               "g_factors": [2, 3, 5, 7, 11, 17, 23, 29, 41], "B": 30}
    monkeypatch.setattr(construction, "build",
                        lambda params: construction_from_dict(shifted))
    with pytest.raises(InternalConsistencyError):
        reverify(shifted)
    assert reverify(cert) == construction_from_dict(cert)  # build is not consulted
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(shifted))
    assert cli.main(["verify", "--cert", str(path)]) == 3
    first, bundle = capsys.readouterr().err.splitlines()
    assert first.startswith("error: internal:")
    assert json.loads(bundle)["context"]["t"] == 1


def test_verify_admissible_never_reads_g_factors(monkeypatch):
    def unread(self):
        raise AssertionError("g_factors read")

    cs = [build(ConstructionParams(*cell)) for cell in [(3, 1, 5), (29, 1, 12), (997, 1, 3)]]
    monkeypatch.setattr(Construction, "g_factors", property(unread))
    for c in cs:
        assert verify_admissible(c).admissible


@settings(max_examples=60, deadline=None)
@given(_cells())
def test_verify_admissible_equals_the_full_coefficient_report(cell):
    c = build(ConstructionParams(*cell))
    assert verify_admissible(c) == is_admissible(as_ktuple(c))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_verify_admissible_on_hand_made_constructions(data):
    # k terms of the progression, prime or not, that meet the size
    # conditions: a composite offset shares its least prime factor with g,
    # so both verdicts occur. No offset can share a factor with q: every
    # offset is a mod q with gcd(a, q) = 1
    q, a, k = data.draw(_cells(q_max=12, k_max=6))
    terms = sorted(data.draw(st.sets(st.integers(1, 60), min_size=k, max_size=k)))
    offsets = tuple(a % q + q * j for j in terms)
    if not (k < offsets[0] and offsets[-1] < offsets[0] ** 2):
        return
    c = Construction(params=ConstructionParams(q=q, a=a, k=k), t=0, offsets=offsets,
                     B=offsets[-1] - offsets[0])
    assert verify_admissible(c) == is_admissible(as_ktuple(c))


def test_verify_admissible_keeps_the_witness_of_a_blocked_offset():
    # 25 = 5^2 is no prime, so 5, a g_factor above k = 3, divides the form
    # 25 at every n: the primes up to k pass, and 5 is the witness
    c = Construction(params=ConstructionParams(q=3, a=1, k=3), t=0,
                     offsets=(7, 13, 25), B=18)
    report = verify_admissible(c)
    assert report == is_admissible(as_ktuple(c))
    assert report == AdmissibilityReport(False, (5, 5), (2, 3, 5))
