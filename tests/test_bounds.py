import csv
import io
import json
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiu.sieve as sieve
from shiu import cli
from shiu.bounds import (
    BoundRow,
    bound_table,
    window_cap,
)
from shiu.construction import ConstructionParams, build
from shiu.errors import DomainError, ResourceError

from ._oracles import choose_t_oracle


def test_linnik_window_arithmetic():
    assert window_cap(5, 5.0) == 25
    assert window_cap(12, 5.0) == 144
    assert window_cap(3, 6.2) == 2 * 7 + 3
    with pytest.raises(DomainError):
        bound_table([3], [5], L=0)


@pytest.mark.parametrize("L,message", [
    (0, "L must be positive"), (-1.5, "L must be positive"),
    (float("-inf"), "L must be positive"),
    (float("inf"), "L must be finite"), (float("nan"), "L must be finite"),
    (float("1e400"), "L must be finite"),
], ids=["zero", "negative", "-inf", "inf", "nan", "1e400"])
def test_linnik_exponent_must_be_positive_and_finite(L, message):
    # checked before anything else, so even an empty grid reports it
    with pytest.raises(DomainError, match=message):
        bound_table([], [], L=L)


def test_linnik_exponent_may_be_a_huge_integer():
    assert window_cap(3, 10**400) == 2 * 10**400 + 3
    [row] = bound_table([3], [5], a=1, L=10**400)
    assert row.window_cap == 4 * 10**400 + 5 and row.t_in_window


def test_bound_table_worked_examples():
    [row] = bound_table([3], [5], a=1)
    assert row == BoundRow(q=3, a=1, k=5, t=0, B=30, window_cap=25,
                           t_in_window=True, error=None)
    [row] = bound_table([3], [5], a=2)
    assert (row.t, row.B, row.t_in_window) == (2, 30, True)


def test_bound_table_raises_a_cell_failure(monkeypatch):
    monkeypatch.setattr(sieve, "HEIGHT_CEILING", 8)
    with pytest.raises(ResourceError, match="only 1 primes = 1 mod 3 below the ceiling 8"):
        bound_table([3], [5], a=1)


def test_bound_table_cardinalities():
    assert len(bound_table([3], range(2, 7), a=1)) == 5
    assert len(bound_table([3, 4, 5], [5])) == 8
    assert bound_table([3, 4], [3], a=1) == [bound_table([q], [3], a=1)[0] for q in (3, 4)]


def test_bound_table_order_is_lexicographic():
    rows = bound_table([4, 3], [3, 2])
    assert [(r.q, r.a, r.k) for r in rows] == [
        (3, 1, 2), (3, 1, 3), (3, 2, 2), (3, 2, 3),
        (4, 1, 2), (4, 1, 3), (4, 3, 2), (4, 3, 3),
    ]


def test_bound_table_determinism():
    base = bound_table(range(3, 9), range(2, 6))
    assert bound_table(range(3, 9), range(2, 6)) == base


def test_bound_table_input_validation(monkeypatch):
    def no_sieve(lo, hi, base):
        raise AssertionError(f"sieved [{lo}, {hi})")

    # every refusal comes before any sieving; k = 1 at the first cell
    monkeypatch.setattr(sieve, "_segment_flags", no_sieve)
    with pytest.raises(DomainError):
        bound_table([], [2])
    with pytest.raises(DomainError):
        bound_table([3], [])
    with pytest.raises(DomainError):
        bound_table([2], [2])
    with pytest.raises(DomainError, match="k must be >= 2"):
        bound_table(range(3, 30), range(1, 5))
    with pytest.raises(DomainError):
        bound_table([4], [2], a=2)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 40), st.sets(st.integers(2, 12), min_size=1), st.data())
def test_bound_table_rows_match_build(q, ks, data):
    # the sweep reads t and B off one index per column; build is the
    # per-cell reference
    residues = [a for a in range(1, q) if gcd(a, q) == 1]
    a = data.draw(st.none() | st.sampled_from(residues))
    rows = bound_table([q], ks, a=a)
    assert [(r.q, r.a, r.k) for r in rows] == [
        (q, b, k) for b in (residues if a is None else [a]) for k in sorted(ks)]
    for r in rows:
        c = build(ConstructionParams(r.q, r.a, r.k))
        assert (r.t, r.B) == (c.t, c.B)


def test_rows_with_in_window_t_imply_window_check():
    for row in bound_table(range(3, 8), range(2, 5)):
        want = choose_t_oracle(row.q, row.a, row.k) <= row.window_cap
        assert row.t_in_window == want


def _bounds(capsys, q_range, k_range, *extra):
    """stdout of `shiu bounds` over the grid, with a fixed residue a = 1."""
    argv = ["bounds", "--q-min", str(q_range[0]), "--q-max", str(q_range[-1]),
            "--k-min", str(k_range[0]), "--k-max", str(k_range[-1]), *extra]
    assert cli.main(argv) == 0
    return capsys.readouterr().out


class TestSerialization:
    def test_csv_header_and_booleans(self, capsys):
        text = _bounds(capsys, [3], [5], "--a", "1")
        lines = text.splitlines()
        assert lines[0] == "q,a,k,t,B,window_cap,t_in_window"
        assert lines[1] == "3,1,5,0,30,25,true"

    @staticmethod
    def _exits_two(capsys, argv, err):
        for fmt in ("csv", "json"):
            assert cli.main(["bounds", *argv, "--format", fmt]) == 2
            assert capsys.readouterr() == ("", f"error: resource: {err}\n")

    def test_a_cell_failure_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(sieve, "HEIGHT_CEILING", 8)
        self._exits_two(capsys, ["--q-min", "3", "--q-max", "3", "--a", "1",
                                 "--k-min", "5", "--k-max", "5"],
                        "only 1 primes = 1 mod 3 below the ceiling 8")

    def test_a_sieve_budget_exits_two(self, capsys, monkeypatch):
        # q = 10^10 is charged as build charges it, for the primes up to q,
        # before its index sieves anything
        monkeypatch.setenv("SHIU_SIEVE_BUDGET_MB", "1")
        self._exits_two(capsys, ["--q-min", "10000000000", "--q-max", "10000000000",
                                 "--a", "1", "--k-min", "2", "--k-max", "3"],
                        "sieve needs 22583313040 bytes, over the 1048576 byte budget")

    @pytest.mark.parametrize("extra", [(), ("--a", "1")], ids=["every-a", "one-a"])
    def test_a_q_near_two_to_the_37_exits_two_at_once(self, capsys, monkeypatch, extra):
        # without the per-q charge, the one residue's index would sieve to
        # 2^40, and listing every residue would not end either; construct
        # refuses this q with the same line. The budget is set so that the
        # refusal does not depend on the machine's memory.
        monkeypatch.setenv("SHIU_SIEVE_BUDGET_MB", "65536")
        start = time.perf_counter()
        self._exits_two(capsys, ["--q-min", "137438953447", "--q-max", "137438953447",
                                 "--k-min", "2", "--k-max", "2", *extra],
                        "sieve needs 278667292440 bytes, over the 68719476736 byte budget")
        assert time.perf_counter() - start < 1
        assert cli.main(["construct", "--q", "137438953447", "--a", "1", "--k", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: resource: sieve needs 278667292440 bytes, over the 68719476736 byte budget\n")

    def test_a_one_mib_budget_changes_no_row(self, capsys, monkeypatch):
        # the q = 100003 index keeps only its few members, and each sieve
        # block is charged about 270 KB, so 1 MiB builds the whole column
        monkeypatch.delenv("SHIU_SIEVE_BUDGET_MB", raising=False)
        unbudgeted = _bounds(capsys, [100003], [2, 3], "--a", "1")
        monkeypatch.setenv("SHIU_SIEVE_BUDGET_MB", "1")
        sieve._limit.cache_clear()  # a new budget is read by a new process
        assert _bounds(capsys, [100003], [2, 3], "--a", "1") == unbudgeted
        assert unbudgeted.splitlines()[1:] == ["100003,1,2,0,2200066,7,true",
                                               "100003,1,3,0,3000090,13,true"]

    def test_csv_parses_back(self, capsys):
        rows = bound_table([3, 4], [2, 3])
        parsed = list(csv.DictReader(io.StringIO(_bounds(capsys, [3, 4], [2, 3]))))
        assert len(parsed) == len(rows)
        assert parsed[0]["q"] == "3"
        assert set(parsed[0]) == {"q", "a", "k", "t", "B", "window_cap", "t_in_window"}

    def test_json_mirrors_rows(self, capsys):
        data = json.loads(_bounds(capsys, [3], [5], "--a", "1", "--format", "json"))
        assert data == [{"q": 3, "a": 1, "k": 5, "t": 0, "B": 30,
                         "window_cap": 25, "t_in_window": True, "error": None}]
