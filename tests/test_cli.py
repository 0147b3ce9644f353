"""End-to-end exercises of the argparse front end, run in process."""

import hashlib
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from shiu import cli, sieve
from shiu.construction import (
    ConstructionParams,
    build,
    construction_to_json,
    scan_windows,
)
from shiu.errors import InternalConsistencyError

from ._oracles import trial_primes


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_json_matches_library(capsys):
    code, out, err = run(capsys, "construct", "--q", "3", "--a", "1", "--k", "5")
    assert code == 0 and err == ""
    c = build(ConstructionParams(q=3, a=1, k=5))
    assert json.loads(out) == {"q": 3, "a": 1, "k": 5, "t": 0, "offsets": [7, 13, 19, 31, 37],
                               "g_factors": [2, 3, 5, 11, 17, 23, 29], "B": 30}
    assert out == construction_to_json(c)


def test_construct_text_matches_library(capsys):
    code, out, _ = run(capsys, "construct", "--q", "3", "--a", "1", "--k", "5",
                       "--format", "text")
    assert code == 0
    c = build(ConstructionParams(q=3, a=1, k=5))
    assert out == "".join(f"{c.coefficient()}*x+{h}\n" for h in c.offsets)
    assert out.splitlines()[0] == "11225610*x+7"
    assert out == ("11225610*x+7\n11225610*x+13\n11225610*x+19\n"
                   "11225610*x+31\n11225610*x+37\n")


def test_construct_text_past_the_int_str_digit_limit(capsys):
    # g*q for (997, 1, 3) has about 12,000 digits, more than str(int) writes
    # by default; the limit stays in force so that the writer must avoid it
    code, out, err = run(capsys, "construct", "--q", "997", "--a", "1", "--k", "3",
                         "--format", "text")
    assert code == 0 and err == ""
    c = build(ConstructionParams(q=997, a=1, k=3))
    lines = out.splitlines()
    assert len(lines) == 3
    for line, h in zip(lines, c.offsets):
        coeff, const = line.split("*x+")
        assert Decimal(coeff) == Decimal(c.coefficient())
        assert const == str(h)


def test_construct_with_g(capsys):
    code, out, _ = run(capsys, "construct", "--q", "3", "--a", "1", "--k", "5",
                       "--with-g")
    assert code == 0
    assert json.loads(out)["g_decimal"] == "3741870"


def test_repeat_runs_are_byte_identical(capsys):
    argv = ("bounds", "--q-min", "3", "--q-max", "5",
            "--k-min", "2", "--k-max", "4")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


# sha256 of stdout at a reference commit: the bytes of these outputs are
# part of the contract, so any change to them has to be deliberate. {cert}
# and {cert_g} stand for the (3,1,5) certificate without and with g_decimal;
# the window n = 1643273200630 lies above 2^64, and the range from
# 1643273200620 crosses it: windows ...620 to ...628 lie below 2^64, with
# proven primes at offsets 7, 19, 31 and 37, window ...629 straddles 2^64
# and ...630 lies above it, so exactly two lines read probable-prime. The
# searches to 3000000 span more than twenty default-width segments, so runs
# carried across segment boundaries are pinned too. The (10007,1,3) certificate's last offset,
# 560393, lies past the first four-segment sieve block, so the progression
# index finds its offsets across blocks.
PINNED_OUTPUTS = {
    "bounds --q-min 3 --q-max 30 --k-min 2 --k-max 12 --format csv":
        "24b7001dcca2d8e6ce2ce27f9153bdb40ed2a6cf9881363e92e337c4f7ac09d9",
    "bounds --q-min 3 --q-max 12 --k-min 2 --k-max 6 --format json":
        "aea00c3db41ac89f6bdec6c59696a671b2bca7be2a753492440c3b10dc52fe36",
    "construct --q 3 --a 1 --k 5":
        "1cbae5731e4b52136c83ee76994e7c5a69abc4af29125e20bfc11e01fd886d37",
    "construct --q 29 --a 1 --k 12 --with-g":
        "9b83943089646f9b6dc5ab6f385f8a38f3c34197734825a041e0ef1900548e98",
    "construct --q 10007 --a 1 --k 3":
        "c3ae297abe6b5c83172f536b25d233fb2e7b88eeaa6061ae441742b3a6d7a467",
    "construct --q 10007 --a 1 --k 3 --with-g":
        "fab1d030294894e9b32aecf044eea7b4883da89af6eedb3ec59db036ee0cc798",
    "construct --q 3 --a 1 --k 5 --format text":
        "c5be75dc3876fb9cc513ad6c1cdb9dced5e26562dace5b584491a12af935a955",
    "--seed-doc":
        "ae5e1dab89df0745ad897d88b85ea039e88a5db6d9e2c6fa9bc2bc00cafad501",
    "search --q 3 --a 1 --m 2 --cap 100000 --all":
        "17e254112b6291ddce698e4cfc72380caaad1bf25dcb5770e6023612987f5e3b",
    "search --q 3 --a 1 --m 2 --cap 100000 --all --maximal-only":
        "d94247575029713ab3761b34380bab23d60cc3896d527afae929e79000fcc379",
    "search --q 3 --a 1 --m 4 --cap 100000 --format text":
        "1fefa3321f29e18367e041fb355a9860dc9c437caab183c26fc11ef28fdb5e17",
    "search --q 3 --a 1 --m 4 --cap 100000":
        "8238f10a21a5d613784d83f1118454e9c796fc69ec98752e930cf2a6863c1c7c",
    "search --q 4 --a 3 --m 3 --cap 3000000 --all":
        "bae5951addb1222998b418527475d02cccdb7482dbf5389da1fed4129c111fb5",
    "search --q 4 --a 3 --m 3 --cap 3000000 --all --format csv":
        "463a3bc9316b78414a24497939b46b0c699f2295c9a9034ccd53bfa9e027b1ae",
    "search --q 4 --a 3 --m 3 --cap 3000000 --all --maximal-only":
        "ede8805425ff51887ebd0b63b1aca6ef77c0f3f4297d8eb5027a5e7e3062395a",
    "search --q 4 --a 3 --m 3 --cap 3000000 --all --maximal-only --format csv":
        "f9976e1e2f6117e095dbea52fd4248a3aec1043b929884f8ece37a29371fc3e9",
    "scan --cert {cert} --n-lo 0 --n-hi 40":
        "66c25fd6e8487572dd9a1a390c220fd7eae88207ffb6c2265be99e9e2aec944d",
    "scan --cert {cert} --n-lo 0 --n-hi 40 --format text":
        "d0a11f6f5a4d59a6e8a9eed991575644a31c4e7e0c8c9194ebb4b577c714ea18",
    "scan --cert {cert} --n-lo 1643273200630 --n-hi 1643273200630 --format text":
        "cacf28b13eaa2e24e1810c9efd2b8a167122b35d0b1f4780b5131e46a055e887",
    "scan --cert {cert} --n-lo 1643273200620 --n-hi 1643273200630 --format text":
        "951cd416491beb5d88c5dcd89933ac2afaae812620ee9be3aff5859c68308958",
    "verify --cert {cert_g} --format json":
        "8cf63c712eb30c258b25a8ff522157e806856e2e56c65310baeb43b87d0f4ae8",
}


@pytest.mark.parametrize("argv", sorted(PINNED_OUTPUTS))
def test_outputs_match_pinned_bytes(capsys, tmp_path, argv):
    certs = {"cert": tmp_path / "cert.json", "cert_g": tmp_path / "cert_g.json"}
    for name, extra in (("cert", ()), ("cert_g", ("--with-g",))):
        assert cli.main(["construct", "--q", "3", "--a", "1", "--k", "5",
                         "--output", str(certs[name]), *extra]) == 0
    code, out, err = run(capsys, *argv.format(**certs).split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_OUTPUTS[argv]


def test_output_file_equals_stdout(capsys, tmp_path):
    out_path = tmp_path / "cert.json"
    _, streamed, _ = run(capsys, "construct", "--q", "5", "--a", "2", "--k", "3")
    code, out, _ = run(capsys, "construct", "--q", "5", "--a", "2", "--k", "3",
                       "--output", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text() == streamed


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_unwritable_output_is_a_domain_error(capsys, tmp_path, where):
    path = tmp_path / "no" / "x.json" if where == "missing-dir" else tmp_path
    code, out, err = run(capsys, "construct", "--q", "3", "--a", "1", "--k", "5",
                         "--output", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: domain: cannot write output {path}: ")
    assert err.count("\n") == 1


def test_gcd_violation_is_a_domain_error(capsys):
    code, out, err = run(capsys, "construct", "--q", "9", "--a", "3", "--k", "4")
    assert code == 1 and out == ""
    assert err.startswith("error: domain:")
    assert "gcd" in err


def test_usage_error_exits_one(capsys):
    code, _, err = run(capsys, "construct", "--q", "3", "--a", "1")
    assert code == 1
    assert err.startswith("error: domain:")


def test_missing_subcommand_exits_one(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "subcommand" in err


def test_unsupported_format_exits_one(capsys):
    code, _, err = run(capsys, "construct", "--q", "3", "--a", "1", "--k", "5",
                       "--format", "csv")
    assert code == 1
    assert "not available" in err


def test_format_is_checked_by_the_subcommand_alone(capsys):
    # --help offers the subcommand's own formats and default and no other,
    # and an unknown format gets the subcommand's own list
    with pytest.raises(SystemExit) as info:
        cli.main(["construct", "--help"])
    out = capsys.readouterr().out
    assert info.value.code == 0 and "--format FORMAT" in out and "csv" not in out
    assert "output format: json (default) or text" in " ".join(out.split())
    for key, (default, offered) in cli._FORMATS.items():
        with pytest.raises(SystemExit):
            cli.main([key.split()[0], "--help"])
        out = capsys.readouterr().out
        assert f"{default} (default)" in out and all(f in out for f in offered), key
    code, out, err = run(capsys, "construct", "--q", "3", "--a", "1", "--k", "5",
                         "--format", "xml")
    assert (code, out) == (1, "")
    assert err == ("error: domain: format 'xml' is not available for this "
                   "subcommand (choose from json, text)\n")


def test_unavailable_format_is_refused_before_the_scan(capsys, tmp_path, monkeypatch):
    import shiu.construction

    def scan_windows(*args, **kwargs):
        raise AssertionError("scan_windows ran before the format was checked")

    cert = tmp_path / "cert.json"
    assert cli.main(["construct", "--q", "3", "--a", "1", "--k", "5",
                     "--output", str(cert)]) == 0
    monkeypatch.setattr(shiu.construction, "scan_windows", scan_windows)
    code, out, err = run(capsys, "scan", "--cert", str(cert), "--n-lo", "1",
                         "--n-hi", "3", "--format", "csv")
    assert code == 1 and out == ""
    assert err.startswith("error: domain: format 'csv' is not available")


@pytest.mark.parametrize("argv", [
    ("construct", "--q", "9", "--a", "3", "--k", "4", "--format", "csv"),
    ("verify", "--cert", "/nonexistent/cert.json", "--format", "csv"),
    ("scan", "--cert", "/nonexistent/cert.json", "--n-lo", "1", "--n-hi", "2",
     "--format", "csv"),
    ("bounds", "--q-min", "3", "--q-max", "4", "--k-min", "2", "--k-max", "3",
     "--L", "nan", "--format", "text"),
    ("search", "--q", "4", "--a", "2", "--m", "2", "--format", "csv"),
    ("search", "--q", "4", "--a", "2", "--m", "2", "--all", "--format", "text"),
], ids=["construct", "verify", "scan", "bounds", "search", "search-all"])
def test_format_error_wins_over_a_parameter_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: domain: format ")
    assert "is not available" in err


def test_bounds_has_no_text_format(capsys):
    code, out, err = run(capsys, "bounds", "--q-min", "3", "--q-max", "4",
                         "--k-min", "2", "--k-max", "3", "--format", "text")
    assert code == 1 and out == ""
    assert err == ("error: domain: format 'text' is not available for this "
                   "subcommand (choose from json, csv)\n")


class TestVerify:
    def make_cert(self, capsys, tmp_path, *extra):
        path = tmp_path / "cert.json"
        run(capsys, "construct", "--q", "3", "--a", "1", "--k", "5",
            "--output", str(path), *extra)
        return path

    def test_round_trip(self, capsys, tmp_path):
        path = self.make_cert(capsys, tmp_path)
        code, out, err = run(capsys, "verify", "--cert", str(path))
        assert code == 0 and err == ""
        assert out == ("ok: certificate re-derived and checked "
                       "(q=3 a=1 k=5 t=0 B=30)\n")

    def test_tampered_cert_rejected(self, capsys, tmp_path):
        path = self.make_cert(capsys, tmp_path)
        data = json.loads(path.read_text())
        data["offsets"] = [7, 13, 19, 31, 43]
        path.write_text(json.dumps(data))
        code, _, err = run(capsys, "verify", "--cert", str(path))
        assert code == 1
        assert err.startswith("error: domain:")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--cert", str(tmp_path / "no.json"))
        assert code == 1
        assert "cannot read certificate" in err

    def test_m_field_rejected(self, capsys, tmp_path):
        path = self.make_cert(capsys, tmp_path)
        data = json.loads(path.read_text())
        path.write_text(json.dumps({**data, "m": 3}))
        code, out, err = run(capsys, "verify", "--cert", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: domain:")
        assert "unknown fields" in err

    def test_coefficient_past_the_int_str_digit_limit(self, capsys, tmp_path):
        # g for (997, 1, 3) has 12,021 digits, more than str(int) and
        # int(str) accept by default
        path = tmp_path / "big.json"
        code, _, err = run(capsys, "construct", "--q", "997", "--a", "1",
                           "--k", "3", "--with-g", "--output", str(path))
        assert code == 0 and err == ""
        assert len(json.loads(path.read_text())["g_decimal"]) == 12021
        code, out, err = run(capsys, "verify", "--cert", str(path),
                             "--format", "json")
        assert code == 0 and err == ""
        assert out == path.read_text()

    def test_json_verdict_writes_fields_in_certificate_order(self, capsys, tmp_path):
        # the verdict is the certificate as construct writes it, whatever
        # the order and spacing of the file read back
        path = self.make_cert(capsys, tmp_path, "--with-g")
        text = path.read_text()
        path.write_text(json.dumps(dict(reversed(json.loads(text).items()))))
        code, out, err = run(capsys, "verify", "--cert", str(path), "--format", "json")
        assert (code, out, err) == (0, text, "")

    @pytest.mark.parametrize("g_decimal", [
        "abc", "", 3741870, "-3741870", " 3741870", "3_741_870",
        "٣٧٤١٨٧٠", "03741870", "3741871",
        "9" * 5000,
    ], ids=["letters", "empty", "number", "sign", "space", "underscores",
            "non-ascii-digits", "leading-zero", "wrong", "5000-digits"])
    def test_bad_g_decimal_rejected(self, capsys, tmp_path, g_decimal):
        path = self.make_cert(capsys, tmp_path, "--with-g")
        data = json.loads(path.read_text())
        path.write_text(json.dumps({**data, "g_decimal": g_decimal}))
        code, out, err = run(capsys, "verify", "--cert", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: domain:")

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", "--cert", str(path))
        assert code == 1
        assert "malformed certificate JSON" in err


@pytest.mark.parametrize("content", [
    bytes(range(256)),
    b"[" * 100_000 + b"]" * 100_000,
    b'{"q": ' + b"9" * 5000 + b"}",
], ids=["not-utf8", "nested-100000-deep", "5000-digit-q"])
@pytest.mark.parametrize("argv", [
    ("verify",), ("scan", "--n-lo", "1", "--n-hi", "1"),
], ids=["verify", "scan"])
def test_unparseable_certificate_is_a_domain_error(capsys, tmp_path, content, argv):
    path = tmp_path / "cert.json"
    path.write_bytes(content)
    code, out, err = run(capsys, argv[0], "--cert", str(path), *argv[1:])
    assert code == 1 and out == ""
    assert err.startswith("error: domain:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("verify",), ("scan", "--n-lo", "1", "--n-hi", "1"),
], ids=["verify", "scan"])
def test_certificate_that_repeats_a_field_is_refused(capsys, tmp_path, argv):
    # which of two values wins differs between JSON readers, so neither is read
    path = tmp_path / "cert.json"
    run(capsys, "construct", "--q", "3", "--a", "1", "--k", "5", "--output", str(path))
    text = path.read_text()
    for repeated, want in (('"q": 4, ', "['q']"), ('"q": 3, "t": 0, ', "['q', 't']")):
        path.write_text(text.replace('"a": 1,', '"a": 1, ' + repeated, 1))
        code, out, err = run(capsys, argv[0], "--cert", str(path), *argv[1:])
        assert (code, out) == (1, "")
        assert err == f"error: domain: certificate repeats fields: {want}\n"


class TestScan:
    def test_jsonl_matches_library(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "construct", "--q", "3", "--a", "1", "--k", "5",
            "--output", str(path))
        code, out, _ = run(capsys, "scan", "--cert", str(path),
                           "--n-lo", "1", "--n-hi", "20")
        assert code == 0
        c = build(ConstructionParams(q=3, a=1, k=5))
        assert [json.loads(line) for line in out.splitlines()] == [
            {**r._asdict(), "prime_offsets": list(r.prime_offsets)}
            for r in scan_windows(c, 1, 20)]

    def test_repeat_scans_are_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "construct", "--q", "3", "--a", "1", "--k", "5",
            "--output", str(path))
        argv = ("scan", "--cert", str(path), "--n-lo", "0", "--n-hi", "30")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_text_lines(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "construct", "--q", "3", "--a", "1", "--k", "5",
            "--output", str(path))
        _, out, _ = run(capsys, "scan", "--cert", str(path),
                        "--n-lo", "3", "--n-hi", "3", "--format", "text")
        assert out == "n=3 primes=3 offsets=[7,13,31]\n"

    def test_cert_missing_a_factor_is_rejected(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "construct", "--q", "3", "--a", "1", "--k", "5",
            "--output", str(path))
        data = json.loads(path.read_text())
        data["g_factors"].remove(2)
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "scan", "--cert", str(path),
                             "--n-lo", "1", "--n-hi", "20", "--format", "text")
        assert code == 1 and out == ""
        assert err.startswith("error: domain:")

    @pytest.mark.parametrize("n_lo,n_hi", [(3, 1), (-1, 2)])
    def test_window_range_is_checked_before_the_certificate_is_read(
            self, capsys, tmp_path, n_lo, n_hi):
        code, out, err = run(capsys, "scan", "--cert", str(tmp_path / "absent.json"),
                             "--n-lo", str(n_lo), "--n-hi", str(n_hi))
        assert (code, out, err) == (1, "", "error: domain: need 0 <= n_lo <= n_hi\n")


def test_bounds_csv_shape(capsys):
    code, out, _ = run(capsys, "bounds", "--q-min", "3", "--q-max", "4",
                       "--k-min", "2", "--k-max", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q,a,k,t,B,window_cap,t_in_window"
    # q in {3, 4} each has two coprime residues, crossed with two k values
    assert len(lines) == 1 + 8
    assert lines[1].startswith("3,1,2,")


@pytest.mark.parametrize("L", ["nan", "inf", "1e400"])
def test_bounds_refuses_a_non_finite_exponent(capsys, L):
    code, out, err = run(capsys, "bounds", "--q-min", "3", "--q-max", "4",
                         "--k-min", "2", "--k-max", "3", "--L", L)
    assert code == 1 and out == ""
    assert err == "error: domain: L must be finite, got " + ("nan" if L == "nan" else "inf") + "\n"


def test_search_first_string_json(capsys):
    code, out, _ = run(capsys, "search", "--q", "4", "--a", "1", "--m", "2",
                       "--cap", "100")
    assert code == 0
    assert json.loads(out) == {"q": 4, "a": 1, "m": 2, "start_prime": 13,
                               "primes": [13, 17], "diameter": 4}


def test_search_text_line(capsys):
    _, out, _ = run(capsys, "search", "--q", "3", "--a", "1", "--m", "2",
                    "--cap", "100", "--format", "text")
    assert out == "q=3 a=1 m=2 start_index=10 diameter=6 primes=31,37\n"


def test_search_all_stats_csv(capsys):
    code, out, _ = run(capsys, "search", "--q", "3", "--a", "1", "--m", "2",
                       "--cap", "1000", "--all", "--format", "csv",
                       "--reference-b", "30")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "field,value"
    assert "count,23" in lines
    assert "median_diameter,6" in lines
    assert "at_or_below_reference,23" in lines


def test_search_all_stats_csv_pinned(capsys):
    code, out, err = run(capsys, "search", "--q", "3", "--a", "1", "--m", "2",
                         "--cap", "100000", "--all", "--format", "csv",
                         "--reference-b", "30")
    assert code == 0 and err == ""
    assert out == (
        "field,value\n"
        "count,1915\n"
        "min_diameter,6\n"
        "median_diameter,6\n"
        "max_diameter,54\n"
        "mean_diameter,11.671\n"
        "bucket_width,10\n"
        "bucket_0,965\n"
        "bucket_10,730\n"
        "bucket_20,109\n"
        "bucket_30,97\n"
        "bucket_40,11\n"
        "bucket_50,3\n"
        "reference_b,30\n"
        "at_or_below_reference,1878\n"
    )


@pytest.mark.parametrize("extra, flag, where", [
    (("--maximal-only",), "--maximal-only", "without --all"),
    (("--reference-b", "30"), "--reference-b", "without --all"),
    (("--reference-b", "0"), "--reference-b", "without --all"),
    (("--bucket-width", "5"), "--bucket-width", "without --all"),
    (("--format", "text", "--maximal-only"), "--maximal-only", "without --all"),
    (("--all", "--reference-b", "30"), "--reference-b", "without --format csv"),
    (("--all", "--maximal-only", "--bucket-width", "5"), "--bucket-width",
     "without --format csv"),
    (("--all", "--format", "json", "--bucket-width", "10"), "--bucket-width",
     "without --format csv"),
])
def test_search_refuses_flags_it_would_ignore(capsys, monkeypatch, extra, flag, where):
    import shiu.search

    def searched(*args, **kwargs):
        raise AssertionError("the search ran before its flags were checked")

    monkeypatch.setattr(shiu.search, "first_string", searched)
    monkeypatch.setattr(shiu.search, "all_strings", searched)
    code, out, err = run(capsys, "search", "--q", "3", "--a", "1", "--m", "2",
                         "--cap", "1000", *extra)
    assert code == 1 and out == ""
    assert err == f"error: domain: {flag} has no effect {where}\n"


def test_search_not_found(capsys):
    code, out, err = run(capsys, "search", "--q", "3", "--a", "1", "--m", "2",
                         "--cap", "30")
    assert code == 1 and out == ""
    assert err.startswith("error: not-found:")


@pytest.mark.parametrize("argv", [
    ("sieve-cache", "--height", "100000", "--path", "primes.bin"),
    ("construct", "--q", "3", "--a", "1", "--k", "5", "--m", "3"),
    ("scan", "--cert", "cert.json", "--n-lo", "1", "--n-hi", "2",
     "--threads", "4"),
    ("bounds", "--q-min", "3", "--q-max", "4", "--k-min", "2", "--k-max", "3",
     "--threads", "2"),
    ("construct", "--q", "3", "--a", "1", "--k", "5", "--sieve-cache", "X"),
], ids=["sieve-cache", "construct-m", "scan-threads", "bounds-threads",
        "sieve-cache-flag"])
def test_removed_options_are_refused(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    run(capsys, "construct", "--q", "3", "--a", "1", "--k", "5",
        "--output", "cert.json")
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: domain:")


def test_budget_env_stops_big_construct(capsys, monkeypatch):
    monkeypatch.setenv("SHIU_SIEVE_BUDGET_MB", "1")
    code, out, err = run(capsys, "construct", "--q", "100003", "--a", "1",
                         "--k", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: resource:")


# the g_factors of q = 10^11 hold at least the primes up to q, about 205 GB
# as a list, so build's charge must refuse it against physical memory
# before anything is sieved
HUGE_Q = 10**11


def test_huge_q_fails_fast_without_a_budget(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("SHIU_SIEVE_BUDGET_MB", raising=False)
    if sieve._limit() is None:
        pytest.skip("physical memory size is unknown on this platform")
    code, out, err = run(capsys, "construct", "--q", str(HUGE_Q), "--a", "1",
                         "--k", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: resource:")
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({
        "q": HUGE_Q, "a": 1, "k": 2, "t": 0,
        "offsets": [2 * HUGE_Q + 1, 3 * HUGE_Q + 1], "g_factors": [2],
        "B": HUGE_Q,
    }))
    for argv in (("verify",), ("scan", "--n-lo", "1", "--n-hi", "1")):
        code, out, err = run(capsys, *argv, "--cert", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: resource:")


def test_q_past_the_height_ceiling_is_one_resource_line(capsys, tmp_path):
    q = 10**400
    code, out, err = run(capsys, "construct", "--q", str(q), "--a", "1", "--k", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: resource:") and err.count("\n") == 1
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({
        "q": q, "a": 1, "k": 2, "t": 0, "offsets": [2 * q + 1, 3 * q + 1],
        "g_factors": [2], "B": q,
    }))
    for argv in (("verify",), ("scan", "--n-lo", "1", "--n-hi", "1")):
        code, out, err = run(capsys, *argv, "--cert", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: resource:") and err.count("\n") == 1


SEARCH_ALL = ("search", "--q", "3", "--a", "1", "--all")


def test_search_all_jsonl_file_equals_stdout(capsys, tmp_path):
    argv = SEARCH_ALL + ("--m", "2", "--cap", "10000")
    code, streamed, err = run(capsys, *argv)
    assert code == 0 and err == ""
    ps = trial_primes(10000)
    pairs = sum(p % 3 == r % 3 == 1 for p, r in zip(ps, ps[1:]))
    assert streamed.count("\n") == pairs
    path = tmp_path / "strings.jsonl"
    code, out, err = run(capsys, *argv, "--output", str(path))
    assert code == 0 and out == "" and err == ""
    assert path.read_bytes() == streamed.encode()


@pytest.mark.parametrize("extra,want_code,kind", [
    (("--m", "1"), 1, "domain"),
    (("--m", "2", "--cap", str(2**41)), 2, "resource"),
], ids=["domain", "resource"])
def test_search_all_error_writes_nothing(capsys, tmp_path, extra, want_code, kind):
    path = tmp_path / "strings.jsonl"
    for output in ((), ("--output", str(path))):
        code, out, err = run(capsys, *SEARCH_ALL, *extra, *output)
        assert code == want_code and out == ""
        assert err.startswith(f"error: {kind}:")
    assert not path.exists()


def _subprocess_env():
    """The environment for `python -m shiu`, with this package on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_closed_pipe_exits_one_quietly():
    # the reader takes one line and goes away, as `| head -n 1` does; the
    # search still has megabytes to write
    proc = subprocess.Popen(
        [sys.executable, "-m", "shiu", "search", "--q", "3", "--a", "1", "--m", "2",
         "--cap", "10000000", "--all"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_subprocess_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert json.loads(first)["primes"] == [31, 37]
    assert err == b""


def test_a_one_mib_budget_changes_no_search_byte():
    # the run search holds one block of segments at a time, so 1 MiB is
    # enough to reach 10^7, and the budget must not change the output
    unbudgeted = _subprocess_env()
    unbudgeted.pop("SHIU_SIEVE_BUDGET_MB", None)
    budgeted = {**unbudgeted, "SHIU_SIEVE_BUDGET_MB": "1"}
    for mode in ((), ("--maximal-only",)):
        argv = [sys.executable, "-m", "shiu", "search", "--q", "3", "--a", "1", "--m", "2",
                "--cap", "10000000", "--all", *mode, "--format", "csv"]
        outs = [subprocess.run(argv, capture_output=True, env=env, check=True).stdout
                for env in (budgeted, unbudgeted)]
        assert outs[0] == outs[1], mode


def test_large_verify_fits_a_small_budget(tmp_path):
    # verify of (10007, 1, 3) sieves once to its last offset, 560,393, and
    # checks isolation on a byte per integer: at most 2.2 MB charged at a
    # time, where a rebuild and a list of the 320,222 (h, p) pairs took
    # about 33 MB
    path = tmp_path / "cert.json"
    assert cli.main(["construct", "--q", "10007", "--a", "1", "--k", "3",
                     "--output", str(path)]) == 0
    res = subprocess.run([sys.executable, "-m", "shiu", "verify", "--cert", str(path)],
                         capture_output=True, text=True,
                         env={**_subprocess_env(), "SHIU_SIEVE_BUDGET_MB": "8"})
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout == "ok: certificate re-derived and checked (q=10007 a=1 k=3 t=0 B=320224)\n"


def test_verify_charges_the_certificate_before_reading_it(capsys, monkeypatch, tmp_path):
    # the (10007, 1, 3) certificate is 542,404 bytes, charged at four times
    # its size, so a 1 MiB budget refuses it before it is parsed
    path = tmp_path / "cert.json"
    assert cli.main(["construct", "--q", "10007", "--a", "1", "--k", "3",
                     "--output", str(path)]) == 0
    monkeypatch.setenv("SHIU_SIEVE_BUDGET_MB", "1")
    sieve._limit.cache_clear()  # a new budget is read by a new process

    def no_parse(*args, **kwargs):
        raise AssertionError("the certificate was parsed")

    monkeypatch.setattr(json, "loads", no_parse)
    code, out, err = run(capsys, "verify", "--cert", str(path))
    assert code == 2 and out == ""
    assert err == "error: resource: sieve needs 2169616 bytes, over the 1048576 byte budget\n"


def test_small_commands_never_import_numpy(tmp_path):
    env = _subprocess_env()
    cert = tmp_path / "cert.json"
    # large certificates, so that the whole process is checked where the work
    # is heavy too: a 2832-bit window at n = 1, a g past the int-string digit
    # limit, and q = 10007
    wide, big, iso = (tmp_path / f"{name}.json" for name in ("wide", "big", "iso"))
    for path, params in ((wide, ("--q", "29", "--k", "12")),
                         (big, ("--q", "997", "--k", "3", "--with-g")),
                         (iso, ("--q", "10007", "--k", "3"))):
        assert cli.main(["construct", *params, "--a", "1", "--output", str(path)]) == 0
    # each command, and the modules it must not load: every command skips
    # numpy and inspect, which numpy loads, the run search too at these caps,
    # which its plain loop covers; none loads dataclasses, nor another
    # command's module
    lean = {"numpy", "inspect", "dataclasses"}
    small = lean | {"shiu.bounds", "shiu.search"}
    find = ("search", "--q", "3", "--a", "1", "--m", "3", "--cap", "100000")
    search_only = lean | {"shiu.construction", "shiu.bounds", "shiu.tuples", "decimal"}
    commands = (
        (("construct", "--q", "3", "--a", "1", "--k", "5", "--output", str(cert)),
         small | {"csv"}),
        (("verify", "--cert", str(cert)), small),
        (("scan", "--cert", str(cert), "--n-lo", "0", "--n-hi", "3"), small),
        (("scan", "--cert", str(wide), "--n-lo", "1", "--n-hi", "1"), small),
        (("verify", "--cert", str(big)), small),
        (("verify", "--cert", str(iso)), small),
        (("bounds", "--q-min", "3", "--q-max", "8", "--k-min", "2", "--k-max", "6"),
         lean | {"shiu.search", "csv"}),
        (("--seed-doc",), small),
        # the three forms of the benchmark's cli workload
        (find, search_only),
        ((*find, "--all"), search_only),
        ((*find, "--all", "--format", "csv"), search_only),
    )
    for argv, forbidden in commands:
        res = subprocess.run([sys.executable, "-X", "importtime", "-m", "shiu", *argv],
                             capture_output=True, text=True, env=env, check=True)
        imported = {line.rsplit("|", 1)[-1].strip()
                    for line in res.stderr.splitlines() if line.startswith("import time:")}
        assert "shiu.cli" in imported, argv
        assert "statistics" not in imported, argv
        top_level = {name.split(".")[0] for name in imported}
        assert not forbidden & (imported | top_level), argv


def test_internal_error_emits_repro_bundle(capsys, monkeypatch):
    def boom(args):
        raise InternalConsistencyError("fabricated disagreement",
                                       context={"q": 3, "detail": "test"})

    monkeypatch.setitem(cli._HANDLERS, "construct", boom)
    argv = ["construct", "--q", "3", "--a", "1", "--k", "5"]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 3
    first, bundle = err.splitlines()
    assert first == "error: internal: fabricated disagreement"
    payload = json.loads(bundle)
    assert payload["argv"] == argv
    assert payload["context"] == {"q": 3, "detail": "test"}


def test_out_of_memory_exits_two_with_one_line(capsys, monkeypatch):
    def exhaust(args):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "construct", exhaust)
    code, out, err = run(capsys, "construct", "--q", "3", "--a", "1", "--k", "5")
    assert (code, out, err) == (2, "", "error: resource: out of memory\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv,target", [
    (("construct", "--q", "3", "--a", "1", "--k", "5", "--output", "/dev/full"), "/dev/full"),
    (("construct", "--q", "3", "--a", "1", "--k", "5"), "<stdout>"),
    (("search", "--q", "3", "--a", "1", "--m", "2", "--cap", "100000", "--all"), "<stdout>"),
    (("--seed-doc",), "<stdout>"),
], ids=["output", "stdout", "stdout-stream", "seed-doc"])
def test_a_failed_write_exits_one_with_one_line(argv, target):
    # /dev/full accepts the open and fails every write with ENOSPC; stdout
    # fails on its flush, and the flush at exit must not report it again
    with open("/dev/full", "w") as full:
        res = subprocess.run([sys.executable, "-m", "shiu", *argv], stdout=full,
                             stderr=subprocess.PIPE, text=True, env=_subprocess_env())
    assert res.returncode == 1
    [line] = res.stderr.splitlines()
    assert line.startswith(f"error: domain: cannot write output {target}: [Errno 28] "), line


def test_seed_doc_walkthrough(capsys):
    code, out, err = run(capsys, "--seed-doc")
    assert code == 0 and err == ""
    assert "3741870" in out
    assert "11225610" in out
    assert "B = 30" in out
    assert "7, 13, 19, 31, 37" in out
