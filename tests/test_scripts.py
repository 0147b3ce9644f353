"""The experiment scripts and the benchmark workloads, run whole at toy size."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from .test_cli import _subprocess_env

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"

# lines each script must print once the wall time that ends some of them is
# cut off; the power-law fit's floats come from lstsq, so its line is matched
# by a pattern below
EXPECTED = {
    ("bound_scaling.py", "--q-max", "8", "--k-max", "5"): [
        "built 80 grid cells",
        "shifts inside the (k-1)*max(k,L)+k window: 80/80",
    ],
    ("string_census.py", "3", "1", "100000"): [
        "strings of consecutive primes congruent to 1 mod 3, below 100000",
        "m=2: first at 31 (diameter 6), 1915 strings, diameters 6..54 (median 6), "
        "50% at or below B=6",
        "m=3: first at 151 (diameter 12), 690 strings, diameters 12..60 (median 18), "
        "22% at or below B=12",
        "m=4: first at 1741 (diameter 18), 218 strings, diameters 18..84 (median 36), "
        "23% at or below B=24",
        "m=5: first at 1741 (diameter 36), 73 strings, diameters 30..90 (median 48), "
        "16% at or below B=30",
        "m=6: first at 1741 (diameter 42), 15 strings, diameters 36..84 (median 60), "
        "7% at or below B=36",
    ],
}


def _run_script(argv) -> str:
    res = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                         capture_output=True, text=True, env=_subprocess_env(), timeout=120)
    assert res.returncode == 0 and res.stderr == ""
    return res.stdout


@pytest.mark.parametrize("argv", sorted(EXPECTED), ids=lambda argv: argv[0])
def test_script_runs_at_toy_size(argv):
    stdout = _run_script(argv)
    lines = [re.sub(r"( in \d+\.\d+s| \(\d+\.\d+s\))$", "", line)
             for line in stdout.splitlines()]
    for want in EXPECTED[argv]:
        assert want in lines


def test_bound_scaling_fits_finite_numbers():
    number = r"-?\d+(\.\d+)?(e[+-]\d+)?"  # never nan or inf
    stdout = _run_script(("bound_scaling.py", "--q-max", "8", "--k-max", "5"))
    assert re.search(rf"^fit over 80 points: B ~ {number} \* q\^{number} \* k\^{number}"
                     rf" \(rms residual {number}\)$", stdout, re.MULTILINE), stdout


@pytest.mark.parametrize("argv", [("--q-max", "3"), ("--k-max", "2")])
def test_bound_scaling_refuses_a_grid_it_cannot_fit(argv):
    # with q or k constant, the least-squares exponents are not determined
    res = subprocess.run([sys.executable, str(SCRIPTS / "bound_scaling.py"), *argv],
                         capture_output=True, text=True, env=_subprocess_env(), timeout=120)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.endswith(
        "error: need --q-max >= 4 and --k-max >= 3, so that q and k both vary\n")


@pytest.mark.parametrize("workload,trace", [
    ("census", "0"), ("census", "1"), ("grid", "0"), ("grid", "1"),
    ("scan", "0"), ("scan", "1"), ("cli", "0"),
])
def test_benchmark_workload_runs_at_toy_size(workload, trace):
    # the benchmark reads Construction.g_factors and DiameterStats fields,
    # calls construction_from_dict, checks the bounds JSON of `python -m shiu`
    # and patches names across the package to trace it; a toy run that loses
    # any of them fails an operation or stops
    res = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                          "--workload", workload, "--toy", "--seconds", "0", "--trace", trace],
                         capture_output=True, text=True, env=_subprocess_env(), timeout=300)
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), res.stderr

