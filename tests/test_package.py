"""The package surface: `import shiu` is lazy, and every export resolves."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shiu


@pytest.mark.parametrize("name", shiu.__all__)
def test_export_is_its_home_module_object(name):
    obj = getattr(shiu, name)
    assert obj.__module__.startswith("shiu.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj


@pytest.mark.parametrize("module", ["bounds", "construction", "errors", "primality",
                                    "search", "sieve", "tuples"])
def test_submodules_are_attributes(module):
    assert getattr(shiu, module) is importlib.import_module(f"shiu.{module}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'make_tuple'"):
        shiu.make_tuple


@pytest.mark.parametrize("name", ["scaling_fit", "ScalingFit", "as_ktuple"])
def test_a_deleted_export_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
        getattr(shiu, name)


def _imported(code: str) -> set[str]:
    """The modules a fresh interpreter imports to run code."""
    src = str(Path(shiu.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    res = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                         capture_output=True, text=True, env=env, check=True)
    return {line.rsplit("|", 1)[-1].strip()
            for line in res.stderr.splitlines() if line.startswith("import time:")}


def test_import_loads_no_submodule():
    imported = _imported("import shiu")
    assert "shiu" in imported
    assert not {name for name in imported if name.startswith("shiu.")}


def test_construction_and_bounds_load_neither_dataclasses_nor_inspect():
    # the imports the benchmark's grid and scan workloads set up with
    imported = _imported("import shiu.bounds, shiu.construction")
    assert {"shiu.bounds", "shiu.construction", "shiu.tuples"} <= imported
    assert not {"dataclasses", "inspect"} & imported
