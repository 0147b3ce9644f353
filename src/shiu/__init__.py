"""Tuples that force consecutive congruent primes, and tools around them.

`import shiu` loads no submodule. Each submodule, and each exported name,
is imported from its home module on first access (PEP 562), so a command
pays only for the modules it runs. Names are looked up afresh each time
rather than cached here, so a home module's current binding always wins.
"""

import sys

__version__ = "0.1.0"

# submodule -> the names it exports through the package
_EXPORTS = {
    "bounds": ("BoundRow", "bound_table", "window_cap"),
    "construction": ("Construction", "ConstructionParams", "WindowReport",
                     "build", "choose_t", "reverify", "scan_windows",
                     "verify_admissible", "verify_isolation"),
    "errors": ("DomainError", "InternalConsistencyError", "NotFoundError",
               "ResourceError", "ShiuError"),
    "primality": (),
    "search": ("DiameterStats", "ShiuString", "all_strings", "diameter_stats",
               "first_string"),
    "sieve": ("APIndex", "primes_up_to"),
    "tuples": ("AdmissibilityReport", "KTuple", "LinearForm", "is_admissible",
               "residue_coverage"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = name if name in _EXPORTS else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib, which -X importtime does not see
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    return module if home == name else getattr(module, name)
