"""Building tuples whose prime values are forced consecutive and congruent.

Given a modulus q, a coprime residue a, and a length k, pick the least
shift t for which the progression primes l_{t+1} < ... < l_{t+k} satisfy
k < l_{t+1} and l_{t+k} < l_{t+1}^2. With g the product of every prime up
to l_{t+k} that is not one of those offsets, the forms g*q*x + l_{t+i}
form an admissible tuple, and every other integer in the window
[g*q*n + l_{t+1}, g*q*n + l_{t+k}] shares a factor with g*q. So whatever
primes the window contains sit at the offsets: they are consecutive primes,
all congruent to a modulo q, within an interval of length
B = l_{t+k} - l_{t+1}.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from decimal import Decimal
from math import gcd, prod
from operator import lt

from .errors import DomainError, InternalConsistencyError, ResourceError
from .primality import classify_prime
from .sieve import APIndex, _check_allocation, check_progression, primes_up_to
from .tuples import AdmissibilityReport, KTuple, LinearForm, is_admissible

SHIFT_CAP = 10**6  # largest shift choose_t tries before a ResourceError


@dataclass(frozen=True)
class ConstructionParams:
    """Inputs (q, a, k)."""

    q: int
    a: int
    k: int

    def __post_init__(self):
        check_progression(self.q, self.a)
        if self.k < 2:
            raise DomainError("k must be >= 2")

    @property
    def residue(self) -> int:
        return self.a % self.q


@dataclass(frozen=True)
class Construction:
    """A complete certificate: shift, offsets, factored coefficient, diameter.

    g_factors lists every prime up to the last offset that is not itself an
    offset; the coefficient g is kept factored and only multiplied out on
    demand.
    """

    params: ConstructionParams
    t: int
    offsets: tuple[int, ...]
    g_factors: tuple[int, ...]
    B: int

    def __post_init__(self):
        k, q, res = self.params.k, self.params.q, self.params.residue
        if self.t < 0:
            raise DomainError("shift must be nonnegative")
        if len(self.offsets) != k:
            raise DomainError(f"expected {k} offsets, got {len(self.offsets)}")
        if not all(map(lt, self.offsets, self.offsets[1:])):
            raise DomainError("offsets must be strictly increasing")
        if not all(map(lt, self.g_factors, self.g_factors[1:])):
            raise DomainError("g_factors must be strictly increasing")
        if self.g_factors and self.g_factors[0] < 1:
            raise DomainError("g_factors must be positive")
        if not k < self.offsets[0]:
            raise DomainError("need k < first offset")
        if not self.offsets[-1] < self.offsets[0] ** 2:
            raise DomainError("need last offset below the square of the first")
        if any(off % q != res for off in self.offsets):
            raise DomainError("every offset must be congruent to a mod q")
        if not set(self.offsets).isdisjoint(self.g_factors):
            raise DomainError("g_factors and offsets must be disjoint")
        if self.B != self.offsets[-1] - self.offsets[0]:
            raise DomainError("B must equal last offset minus first offset")

    def g_value(self) -> int:
        """The coefficient quotient multiplied out (can run to hundreds of digits)."""
        return prod(self.g_factors)

    def coefficient(self) -> int:
        """The common form coefficient g*q."""
        return self.g_value() * self.params.q


def choose_t(idx: APIndex, k: int) -> int:
    """Least t >= 0 with k < l_{t+1} and l_{t+k} < l_{t+1}^2.

    The second condition is not monotone in t, so shifts are tried in order.
    Termination is an asymptotic fact about progression primes, hence the
    cap SHIFT_CAP.
    """
    if k < 2:
        raise DomainError("k must be >= 2")
    for t in range(SHIFT_CAP + 1):
        first = idx.nth(t + 1)
        if k < first and idx.nth(t + k) < first * first:
            return t
    raise ResourceError(f"no admissible shift found with t <= {SHIFT_CAP}")


def build(params: ConstructionParams, *, idx: APIndex | None = None) -> Construction:
    """The construction with the least admissible shift. Offsets and
    g_factors are both read from one progression index: idx if given, which
    must be for the progression of params, else a fresh one. g_factors are
    the slices of idx.primes between the offsets. The sieve's height
    ceiling and the shift cap raise ResourceError."""
    if idx is None:
        idx = APIndex(params.q, params.a)
    elif (idx.q, idx.a) != (params.q, params.residue):
        raise DomainError(
            f"index is for primes = {idx.a} mod {idx.q}, not {params.residue} mod {params.q}"
        )
    t = choose_t(idx, params.k)
    offsets = tuple(idx.nth(t + i) for i in range(1, params.k + 1))
    primes = idx.primes
    g_factors: list[int] = []
    lo = 0
    for off in offsets:
        hi = bisect_left(primes, off, lo)
        g_factors += primes[lo:hi]
        lo = hi + 1
    return Construction(params, t, offsets, tuple(g_factors), offsets[-1] - offsets[0])


def as_ktuple(c: Construction) -> KTuple:
    """The k forms coeff*x + offset with the shared materialized coefficient."""
    coeff = c.coefficient()
    return KTuple(tuple(LinearForm(coeff, h) for h in c.offsets))


def verify_admissible(c: Construction) -> AdmissibilityReport:
    """Check admissibility by the specialized two-case argument, then
    cross-check against the general tuple checker.

    Case one: a prime dividing the coefficient g*q divides no offset. Case
    two: a prime p <= k not dividing the coefficient sees the offsets in
    fewer than p classes; since every offset is a prime exceeding k, class
    0 is never hit. Disagreement between the two routes is a bug.
    """
    q, res, k = c.params.q, c.params.residue, c.params.k
    tup = as_ktuple(c)  # g*q multiplied out once, for both checks
    coeff = tup.forms[0].g
    specialized_ok = all(gcd(off, coeff) == 1 for off in c.offsets)
    for p in primes_up_to(k):
        if coeff % p == 0:
            continue
        residues = {off % p for off in c.offsets}
        if 0 in residues or len(residues) >= p:
            specialized_ok = False
    report = is_admissible(tup)
    if report.admissible != specialized_ok:
        raise InternalConsistencyError(
            "specialized and general admissibility checks disagree",
            context={"q": q, "a": res, "k": k, "t": c.t,
                     "specialized": specialized_ok, "general": report.admissible},
        )
    return report


def verify_isolation(c: Construction) -> list[tuple[int, int]]:
    """For every non-offset integer h in [first offset, last offset], find the
    least g_factor dividing h, so the form value at h is composite in every
    window beyond the degenerate one.

    Such a factor must exist: all prime factors of h lie below the last
    offset, and a value composed of offsets alone would be a single offset
    because the last offset is below the square of the first. Finding none is
    therefore a bug, not an input condition.

    The interval is sieved by the g_factors themselves: each one is written
    into the slots of its multiples, largest first, so each slot ends up
    holding the least g_factor dividing it. This holds for any ascending
    positive g_factors, a 1 or a composite among them. The slot list and
    the returned pairs are charged to the memory budget before either is
    built.
    """
    lo, stop = c.offsets[0], c.offsets[-1] + 1
    # a pointer per slot, then per interior h a 2-tuple, its int and a list
    # pointer: about 96 bytes under tracemalloc
    _check_allocation(8 * (stop - lo) + 96 * (stop - lo - len(c.offsets)))
    least: list[int | None] = [None] * (stop - lo)
    for f in reversed(c.g_factors):
        start = -(-lo // f) * f
        least[start - lo::f] = [f] * len(range(start, stop, f))
    chosen = set(c.offsets)
    blocking: list[tuple[int, int]] = []
    for h, p in zip(range(lo, stop), least):
        if h in chosen:
            continue
        if p is None:
            raise InternalConsistencyError(
                "interior value with no blocking factor",
                context={"q": c.params.q, "a": c.params.residue,
                         "k": c.params.k, "t": c.t, "h": h},
            )
        blocking.append((h, p))
    return blocking


@dataclass(frozen=True)
class WindowReport:
    """Outcome of deciding the primality of every integer in one window.

    prime_offsets: offsets whose form value is prime at this n.
    window_prime_count: primes found anywhere in the window, off-offset ones
    included (they can exist only at n = 0, where a form value may equal a
    small prime dividing the coefficient; such windows are flagged
    degenerate).
    primality_proven: False when some value at or above 2^64 shares no
    proper factor with the coefficient, so the Baillie-PSW probable-prime
    test decided it.
    """

    n: int
    prime_offsets: tuple[int, ...]
    window_prime_count: int
    degenerate: bool
    congruence_ok: bool
    isolation_ok: bool
    primality_proven: bool


def _scan_one(c: Construction, coeff: int, n: int) -> WindowReport:
    q, res = c.params.q, c.params.residue
    base = coeff * n
    found: list[int] = []
    proven = True
    for v in range(base + c.offsets[0], base + c.offsets[-1] + 1):
        if 1 < gcd(v, coeff) < v:
            continue  # a proper factor is a proven composite verdict
        is_p, det = classify_prime(v)
        proven = proven and det
        if is_p:
            found.append(v)
    chosen = set(c.offsets)
    prime_offsets = tuple(v - base for v in found if v - base in chosen)
    return WindowReport(
        n=n,
        prime_offsets=prime_offsets,
        window_prime_count=len(found),
        degenerate=(n == 0),
        congruence_ok=all(v % q == res for v in found),
        isolation_ok=len(prime_offsets) == len(found),
        primality_proven=proven,
    )


def scan_windows(c: Construction, n_lo: int, n_hi: int) -> list[WindowReport]:
    """Decide the primality of every integer in each window for n in
    [n_lo, n_hi].

    A value v with 1 < gcd(v, g*q) < v is composite by that factor and is
    not tested further; this holds for any coefficient, so a wrong
    certificate cannot make a prime look composite. Every other value goes
    to classify_prime. Reports, per n, which offsets carry primes and
    whether any prime occurs off-offset, in n order.
    """
    if n_lo < 0 or n_hi < n_lo:
        raise DomainError("need 0 <= n_lo <= n_hi")
    coeff = c.coefficient()
    return [_scan_one(c, coeff, n) for n in range(n_lo, n_hi + 1)]


# -- certificate serialization ------------------------------------------

_CERT_KEYS = ("q", "a", "k", "t", "offsets", "g_factors", "B", "g_decimal")


def construction_to_dict(c: Construction, *, include_g: bool = False) -> dict:
    out: dict = {"q": c.params.q, "a": c.params.a, "k": c.params.k}
    out["t"] = c.t
    out["offsets"] = list(c.offsets)
    out["g_factors"] = list(c.g_factors)
    out["B"] = c.B
    if include_g:
        out["g_decimal"] = _decimal(c.g_value())
    return out


def _decimal(n: int) -> str:
    # str(int) refuses more than sys.get_int_max_str_digits() digits; a
    # Decimal built from an int is exact and prints in full
    return str(Decimal(n))


def construction_to_json(c: Construction, *, include_g: bool = False) -> str:
    return json.dumps(construction_to_dict(c, include_g=include_g), indent=2) + "\n"


def construction_from_dict(data: dict) -> Construction:
    if not isinstance(data, dict):
        raise DomainError("certificate must be a JSON object")
    unknown = set(data) - set(_CERT_KEYS)
    if unknown:
        raise DomainError(f"certificate has unknown fields: {sorted(unknown)}")
    missing = {"q", "a", "k", "t", "offsets", "g_factors", "B"} - set(data)
    if missing:
        raise DomainError(f"certificate is missing fields: {sorted(missing)}")
    for key in ("q", "a", "k", "t", "B"):
        if not isinstance(data[key], int) or isinstance(data[key], bool):
            raise DomainError(f"certificate field {key} must be an integer")
    for key in ("offsets", "g_factors"):
        if not (isinstance(data[key], list)
                and all(isinstance(v, int) and not isinstance(v, bool) for v in data[key])):
            raise DomainError(f"certificate field {key} must be a list of integers")
    params = ConstructionParams(q=data["q"], a=data["a"], k=data["k"])
    c = Construction(
        params=params,
        t=data["t"],
        offsets=tuple(data["offsets"]),
        g_factors=tuple(data["g_factors"]),
        B=data["B"],
    )
    if "g_decimal" in data:
        g_decimal = data["g_decimal"]
        if not (isinstance(g_decimal, str) and g_decimal.isascii() and g_decimal.isdigit()):
            raise DomainError("certificate field g_decimal must be a decimal string")
        if g_decimal != _decimal(c.g_value()):
            raise DomainError("g_decimal does not match the product of g_factors")
    return c


def reverify(data: dict) -> Construction:
    """Re-derive every certificate field from (q, a, k) and demand an exact
    match, then re-run the admissibility and isolation checks."""
    claimed = construction_from_dict(data)
    rebuilt = build(claimed.params)
    # construction_from_dict has checked any g_decimal against g_factors
    mismatched = [key for key in ("B", "g_factors", "offsets", "t")
                  if getattr(claimed, key) != getattr(rebuilt, key)]
    if mismatched:
        raise DomainError(
            f"certificate does not match re-derivation; mismatched fields: {mismatched}"
        )
    report = verify_admissible(rebuilt)
    if not report.admissible:
        raise InternalConsistencyError(
            "re-derived construction is not admissible",
            context=construction_to_dict(rebuilt),
        )
    verify_isolation(rebuilt)
    return rebuilt
