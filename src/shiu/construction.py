"""Building tuples whose prime values are forced consecutive and congruent.

Given a modulus q, a coprime residue a, and a length k, choose_t (the
one place the rule is written) picks the least shift t for which the
progression primes l_{t+1} < ... < l_{t+k} satisfy k < l_{t+1} and
l_{t+k} < l_{t+1}^2. With g the product of every prime up to l_{t+k}
that is not one of those offsets, the forms g*q*x + l_{t+i} form an
admissible tuple, and every other integer in the window
[g*q*n + l_{t+1}, g*q*n + l_{t+k}] shares a factor with g*q. So whatever
primes the window contains sit at the offsets: they are consecutive primes,
all congruent to a modulo q, within an interval of length
B = l_{t+k} - l_{t+1}.

ConstructionParams and Construction are named tuples whose constructor
validates them. g is a function of the offsets, so a Construction does
not hold it: g_factors is derived, from one sieve, each time an output or
a check reads it, and build charges the memory budget for it before it
sieves. A certificate read back is checked against that definition, not
against build: one sieve, exactly to its last offset, gives the
progression members, the least shift and the g_factors, which are
compared with the certificate's list; only a list that passes is
multiplied out to check a g_decimal. The checks that follow read no
g_factors but sieve again: admissibility is decided on q times the primes
up to k and those dividing an offset, from the primes up to max(k,
isqrt(last offset)), and isolation on a one-byte-per-integer cover of
the window, which sieves the window and the primes up to the square root
of the last offset; those strike every composite, and each prime of the
window covers its own slot. That cover is the one isolation check:
verify_isolation runs it, then labels each integer of the window with the
least of its striking primes that divides it. g is multiplied out only
where an output holds it, by a product tree, and a checked certificate is
written back from its own fields.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, localcontext
from itertools import compress, filterfalse
from math import gcd, isqrt, log, prod
from operator import lt, mul
from typing import NamedTuple

from .errors import DomainError, InternalConsistencyError, ResourceError
from .primality import classify_prime
from .sieve import (APIndex, _charge_primes_up_to, _check_allocation, _segments,
                    check_progression, primes_up_to)
from .tuples import AdmissibilityReport, KTuple, LinearForm, is_admissible

SHIFT_CAP = 10**6  # largest shift choose_t tries before a ResourceError


class ConstructionParams(namedtuple("ConstructionParams", "q a k")):
    """Inputs (q, a, k). Only the constructor validates: _make and _replace
    skip it."""

    __slots__ = ()

    def __new__(cls, q: int, a: int, k: int):
        check_progression(q, a)
        if k < 2:
            raise DomainError("k must be >= 2")
        return super().__new__(cls, q, a, k)

    @property
    def residue(self) -> int:
        return self.a % self.q


class Construction(namedtuple("Construction", "params t offsets B")):
    """A complete certificate: shift, offsets and diameter. The coefficient
    is a function of the offsets, so it is derived, not held. Only the
    constructor validates: _make and _replace skip it.
    """

    __slots__ = ()

    def __new__(cls, params: ConstructionParams, t: int, offsets: tuple[int, ...], B: int):
        k, q, res = params.k, params.q, params.residue
        if t < 0:
            raise DomainError("shift must be nonnegative")
        if len(offsets) != k:
            raise DomainError(f"expected {k} offsets, got {len(offsets)}")
        if not all(map(lt, offsets, offsets[1:])):
            raise DomainError("offsets must be strictly increasing")
        if not k < offsets[0]:
            raise DomainError("need k < first offset")
        if not offsets[-1] < offsets[0] ** 2:
            raise DomainError("need last offset below the square of the first")
        if any(off % q != res for off in offsets):
            raise DomainError("every offset must be congruent to a mod q")
        if B != offsets[-1] - offsets[0]:
            raise DomainError("B must equal last offset minus first offset")
        return super().__new__(cls, params, t, offsets, B)

    @property
    def g_factors(self) -> tuple[int, ...]:
        """Every prime up to the last offset that is not an offset, in
        increasing order: one sieve on each read, so a caller that needs
        them twice keeps them."""
        return tuple(filterfalse(set(self.offsets).__contains__,
                                 primes_up_to(self.offsets[-1])))

    def coefficient(self) -> int:
        """The common form coefficient g*q, multiplied out by a product tree
        (g can run to hundreds of thousands of digits)."""
        return _product(self.g_factors) * self.params.q


def _product(xs):
    """The product of xs by a pairwise tree (Bernstein, "Fast
    multiplication and its applications", 2008). Operands of like size
    meet, so the few large multiplications are balanced ones, where a
    running product multiplies a growing total by one small factor at a
    time. Works on ints and, under an exact context, on Decimals."""
    xs = list(xs)
    while len(xs) > 1:
        odd = xs[-1:] if len(xs) & 1 else []
        xs = [*map(mul, xs[::2], xs[1::2]), *odd]
    return xs[0] if xs else 1


def choose_t(nth: Callable[[int], int], k: int) -> int:
    """Least t >= 0 with k < l_{t+1} and l_{t+k} < l_{t+1}^2, where nth(i)
    is l_i, the i-th progression member counted from 1: APIndex.nth, or a
    lookup in members already sieved.

    The second condition is not monotone in t, so shifts are tried in order,
    and no member past l_{t+k} is read. Termination is an asymptotic fact
    about progression primes, hence the cap SHIFT_CAP.
    """
    if k < 2:
        raise DomainError("k must be >= 2")
    for t in range(SHIFT_CAP + 1):
        first = nth(t + 1)
        if k < first and nth(t + k) < first * first:
            return t
    raise ResourceError(f"no admissible shift found with t <= {SHIFT_CAP}")


def build(params: ConstructionParams) -> Construction:
    """The construction with the least admissible shift, its offsets read
    from a fresh progression index. Every caller reads its g_factors,
    every prime up to the last offset but the offsets, and the last offset
    exceeds q; so before anything is sieved, a q past the height ceiling is
    refused and the primes up to q are charged to the memory budget. Those
    two limits and the shift cap raise ResourceError."""
    _charge_primes_up_to(params.q)
    idx = APIndex(params.q, params.a)
    t = choose_t(idx.nth, params.k)
    offsets = tuple(idx.nth(t + i) for i in range(1, params.k + 1))
    return Construction(params, t, offsets, offsets[-1] - offsets[0])


def verify_admissible(c: Construction) -> AdmissibilityReport:
    """Check admissibility by the specialized argument, then cross-check
    against the general tuple checker; disagreement is a bug.

    Specialized: every prime up to k is a g_factor, as every offset exceeds
    k, so the tuple is admissible exactly when no prime dividing the
    coefficient divides an offset; a prime p above k that does not divide
    it sees the offsets in at most k < p classes.

    Both routes run on G', q times the primes up to k and the primes up to
    isqrt(last offset) that divide an offset, and give the report (verdict,
    witness, checked_primes) of g*q. is_admissible checks in increasing
    order the primes up to k, which divide both coefficients, then those
    dividing the coefficient and an offset, each a witness. The least such
    g_factor is the least prime factor of a composite offset, below the
    first offset, so G' keeps it; and every prime G' keeps is a g_factor.
    For the prime offsets that build and reverify make, G' is q times the
    primes up to k, and g_factors is never read.
    """
    q, res, k = c.params.q, c.params.residue, c.params.k
    touch = prod(c.offsets)
    coeff = q * prod(p for p in primes_up_to(max(k, isqrt(c.offsets[-1])))
                     if p <= k or touch % p == 0)
    specialized_ok = gcd(touch, coeff) == 1
    report = is_admissible(KTuple(tuple(LinearForm(coeff, h) for h in c.offsets)))
    if report.admissible != specialized_ok:
        raise InternalConsistencyError(
            "specialized and general admissibility checks disagree",
            context={"q": q, "a": res, "k": k, "t": c.t,
                     "specialized": specialized_ok, "general": report.admissible},
        )
    return report


def _strike(lo: int, slots, primes, mark=None) -> None:
    """Over slots[h - lo], write at the multiples h of each of primes the
    mark, or the prime itself when no mark is given. Primes go largest
    first, so a slot ends holding the least of them dividing its h."""
    size = len(slots)
    for p in reversed(primes):
        i = -lo % p  # slot of the least multiple of p at or above lo
        if i < size:
            slots[i::p] = (mark or [p]) * ((size - 1 - i) // p + 1)


def _check_cover(c: Construction) -> list[int]:
    """The isolation check, on a byte per integer of the window: each
    prime of the window covers its own slot, the primes up to the square
    root of the last offset strike their multiples, and every slot that is
    not an offset must be covered. Returns those striking primes, for
    verify_isolation to label the window with."""
    lo, stop = c.offsets[0], c.offsets[-1] + 1
    # the cover, plus a run of marks for 2 (half its length) and the copy
    # that slice assignment makes of a bytes run
    _check_allocation(2 * (stop - lo))
    cover = bytearray(stop - lo)
    for seg_lo, flags in _segments(lo, stop):
        cover[seg_lo - lo:seg_lo - lo + 2 * len(flags):2] = flags
    primes = primes_up_to(isqrt(stop - 1))
    _strike(lo, cover, primes, b"\x01")
    for off in c.offsets:
        cover[off - lo] = 1
    i = cover.find(0)
    if i >= 0:
        raise InternalConsistencyError(
            "interior value with no blocking factor",
            context={"q": c.params.q, "a": c.params.residue,
                     "k": c.params.k, "t": c.t, "h": lo + i})
    return primes


def verify_isolation(c: Construction) -> list[tuple[int, int]]:
    """For every non-offset integer h in [first offset, last offset], the
    least g_factor dividing h, so the form value at h is composite in every
    window beyond the degenerate one.

    _check_cover decides that such a factor exists, without the list of
    g_factors, and raises where none does: a composite h has its least
    prime factor at most isqrt(h), below the first offset because the last
    offset is below the square of the first, so that prime is a g_factor;
    a prime h is a g_factor itself. Each h is then labelled with the least
    of the cover's striking primes that divides it, and a slot that none
    strikes keeps h: once the cover has passed, that h is a window prime.

    The (h, p) pairs are read off at C speed, through a keep-mask that
    drops the offsets. The labels and the returned pairs are charged to the
    memory budget before the cover sieves anything.
    """
    lo, stop = c.offsets[0], c.offsets[-1] + 1
    size = stop - lo
    # a pointer and a keep byte per slot, then per interior h a 2-tuple, its
    # int and a list pointer with over-allocation: about 104 bytes under
    # tracemalloc
    _check_allocation(9 * size + 104 * (size - len(c.offsets)))
    primes = _check_cover(c)
    least = list(range(lo, stop))
    _strike(lo, least, primes)
    keep = bytearray([1]) * size
    for off in c.offsets:
        keep[off - lo] = 0
    return list(zip(compress(range(lo, stop), keep), compress(least, keep)))


class WindowReport(NamedTuple):
    """Outcome of deciding the primality of every integer in one window.

    prime_offsets: offsets whose form value is prime at this n.
    window_prime_count: primes found anywhere in the window, off-offset ones
    included (they can exist only at n = 0, where a form value may equal a
    small prime dividing the coefficient; such windows are flagged
    degenerate).
    primality_proven: False when some value at or above 2^64 shares no
    proper factor with the coefficient: Baillie-PSW decided it, and above
    2^64 its verdict is not proven.
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


def _decimal(factors) -> str:
    """The decimal digits of the product of factors. str(int) refuses more
    than sys.get_int_max_str_digits() digits, and Decimal(int) converts in
    quadratic time, so the digits are multiplied out as Decimals, by a
    product tree, in a context wide enough to keep every one."""
    with localcontext(Context(prec=MAX_PREC, Emax=MAX_EMAX)):
        return str(_product(map(Decimal, factors)))


def construction_to_json(c: Construction, *, include_g: bool = False) -> str:
    """The certificate of c, with g_decimal when include_g is set."""
    g_factors = c.g_factors
    cert = {"q": c.params.q, "a": c.params.a, "k": c.params.k, "t": c.t,
            "offsets": c.offsets, "g_factors": g_factors, "B": c.B}
    if include_g:
        cert["g_decimal"] = _decimal(g_factors)
    return cert_to_json(cert)


def cert_to_json(cert: dict) -> str:
    """The bytes of json.dumps(cert, indent=2) + "\n" for a certificate
    dict, its fields in certificate order, written by join: json's
    indenting encoder is pure Python, and a long certificate is nearly all
    one list of ints. Every value is an int, a list or tuple of ints, never
    empty, or the digit string g_decimal, which needs no escaping."""
    lines = []
    for key in filter(cert.__contains__, _CERT_KEYS):
        value = cert[key]
        if isinstance(value, (list, tuple)):
            value = "[\n    " + ",\n    ".join(map(str, value)) + "\n  ]"
        elif isinstance(value, str):
            value = f'"{value}"'
        lines.append(f'  "{key}": {value}')
    return "{\n" + ",\n".join(lines) + "\n}\n"


def construction_from_dict(data: dict) -> Construction:
    """The Construction a certificate states, its fields type-checked and
    any g_decimal checked to be a decimal string. It only parses: reverify
    compares the listed g_factors with the derivation, and only then any
    g_decimal with their product."""
    if not isinstance(data, dict):
        raise DomainError("certificate must be a JSON object")
    unknown = set(data) - set(_CERT_KEYS)
    if unknown:
        raise DomainError(f"certificate has unknown fields: {sorted(unknown)}")
    missing = set(_CERT_KEYS) - {"g_decimal"} - set(data)
    if missing:
        raise DomainError(f"certificate is missing fields: {sorted(missing)}")
    for key in ("q", "a", "k", "t", "B"):
        if not isinstance(data[key], int) or isinstance(data[key], bool):
            raise DomainError(f"certificate field {key} must be an integer")
    for key in ("offsets", "g_factors"):
        # type() is exact, so bool, like any int subclass, is refused
        if not (isinstance(data[key], list) and set(map(type, data[key])) <= {int}):
            raise DomainError(f"certificate field {key} must be a list of integers")
    params = ConstructionParams(q=data["q"], a=data["a"], k=data["k"])
    c = Construction(params=params, t=data["t"], offsets=tuple(data["offsets"]), B=data["B"])
    if "g_decimal" in data:
        g_decimal = data["g_decimal"]
        if not (isinstance(g_decimal, str) and g_decimal.isascii() and g_decimal.isdigit()):
            raise DomainError("certificate field g_decimal must be a decimal string")
    return c


def _derives(c: Construction, g_factors: list[int]) -> bool:
    """Whether c, with the g_factors its certificate lists, is the
    construction of its (q, a, k), judged from one sieve up to its last
    offset: its offsets are the progression members at positions
    t+1 ... t+k; choose_t on those members returns t, within SHIFT_CAP,
    reading none past the list, as Construction's checks make t pass the
    rule; and the list is exactly the primes up to the last offset that
    are not offsets. B is the last offset minus the first, which
    Construction already demands.

    A height that the certificate's own length cannot back is not sieved:
    g_factors and offsets together must be the pi(last) primes up to the
    last offset, and pi(x) > x / ln x for x >= 17 (Rosser and Schoenfeld,
    1962). So a certificate with fewer is a mismatch at once, and the sieve
    never runs past what the input's size pays for. Nothing here reads a
    g_decimal: reverify multiplies out only a list this has accepted.
    """
    k, t, last = c.params.k, c.t, c.offsets[-1]
    if t > SHIFT_CAP or last >= 17 and (len(g_factors) + k) * log(last) < last:
        return False
    primes = primes_up_to(last)
    q, res = c.params.q, c.params.residue
    members = [p for p in primes if p % q == res]
    chosen = set(c.offsets)
    return (tuple(members[t:]) == c.offsets
            and choose_t(lambda i: members[i - 1], k) == t
            and list(filterfalse(chosen.__contains__, primes)) == g_factors)


def reverify(data: dict) -> Construction:
    """Parse a certificate, check that it is the construction of its
    (q, a, k), then re-run the admissibility and isolation checks on it.

    _derives checks the certificate, its listed g_factors included, against
    the definition, from one sieve to its own last offset. Only on a
    mismatch does build re-derive the construction from (q, a, k), to list
    the fields that differ; if none do, the two derivations disagree, which
    is a bug. A g_decimal is compared with the product of g_factors only
    once the list has been derived, so a padded list is never multiplied
    out. Isolation is checked as a cover of the window, one byte per
    integer, with no (h, p) pairs.
    """
    claimed = construction_from_dict(data)
    if not _derives(claimed, data["g_factors"]):
        rebuilt = build(claimed.params)
        # a g_decimal is not read here: a wrong list is reported first
        stated = {"B": claimed.B, "g_factors": tuple(data["g_factors"]),
                  "offsets": claimed.offsets, "t": claimed.t}
        mismatched = [key for key, value in stated.items() if value != getattr(rebuilt, key)]
        if mismatched:
            raise DomainError(
                f"certificate does not match re-derivation; mismatched fields: {mismatched}"
            )
        raise InternalConsistencyError(
            "the sieve derivation refused a certificate that build re-derives",
            context=data,
        )
    if "g_decimal" in data and data["g_decimal"] != _decimal(data["g_factors"]):
        raise DomainError("g_decimal does not match the product of g_factors")
    if not verify_admissible(claimed).admissible:
        raise InternalConsistencyError("re-derived construction is not admissible", context=data)
    _check_cover(claimed)
    return claimed
