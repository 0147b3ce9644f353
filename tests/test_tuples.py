from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import raises

from shiu.errors import DomainError, ResourceError
from shiu.tuples import (
    KTuple,
    LinearForm,
    _least_prime_factor,
    is_admissible,
    residue_coverage,
)

from ._oracles import admissible_oracle, coverage_oracle, trial_primes

pair = st.tuples(st.integers(min_value=1, max_value=50),
                 st.integers(min_value=-200, max_value=200))


def distinct_pairs(min_size=1, max_size=8):
    return st.lists(pair, min_size=min_size, max_size=max_size, unique=True)


def ktuple(pairs) -> KTuple:
    return KTuple(tuple(LinearForm(g, h) for g, h in pairs))


def refuses(cls, fields: dict, message: str) -> None:
    """cls refuses fields, given by position and by keyword, with message."""
    for args, kwargs in ((tuple(fields.values()), {}), ((), fields)):
        with raises(DomainError, match=message):
            cls(*args, **kwargs)


def test_form_validation():
    refuses(LinearForm, {"g": 0, "h": 5}, "form coefficient must be a positive integer")
    refuses(LinearForm, {"g": -2, "h": 5}, "form coefficient must be a positive integer")


def test_tuple_rejects_duplicates_and_empty():
    refuses(KTuple, {"forms": (LinearForm(2, 1), LinearForm(2, 1))},
            "forms must be pairwise distinct")
    refuses(KTuple, {"forms": ()}, "a tuple needs at least one form")


def test_coverage_known_cases():
    assert residue_coverage(ktuple([(1, 0), (1, 2)]), 2) == {0}
    assert residue_coverage(ktuple([(1, 0), (1, 2), (1, 4)]), 3) == {0, 1, 2}
    assert residue_coverage(ktuple([(2, 1), (2, 3)]), 2) == set()


def test_coverage_rejects_composite_modulus():
    with raises(DomainError):
        residue_coverage(ktuple([(1, 0)]), 6)


def test_admissibility_known_cases():
    assert is_admissible(ktuple([(1, 0), (1, 2)])).admissible
    rep = is_admissible(ktuple([(1, 0), (1, 2), (1, 4)]))
    assert not rep.admissible
    assert rep.witness == (3, 3)
    six = ktuple([(6, 1), (6, 5), (6, 7), (6, 11), (6, 13), (6, 17)])
    assert is_admissible(six).admissible


def test_degenerate_form_is_ordinary_inadmissibility():
    # 3 divides both coefficient and constant, so every n is a root mod 3
    rep = is_admissible(ktuple([(6, 3), (1, 1)]))
    assert not rep.admissible
    assert rep.witness == (3, 3)
    assert 3 in rep.checked_primes


def test_degenerate_check_set_reaches_past_k():
    # only a prime way above k = 2 makes this one fail
    rep = is_admissible(ktuple([(101, 202), (2, 1)]))
    assert not rep.admissible
    assert rep.witness == (101, 101)


@given(distinct_pairs())
def test_agrees_with_enumeration_oracle(pairs):
    assert is_admissible(ktuple(pairs)).admissible == admissible_oracle(pairs)


@given(distinct_pairs(max_size=5), st.integers(min_value=0, max_value=4))
def test_coverage_agrees_with_enumeration_oracle(pairs, pidx):
    p = trial_primes(11)[pidx]
    assert residue_coverage(ktuple(pairs), p) == coverage_oracle(pairs, p)


@given(distinct_pairs(max_size=6), st.integers(min_value=0, max_value=3))
def test_coverage_is_bounded(pairs, pidx):
    p = [2, 3, 5, 7][pidx]
    t = ktuple(pairs)
    cov = residue_coverage(t, p)
    assert cov <= set(range(p))
    if any(g % p == 0 and h % p == 0 for g, h in pairs):
        # a degenerate form vanishes identically, covering everything
        assert cov == set(range(p))
    else:
        assert len(cov) <= min(t.k, p)


@given(distinct_pairs(min_size=2), st.randoms(use_true_random=False))
def test_permutation_invariance(pairs, rng):
    verdict = is_admissible(ktuple(pairs)).admissible
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    assert is_admissible(ktuple(shuffled)).admissible == verdict


@settings(max_examples=40)
@given(distinct_pairs(max_size=5), st.integers(min_value=1, max_value=3))
def test_translation_by_checked_product_preserves_coverage(pairs, c):
    t = ktuple(pairs)
    rep = is_admissible(t)
    shift = c * prod(rep.checked_primes) if rep.checked_primes else c
    moved = ktuple([(g, h + g * shift) for g, h in pairs])
    for p in rep.checked_primes:
        assert residue_coverage(t, p) == residue_coverage(moved, p)


def test_text_format_round_trip_examples(capsys):
    from shiu import cli
    from shiu.construction import ConstructionParams, build

    assert cli.main(["construct", "--q", "3", "--a", "1", "--k", "5",
                     "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("11225610*x+7\n11225610*x+13\n")
    assert text.endswith("11225610*x+37\n")
    forms = tuple(LinearForm(*map(int, line.split("*x+")))
                  for line in text.splitlines())
    c = build(ConstructionParams(q=3, a=1, k=5))
    assert KTuple(forms) == ktuple([(c.coefficient(), h) for h in c.offsets])


PSI12 = 318665857834031151167461  # 399165290221 * 798330580441


def test_prime_factors_refuses_a_strong_pseudoprime_cofactor():
    # both factors lie past the trial bound, so only the primality test
    # stands between this composite and a claim that it is prime
    with raises(ResourceError):
        _least_prime_factor(PSI12)
    with raises(ResourceError):
        is_admissible(ktuple([(PSI12, PSI12), (1, 2)]))


def test_prime_factors_accepts_a_large_prime_cofactor():
    m89 = (1 << 89) - 1
    assert _least_prime_factor(m89) == m89
    assert _least_prime_factor(12 * m89) == 2
    assert _least_prime_factor(1009 * m89) == 1009


def test_admissibility_needs_only_the_least_factor_of_a_gcd():
    # 2 divides both g and h, so the first form covers every class mod 2,
    # and the pseudoprime cofactor past the trial bound is never factored
    report = is_admissible(ktuple([(2 * PSI12, 2 * PSI12), (1, 1)]))
    assert report == (False, (2, 2), (2,))
