"""In-house integer factoring and the Gaussian prime factorization built on it,
checked against the trial-division oracle and planted products."""

import time
from math import isqrt, prod

import pytest
from hypothesis import example, given, settings, strategies as st

import specfactor.gaussint as gaussint
from specfactor.errors import InputTooLargeError
from specfactor.gaussint import UNITS, canonical_associate, gi_divisors_up_to_units, gi_factor

from oracles import ref_factor


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _power(x, e):
    out = (1, 0)
    for _ in range(e):
        out = _mul(out, x)
    return out


def _two_squares(p):
    a = next(a for a in range(1, p) if isqrt(p - a * a) ** 2 == p - a * a)
    return a, isqrt(p - a * a)


_SMALL_PRIMES = [p for p in range(3, 110) if ref_factor(p) == {p: 1}]
# Gaussian primes in canonical associate form: 1+i, the inert p = 3 mod 4,
# and both conjugate factors of every split p = 1 mod 4
POOL = [(1, 1)]
for _p in _SMALL_PRIMES:
    if _p % 4 == 3:
        POOL.append((_p, 0))
    else:
        _a, _b = _two_squares(_p)
        POOL += [canonical_associate((_a, _b)), canonical_associate((_a, -_b))]

planted = st.dictionaries(st.sampled_from(POOL), st.integers(1, 3), max_size=5)


def _check_planted(primes, unit, oracle=True):
    x = unit
    for p, e in primes.items():
        x = _mul(x, _power(p, e))
    found = gi_factor(x)
    assert found == primes
    if oracle:
        # the oracle factors the norm: each Gaussian prime contributes its
        # norm, which is a rational prime or the square of one
        counted = {}
        for (a, b), e in found.items():
            for q, k in ref_factor(a * a + b * b).items():
                counted[q] = counted.get(q, 0) + k * e
        assert counted == ref_factor(x[0] * x[0] + x[1] * x[1])
    divisors = gi_divisors_up_to_units(found)
    assert len(divisors) == len(set(divisors)) == prod(e + 1 for e in found.values())


@settings(max_examples=80, deadline=None)
@given(planted, st.sampled_from(UNITS))
@example({(1, 1): 3}, (0, 1))
@example({(2, 1): 1, (1, 2): 2, (3, 0): 1}, (-1, 0))
@example({(3, 2): 2, (2, 3): 2, (1, 1): 1, (7, 0): 3}, (0, -1))
def test_gi_factor_matches_planted_primes(primes, unit):
    _check_planted(primes, unit)


def test_gi_factor_large_primes_take_the_rho_path(monkeypatch):
    calls = []
    rho = gaussint._rho

    def counting(n):
        calls.append(n)
        return rho(n)

    monkeypatch.setattr(gaussint, "_rho", counting)
    mersenne = (2**61 - 1, 0)  # a prime 3 mod 4, inert in Z[i]
    # 1518500249**2 + 6**2 = 2305843006213062037, a prime 1 mod 4 just below 2**61
    big = canonical_associate((1518500249, 6))
    # 408**2 + 913**2 = 1000033, a prime 1 mod 4 above the trial-division bound
    medium = canonical_associate((408, 913))
    # trial division cannot reach primes this large, so the planted primes
    # alone are the reference
    for primes in ({mersenne: 1, (1000003, 0): 1, (1, 1): 2},
                   {big: 1, canonical_associate((1518500249, -6)): 1, medium: 2}):
        calls.clear()
        _check_planted(primes, (0, 1), oracle=False)
        assert calls


def test_strong_pseudoprimes_are_composite():
    # the first is a strong pseudoprime to the bases 2, 3, 5 and 7, the
    # second to every prime base up to 31
    for n in (3215031751, 3825123056546413051):
        assert not gaussint._is_prime(n)
        assert gaussint._factor_int(n) == ref_factor(n)
    assert gi_factor((3215031751, 0)) == {(151, 0): 1, (751, 0): 1, (28351, 0): 1}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10**9))
@example(1009 * 1013)
@example(2**29)
def test_factor_int_matches_trial_division(n):
    factors = gaussint._factor_int(n)
    assert factors == ref_factor(n)
    assert list(factors) == sorted(factors)


def test_factoring_past_the_rho_budget_raises():
    # two 13-digit primes: rho needs about 2 * 10**6 steps, twice the budget
    n = 1000000000039 * 3000000000013
    start = time.perf_counter()
    with pytest.raises(InputTooLargeError):
        gi_factor((n, 0))
    assert time.perf_counter() - start < 5
