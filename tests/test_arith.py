import math
import time

import pytest
from hypothesis import given, strategies as st

from logsig import factor_integer
from logsig.arith import is_probable_prime


def slow_factor(n):
    """Independent oracle: bare trial division, no wheel."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def test_one_has_empty_factorization():
    f = factor_integer(1)
    assert f.value == 1 and f.factors == ()


def test_m11_order():
    assert factor_integer(7920).factors == ((2, 4), (3, 2), (5, 1), (11, 1))


def test_co2_order():
    f = factor_integer(42_305_421_312_000)
    assert f.factors == ((2, 18), (3, 6), (5, 3), (7, 1), (11, 1), (23, 1))


def test_monster_scale_smooth_number():
    n = (2 ** 46 * 3 ** 20 * 5 ** 9 * 7 ** 6 * 11 ** 2 * 13 ** 3
         * 17 * 19 * 23 * 29 * 31 * 41 * 47 * 59 * 71)
    f = factor_integer(n)
    assert f.value == n
    assert math.prod(p ** a for p, a in f.factors) == n
    assert f.factors[0] == (2, 46) and f.factors[-1] == (71, 1)


def test_composite_cofactor_beyond_trial_bound_raises():
    # no prime factor up to 10^6 and not prime: rejected, not searched
    for n in (1_000_003 * 1_500_000_001, 1_000_003 ** 2,
              (2 ** 61 - 1) * (2 ** 89 - 1)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cofactor %d " % n):
            factor_integer(n)
        assert time.perf_counter() - start < 1.0


def test_prime_beyond_trial_bound():
    p = 10_000_000_019
    assert factor_integer(p).factors == ((p, 1),)


def test_primes_strictly_increasing_and_prime():
    for n in (720, 7920, 95040, 443520, 244823040, 2 ** 30, 3 ** 12 * 37):
        f = factor_integer(n)
        primes = [p for p, _ in f.factors]
        assert primes == sorted(set(primes))
        assert all(is_probable_prime(p) for p in primes)


def test_below_range_inputs():
    assert not any(is_probable_prime(n) for n in (-7, 0, 1))
    for n in (0, -12):
        with pytest.raises(ValueError, match="integers >= 1"):
            factor_integer(n)


@given(st.integers(min_value=1, max_value=10 ** 12))
def test_matches_trial_division_oracle(n):
    f = factor_integer(n)
    assert math.prod(p ** a for p, a in f.factors) == n
    expanded = [p for p, a in f.factors for _ in range(a)]
    assert expanded == slow_factor(n)


@given(st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 999_983]),
                min_size=1, max_size=8))
def test_reassembles_prime_products(primes):
    n = math.prod(primes)
    f = factor_integer(n)
    expanded = [p for p, a in f.factors for _ in range(a)]
    assert expanded == sorted(primes)
