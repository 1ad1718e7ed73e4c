"""Big-integer prime factorization: trial division to 10^6, then one
primality test.

Group orders up to ~10^54 appear in the bundled catalog; everything here is
arbitrary precision and deterministic.  Chain orders have prime factors at
most the degree (itself at most 10^6) and claim-table primes are at most 71,
so trial division finds them all; a composite cofactor raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PrimeFactorization", "factor_integer", "is_probable_prime"]

_TRIAL_LIMIT = 10 ** 6

# Witnesses proving primality for all n < 3.3e24; for larger n the test is
# probabilistic with a vanishing error rate, which is fine for factor output
# validation.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class PrimeFactorization:
    """``value == prod(p**a for p, a in factors)`` with strictly increasing primes."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join("%d^%d" % (p, a) if a > 1 else str(p)
                          for p, a in self.factors)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with fixed witness bases (deterministic below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor_integer(n: int) -> PrimeFactorization:
    """Prime power decomposition of ``n >= 1``; ``factor_integer(1)`` is empty.

    Trial division by 2, 3 and the 6k+-1 wheel up to 10^6, then one
    primality test on the cofactor, so a call costs at most ~333,000
    divisions of ``n`` and one Miller-Rabin test.  A composite cofactor (two
    or more prime factors above 10^6) raises ValueError.
    """
    if n < 1:
        raise ValueError("can only factor integers >= 1")
    value = n
    factors: list[tuple[int, int]] = []
    for p in (2, 3):
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        if a:
            factors.append((p, a))
    d = 5
    step = 2
    while d <= _TRIAL_LIMIT and d * d <= n:
        a = 0
        while n % d == 0:
            n //= d
            a += 1
        if a:
            factors.append((d, a))
        d += step
        step = 6 - step  # 5, 7, 11, 13, ... the 6k+-1 wheel
    if n > 1:
        if d * d > n or is_probable_prime(n):
            factors.append((n, 1))
        else:
            raise ValueError("cofactor %d of %d has no prime factor up to %d "
                             "and is not prime" % (n, value, _TRIAL_LIMIT))
    return PrimeFactorization(value, tuple(factors))
