import math
import time

import pytest

from shallowfp.errors import DomainError
from shallowfp.rng import SplitMix64
from shallowfp.zmod import (
    PrimeModulus,
    factorize,
    is_prime,
    primitive_root,
)

# Primes above 2^60 whose p - 1 trial division factors in well under a
# second (every prime factor but the largest below 4 * 10^5, the largest
# below 10^11): 2^60 + 33, 2^61 - 1, 2^63 - 25 and three near 2^62.
LARGE_PRIMES = (2 ** 60 + 33, 2 ** 61 - 1, 2 ** 63 - 25, 4611686018427389201,
                4611686018427389633, 4611686018427390607)


def trial_factorize(n):
    """Reference factorization by trial division: {prime: exponent}."""
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def trial_primitive_root(p):
    """Smallest g whose powers g^((p-1)/q) avoid 1, from the reference factors."""
    qs = list(trial_factorize(p - 1))
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


def test_is_prime_examples():
    assert is_prime(1013)
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael number, 3 * 11 * 17
    assert is_prime(2)
    assert not is_prime(0)
    with pytest.raises(ValueError, match=r"^is_prime expects a nonnegative integer$"):
        is_prime(-1)


def test_is_prime_matches_trial_division_small():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    for n in range(2000):
        assert is_prime(n) == trial(n), n


def test_prime_modulus_rejects_composite():
    assert int(PrimeModulus(7)) == 7
    with pytest.raises(DomainError, match=r"^561 is not prime$"):
        PrimeModulus(561)


def test_prime_modulus_is_below_2_63():
    assert int(PrimeModulus(2 ** 63 - 25)) == 2 ** 63 - 25  # the largest prime below 2^63
    assert is_prime(2 ** 63 + 29)
    with pytest.raises(DomainError, match=r"^modulus 9223372036854775837 is not below 2\^63$"):
        PrimeModulus(2 ** 63 + 29)
    with pytest.raises(DomainError, match=r"^-7 is not prime$"):
        PrimeModulus(-7)


def test_primitive_root_examples():
    assert primitive_root(7) == 3
    assert primitive_root(3) == 2
    assert primitive_root(2) == 1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101, 257])
def test_primitive_root_generates_group(p):
    g = primitive_root(p)
    seen = {pow(g, i, p) for i in range(1, p)}
    assert seen == set(range(1, p))


def test_factorize_matches_trial_division():
    for p in [n for n in range(2, 20000) if is_prime(n)] + list(LARGE_PRIMES):
        assert factorize(p - 1) == trial_factorize(p - 1), p
    for n in range(1, 3000):
        assert factorize(n) == trial_factorize(n), n


def test_factorize_hard_composites():
    # products of two or three primes above 2^10, where trial division stops
    # early and rho does all the work; factorization is unique, so a product
    # of primes equal to n is the answer
    big = [q for q in range(2 ** 20, 2 ** 20 + 400) if is_prime(q)][:6] + [2 ** 31 - 1]
    for n in [a * b for a in big for b in big] + [q ** 3 for q in big] + [1031 * 2 ** 31 - 1031]:
        f = factorize(n)
        assert all(is_prime(q) for q in f)
        assert n == math.prod(q ** e for q, e in f.items()), n


def test_factorize_products_of_two_31_bit_primes():
    # balanced semiprimes, where rho runs longest: it needs about sqrt(q)
    # steps for the smaller prime q; seeded, so the list is the same each run
    rng = SplitMix64(1)
    primes = []
    while len(primes) < 20:
        q = rng.in_range(2 ** 30, 2 ** 31)
        if is_prime(q):
            primes.append(q)
    for a, b in zip(primes[::2], primes[1::2]):
        start = time.perf_counter()
        assert factorize(a * b) == {a: 1, b: 1}, (a, b)
        assert time.perf_counter() - start < 1.0


def test_factorize_retries_when_c_1_gives_n():
    # 1031 * 1223 has no factor below 2^10.  With x = y = 2 and c = 1, Floyd's
    # search first meets gcd(x - y, n) > 1 with x = y mod n, so gcd = n and
    # the loop retries with c = 2 (checked by replaying c = 1 by hand)
    n = 1031 * 1223
    x = y = 2
    g = 1
    while g == 1:
        x = (x * x + 1) % n
        y = (y * y + 1) % n
        y = (y * y + 1) % n
        g = math.gcd(x - y, n)
    assert g == n
    assert factorize(n) == {1031: 1, 1223: 1}


def test_primitive_root_matches_trial_reference():
    for p in [n for n in range(3, 20000) if is_prime(n)] + list(LARGE_PRIMES):
        assert primitive_root(p) == trial_primitive_root(p), p


def test_safe_prime_below_2_62_is_fast():
    # p = 2q + 1 with q prime: trial division of p - 1 would run to 1.5 * 10^9
    p = 4611686018427394499
    start = time.perf_counter()
    assert factorize(p - 1) == {2: 1, (p - 1) // 2: 1}
    assert primitive_root(p) == 2
    assert time.perf_counter() - start < 1.0
