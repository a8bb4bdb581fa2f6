"""Exact modular number theory over Z_p.

Everything here is deterministic integer arithmetic: primality testing,
factorization and primitive roots.  Moduli are limited to p < 2^63
(`PrimeModulus` refuses larger ones), the bound below which `is_prime` is
claimed.  Python integers make the 128-bit intermediate products exact for
free.
"""
from __future__ import annotations

import math

from .errors import DomainError

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24
# (in particular for every n < 2^63); also the primes trial-divided first.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_MAX_MODULUS = 2 ** 63  # exclusive


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2^63."""
    if n < 0:
        raise ValueError("is_prime expects a nonnegative integer")
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    # n is odd and coprime to the small primes; run Miller-Rabin.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeModulus(int):
    """A validated prime modulus p < 2^63.  Behaves like a plain int everywhere."""

    def __new__(cls, p: int) -> "PrimeModulus":
        if p >= _MAX_MODULUS:
            raise DomainError(f"modulus {p} is not below 2^63")
        if p < 2 or not is_prime(p):
            raise DomainError(f"{p} is not prime")
        return super().__new__(cls, p)

    def __repr__(self) -> str:
        return f"PrimeModulus({int(self)})"


def _brent_divisor(n: int) -> int:
    """A nontrivial divisor of the odd composite n (Pollard rho, Brent's cycle
    search, batched gcds).  Deterministic: the polynomials y^2 + c start at
    y = 2 and c counts up from 1 until one splits n."""
    batch = 128
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += batch
            r *= 2
        if g == n:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent} of n >= 1, primes ascending.

    Trial division by d < 2^10, then Pollard-Brent rho on the cofactor, with
    `is_prime` deciding which parts are prime.  Milliseconds for any
    n < 2^63, where trial division alone needs up to 1.5 * 10^9 steps.
    """
    factors: dict[int, int] = {}
    for d in range(2, 1 << 10):
        if d * d > n:
            break
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _brent_divisor(m)
            stack += [d, m // d]
    return dict(sorted(factors.items()))


def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod p.

    Verified by checking g^((p-1)/q) != 1 for every prime q | p-1.
    For p = 2 the group is trivial and 1 is returned.
    """
    if p == 2:
        return 1
    prime_factors = list(factorize(p - 1))
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in prime_factors):
            return g
    raise ArithmeticError(f"no primitive root found modulo {p}")  # unreachable for prime p
