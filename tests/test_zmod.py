import pytest
from hypothesis import given, strategies as st

from shallowfp.errors import CompositeModulusError, ModulusTooLargeError
from shallowfp.zmod import (
    PrimeModulus,
    is_prime,
    mod_inverse,
    primitive_root,
)


def test_is_prime_examples():
    assert is_prime(1013)
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael number, 3 * 11 * 17
    assert is_prime(2)
    assert not is_prime(0)


def test_is_prime_matches_trial_division_small():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    for n in range(2000):
        assert is_prime(n) == trial(n), n


def test_prime_modulus_rejects_composite():
    assert int(PrimeModulus(7)) == 7
    with pytest.raises(CompositeModulusError):
        PrimeModulus(561)


def test_prime_modulus_is_below_2_63():
    assert int(PrimeModulus(2 ** 63 - 25)) == 2 ** 63 - 25  # the largest prime below 2^63
    assert is_prime(2 ** 63 + 29)
    with pytest.raises(ModulusTooLargeError):
        PrimeModulus(2 ** 63 + 29)
    with pytest.raises(CompositeModulusError):
        PrimeModulus(-7)


def test_mod_inverse_examples():
    assert mod_inverse(3, 7) == 5
    assert mod_inverse(1, 101) == 1
    assert mod_inverse(1012, 1013) == 1012
    with pytest.raises(ValueError):
        mod_inverse(0, 7)


def test_primitive_root_examples():
    assert primitive_root(7) == 3
    assert primitive_root(3) == 2
    assert primitive_root(2) == 1


@given(st.sampled_from([3, 7, 101, 257, 1013]), st.data())
def test_inverse_property(p, data):
    a = data.draw(st.integers(min_value=1, max_value=p - 1))
    assert a * mod_inverse(a, p) % p == 1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101, 257])
def test_primitive_root_generates_group(p):
    g = primitive_root(p)
    seen = {pow(g, i, p) for i in range(1, p)}
    assert seen == set(range(1, p))
