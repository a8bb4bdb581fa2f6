import math

import numpy as np
import pytest

from automaton import states, stepped_sweep
from helpers import explicit_set
from shallowfp.analysis import epsilon_of
from shallowfp.coeffsets import CoefficientSet, gen_cyclic, gen_random
from shallowfp.qfa import acceptance_sweep, run_word


def start(K):
    return next(states(K, 1))


def norm(amps):
    return float((amps ** 2).sum())


class TestInitialState:
    def test_d1(self):
        assert np.allclose(start(explicit_set(7, [1])), [[1.0, 0.0]])

    def test_d4_uniform(self):
        amps = start(explicit_set(7, [1, 2, 3, 4]))
        assert np.allclose(amps[:, 0], 0.5)
        assert np.allclose(amps[:, 1], 0.0)
        assert norm(amps) == pytest.approx(1.0, abs=1e-15)


class TestStep:
    def test_zero_coefficient_is_identity(self):
        first, second = states(explicit_set(7, [0]), 2)
        assert np.allclose(first, second)

    def test_quarter_turn(self):
        # composite modulus on purpose: one step rotates by 2*pi*1/4
        _, amps = states(explicit_set_with_modulus(4, [1]), 2)
        assert np.allclose(amps, [[math.cos(math.pi / 2), math.sin(math.pi / 2)]], atol=1e-12)

    def test_p_steps_return_to_start(self):
        K = gen_random(31, 4, 1)
        *_, last = states(K, 32)
        assert np.allclose(last, start(K), atol=1e-9)

    def test_norm_preserved(self):
        for amps in states(gen_random(101, 6, 2), 51):
            assert norm(amps) == pytest.approx(1.0, abs=1e-12)


def explicit_set_with_modulus(p, coeffs):
    """Build a coefficient set over a possibly composite modulus (test-only)."""
    K = CoefficientSet.__new__(CoefficientSet)
    object.__setattr__(K, "p", p)
    object.__setattr__(K, "coefficients", tuple(coeffs))
    object.__setattr__(K, "method", "explicit")
    object.__setattr__(K, "params", {})
    return K


class TestAcceptProbability:
    def test_initial_is_one(self):
        assert stepped_sweep(gen_random(31, 4, 4), 1)[0] == pytest.approx(1.0, abs=1e-12)

    def test_period_p(self):
        K = gen_random(31, 4, 5)
        assert run_word(K, 31) == pytest.approx(1.0, abs=1e-10)
        assert stepped_sweep(K, 63)[62] == pytest.approx(1.0, abs=1e-10)

    def test_single_rotation(self):
        assert stepped_sweep(explicit_set(3, [1]), 2)[1] == pytest.approx(0.25, abs=1e-12)


class TestRunWord:
    def test_j0(self):
        assert run_word(gen_random(31, 3, 6), 0) == pytest.approx(1.0)

    def test_negative_length_refused(self):
        with pytest.raises(ValueError, match=r"^word length must be nonnegative$"):
            run_word(gen_random(31, 3, 6), -1)

    def test_closed_form_example(self):
        assert run_word(explicit_set(3, [1, 2]), 1) == pytest.approx(0.25, abs=1e-12)

    def test_paths_agree(self):
        K = gen_cyclic(31, 6)
        stepped = stepped_sweep(K, 31)
        for j in range(0, 40, 3):
            assert stepped[j % 31] == pytest.approx(run_word(K, j), abs=1e-10)

    def test_periodicity(self):
        K = gen_random(31, 5, 7)
        for j in (1, 17, 30):
            assert run_word(K, j + 31) == pytest.approx(run_word(K, j), abs=1e-10)

    def test_agrees_with_error_prob(self):
        K = gen_random(101, 5, 8)
        stepped = stepped_sweep(K, 101)
        for j in range(101):
            assert stepped[j] == pytest.approx(run_word(K, j), abs=1e-10)
        # README: the sweep lies within about 1e-15 of the words' fsum closed
        # form (4.4e-16 and 1.5e-16 measured on the two larger sets)
        for K in (K, gen_random(1013, 8, 3), gen_random(20011, 64, 1)):
            words = [run_word(K, j) for j in range(int(K.p))]
            assert np.max(np.abs(acceptance_sweep(K) - words)) <= 1e-14


class TestAcceptanceSweep:
    def test_agrees_with_step_iteration(self):
        K = gen_random(65551, 64, 1)
        sweep = acceptance_sweep(K)
        assert sweep.shape == (65551,)
        assert np.max(np.abs(sweep[:4096] - stepped_sweep(K, 4096))) <= 1e-9


class TestMaxErrorSweep:
    """The largest acceptance probability on a word a^j, p not dividing j."""

    def test_full_residue_set(self):
        worst = acceptance_sweep(explicit_set(5, [1, 2, 3, 4]))[1:].max()
        assert worst == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_zero_set_never_rotates(self):
        worst = acceptance_sweep(explicit_set(11, [0]))[1:].max()
        assert worst == pytest.approx(1.0, abs=1e-12)

    def test_bounded_by_epsilon(self):
        for seed in range(5):
            K = gen_random(101, 4, seed)
            worst = acceptance_sweep(K)[1:].max()
            eps, _ = epsilon_of(K)
            assert worst <= eps + 1e-12

    def test_is_the_maximum_of_the_sweep(self):
        K = gen_random(1013, 8, 3)
        worst = acceptance_sweep(K)[1:].max()
        assert worst == pytest.approx(max(run_word(K, j) for j in range(1, 1013)), abs=1e-12)
