import math

import numpy as np
import pytest

from shallowfp.analysis import epsilon_of
from shallowfp.coeffsets import CoefficientSet, explicit_set, gen_cyclic, gen_random
from shallowfp.qfa import (
    QfaState,
    accept_probability,
    acceptance_sweep,
    error_prob,
    initial_state,
    run_word,
    step,
)


def stepped_sweep(K, n):
    """Accept probabilities for j = 0 .. n-1 by iterating the transition."""
    s = initial_state(K)
    out = [accept_probability(s)]
    for _ in range(n - 1):
        s = step(s)
        out.append(accept_probability(s))
    return np.array(out)


class TestInitialState:
    def test_d1(self):
        s = initial_state(explicit_set(7, [1]))
        assert np.allclose(s.amplitudes, [[1.0, 0.0]])

    def test_d4_uniform(self):
        s = initial_state(explicit_set(7, [1, 2, 3, 4]))
        assert np.allclose(s.amplitudes[:, 0], 0.5)
        assert np.allclose(s.amplitudes[:, 1], 0.0)
        assert s.norm() == pytest.approx(1.0, abs=1e-15)


class TestQfaState:
    def test_equality_and_frozen_fields(self):
        K = explicit_set(7, [1, 2])
        s = initial_state(K)
        assert s == QfaState(K, s.amplitudes)
        # sets that differ in params give unequal states; the arrays are not compared
        assert s != QfaState(CoefficientSet(7, (1, 2), "random", {"seed": 1}), s.amplitudes)
        for field in ("coefficients", "amplitudes"):
            with pytest.raises(AttributeError):
                setattr(s, field, None)


class TestStep:
    def test_zero_coefficient_is_identity(self):
        s = initial_state(explicit_set(7, [0]))
        s2 = step(s)
        assert np.allclose(s.amplitudes, s2.amplitudes)

    def test_quarter_turn(self):
        # composite modulus on purpose: one step rotates by 2*pi*1/4
        K = explicit_set_with_modulus(4, [1])
        s = step(initial_state(K))
        assert np.allclose(s.amplitudes, [[math.cos(math.pi / 2), math.sin(math.pi / 2)]],
                           atol=1e-12)

    def test_p_steps_return_to_start(self):
        K = gen_random(31, 4, 1)
        s = initial_state(K)
        for _ in range(31):
            s = step(s)
        assert np.allclose(s.amplitudes, initial_state(K).amplitudes, atol=1e-9)

    def test_norm_preserved(self):
        K = gen_random(101, 6, 2)
        s = initial_state(K)
        for _ in range(50):
            s = step(s)
            assert s.norm() == pytest.approx(1.0, abs=1e-12)


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
        K = gen_random(31, 4, 4)
        assert accept_probability(initial_state(K)) == pytest.approx(1.0, abs=1e-12)

    def test_period_p(self):
        K = gen_random(31, 4, 5)
        assert run_word(K, 31) == pytest.approx(1.0, abs=1e-10)
        assert stepped_sweep(K, 63)[62] == pytest.approx(1.0, abs=1e-10)

    def test_single_rotation(self):
        assert stepped_sweep(explicit_set(3, [1]), 2)[1] == pytest.approx(0.25, abs=1e-12)


class TestRunWord:
    def test_j0(self):
        assert run_word(gen_random(31, 3, 6), 0) == pytest.approx(1.0)

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
        sweep = acceptance_sweep(K)
        for j in range(101):
            assert stepped[j] == pytest.approx(error_prob(K, j), abs=1e-10)
            assert sweep[j] == pytest.approx(error_prob(K, j), abs=1e-10)


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
