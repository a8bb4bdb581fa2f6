"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 7 checks that shallow GAP fingerprints (m = 3 generators) come
close to unconstrained d = 2^m sets: over all primes 11..1013, at least
80 % of the ratios epsilon_shallow / epsilon_general lie in [0.9, 1.5].
Here epsilon = sqrt(eps) is the epsilon of an epsilon-good set, the unit
of the Fourier bias, so the test bands sqrt(ComparisonRecord.ratio); the
record's ratio is eps_shallow / eps_general, the square.  With seed 7 and
3 restarts, 154 of the 166 primes are in band (133 needed).  The epsilon
ratio falls as p grows (median 1.48 for p <= 200, 1.36 for 700..1013),
and all 12 primes out of band lie below 200: on primes up to 200 alone
only 30 of 42 would be in band (34 needed).  The shallow search does not
always reach its global optimum: with these settings it misses the exact
optimum on 68 of the 166 primes, and with exact optima 155 primes would
be in band instead of 154.  So these ratios mix properties of the sets
with misses of the search.  Criterion 6 checks only that the best of all
p^2 starts at p = 31 is optimal.
"""
import contextlib
import math
import random
import sys

import numpy as np
import pytest

from automaton import stepped_sweep
from descent_oracle import oracle_locally_optimal
from helpers import best_point, explicit_set
from qasm_sim import simulate_qasm, statevector
from shallowfp import analysis
from shallowfp.analysis import (
    additive_energy,
    analyze,
    epsilon_of,
)
from shallowfp.circuit import (
    build_aikps,
    build_deep,
    build_shallow,
    cx_count_lnn,
    depth,
    emit_qasm,
    pad_pow2,
)
from shallowfp.coeffsets import (
    expand_subset_sums,
    gen_aikps,
    gen_cyclic,
    gen_gap,
    gen_random,
    is_proper_gap,
)
from shallowfp.errors import DomainError
from shallowfp.optimize import (
    DescentConfig,
    compare_experiment,
    coordinate_descent,
)
from shallowfp.qfa import acceptance_sweep, run_word
from shallowfp.zmod import is_prime


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{title}]: FAIL", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {number} [{title}]: PASS")


def primes_in(lo, hi):
    return [n for n in range(lo, hi + 1) if is_prime(n)]


def test_criterion_1_gap_energy_identity():
    with criterion(1, "GAP energy identity"):
        cases = 0
        for m in (2, 3, 4, 5):
            # top of the admissible range: the proper-GAP search converges
            # quickly when 3^m is well below p
            for i, p in enumerate(primes_in(3 ** m, 2000)[-13:]):
                A = gen_gap(p, m, seed=1000 * m + i).expanded
                assert is_proper_gap(A.params["t0"], A.params["T"], p)
                counts = analysis._rep_count_vector(A)
                assert additive_energy(A) == 6 ** m
                assert int(counts @ counts) == 6 ** m
                assert counts.max() == 2 ** m
                assert 6 ** m <= 2 ** (3 * m)
                cases += 1
        assert cases >= 50


def test_criterion_2_bias_energy_chain():
    with criterion(2, "bias-energy chain"):
        rng = random.Random(20240817)
        done = 0
        while done < 200:
            p = rng.choice((11, 101, 257))
            size = rng.randint(2, min(16, p - 1))
            A = explicit_set(p, rng.sample(range(p), size))
            bounds = analyze(A).bounds
            assert len(bounds) == 2 and all(c.holds for c in bounds)
            done += 1


def test_criterion_3_epsilon_consistency():
    with criterion(3, "epsilon consistency"):
        rng = random.Random(7)
        for trial in range(100):
            p = rng.choice((11, 31, 101, 257))
            d = rng.randint(2, 16)
            K = gen_random(p, d, seed=trial)
            eps, _ = epsilon_of(K)
            worst = acceptance_sweep(K)[1:].max()
            assert worst <= eps + 1e-12
            for x in (1, p // 2, p - 1):
                assert run_word(K, x) <= eps + 1e-12
            bias = analyze(K).bias
            assert abs(eps - (p / d * bias) ** 2) <= 1e-9 * max(eps, 1e-30)
            shift = rng.randrange(p)
            shifted = explicit_set(p, [k + shift for k in K.coefficients])
            assert abs(epsilon_of(shifted)[0] - eps) <= 1e-12
            dil = rng.randrange(1, p) if p > 2 else 1
            dilated = explicit_set(p, [dil * k for k in K.coefficients])
            assert abs(epsilon_of(dilated)[0] - eps) <= 1e-12


def _triple_agreement_sets():
    sets = [
        gen_cyclic(13, 8),
        gen_cyclic(31, 16),
        gen_cyclic(101, 8),
        gen_cyclic(257, 16),
        gen_gap(101, 3, seed=1).expanded,
        gen_gap(257, 3, seed=2).expanded,
        gen_gap(251, 4, seed=3).expanded,
        gen_gap(97, 4, seed=4).expanded,
        gen_random(11, 4, 1),
        gen_random(31, 8, 2),
        gen_random(101, 16, 3),
        gen_random(257, 8, 4),
        gen_random(13, 5, 5),      # padded to 8 by the deep builder
        gen_random(31, 11, 6),     # padded to 16
        explicit_set(7, [1, 2, 4, 6]),
        explicit_set(11, [0, 1, 5]),
        gen_aikps(13, 0.5),
        gen_aikps(257, 0.3),
        coordinate_descent(31, 4, DescentConfig(seed=1)).best_set,
        coordinate_descent(31, 2, DescentConfig(seed=2, mode="shallow")).best_set,
    ]
    assert len(sets) == 20
    return sets


def test_criterion_4_triple_agreement():
    with criterion(4, "QFA / closed form / circuit agreement"):
        for K in _triple_agreement_sets():
            p = int(K.p)
            assert p <= 257
            padded = pad_pow2(K)
            d = padded.d
            stepped = stepped_sweep(padded, p)  # the automaton, one letter per x
            for x in range(p):
                closed = run_word(padded, x)
                assert abs(stepped[x] - closed) <= 1e-9
                cos_block = statevector(build_deep(K, x))[:d]
                circ_prob = float(cos_block.sum() / math.sqrt(d)) ** 2
                assert abs(circ_prob - closed) <= 1e-9


def test_criterion_5_depth_width_cx_table():
    with criterion(5, "depth/width/CX table"):
        for p in (257, 1013, 65537):
            for m in range(1, 11):
                K = expand_subset_sums(0, tuple(range(1, m + 1)), p)
                shallow = build_shallow(K, 1)
                assert depth(shallow) == m + 2
                assert K.d == 2 ** m
                assert cx_count_lnn(shallow) == 3 * m + 3
                deep = build_deep(explicit_set(p, [i % p for i in range(1, 2 ** m + 1)]), 1)
                assert depth(deep) == 2 ** m + 1
            for eps in (0.3, 0.5, 1.0):
                c = build_aikps(gen_aikps(p, eps), 1)
                bound = (1 + 2 * eps) * math.log2(p) ** (1 + eps) * math.log2(math.log2(p))
                assert depth(c) <= bound


def test_criterion_6_coordinate_descent_exhaustive():
    with criterion(6, "coordinate-descent correctness"):
        p, m = 31, 2
        oracle = min(epsilon_of(expand_subset_sums(0, (t1, t2), p))[0]
                     for t1 in range(p) for t2 in range(p))
        cfg = DescentConfig(seed=0, mode="shallow")
        best_found = math.inf
        for t1 in range(p):
            for t2 in range(p):
                res = coordinate_descent(p, m, cfg, initial=(t1, t2))
                eps_values = [e for _, e in res.history]
                assert all(a >= b for a, b in zip(eps_values, eps_values[1:]))
                assert oracle_locally_optimal(p, "shallow", np.asarray(best_point(res)))
                assert res.best_epsilon >= oracle - 1e-12
                best_found = min(best_found, res.best_epsilon)
        assert abs(best_found - oracle) <= 1e-12


def test_criterion_7_ratio_reproduction():
    with criterion(7, "shallow/general epsilon ratio band (m=3)"):
        records = list(compare_experiment(primes_in(8, 1013), 3, seed=7, restarts=3))
        in_band = sum(1 for r in records if 0.9 <= math.sqrt(r.ratio) <= 1.5)
        assert in_band >= math.ceil(0.8 * len(records)), \
            f"only {in_band}/{len(records)} epsilon ratios in [0.9, 1.5]"


def test_criterion_8_theorem_parameterization_unsatisfiable():
    with criterion(8, "theorem-scale GAP hypothesis is reported, not silently run"):
        # m = ceil(log2 p - 2 log2 eps) forces 3^m > p at desk scale
        p, eps = 101, 0.5
        m = math.ceil(math.log2(p) - 2 * math.log2(eps))
        assert 3 ** m > p
        with pytest.raises(DomainError, match=r"^hypothesis unsatisfiable in Z_p: "):
            gen_gap(p, m, seed=0)


def test_criterion_9_qasm_round_trip():
    with criterion(9, "QASM round trip"):
        circuits = [
            build_deep(gen_cyclic(13, 8), 5),
            build_deep(gen_cyclic(31, 16), 1),
            build_deep(gen_random(11, 4, 1), 3),
            build_deep(explicit_set(11, [1, 2, 3]), 2),
            build_shallow(expand_subset_sums(5, (1, 3, 9), 31), 7),
            build_shallow(expand_subset_sums(0, (2, 5, 11, 23), 101), 9),
            build_shallow(gen_gap(1013, 3, seed=1).expanded, 12),
            build_shallow(expand_subset_sums(3, (1,), 7), 1),
            build_aikps(gen_aikps(5, 0.5), 1),
            build_aikps(gen_aikps(13, 0.5), 2),
        ]
        assert len(circuits) == 10
        for c in circuits:
            text = emit_qasm(c)
            assert text == emit_qasm(c)  # byte stability
            assert np.allclose(simulate_qasm(text), statevector(c), atol=1e-9)
