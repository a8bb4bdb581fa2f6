import cmath
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shallowfp import analysis
from shallowfp.analysis import (
    additive_energy,
    analyze,
    epsilon_of,
    roots_of_unity,
    spectrum,
    spectrum_rows,
)
from shallowfp.coeffsets import explicit_set, gen_aikps, gen_gap, gen_random
from shallowfp.errors import TableTooLargeError
from shallowfp.qfa import error_prob, exp_sum
from shallowfp.zmod import is_prime, primitive_root


def brute_exp_sum(K, x):
    p = int(K.p)
    return sum(cmath.exp(2j * math.pi * k * x / p) for k in K.coefficients)


def brute_epsilon(K):
    p = int(K.p)
    best, arg = -1.0, 1
    for x in range(1, p):
        v = abs(brute_exp_sum(K, x)) ** 2 / K.d ** 2
        if v > best + 1e-13:
            best, arg = v, x
    return best, arg


def brute_rep_counts(A):
    p = int(A.p)
    return Counter((a + b) % p for a in A.coefficients for b in A.coefficients)


def direct_sums(K, top):
    """|S(x)| for every x in [1, top], summed directly with phases looked up
    in the roots table: the computation the FFT kernel replaced."""
    p = int(K.p)
    ks = np.asarray(K.coefficients, dtype=np.int64)
    W = roots_of_unity(p)
    xs = np.arange(1, top + 1, dtype=np.int64)
    sums = np.empty(top)
    step = max(1, (1 << 22) // K.d)
    for lo in range(0, top, step):
        idx = (xs[lo:lo + step, None] * ks[None, :]) % p
        sums[lo:lo + step] = np.abs(W[idx].sum(axis=1))
    return sums


def subgroup(p, d, coset=1):
    """The order-d subgroup of Z_p^* (d | p - 1), dilated by ``coset``."""
    h = pow(primitive_root(p), (p - 1) // d, p)
    return explicit_set(p, [coset * pow(h, i, p) % p for i in range(d)])


def oracle_family():
    rng = random.Random(20240817)
    primes = [n for n in range(2, 5000) if is_prime(n)]
    sets = [explicit_set(p, [k]) for p, k in ((2, 1), (3, 0), (101, 7), (1013, 500))]
    sets += [explicit_set(p, range(p)) for p in (2, 5, 101, 257)]
    sets += [subgroup(13, 4), subgroup(101, 10), subgroup(257, 16), subgroup(1009, 36),
             subgroup(1009, 36, coset=11), subgroup(4099, 683), subgroup(4099, 6, coset=5)]
    sets += [gen_gap(p, m, seed=s).expanded
             for p, m, s in ((101, 2, 1), (257, 3, 2), (1013, 4, 3), (4099, 5, 4))]
    sets += [gen_aikps(p, e) for p, e in ((13, 0.5), (257, 0.3), (1013, 0.5))]
    for _ in range(300):
        p = rng.choice(primes)
        d = rng.randint(1, 9)
        sets.append(explicit_set(p, [rng.randrange(p) for _ in range(d)]))
    return sets


def convolve_rep_counts(A):
    """R_n(A) by a full np.convolve of the multiplicity vector with itself, folded mod p."""
    p = int(A.p)
    mult = np.bincount(A.coefficients, minlength=p)
    conv = np.convolve(mult, mult)
    out = conv[:p].copy()
    out[:p - 1] += conv[p:]
    return out


class TestExpSum:
    def test_x_zero_is_d(self):
        K = gen_random(101, 9, 4)
        assert exp_sum(K, 0) == pytest.approx(complex(9, 0), abs=1e-12)

    def test_small_example(self):
        s = exp_sum(explicit_set(3, [1, 2]), 1)
        assert s == pytest.approx(complex(-1, 0), abs=1e-12)

    def test_zero_coefficient(self):
        assert exp_sum(explicit_set(7, [0]), 5) == pytest.approx(complex(1, 0), abs=1e-12)

    @given(st.sampled_from([11, 101]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_bruteforce(self, p, data):
        coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=8))
        x = data.draw(st.integers(0, p - 1))
        K = explicit_set(p, coeffs)
        assert exp_sum(K, x) == pytest.approx(brute_exp_sum(K, x), abs=1e-10)


class TestEpsilon:
    def test_all_zero_set(self):
        eps, _ = epsilon_of(explicit_set(11, [0, 0, 0]))
        assert eps == pytest.approx(1.0, abs=1e-12)

    def test_small_examples(self):
        eps, arg = epsilon_of(explicit_set(3, [1, 2]))
        assert eps == pytest.approx(0.25, abs=1e-12)
        assert arg == 1
        eps, _ = epsilon_of(explicit_set(5, [1, 2, 3, 4]))
        assert eps == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_matches_bruteforce(self):
        for seed in range(5):
            K = gen_random(101, 6, seed)
            eps, arg = epsilon_of(K)
            b_eps, _ = brute_epsilon(K)
            assert eps == pytest.approx(b_eps, abs=1e-10)
            # the reported argmax attains the maximum (x and p-x tie exactly)
            at_arg = abs(brute_exp_sum(K, arg)) ** 2 / K.d ** 2
            assert at_arg == pytest.approx(b_eps, abs=1e-10)

    def test_equals_direct_sweep(self):
        # the rule: x is the smallest x <= (p-1)/2 whose |S(x)| ties with the
        # largest there, and eps and the bias are the direct sum at that x.
        # Ties are read from the direct sums within 1e-12 d; distinct values
        # of this family differ by at least 6.6e-7 d
        for K in oracle_family():
            p, d = int(K.p), K.d
            sums = direct_sums(K, max(1, (p - 1) // 2))
            vals = (sums / d) ** 2
            tied = np.flatnonzero(sums >= sums.max() - 1e-12 * d) + 1
            eps, x = epsilon_of(K)
            label = (p, K.coefficients[:9])
            assert x == tied[0], label
            assert eps == vals[x - 1], label
            report = analyze(K)
            assert (report.epsilon, report.argmax_x, report.bias) == (eps, x, sums[x - 1] / p)
            if np.unique(sums[tied - 1]).size == 1:
                # no rounding separates the tied sums: the direct sweep's
                # first maximum is the same x
                arg = int(np.argmax(vals))
                assert (eps, x) == (vals[arg], arg + 1), label
            else:
                assert vals[tied - 1].min() <= eps <= vals[tied - 1].max(), label
            # the other half repeats it: |S(p - x)| = |S(x)| up to rounding;
            # where every residue occurs equally often eps is 0 and both read
            # roundoff (about 1e-33), hence the absolute term
            every_x = float(((direct_sums(K, p - 1) / d) ** 2).max())
            assert eps == pytest.approx(every_x, rel=1e-15, abs=1e-30), label

    def test_exact_ties_resolve_to_the_smallest_x(self):
        # every x ties for {7}; rounding once picked x = 11 (eps 1 + 4e-16)
        eps, x = epsilon_of(explicit_set(101, [7]))
        assert x == 1 and eps == pytest.approx(1.0, abs=1e-15)
        # the full residue set: every |S(x)| is 0 up to roundoff
        assert epsilon_of(explicit_set(257, range(257)))[1] == 1

    def test_one_peak_reads_d_phases(self, monkeypatch):
        # a flat spectrum costs one sum of d terms, not one per tied x
        class Counted(np.ndarray):
            reads = 0

            def __getitem__(self, index):
                out = super().__getitem__(index)
                Counted.reads += np.size(out)
                return out

        table = analysis.roots_of_unity
        monkeypatch.setattr(analysis, "roots_of_unity", lambda p: table(p).view(Counted))
        assert epsilon_of(explicit_set(4099, range(4099)))[1] == 1
        assert Counted.reads == 4099

    @pytest.mark.full_scale
    def test_flat_spectrum_at_the_cap(self):
        # 2^22 copies of one residue: |S(x)| = d for every x, so every x ties
        d, p = 1 << 22, 4194301
        report = analyze(explicit_set(p, [12345] * d))
        assert report.argmax_x == 1
        assert report.epsilon == pytest.approx(1.0, rel=1e-12)
        assert report.bias == pytest.approx(d / p, rel=1e-12)
        assert report.energy == 1 << 88

    def test_argmax_is_the_member_of_the_pair_below_p_over_2(self):
        # the direct sums at 3857 and 20011 - 3857 = 16154 differ in the last
        # bit, and a sweep over every x != 0 picks 16154
        K = gen_random(20011, 64, 1)
        eps, x = epsilon_of(K)
        assert x == 3857
        # exp_sum reduces k x mod p and sums with fsum
        assert eps == pytest.approx(abs(exp_sum(K, 3857)) ** 2 / 64 ** 2, abs=1e-15)
        assert eps == pytest.approx(abs(exp_sum(K, 16154)) ** 2 / 64 ** 2, abs=1e-15)

    def test_table_size_cap(self):
        K = explicit_set(4194319, [1, 2, 3])  # the smallest prime above 2^22
        for fn in (spectrum, epsilon_of, additive_energy, analyze):
            with pytest.raises(TableTooLargeError):
                fn(K)

    def test_translation_and_dilation_invariance(self):
        K = gen_random(257, 8, 3)
        eps, _ = epsilon_of(K)
        shifted = explicit_set(K.p, [k + 17 for k in K.coefficients])
        dilated = explicit_set(K.p, [5 * k for k in K.coefficients])
        assert epsilon_of(shifted)[0] == pytest.approx(eps, abs=1e-12)
        assert epsilon_of(dilated)[0] == pytest.approx(eps, abs=1e-12)


class TestErrorProb:
    def test_examples(self):
        K = explicit_set(3, [1])
        assert error_prob(K, 0) == pytest.approx(1.0, abs=1e-15)
        assert error_prob(K, 1) == pytest.approx(0.25, abs=1e-12)
        assert error_prob(explicit_set(3, [1, 2]), 1) == pytest.approx(0.25, abs=1e-12)

    def test_bounded_by_epsilon(self):
        K = gen_random(101, 5, 9)
        eps, _ = epsilon_of(K)
        for x in range(1, 101):
            assert error_prob(K, x) <= eps + 1e-12


class TestSpectrum:
    def test_rows_match_exp_sum(self):
        for K in (gen_random(1013, 64, 2), gen_aikps(257, 0.3),
                  explicit_set(101, [0, 0, 5, 5, 5, 77]), explicit_set(2, [1])):
            rows = list(spectrum_rows(K))
            assert [r[0] for r in rows] == list(range(int(K.p)))
            for x, re, im, mag2, pe in rows:
                s = exp_sum(K, x)
                assert abs(re - s.real) <= 1e-9 * K.d
                assert abs(im - s.imag) <= 1e-9 * K.d
                assert abs(mag2 - abs(s) ** 2) <= 1e-9 * K.d ** 2
                assert abs(pe - error_prob(K, x)) <= 1e-9

    def test_zero_frequency_is_exactly_d(self):
        # at this length numpy's FFT rounds S(0) to 63.99999999999998
        assert spectrum(gen_random(20011, 64, 4))[0] == 64


class TestRepresentationCounts:
    """The R_n(A) vector that `additive_energy` sums."""

    def test_examples(self):
        assert analysis._rep_count_vector(explicit_set(5, [0])).tolist() == [1, 0, 0, 0, 0]
        assert analysis._rep_count_vector(explicit_set(5, [0, 1])).tolist() == [1, 2, 1, 0, 0]

    def test_sums_to_d_squared(self):
        A = gen_random(101, 7, 2)
        assert analysis._rep_count_vector(A).sum() == 49

    def test_matches_bruteforce(self):
        A = gen_random(31, 9, 5)
        vec = analysis._rep_count_vector(A)
        assert {n: c for n, c in enumerate(vec.tolist()) if c} == dict(brute_rep_counts(A))

    def test_heavy_residue_is_exact(self):
        # 2^20 copies of r: R_{2r} = 2^40, far beyond the float error of the kernel
        r = 12345
        vec = analysis._rep_count_vector(explicit_set(65537, [r] * (1 << 20)))
        assert vec[2 * r] == 1 << 40
        assert np.count_nonzero(vec) == 1

    def test_proper_gap_values_are_powers_of_two(self):
        vec = analysis._rep_count_vector(gen_gap(101, 2, seed=3).expanded)
        assert set(vec[vec > 0].tolist()) <= {1, 2, 4}
        assert vec.max() == 4


class TestAdditiveEnergy:
    def test_examples(self):
        assert additive_energy(explicit_set(5, [0])) == 1
        assert additive_energy(explicit_set(5, [0, 1])) == 6

    def test_equals_sum_of_squared_rep_counts(self):
        A = gen_random(101, 8, 11)
        assert additive_energy(A) == sum(v * v for v in brute_rep_counts(A).values())

    def test_matches_convolution(self):
        rng = random.Random(5)
        for p in (2, 3, 31, 101, 257):
            for _ in range(10):
                A = explicit_set(p, [rng.randrange(p) for _ in range(rng.randint(1, 40))])
                ra = convolve_rep_counts(A)
                assert analysis._rep_count_vector(A).tolist() == ra.tolist()
                assert additive_energy(A) == sum(c * c for c in ra.tolist())

    @pytest.mark.parametrize("multiset", [False, True])
    def test_int64_dot_matches_python_ints(self, multiset):
        rng = random.Random(17)
        for p in (2, 3, 31, 1013, 65537):
            for _ in range(5):
                d = rng.randint(1, min(p, 300))
                coeffs = ([rng.randrange(p) for _ in range(d)] if multiset
                          else rng.sample(range(p), d))
                A = explicit_set(p, coeffs)
                vec = analysis._rep_count_vector(A)
                assert additive_energy(A) == sum(c * c for c in vec.tolist())

    def test_heavy_multiset_beyond_int64(self, monkeypatch):
        # 2^16 copies of 0: R_0 = d^2 = 2^32 and E = 2^64, which int64 would
        # wrap to 0; the vector is given directly, so only the sum is tested
        A = explicit_set(3, [0] * (1 << 16))
        monkeypatch.setattr(analysis, "_rep_count_vector",
                            lambda _A, _S: np.array([1 << 32, 0, 0], dtype=np.int64))
        assert additive_energy(A) == 1 << 64

    def test_limits(self):
        # Z_p with d = 65537 > 2^16: every R_n = p, so E = p^3
        assert additive_energy(explicit_set(65537, range(65537))) == 65537 ** 3

    @pytest.mark.parametrize("p,m,seed", [(101, 2, 1), (257, 3, 2), (1013, 4, 3)])
    def test_proper_gap_energy(self, p, m, seed):
        fp = gen_gap(p, m, seed=seed)
        assert additive_energy(fp.expanded) == 6 ** m
        assert additive_energy(fp.expanded) <= 2 ** (3 * m)


class TestFourier:
    def test_coefficient_examples(self):
        # hat(1_A)(xi) = conj(S(xi)) / p
        A = gen_random(101, 4, 8)
        assert spectrum(A)[0] == 4
        full = explicit_set(5, [0, 1, 2, 3, 4])
        assert abs(spectrum(full)[1]) == pytest.approx(0.0, abs=1e-12)
        assert spectrum(explicit_set(7, [0]))[3] == pytest.approx(1, abs=1e-12)

    def test_bias_examples(self):
        assert analyze(explicit_set(5, [0, 1, 2, 3, 4])).bias == pytest.approx(0.0, abs=1e-12)
        assert analyze(explicit_set(7, [0])).bias == pytest.approx(1 / 7, abs=1e-12)
        assert analyze(explicit_set(3, [1, 2])).bias == pytest.approx(1 / 3, abs=1e-12)

    def test_epsilon_bias_identity(self):
        K = gen_random(101, 6, 13)
        eps, _ = epsilon_of(K)
        bias = analyze(K).bias
        assert eps == pytest.approx((101 / 6 * bias) ** 2, rel=1e-9)

    def test_plancherel(self):
        # Parseval for a set: sum_x |S(x)|^2 = p * d
        A = explicit_set(101, [3, 17, 40, 77])
        total = math.fsum(abs(s) ** 2 for s in spectrum(A).tolist())
        assert total == pytest.approx(101 * 4, rel=1e-12)


class TestBiasEnergyChain:
    """The two chain checks of `analyze`, for sets without repeats."""

    def test_simple_sets(self):
        checks = analyze(explicit_set(5, [0, 1])).bounds
        assert len(checks) == 2 and all(c.holds for c in checks)
        checks = analyze(explicit_set(7, [0])).bounds
        assert len(checks) == 2 and all(c.holds for c in checks)
        assert checks[0].rhs == pytest.approx(1 / 343 - 1 / 2401, abs=1e-15)

    def test_rejects_multisets(self):
        assert analyze(explicit_set(7, [1, 1])).bounds == ()

    def test_random_subsets(self):
        rng = random.Random(0)
        for _ in range(100):
            A = explicit_set(101, rng.sample(range(101), 8))
            assert all(c.holds for c in analyze(A).bounds)


class TestAnalyzeReport:
    def test_report_consistency(self):
        fp = gen_gap(1013, 3, seed=1)
        report = analyze(fp.expanded)
        assert report.d == 8
        assert report.energy == 6 ** 3
        assert report.epsilon == pytest.approx((1013 / 8 * report.bias) ** 2, rel=1e-9)
        # a proper GAP is a set, so its report holds exactly the two chain checks
        assert [(c.name, c.holds) for c in report.bounds] == [
            ("bias^4 <= E/p^3 - density^4", True),
            ("E/p^3 - density^4 <= bias^2 * density", True)]
        data = report.to_json_dict()
        assert list(data) == ["p", "d", "epsilon", "argmax_x", "energy", "bias",
                              "density", "bounds"]
        assert [list(check) for check in data["bounds"]] == [["name", "lhs", "rhs", "holds"]] * 2
