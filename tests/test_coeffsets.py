import copy
import itertools
import json
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shallowfp.coeffsets import (
    CoefficientSet,
    expand_subset_sums,
    gen_aikps,
    gen_cyclic,
    gen_gap,
    gen_random,
    is_proper_gap,
)
from shallowfp.errors import DomainError
from shallowfp.rng import SplitMix64
from shallowfp.zmod import PrimeModulus, is_prime


def brute_subset_sums(t0, T, p):
    out = []
    for mask in range(1 << len(T)):
        out.append((t0 + sum(T[i] for i in range(len(T)) if mask >> i & 1)) % p)
    return out


def brute_proper(t0, T, p, mod):
    vals = []
    for digits in itertools.product(range(3), repeat=len(T)):
        v = 2 * t0 + sum(n * t for n, t in zip(digits, T))
        vals.append(v % p if mod else v)
    return len(set(vals)) == len(vals)


def numpy_proper_gap(T, p):
    """Reference: the Horowitz-Sahni sort-and-count check the GAP search
    used before, on uint64 half-sums reduced after every generator (exact
    for p < 2^63).  B is proper iff the only equal pair of left half-sums
    and negated right half-sums is c = 0."""
    def half_sums(gens):
        sums = np.zeros(1, dtype=np.uint64)
        for t in gens:
            steps = np.array([c * t % p for c in (-2, -1, 0, 1, 2)], dtype=np.uint64)
            sums = (sums[:, None] + steps[None, :]).ravel() % np.uint64(p)
        return sums

    h = len(T) // 2
    left = np.sort(half_sums(T[:h]))
    want = np.sort((p - half_sums(T[h:])) % np.uint64(p))
    matches = np.searchsorted(left, want, "right") - np.searchsorted(left, want, "left")
    return int(matches.sum()) == 1


def plant(T, p, relation):
    """T with its last index j in ``relation`` ({index: c}, c_j = 1) reset
    so that sum c_i t_i = 0 mod p."""
    j = max(relation)
    assert relation[j] == 1
    T = list(T)
    T[j] = -sum(c * T[i] for i, c in relation.items() if i != j) % p
    return T


class TestCoefficientSet:
    def test_composite_int_modulus_rejected(self):
        with pytest.raises(DomainError, match=r"^10 is not prime$"):
            CoefficientSet(10, (1, 2))

    def test_modulus_is_coerced_once(self):
        K = CoefficientSet(7, (1, 2))
        assert isinstance(K.p, PrimeModulus) and K.p == 7
        p = PrimeModulus(7)
        assert CoefficientSet(p, (1, 2)).p is p

    def test_value_equality(self):
        K = CoefficientSet(7, (1, 2), "random", {"seed": 3})
        assert K == CoefficientSet(PrimeModulus(7), (1, 2), "random", {"seed": 3})
        assert K != CoefficientSet(7, (1, 2), "random", {"seed": 4})
        assert K != CoefficientSet(7, (1, 2), "explicit", {"seed": 3})
        assert K != CoefficientSet(7, (2, 1), "random", {"seed": 3})
        assert CoefficientSet(7, (1,)) == CoefficientSet(7, (1,), "explicit", {})
        assert K != (K.p, K.coefficients, K.method, K.params)

    @pytest.mark.parametrize("field", ["p", "coefficients", "method", "params", "extra"])
    def test_fields_are_frozen(self, field):
        K = CoefficientSet(7, (1, 2))
        with pytest.raises(AttributeError):
            setattr(K, field, 5)
        if field != "extra":
            with pytest.raises(AttributeError):
                delattr(K, field)
        assert K == CoefficientSet(7, (1, 2))

    def test_copy_and_pickle_keep_the_value(self):
        K = gen_gap(1013, 3, seed=1).expanded
        for back in (copy.copy(K), copy.deepcopy(K), pickle.loads(pickle.dumps(K))):
            assert back == K and isinstance(back.p, PrimeModulus)


class TestCyclic:
    def test_examples(self):
        assert gen_cyclic(7, 3).coefficients == (3, 2, 6)
        assert gen_cyclic(3, 1).coefficients == (2,)
        assert gen_cyclic(7, 6).coefficients == (3, 2, 6, 4, 5, 1)

    def test_rejects_full_cycle_overflow(self):
        with pytest.raises(ValueError):
            gen_cyclic(7, 7)

    @pytest.mark.parametrize("p,d", [(101, 50), (257, 256), (1013, 100)])
    def test_no_duplicates(self, p, d):
        coeffs = gen_cyclic(p, d).coefficients
        assert len(set(coeffs)) == d


class TestAikps:
    def test_p65537(self):
        s = gen_aikps(65537, 0.5)
        assert s.params["R"] == [37, 41, 43, 47, 53, 59, 61]
        assert s.params["s_max"] == 256
        assert s.d == 7 * 256 == 1792
        # Table-level width bound: |K| <= (log2 p)^(2 + 3 eps)
        assert s.d <= 16.00003 ** 3.5

    def test_p5_boundary(self):
        # brute-force oracle: interval (1.769, 3.538) contains the primes 2 and 3
        s = gen_aikps(5, 0.5)
        assert s.params["R"] == [2, 3]
        assert s.params["s_max"] == 5
        assert s.d == 10

    def test_interval_containing_p_skips_p(self):
        # r = p has no inverse mod p: at (5, 1) the interval (2.69, 5.39)
        # holds the primes 3 and 5, and at (7, 1) it holds 5 and 7
        assert gen_aikps(5, 1).params["R"] == [3]
        assert gen_aikps(7, 1).params["R"] == [5]
        for p in [q for q in range(5, 51) if is_prime(q)]:
            for eps in (0.5, 1, 1.5):
                assert p not in gen_aikps(p, eps).params["R"]

    def test_count_is_R_times_S(self):
        for p, eps in [(257, 0.5), (1013, 0.3), (65537, 0.5)]:
            s = gen_aikps(p, eps)
            assert s.d == len(s.params["R"]) * s.params["s_max"]

    def test_size_bound_refused_before_prime_scan(self):
        # floor(hi) * s_max: 512 * 16384 at (65537, 1.25); 9.9e8 * 9.7e16 at
        # (1013, 8), whose scan alone ran for minutes; 1e300 would overflow
        start = time.perf_counter()
        for p, eps in [(65537, 1.25), (1013, 3), (1013, 8), (5, 1e300)]:
            with pytest.raises(DomainError, match=r"^AIKPS size bound floor\(hi\) \* s_max "):
                gen_aikps(p, eps)
        assert time.perf_counter() - start < 1.0

    def test_empty_interval_is_distinct_error(self, monkeypatch):
        # For p >= 5 the interval (hi/2, hi) always contains a prime, so the
        # empty-R path is forced by stubbing out the primality filter.
        import shallowfp.coeffsets as mod

        monkeypatch.setattr(mod, "is_prime", lambda n: False)
        with pytest.raises(DomainError, match=r"^no prime other than p in the AIKPS interval "):
            gen_aikps(65537, 0.5)


class TestProperGap:
    def test_examples(self):
        assert is_proper_gap(0, (1, 3), 11) is True
        assert is_proper_gap(0, (1, 1), 11) is False
        assert is_proper_gap(0, (1, 3, 9), 13) is False  # 27 values in Z_13

    def test_ambient_modes_differ(self):
        # proper over the integers, but 0 and 23 collide mod 23: the check is mod p
        t0, T, p = 0, (1, 3, 9), 23
        assert brute_proper(t0, T, p, mod=False)
        assert not brute_proper(t0, T, p, mod=True)
        assert not is_proper_gap(t0, T, p)

    @given(st.sampled_from([2, 3, 5, 31, 101, 1009, 1000003]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_bruteforce(self, p, data):
        t0 = data.draw(st.integers(0, p - 1))
        T = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=8))
        # collisions on purpose: a copy, a negation or a double of another generator
        for j, (i, kind) in data.draw(st.dictionaries(
                st.integers(0, len(T) - 1),
                st.tuples(st.integers(0, len(T) - 1), st.sampled_from([1, -1, 2])),
                max_size=2)).items():
            T[j] = kind * T[i] % p
        assert is_proper_gap(t0, tuple(T), p) == brute_proper(t0, T, p, mod=True)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_exhaustive_tiny_primes(self, p):
        for m in (1, 2, 3):
            for T in itertools.product(range(p), repeat=m):
                for t0 in (0, 1):
                    assert is_proper_gap(t0, T, p) == brute_proper(t0, T, p, mod=True), (t0, T)

    def test_m16_below_2_63(self):
        p = 2 ** 63 - 25
        assert is_prime(p)
        rng = SplitMix64(16)
        T = [rng.in_range(1, p) for _ in range(16)]
        assert is_proper_gap(rng.below(p), T, p)
        # generator t_{k+1} (index k) is on side k % 2
        across = T[:15] + [-T[0] % p]  # t_1 + t_16 = 0: sides 0 and 1
        adjacent = [T[0], 2 * T[0] % p] + T[2:]  # 2 t_1 - t_2 = 0: sides 0 and 1
        same_side = T[:2] + [2 * T[0] % p] + T[3:]  # 2 t_1 - t_3 = 0: both on side 0
        # t_1 + ... + t_16 = 0: a collision that shows up only at the last generator
        spread = T[:15] + [-sum(T[:15]) % p]
        assert not is_proper_gap(0, across, p)
        assert not is_proper_gap(0, adjacent, p)
        assert not is_proper_gap(0, same_side, p)
        assert not is_proper_gap(0, spread, p)

    def test_matches_numpy_reference_on_search_draws(self):
        # the draws of gen_gap's stream at the benchmark's size, where about
        # 1 in 130 is proper and the rest collide at varying depths
        p, m = 1000003, 10
        rng = SplitMix64(2024)
        verdicts = []
        for _ in range(600):
            t0 = rng.below(p)
            T = tuple(rng.in_range(1, p) for _ in range(m))
            verdicts.append(is_proper_gap(t0, T, p))
            assert verdicts[-1] == numpy_proper_gap(T, p), T
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("m", [12, 14, 16])
    def test_matches_numpy_reference_on_planted_collisions(self, m):
        # is_proper_gap puts generator k on side k % 2; each relation ends
        # at a different step: the last generator, the last step of each
        # side, and across both sides before those
        p = 2 ** 61 - 1
        rng = SplitMix64(m)
        T = [rng.in_range(1, p) for _ in range(m)]
        assert is_proper_gap(0, T, p) and numpy_proper_gap(T, p)
        relations = {
            "last": {0: 1, 1: -2, m - 1: 1},
            "side 0": {0: 2, 2: -1, m - 2: 1},
            "side 1": {1: 1, 3: 2, m - 3: 1},
            "across": {2: -2, 5: 1, 7: -1, m - 4: 1},
        }
        for name, relation in relations.items():
            planted = plant(T, p, relation)
            assert not is_proper_gap(0, planted, p), name
            assert not numpy_proper_gap(planted, p), name

    def test_dimension_cap(self):
        with pytest.raises(DomainError, match=r"^GAP dimension capped at 16 \(m <= 16\), "
                                              r"got m=17$"):
            is_proper_gap(0, tuple(range(1, 18)), 101)
        with pytest.raises(DomainError, match=r"^need at least one generator$"):
            is_proper_gap(0, (), 101)


class TestExpandSubsetSums:
    def test_examples(self):
        assert expand_subset_sums(0, (1, 2), 7).coefficients == (0, 1, 2, 3)
        assert expand_subset_sums(5, (), 7).coefficients == (5,)
        assert expand_subset_sums(1, (6,), 7).coefficients == (1, 0)

    def test_bitmask_order(self):
        T = (3, 5, 11)
        got = expand_subset_sums(2, T, 101).coefficients
        assert got == tuple(brute_subset_sums(2, T, 101))

    @given(st.integers(0, 100), st.lists(st.integers(0, 100), max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_translation_of_expansion(self, t0, T):
        base = expand_subset_sums(0, tuple(T), 101).coefficients
        shifted = expand_subset_sums(t0, tuple(T), 101).coefficients
        assert shifted == tuple((v + t0) % 101 for v in base)


class TestGenGap:
    def test_seeded_search(self):
        K = gen_gap(1013, 3, seed=1, max_tries=1000).expanded
        assert K.d == 8
        # re-verify with the direct oracle
        t0, T = K.params["t0"], K.params["T"]
        assert brute_proper(t0, T, 1013, mod=True)
        assert K.coefficients == tuple(brute_subset_sums(t0, list(T), 1013))
        assert K.params == {"t0": t0, "T": T, "seed": 1}

    def test_determinism(self):
        a = gen_gap(1013, 4, seed=99)
        b = gen_gap(1013, 4, seed=99)
        assert (a.expanded, a.tries) == (b.expanded, b.tries)

    def test_fingerprint_is_a_frozen_value(self):
        fp = gen_gap(1013, 4, seed=99)
        assert fp == gen_gap(1013, 4, seed=99)
        other = gen_gap(1013, 4, seed=98)
        assert fp != other and fp.expanded.params != other.expanded.params
        with pytest.raises(AttributeError):
            fp.tries = 0

    def test_unsatisfiable(self):
        with pytest.raises(DomainError,
                           match=r"^hypothesis unsatisfiable in Z_p: 3\^3 = 27 > p = 13$"):
            gen_gap(13, 3, seed=0)

    @pytest.mark.parametrize("p,seed,tries", [(1000033, 5, 122), (1000003, 24, 121)])
    def test_recorded_tries(self, p, seed, tries):
        # circuits-pool entries of perfbench: the same draws get the same verdicts
        assert gen_gap(p, 10, seed).tries == tries

    def test_exhaustion(self):
        with pytest.raises(DomainError,
                           match=r"^no proper GAP found for p=1013, m=6 in 1 tries \(seed 0\)$"):
            gen_gap(1013, 6, seed=0, max_tries=1)
        with pytest.raises(DomainError, match=r"^max_tries must be positive, got 0$"):
            gen_gap(1013, 6, seed=0, max_tries=0)

    def test_forced_trivial(self):
        assert expand_subset_sums(0, (1,), 11).coefficients == (0, 1)

    @pytest.mark.parametrize("m,p,seed", [(2, 101, 5), (3, 257, 7), (4, 257, 11)])
    def test_proper_expansion_is_distinct(self, m, p, seed):
        fp = gen_gap(p, m, seed=seed)
        assert len(set(fp.expanded.coefficients)) == 2 ** m


class TestRandom:
    def test_determinism_and_range(self):
        a = gen_random(7, 3, 42)
        b = gen_random(7, 3, 42)
        assert a.coefficients == b.coefficients
        assert all(1 <= k <= 6 for k in a.coefficients)
        assert len(a.coefficients) == 3

    def test_p2(self):
        assert gen_random(2, 1, 7).coefficients == (1,)

    def test_different_seeds_differ(self):
        assert gen_random(1013, 10, 1).coefficients != gen_random(1013, 10, 2).coefficients

    def test_draw_bound_must_be_positive(self):
        with pytest.raises(ValueError, match=r"^bound must be positive$"):
            SplitMix64(0).below(0)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("K", [
        gen_cyclic(7, 3),
        gen_random(101, 5, 3),
        gen_gap(1013, 3, seed=1).expanded,
        gen_aikps(257, 0.5),
    ])
    def test_round_trip(self, K):
        data = json.loads(json.dumps(K.to_json_dict()))
        back = CoefficientSet.from_json_dict(data)
        assert back.coefficients == K.coefficients
        assert int(back.p) == int(K.p)
        assert back.method == K.method

    def test_method_must_be_a_string(self):
        # records hash their method, so a list there would make an unhashable set
        data = {"p": 7, "coefficients": [1, 2], "method": [1]}
        with pytest.raises(DomainError, match=r"^field 'method' must be a string$"):
            CoefficientSet.from_json_dict(data)
        hash(CoefficientSet.from_json_dict({**data, "method": "explicit"}))

    def test_field_order(self):
        keys = list(gen_gap(1013, 3, seed=1).expanded.to_json_dict())
        assert keys == ["p", "method", "params", "coefficients", "t0", "generators"]
