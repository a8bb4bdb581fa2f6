import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from descent_oracle import full_table_candidate_eps, oracle_locally_optimal, oracle_move
from helpers import assert_no_child_left, best_point, explicit_set, patch_descent
from shallowfp.analysis import epsilon_of, roots_of_unity
from shallowfp.coeffsets import expand_subset_sums
from shallowfp.errors import DomainError
from shallowfp.rng import SplitMix64
from shallowfp.zmod import primitive_root
from shallowfp.optimize import (
    DescentConfig,
    _Evaluator,
    _log_tables,
    compare_experiment,
    coordinate_descent,
)


def memo_free_descent(p: int, size: int, cfg: DescentConfig,
                      initial: tuple[int, ...] | None = None):
    """coordinate_descent without move reuse: every coordinate of every
    sweep is a fresh best_move.  Returns the best run's (point, eps,
    sweeps, history), the total evaluations and the rows scored."""
    evaluator = _Evaluator(p, cfg.mode, size)
    rng = SplitMix64(cfg.seed)
    best, evaluations = None, 0
    for run in range(cfg.restarts + 1):
        if run == 0 and initial is not None:
            point = np.asarray(initial, dtype=np.int64) % p
        else:
            point = np.array([rng.in_range(1, p) for _ in range(size)], dtype=np.int64)
        cur = evaluator.point_eps(point)
        history = [(0, cur)]
        evaluations += size
        for sweep in range(1, cfg.max_sweeps + 1):
            improved = False
            for i in range(size):
                best_v, eps, here = evaluator.best_move(point, i)
                evaluations += p
                if eps < here:
                    point[i] = best_v
                    cur = min(cur, eps)
                    improved = True
            history.append((sweep, cur))
            if not improved:
                break
        if best is None or cur < best[1]:
            best = (tuple(int(v) for v in point), cur, sweep, history)
    return best, evaluations, evaluator.rows_evaluated


def _oracle_points(p: int, mode: str, rng: np.random.Generator):
    sizes = (1, 2, 8) if mode == "general" else (1, 2, 3)
    for size in sizes:
        if mode == "shallow" and (1 << size) > 4 * p:
            continue
        yield rng.integers(0, p, size)
        yield rng.integers(0, p, size)
        yield np.full(size, rng.integers(0, p))  # all coordinates equal
    size = 8 if mode == "general" else 3
    if mode == "general" or (1 << size) <= 4 * p:
        res = coordinate_descent(p, size, DescentConfig(seed=3, mode=mode))
        yield np.asarray(best_point(res))  # converged: near-ties are likely


class TestLogTables:
    @pytest.mark.parametrize("p", [2, 3, 5, 31, 577, 1013])
    def test_entries_are_the_roots_bit_for_bit(self, p):
        # column j is x = g^j; row v reads T[L[v] + j], in T or as a window row
        log, T = _log_tables(p)
        g = primitive_root(p)
        xs = np.array([pow(g, j, p) for j in range(p - 1)], dtype=np.int64)
        want = roots_of_unity(p)[np.multiply.outer(np.arange(p), xs) % p]
        for got in (T[np.add.outer(log, np.arange(p - 1))],
                    _Evaluator(p, "general", 1)._rows_of[log]):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("p", [3, 5, 31, 577, 1013, 65537])
    def test_log_order_pairs_x_with_p_minus_x(self, p):
        # g^((p-1)/2) = -1, so column j + (p-1)/2 is p - x_j: the first half
        # of the columns holds one x of each pair {x, p - x}
        log, _ = _log_tables(p)
        x = np.arange(1, p)
        assert np.array_equal(log[p - x], (log[x] + (p - 1) // 2) % (p - 1))


class TestPrunedSearch:
    @pytest.mark.parametrize("mode", ["general", "shallow"])
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 101, 577, 1013])
    def test_matches_full_table_bit_for_bit(self, p, mode):
        rng = np.random.default_rng(p)
        evaluators = {}  # one per size, shared by the points of that size
        for point in _oracle_points(p, mode, rng):
            point = point.astype(np.int64)
            if point.size not in evaluators:
                evaluators[point.size] = _Evaluator(p, mode, point.size)
            evaluator = evaluators[point.size]
            for i in range(point.size):
                assert evaluator.best_move(point, i) == oracle_move(p, mode, point, i), \
                    (p, mode, point.tolist(), i)

    @pytest.mark.parametrize("mode", ["general", "shallow"])
    def test_cached_rows_follow_the_point(self, mode):
        # one evaluator per size for several start points, each moved in place
        # as _descend does; the rest-sum read from views of the table, with the
        # cached general row-sum, is the rest-sum of a fresh gather, bit for
        # bit.  p = 2 has one column, which numpy sums pairwise; size 1024
        # adds many rows in order
        sizes = (4, 4, 6, 9, 1024) if mode == "general" else (3, 3, 2)
        for p in (2, 3, 101):
            rng = np.random.default_rng(11)  # at p = 101 the first points are as before
            evaluators = {size: _Evaluator(p, mode, size) for size in set(sizes)}
            moves = 0
            for size in sizes:
                evaluator = evaluators[size]
                point = rng.integers(1, p, size)
                for _sweep in range(2):
                    for i in range(size):
                        rows = evaluator._rows_of[evaluator.log[point]]
                        if mode == "general":
                            want = rows.sum(axis=0) - rows[i]
                        else:
                            ones = 1.0 + rows
                            want = np.prod(np.concatenate([ones[:i], ones[i + 1:]]), axis=0)
                        got = evaluator._rest(point, i)
                        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), \
                            (p, mode, point.tolist(), i)
                        move = evaluator.best_move(point, i)
                        assert move == oracle_move(p, mode, point, i), \
                            (p, mode, point.tolist(), i)
                        if move[1] < move[2]:
                            point[i] = move[0]
                            moves += 1
            # every shallow start at p = 2 or 3 is already locally optimal
            assert moves > 0 or (mode == "shallow" and p < 101), p

    @pytest.mark.parametrize("mode", ["general", "shallow"])
    def test_point_eps_is_the_current_row(self, mode):
        point = np.array([3, 17, 40], dtype=np.int64)
        eps = full_table_candidate_eps(101, mode, point, 0)
        assert _Evaluator(101, mode, 3).point_eps(point) == eps[point[0]]

    @pytest.mark.parametrize("mode", ["general", "shallow"])
    def test_audit_agrees_with_oracle(self, mode):
        p, size = 101, (4 if mode == "general" else 3)
        cfg = DescentConfig(seed=5, mode=mode)
        res = coordinate_descent(p, size, cfg)
        point = np.asarray(best_point(res), dtype=np.int64)
        assert oracle_locally_optimal(p, mode, point)
        point[0] = (point[0] + 1) % p
        assert not oracle_locally_optimal(p, mode, point)

    @pytest.mark.parametrize("p", [31, 151, 307, 577, 1013])
    def test_shallow_move_settles_its_coordinate(self, p):
        # after coordinate i moves to best_v, searching i again from the moved
        # point gives (best_v, best, best): the rest-sum of i is unchanged
        rng = np.random.default_rng(p)
        evaluator = _Evaluator(p, "shallow", 3)
        moves = 0
        for _start in range(4):
            point = rng.integers(1, p, 3)
            for _sweep in range(3):
                for i in range(3):
                    best_v, best, here = evaluator.best_move(point, i)
                    if best < here:
                        point[i] = best_v
                        moves += 1
                        again = _Evaluator(p, "shallow", 3).best_move(point, i)
                        assert again == (best_v, best, best), (p, point.tolist(), i)
        assert moves > 0

    def test_general_move_does_not_settle_bit_for_bit(self):
        # general rest-sums are sum - row_i with row_i inside the sum, so after
        # a move the same coordinate rescores in other last bits: a descent
        # must not store (best_v, best, best) for it
        p = 31
        rng = np.random.default_rng(p)
        evaluator = _Evaluator(p, "general", 8)
        differ = 0
        for _start in range(4):
            point = rng.integers(1, p, 8)
            for i in range(8):
                best_v, best, here = evaluator.best_move(point, i)
                if best < here:
                    point[i] = best_v
                    differ += (_Evaluator(p, "general", 8).best_move(point, i)
                               != (best_v, best, best))
        assert differ > 0

    def test_rows_evaluated_are_a_fraction_of_candidates(self):
        res = coordinate_descent(1013, 8, DescentConfig(seed=7))
        assert 0 < res.rows_evaluated < res.evaluations // 10


class TestMoveReuse:
    @staticmethod
    def _assert_same(res, ref, evaluations):
        p, mode = res.best_set.p, res.best_set.params["mode"]
        point, _, sweeps, history = ref  # the descent's eps is history's last entry
        want = explicit_set(p, point) if mode == "general" else expand_subset_sums(0, point, p)
        assert best_point(res) == point
        assert res.best_epsilon.hex() == epsilon_of(want)[0].hex()
        assert res.sweeps_used == sweeps
        assert res.evaluations == evaluations
        assert [(s, e.hex()) for s, e in res.history] == [(s, e.hex()) for s, e in history]

    def test_memo_changes_no_descent(self):
        # every move of the memo-free loop, at primes where shallow runs spin
        # (307, 317, 331) and where they converge, in both modes
        rows, rows_ref = 0, 0
        for mode, size in (("general", 8), ("shallow", 3)):
            for p in (151, 307, 317, 331, 577):
                for seed in range(1, 5):
                    cfg = DescentConfig(seed, mode=mode, restarts=3)
                    res = coordinate_descent(p, size, cfg)
                    ref, evaluations, ref_rows = memo_free_descent(p, size, cfg)
                    self._assert_same(res, ref, evaluations)
                    rows, rows_ref = rows + res.rows_evaluated, rows_ref + ref_rows
        assert rows < rows_ref

    def test_memo_changes_no_descent_up_to_max_sweeps(self):
        # this spin never revisits a state, so the memo saves no row here
        cfg = DescentConfig(1, mode="shallow")
        res = coordinate_descent(317, 3, cfg, initial=(263, 52, 92))
        ref, evaluations, ref_rows = memo_free_descent(317, 3, cfg, initial=(263, 52, 92))
        assert res.sweeps_used == cfg.max_sweeps
        self._assert_same(res, ref, evaluations)
        assert res.rows_evaluated <= ref_rows


class TestMemory:
    def test_descent_peak_stays_small(self):
        # the (p, p-1) complex table alone would take 269 MB at p = 4099
        tracemalloc.start()
        try:
            coordinate_descent(4099, 8, DescentConfig(seed=7, max_sweeps=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_general_evaluator_holds_no_rows_of_the_point(self):
        # a size x (p - 1) copy of the point's rows alone would take 64 MiB here
        point = np.random.default_rng(0).integers(1, 4099, 1024)
        tracemalloc.start()
        try:
            evaluator = _Evaluator(4099, "general", 1024)
            for i in (0, 1):
                evaluator.best_move(point, i)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.full_scale
    def test_general_d128_descent_at_p_65537_stays_under_64_mb(self):
        # in a fresh interpreter, so the peak RSS is this descent's own: VmHWM
        # belongs to the new process image, while ru_maxrss keeps the peak of
        # the forking test process.  The point and eps were recorded on the
        # commit that still cached the point's rows; the row count is that of
        # bounds on one column of each conjugate pair
        script = (
            "import json\n"
            "from shallowfp.optimize import DescentConfig, coordinate_descent\n"
            "r = coordinate_descent(65537, 128, DescentConfig(seed=7, max_sweeps=2))\n"
            "status = open('/proc/self/status').read()\n"
            "hwm = int(status.split('VmHWM:')[1].split()[0])\n"
            "print(json.dumps([hwm, r.best_epsilon.hex(), r.rows_evaluated,\n"
            "                  r.best_set.coefficients]))\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout
        hwm_kib, eps, rows, point = json.loads(out)
        assert hwm_kib < 64 * 1024
        assert eps == "0x1.863408c804c37p-5"
        assert rows == 397
        assert tuple(point) == (
            32238, 2403, 24605, 36428, 10373, 20851, 22009, 6230, 58030, 21354, 64236, 25389,
            45903, 44763, 39376, 34297, 54960, 52710, 20963, 14073, 39200, 13006, 63272, 37120,
            52785, 47594, 39611, 21600, 32757, 25759, 58768, 49474, 38345, 54483, 36354, 64613,
            50545, 41590, 22536, 40540, 3554, 34044, 40001, 19181, 54147, 16631, 42512, 49279,
            39767, 62185, 10123, 10077, 41299, 62695, 31585, 52500, 18447, 50856, 7851, 62787,
            8848, 8391, 20107, 26041, 49306, 18284, 29897, 3908, 9152, 34412, 38607, 25574,
            22637, 15718, 45125, 43890, 49731, 19337, 19029, 29804, 30996, 52167, 2910, 47319,
            6199, 9520, 28919, 61166, 39367, 33294, 7529, 56714, 8778, 45203, 5316, 30447,
            36525, 38187, 51761, 51404, 588, 22240, 61301, 13462, 467, 46057, 8121, 64870,
            20611, 23457, 64871, 51043, 41481, 42122, 1069, 60620, 11208, 35145, 63104, 452,
            38301, 19741, 56563, 54310, 43165, 16404, 38175, 64783)

    @pytest.mark.full_scale
    def test_general_descent_at_p_65537(self):
        p = 65537
        res = coordinate_descent(p, 8, DescentConfig(seed=7))
        assert res.best_set.d == 8
        assert res.best_epsilon == epsilon_of(explicit_set(p, best_point(res)))[0]
        assert res.rows_evaluated < res.evaluations

    @pytest.mark.full_scale
    def test_general_d64_descent_at_p_65537(self):
        # pinned on the commit before move reuse and the cached row-sum
        res = coordinate_descent(65537, 64, DescentConfig(seed=7, max_sweeps=2))
        assert res.best_epsilon.hex() == "0x1.9d5972a6dd2dcp-4"
        assert res.evaluations == 8388800
        assert best_point(res) == (
            12066, 38129, 39206, 46320, 36060, 47453, 58491, 48895, 26466, 21354, 64236,
            36943, 45903, 40243, 5607, 34297, 44591, 22565, 40502, 14073, 48176, 13006,
            10142, 2137, 52785, 47594, 39611, 14893, 19272, 9246, 35449, 63661, 38345,
            54483, 36354, 62508, 50545, 41590, 22536, 40540, 3554, 38529, 40001, 19181,
            54147, 16631, 8113, 49279, 29143, 62185, 10123, 29071, 41299, 62695, 49452,
            52500, 23871, 50856, 7851, 62787, 64999, 14043, 20107, 26041)


@pytest.mark.parametrize("kwargs,message", [
    ({"max_sweeps": 0}, r"^max_sweeps must be >= 1$"),
    ({"mode": "x"}, r"^unknown mode 'x'$"),
    ({"restarts": -1}, r"^restarts must be nonnegative$"),
])
def test_config_refuses_bad_settings(kwargs, message):
    with pytest.raises(DomainError, match=message):
        DescentConfig(0, **kwargs)


class TestGeneralMode:
    def test_improves_on_seed_point(self):
        cfg = DescentConfig(seed=5)
        res = coordinate_descent(7, 2, cfg)
        # reconstruct the seeded start and compare
        from shallowfp.rng import SplitMix64

        rng = SplitMix64(5)
        start = [rng.in_range(1, 7) for _ in range(2)]
        start_eps, _ = epsilon_of(explicit_set(7, start))
        assert res.best_epsilon <= start_eps + 1e-12

    def test_determinism(self):
        cfg = DescentConfig(seed=123, restarts=1)
        a = coordinate_descent(31, 4, cfg)
        b = coordinate_descent(31, 4, cfg)
        assert best_point(a) == best_point(b)
        assert a.best_epsilon == b.best_epsilon
        assert a.history == b.history

    def test_history_monotone(self):
        res = coordinate_descent(101, 8, DescentConfig(seed=7))
        eps_values = [e for _, e in res.history]
        assert all(a >= b - 1e-15 for a, b in zip(eps_values, eps_values[1:]))

    def test_final_epsilon_matches_canonical_path(self):
        res = coordinate_descent(31, 4, DescentConfig(seed=9))
        eps, x = epsilon_of(explicit_set(31, best_point(res)))
        assert (res.best_epsilon, res.argmax_x) == (eps, x)

    def test_audit_passes_after_convergence(self):
        cfg = DescentConfig(seed=11)
        res = coordinate_descent(31, 3, cfg)
        assert res.sweeps_used < cfg.max_sweeps
        assert oracle_locally_optimal(31, "general", np.asarray(best_point(res)))


class TestShallowMode:
    def test_one_sweep_at_p_16411_scores_few_rows(self):
        # eps near 1: only the columns whose ceiling reaches the best eps decide
        res = coordinate_descent(16411, 3, DescentConfig(seed=7, mode="shallow", max_sweeps=1))
        assert best_point(res) == (11433, 5500, 6793)
        assert res.best_epsilon == 0.9822980284984616
        assert res.rows_evaluated <= 100

    @pytest.mark.full_scale
    def test_shallow_descent_at_p_65537(self):
        res = coordinate_descent(65537, 3, DescentConfig(seed=7, mode="shallow", max_sweeps=2))
        assert best_point(res) == (7001, 4162, 27266)
        assert res.best_epsilon == 0.9926054799162713
        assert res.rows_evaluated <= 100

    def test_expanded_set_epsilon(self):
        cfg = DescentConfig(seed=2, mode="shallow")
        res = coordinate_descent(31, 2, cfg)
        expanded = expand_subset_sums(0, best_point(res), 31)
        eps, x = epsilon_of(expanded)
        assert (res.best_epsilon, res.argmax_x) == (eps, x)
        assert res.best_set.coefficients == expanded.coefficients

    def test_size_guard(self):
        with pytest.raises(ValueError):
            coordinate_descent(7, 10, DescentConfig(seed=0, mode="shallow"))

    def test_exhaustive_minimum_reachable(self):
        # brute-force oracle over all generator pairs of Z_31
        p, m = 31, 2
        best_oracle = min(epsilon_of(expand_subset_sums(0, (t1, t2), p))[0]
                          for t1 in range(p) for t2 in range(p))
        cfg = DescentConfig(seed=1, mode="shallow", restarts=6)
        res = coordinate_descent(p, m, cfg)
        assert res.best_epsilon <= best_oracle + 1e-12

    def test_initial_override(self):
        cfg = DescentConfig(seed=0, mode="shallow")
        res = coordinate_descent(31, 2, cfg, initial=(3, 7))
        start_eps, _ = epsilon_of(expand_subset_sums(0, (3, 7), 31))
        assert res.best_epsilon <= start_eps + 1e-12


class TestCompareExperiment:
    def test_records_and_ratio(self):
        records = list(compare_experiment([11, 13], 2, seed=3))
        assert [r.p for r in records] == [11, 13]
        for r in records:
            assert r.ratio == pytest.approx(
                max(r.shallow.best_epsilon, 1e-15) / max(r.general.best_epsilon, 1e-15))
            assert r.general.best_set.d == 4
            assert len(best_point(r.shallow)) == 2
        # the settings are checked when it is called, before any search
        with pytest.raises(DomainError, match=r"^restarts must be nonnegative$"):
            compare_experiment([11, 13], 2, seed=3, restarts=-1)


# p = 307 with seed 1: the best shallow run spins to max_sweeps
LANE_PRIMES = [2, 3, 13, 101, 151, 307, 311, 457, 601]


class TestLanes:
    @pytest.mark.parametrize("seed", [1, 7])
    def test_records_equal_direct_descents(self, seed):
        records = list(compare_experiment(LANE_PRIMES, 3, seed, restarts=3))
        assert [r.p for r in records] == LANE_PRIMES
        for rec in records:
            for mode, size, res in (("general", 8, rec.general), ("shallow", 3, rec.shallow)):
                direct = coordinate_descent(rec.p, size,
                                            DescentConfig(seed=seed, mode=mode, restarts=3))
                assert res.best_set == direct.best_set
                assert res.best_set.params == direct.best_set.params
                assert res.best_epsilon.hex() == direct.best_epsilon.hex()
                assert res.argmax_x == direct.argmax_x
                assert res.evaluations == direct.evaluations
                assert res.rows_evaluated == direct.rows_evaluated
                assert res.history == direct.history
        assert seed != 1 or records[LANE_PRIMES.index(307)].shallow.sweeps_used == 100
        assert_no_child_left()

    def test_without_fork_the_records_are_the_same(self, monkeypatch):
        forked = list(compare_experiment(LANE_PRIMES, 3, seed=1, restarts=3))
        monkeypatch.delattr(os, "fork")
        assert list(compare_experiment(LANE_PRIMES, 3, seed=1, restarts=3)) == forked

    def test_shallow_lane_exception_reaches_the_caller(self, monkeypatch):
        def fail(p):
            if p == 13:
                raise DomainError(f"no shallow search at p={p}")

        patch_descent(monkeypatch, shallow=fail)
        records = compare_experiment([3, 13, 101], 2, seed=1)
        assert next(records).p == 3
        with pytest.raises(DomainError, match=r"^no shallow search at p=13$") as caught:
            next(records)
        assert caught.type is DomainError
        assert_no_child_left()

    def test_unpicklable_exception_arrives_as_type_and_message(self, monkeypatch):
        class LocalError(Exception):  # a local class does not pickle
            pass

        def fail(p):
            raise LocalError("lane broke")

        patch_descent(monkeypatch, shallow=fail)
        with pytest.raises(RuntimeError, match=r"^LocalError: lane broke$"):
            list(compare_experiment([3, 13], 2, seed=1))
        assert_no_child_left()

    def test_killed_lane_names_the_signal(self, monkeypatch):
        parent = os.getpid()

        def die(p):
            if os.getpid() != parent:  # only ever in the forked process
                os.kill(os.getpid(), signal.SIGKILL)

        patch_descent(monkeypatch, shallow=die)
        with pytest.raises(ChildProcessError, match="SIGKILL"):
            list(compare_experiment([3, 13], 2, seed=1))
        assert_no_child_left()

    def test_close_after_the_first_record_reaps_the_lane(self, monkeypatch):
        patch_descent(monkeypatch, shallow=lambda p: time.sleep(0 if p == 3 else 60))
        records = compare_experiment([3, 13, 101], 2, seed=1)
        assert next(records).p == 3
        started = time.perf_counter()
        records.close()
        assert time.perf_counter() - started < 10  # killed, not waited for
        assert_no_child_left()

    @pytest.mark.parametrize("error", [KeyboardInterrupt, DomainError])
    def test_general_lane_exception_reaps_the_lane(self, monkeypatch, error):
        def fail(p):
            if p == 13:
                raise error("stopped")

        # the lane is still searching when the caller stops
        patch_descent(monkeypatch, general=fail,
                   shallow=lambda p: time.sleep(0 if p == 3 else 60))
        records = compare_experiment([3, 13, 101], 2, seed=1)
        assert next(records).p == 3
        started = time.perf_counter()
        with pytest.raises(error):
            next(records)
        assert time.perf_counter() - started < 10
        assert_no_child_left()
