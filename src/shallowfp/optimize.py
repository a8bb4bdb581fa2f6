"""Coordinate-descent search for low-error coefficient sets.

Two modes:

* general -- the d coefficients of the automaton are free variables,
* shallow -- only the m generators of a subset-sum set are optimized
             (t_0 is pinned to 0: the error is translation invariant).

Each coordinate is searched over all of [0, p); a move is accepted only on
strict improvement, ties go to the smallest candidate value, and
coordinates cycle in fixed index order, so a run is a pure function of
(p, size, config).

Scoring a candidate.  With the other coordinates fixed, the exponential sum
splits into a rest-sum and the candidate's own phase row
E_v(x) = e(v x / p) = W[(v x) mod p], x = 1 .. p-1: in general mode
S_v(x) = rest(x) + E_v(x); in shallow mode the sum over subset sums
factorizes as S_v(x) = rest(x) * (1 + E_v(x)).  The candidate's eps is
max_x |S_v(x)|^2 / d^2.  Phase rows are gathered from the roots table on
demand; no (p, p-1) table is built.

Pruning.  Before any full row is scored, every candidate v gets a bound:
the same formula restricted to the 16 columns x with the largest
|rest(x)|.  The bound entries are computed with the same elementwise numpy
operations as the full row (add or multiply, abs, square in place, divide
by d*d), and numpy evaluates each of these per element independently of
array shape, so every bound entry equals an entry of the full row bit for
bit.  The maximum over a subset of the columns is then a true lower bound
on the candidate's eps, with no rounding slack.  Candidates are taken in
small batches in (bound, v) order, and the search stops at the first
candidate whose (bound, v) exceeds the best (eps, v) found so far: no later
candidate can beat or tie it with a smaller value.  Within a batch, a
second bound over the 64 largest columns (exact for the same reason)
drops the candidates that cannot beat the best, and only the rest get a
full row.  The result is exactly the argmin of the full candidate vector,
smallest value first.  Conjugate symmetry (W[p - r] vs conj(W[r])) is
deliberately not used: it is not exact in floating point and could flip
near-ties.

Memory per coordinate is O(16 p + batch p) complex entries plus the
size x (p - 1) rest computation, instead of the p (p - 1) table.  Time
depends on how well the bounds prune: well for general sets, poorly for
shallow sets whose eps is close to 1, where the bounds of most candidates
stay below the best eps.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import epsilon_of, roots_of_unity
from .coeffsets import CoefficientSet, expand_subset_sums
from .errors import ParameterRangeError
from .rng import SplitMix64
from .zmod import PrimeModulus


@dataclass(frozen=True)
class DescentConfig:
    seed: int
    max_sweeps: int = 100
    mode: str = "general"  # "general" or "shallow"
    restarts: int = 0

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ParameterRangeError("max_sweeps must be >= 1")
        if self.mode not in ("general", "shallow"):
            raise ParameterRangeError(f"unknown mode {self.mode!r}")
        if self.restarts < 0:
            raise ParameterRangeError("restarts must be nonnegative")


@dataclass
class DescentResult:
    best_set: CoefficientSet
    best_point: tuple[int, ...]  # coefficients (general) or generators (shallow)
    best_epsilon: float
    argmax_x: int  # smallest x != 0 attaining best_epsilon, as epsilon_of reports it
    sweeps_used: int
    evaluations: int  # candidates considered: p per coordinate searched
    rows_evaluated: int  # full phase rows scored; the rest were pruned by bounds
    history: list[tuple[int, float]] = field(default_factory=list)


_BOUND_COLUMNS = 16  # columns of the bound every candidate gets
_REFINE_COLUMNS = 64  # columns of the second bound, taken batch by batch
_BATCH = 8  # candidates per step of the pruned search


class _Evaluator:
    """Exact single-coordinate moves without a (p, p-1) phase table.

    ``best_move(point, i)`` returns the value of coordinate i that
    minimizes eps with the other coordinates fixed (smallest value on
    ties), its eps, and the eps of the current value -- the same numbers
    as the argmin of the full candidate vector, bit for bit.
    ``rows_evaluated`` counts the full phase rows scored so far.
    """

    def __init__(self, p: int, mode: str):
        self.p = p
        self.mode = mode
        self.W = roots_of_unity(p)
        self.xs = np.arange(1, p, dtype=np.int64)
        self.values = np.arange(p, dtype=np.int64)
        self.rows_evaluated = 0

    def _rest(self, point: np.ndarray, i: int) -> np.ndarray:
        rows = self.W[np.multiply.outer(point, self.xs) % self.p]
        if self.mode == "general":
            return rows.sum(axis=0) - rows[i]
        ones = 1.0 + rows
        return np.prod(np.concatenate([ones[:i], ones[i + 1:]]), axis=0)

    def _scores(self, rest: np.ndarray, values: np.ndarray, xs: np.ndarray,
                size: int) -> np.ndarray:
        """eps of each candidate in ``values`` over the columns ``xs``
        (``rest`` holds the rest-sum at those columns)."""
        E = self.W[np.multiply.outer(values, xs) % self.p]
        if self.mode == "general":
            sums = rest[None, :] + E
            d = size
        else:
            sums = rest[None, :] * (1.0 + E)
            d = 1 << size
        mags = np.abs(sums)
        np.square(mags, out=mags)
        return mags.max(axis=1) / (d * d)

    def _full(self, rest: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
        self.rows_evaluated += values.size
        return self._scores(rest, values, self.xs, size)

    def best_move(self, point: np.ndarray, i: int) -> tuple[int, float, float]:
        size = point.size
        rest = self._rest(point, i)
        cur_v = int(point[i])
        cur = float(self._full(rest, point[i:i + 1], size)[0])
        by_mag = np.argsort(np.abs(rest))[::-1]  # column indices, largest first
        coarse, fine = by_mag[:_BOUND_COLUMNS], by_mag[:_REFINE_COLUMNS]
        bound = self._scores(rest[coarse], self.values, self.xs[coarse], size)
        rest_fine, xs_fine = rest[fine], self.xs[fine]
        # only candidates whose bound does not exceed cur can tie or beat it
        cand = np.flatnonzero(bound <= cur)
        cand = cand[cand != cur_v]
        order = cand[np.argsort(bound[cand], kind="stable")]  # (bound, v) order
        best, best_v = cur, cur_v
        for lo in range(0, order.size, _BATCH):
            head = int(order[lo])
            if (bound[head], head) > (best, best_v):
                break
            batch = order[lo:lo + _BATCH]
            ref = self._scores(rest_fine, batch, xs_fine, size)
            batch = batch[(ref < best) | ((ref == best) & (batch < best_v))]
            if batch.size == 0:
                continue
            scores = self._full(rest, batch, size)
            low = float(scores.min())
            v = int(batch[scores == low].min())
            if (low, v) < (best, best_v):
                best, best_v = low, v
        return best_v, best, cur

    def point_eps(self, point: np.ndarray) -> float:
        return float(self._full(self._rest(point, 0), point[:1], point.size)[0])


def _descend(evaluator: _Evaluator, start: np.ndarray, cfg: DescentConfig
             ) -> tuple[np.ndarray, float, int, int, list[tuple[int, float]]]:
    point = start.copy()
    size = point.size
    p = evaluator.p
    cur = evaluator.point_eps(point)
    history: list[tuple[int, float]] = [(0, cur)]
    evaluations = size  # point_eps sweeps one coordinate's worth of work; count once
    sweeps = 0
    for sweep in range(1, cfg.max_sweeps + 1):
        sweeps = sweep
        improved = False
        for i in range(size):
            best_v, best, here = evaluator.best_move(point, i)
            evaluations += p
            if best < here:
                point[i] = best_v
                cur = min(cur, best)
                improved = True
        history.append((sweep, cur))
        if not improved:
            break
    return point, cur, sweeps, evaluations, history


def _expand_point(p: int, point: np.ndarray, mode: str) -> CoefficientSet:
    if mode == "general":
        return CoefficientSet(p, tuple(int(v) for v in point),
                              "optimized", {"mode": "general"})
    expanded = expand_subset_sums(0, [int(v) for v in point], p)
    return replace(expanded, method="optimized", params={"mode": "shallow", **expanded.params})


def _check_size(p: int, size: int, mode: str) -> None:
    if size < 1:
        raise ParameterRangeError("size must be positive")
    if mode == "shallow" and (1 << size) > 4 * p:
        raise ParameterRangeError(f"2^{size} far exceeds p={p}; shallow search is pointless")


def coordinate_descent(p: int, size: int, cfg: DescentConfig,
                       initial: tuple[int, ...] | None = None) -> DescentResult:
    """Seeded coordinate descent; with restarts > 0 the best of several
    independent starts is kept.  ``initial`` overrides the first start
    point (used by exhaustive-start experiments)."""
    p = int(PrimeModulus(p))
    _check_size(p, size, cfg.mode)
    evaluator = _Evaluator(p, cfg.mode)
    rng = SplitMix64(cfg.seed)

    def draw_start() -> np.ndarray:
        return np.array([rng.in_range(1, p) for _ in range(size)], dtype=np.int64)

    best = None
    total_evals = 0
    for run in range(cfg.restarts + 1):
        if run == 0 and initial is not None:
            start = np.asarray(initial, dtype=np.int64) % p
        else:
            start = draw_start()
        point, cur, sweeps, evals, history = _descend(evaluator, start, cfg)
        total_evals += evals
        if best is None or cur < best[1]:
            best = (point, cur, sweeps, history)
    point, _, sweeps, history = best
    best_set = _expand_point(p, point, cfg.mode)
    # final value re-measured through the canonical eps path
    best_eps, argmax = epsilon_of(best_set)
    return DescentResult(best_set, tuple(int(v) for v in point), best_eps, argmax,
                         sweeps, total_evals, evaluator.rows_evaluated, history)


def audit_local_optimality(result: DescentResult) -> bool:
    """Post-hoc check: no single-coordinate change strictly improves eps.
    The modulus and the mode are read from ``result.best_set``."""
    evaluator = _Evaluator(int(result.best_set.p), result.best_set.params["mode"])
    point = np.asarray(result.best_point, dtype=np.int64)
    for i in range(point.size):
        _, best, here = evaluator.best_move(point, i)
        if best < here:
            return False
    return True


@dataclass(frozen=True)
class ComparisonRecord:
    p: int
    m: int
    eps_general: float
    eps_shallow: float
    ratio: float
    general: DescentResult
    shallow: DescentResult


def compare_experiment(primes: list[int], m: int, cfg: DescentConfig):
    """For each prime: optimize d = 2^m free coefficients and m generators,
    and yield its record as soon as the prime is done.  Every prime and size
    is checked before the first search.  The shallow/general ratio clamps
    both errors at 1e-15, so two roundoff-level errors (p < 2^m) give 1."""
    primes = [int(PrimeModulus(p)) for p in primes]
    for p in primes:
        _check_size(p, m, "shallow")
    for p in primes:
        gen_res = coordinate_descent(p, 1 << m, replace(cfg, mode="general"))
        sh_res = coordinate_descent(p, m, replace(cfg, mode="shallow"))
        eps_g, eps_s = gen_res.best_epsilon, sh_res.best_epsilon
        ratio = max(eps_s, 1e-15) / max(eps_g, 1e-15)
        yield ComparisonRecord(p, m, eps_g, eps_s, ratio, gen_res, sh_res)
