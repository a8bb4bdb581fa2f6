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
max_x |S_v(x)|^2 / d^2.  No (p, p-1) table is built.

The log-domain phase table.  The columns x are kept in the order
x = g^j, j = 0 .. p-2, of the primitive root g (Rader's reindexing of a
prime-length DFT).  With L[v] = log_g v (and L[0] = 2(p-1)) and T the
table of W[g^j mod p] twice over, then p-1 ones, W[(v g^j) mod p] is
T[L[v] + j]: a full phase row is the contiguous slice T[L[v] : L[v]+p-1],
and a bound reads T at sums of logs.  No move multiplies or reduces an
index mod p.  The results are bit-identical to indexing W by (v x) mod p:
T holds the entries of W themselves (permuted, not recomputed), every
score is the same elementwise formula on the same entries in the same
operand order, and the maximum over a row does not depend on the order
of its columns.

Pruning: an exact ladder.  Each rung bounds a candidate by the same
formula restricted to some columns x, taken from the first half of the
log order, j < (p-1)/2, in order of decreasing |rest(x)|.  Since
g^((p-1)/2) = -1, column j + (p-1)/2 is p - x_j, and |S(p - x)| = |S(x)|
for every sum of phases: the second half would repeat the first half's
constraints, so each bound column stands for one conjugate pair
{x, p - x} (p = 2 keeps its one column).  A bound's entries are a
columns x candidates matrix (the full rows are candidates x columns),
computed with the same elementwise numpy operations as the full row (add
or multiply, abs, square in place, divide by d*d); numpy evaluates each
of these per element independently of array shape and layout, so every
bound entry equals an entry of the full row bit for bit.  The maximum over a subset of the columns is then a true
lower bound on the candidate's eps, with no rounding slack, and a bound
over more columns is never lower.  No rung reads past the 8192th column
of that order, so where the first half is longer, an argpartition picks
those columns before they are sorted (columns tied in |rest| may come in
another order than a full sort's; that could change which rows are
scored, never a move).

1. Every candidate is bounded on the 4 largest columns; only those whose
   bound does not exceed the current value's eps survive.
2. The survivors are bounded on the 16 largest columns, and those that
   still survive are visited in small batches in (bound, v) order.  The
   search stops at the first candidate whose (bound, v) exceeds the best
   (eps, v) found so far: no later candidate can beat or tie it with a
   smaller value.  A candidate pruned by rung 1 would fail rung 2 too, so
   the visiting order is that of a single 16-column bound.
3. Within a batch, a bound over the refine set drops the candidates that
   cannot beat the best, and only the rest get a full row.  The refine set
   is every column whose ceiling U(x) -- the largest value any candidate
   can reach there, 4 |rest|^2 / d^2 in shallow mode and
   (|rest| + 1)^2 / d^2 in general mode -- is at least the best eps (less
   a 1e-9 relative margin), at least 64 and at most 8192 columns, that is
   conjugate pairs, and never more than the (p-1)/2 of the first half.  It
   grows each time the best eps falls.  Where eps is close to 1 (shallow
   sets at large p) few columns can reach it, and those decide almost
   every candidate.  Each batch is bounded on the refine set when it is
   visited, so a search that stops early bounds no batch it does not
   reach.

The result is exactly the argmin of the full candidate vector, smallest
value first; U only decides how many columns the last rung takes.
Conjugate symmetry (W[p - r] vs conj(W[r])) is still not used in scoring:
it is not exact in floating point and could flip near-ties, so the full
rows and the current value's eps run over all p - 1 columns.  Choosing
the bound columns by it is exact all the same: a bound over any subset
of a full row's exact entries is a true lower bound, so the symmetry only
decides which columns are worth reading, never a score.

The rest-sum reads the point's rows as views of T and copies none.  In
shallow mode it multiplies the other coordinates' 1 + row in index order,
as np.prod does.  In general mode it is sum - row_i; the sum of the
point's rows is cached by the point's values and rebuilt by in-place adds
in index order, as rows.sum(axis=0) adds them -- except at p = 2, where
each row is one column that numpy sums pairwise, so the rows are reduced.

Move reuse.  A descent run keeps every move it computed, keyed by the
point's values and the coordinate, and a state that repeats takes its
move from there; it still counts p evaluations, so only
``rows_evaluated`` falls.  States repeat in the confirming sweep after
the last move, and where a shallow run spins in a cycle of points whose
eps differ in the last bits.  The memo holds one entry per move searched
and one copy of each point visited.  This is exact because a move is a
pure function of (p, mode, point, i): the cached sum is keyed by values
and every rung is deterministic.  In shallow mode a move of coordinate i
to v also settles i at the moved point: the rest-sum of i is the ordered
product of the other rows, which the move did not change, so searching i
again would find (v, best, best), v still the lexmin and the current eps
the same full-row score.  In general mode the rest-sum is sum - row_i
with row_i inside the sum, so its rounding depends on row i and no move
is stored in advance.

Memory per evaluator is O(p) at any size: the table T (3 (p - 1) complex
entries, 74 KB at p = 1549), the logs (p int64), in general mode one
cached sum of p - 1 entries, and per move O(16 p + batch p) entries of
scratch.  Before anything is allocated, p is capped at
analysis.TABLE_MAX_P = 2^22 and size (p - 1), the full-row entries a first
sweep scores at least, at 2^26: d = 1024 still fits at p = 65537.

Lanes.  `compare_experiment` runs its two searches per prime side by side:
when its iterator starts, it forks one child that runs the shallow
descents of every prime in list order and sends each pickled result down
a pipe, while the caller runs the general descents and pairs each with
its prime's shallow result as that arrives.  Both lanes call the same
`coordinate_descent`, so every record equals the in-process one, and a
prime costs the larger of its two searches, not their sum.  The child
sends an exception it raises (or, if that does not pickle, its type name
and message) and the caller raises it; the child leaves only by
os._exit, and the caller kills and reaps it however the iteration ends.
Where os.fork does not exist the shallow descents run in-process.  On
Python >= 3.12, forking a process that holds OpenBLAS threads raises a
DeprecationWarning; the child makes no BLAS call (it uses only ufuncs,
take, argsort, argpartition and pocketfft).
"""
from __future__ import annotations

import contextlib
import os
import pickle

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analysis import check_table_size, epsilon_of, roots_of_unity
from .coeffsets import CoefficientSet, check_gap_dim, expand_subset_sums
from .errors import DomainError
from .record import Record
from .rng import SplitMix64
from .zmod import PrimeModulus, primitive_root


class DescentConfig(Record):
    __slots__ = ("seed", "max_sweeps", "mode", "restarts")

    def __init__(self, seed: int, max_sweeps: int = 100, mode: str = "general",
                 restarts: int = 0):
        if max_sweeps < 1:
            raise DomainError("max_sweeps must be >= 1")
        if mode not in ("general", "shallow"):
            raise DomainError(f"unknown mode {mode!r}")
        if restarts < 0:
            raise DomainError("restarts must be nonnegative")
        super().__init__(seed, max_sweeps, mode, restarts)


class DescentResult(Record):
    """``argmax_x`` is the argmax `epsilon_of` reports for ``best_set``: the
    smallest x in [1, max(1, (p-1)/2)] whose |S(x)| ties with the largest
    there.  ``evaluations`` counts the candidates considered (p per
    coordinate searched), ``rows_evaluated`` the full phase rows scored
    (bounds pruned the rest), and ``history`` the best run's (sweep, eps)
    pairs, a tuple so that the record hashes."""

    __slots__ = ("best_set", "best_epsilon", "argmax_x", "evaluations", "rows_evaluated",
                 "history")

    @property
    def sweeps_used(self) -> int:
        return len(self.history) - 1


_FIRST_COLUMNS = 4  # columns of the bound every candidate gets
_BOUND_COLUMNS = 16  # columns of the bound that orders the survivors of the first
_REFINE_MIN, _REFINE_MAX = 64, 8192  # size limits of the ceiling-sized refine set
_CEILING_SLACK = 1e-9  # relative margin on U(x) >= best, against rounding in U
_BATCH = 8  # candidates per step of the pruned search
_SWEEP_MAX = 1 << 26  # size * (p - 1): full-row entries a first sweep scores at least


def _log_tables(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(L, T) for the primitive root g of p, with the columns x = g^j,
    j in [0, p-1), in log order: W[(v g^j) mod p] = T[L[v] + j] for every v
    in [0, p), where W = roots_of_unity(p).

    L[v] = log_g v for v != 0 and L[0] = 2(p-1).  T holds W[g^j mod p] for
    j in [0, p-1) twice, then p-1 copies of W[0] = 1, so every phase row is
    the contiguous slice T[L[v] : L[v] + p-1].  T is W permuted, never
    recomputed, and the powers are exact: int64 products of two residues
    stay below p^2 <= 2^44 (p <= TABLE_MAX_P).
    """
    n = p - 1
    g = primitive_root(p)
    powers = np.ones(n, dtype=np.int64)  # powers[j] = g^j mod p, by doubling
    k = 1
    while k < n:
        step = min(k, n - k)
        powers[k:k + step] = powers[:step] * pow(g, k, p) % p
        k += step
    log = np.empty(p, dtype=np.int64)
    log[powers] = np.arange(n)
    log[0] = 2 * n
    T = roots_of_unity(p)[np.concatenate([powers, powers, np.zeros(n, dtype=np.int64)])]
    return log, T


class _Evaluator:
    """Exact single-coordinate moves without a (p, p-1) phase table.

    ``best_move(point, i)`` returns the value of coordinate i that
    minimizes eps with the other coordinates fixed (smallest value on
    ties), its eps, and the eps of the current value -- the same numbers
    as the argmin of the full candidate vector, bit for bit.
    ``rows_evaluated`` counts the full phase rows scored so far.

    Columns are kept in log order (see `_log_tables`): the phase row of v is
    ``rows_of[L[v]]``, a row of a sliding-window view of T, and a bound
    reads T at ``np.add.outer`` of logs, so no move multiplies or reduces
    an index mod p.

    An evaluator serves points of one size, fixed at construction with d
    (size in general mode, 2^size in shallow mode).  It holds O(p) entries:
    a point's rows are views of T, and the general-mode sum is keyed by the
    point's values, so a caller may mutate ``point`` in place or start anew.
    """

    def __init__(self, p: int, mode: str, size: int):
        self.mode = mode
        d = size if mode == "general" else 1 << size
        self._dd = d * d  # every eps is max |S|^2 / d^2
        self.log, self._T = _log_tables(p)
        self._rows_of = sliding_window_view(self._T, p - 1)
        self.rows_evaluated = 0
        self._sum_key = self._sum = None  # general mode: point.tobytes(), sum of its rows

    def _rest(self, point: np.ndarray, i: int) -> np.ndarray:
        """The rest-sum of coordinate i, from views of T in index order."""
        rows_of, logs = self._rows_of, self.log[point]
        if self.mode == "shallow":  # multiplied as np.prod multiplies the rows
            rest = np.ones(rows_of.shape[1], dtype=complex)
            for row in np.delete(logs, i):
                rest *= 1.0 + rows_of[row]
            return rest
        key = point.tobytes()
        if key != self._sum_key:
            if rows_of.shape[1] == 1:  # p = 2: numpy sums one column pairwise
                self._sum = rows_of[logs].sum(axis=0)
            else:  # rows.sum(axis=0) adds whole rows in index order
                self._sum = np.zeros(rows_of.shape[1], dtype=complex)
                for row in logs:
                    self._sum += rows_of[row]
            self._sum_key = key
        return self._sum - rows_of[logs[i]]

    def _scores(self, rest: np.ndarray, E: np.ndarray, axis: int) -> np.ndarray:
        """eps of each candidate from its phase entries ``E``, which runs
        over the columns along ``axis`` (``rest`` broadcasts against it).
        The operations run in place, in the operand order of ``rest + E``
        and ``rest * (1 + E)``: with FMA the complex product rounds
        differently when its operands are swapped."""
        if self.mode == "general":
            np.add(rest, E, out=E)
        else:
            np.add(1.0, E, out=E)
            np.multiply(rest, E, out=E)
        mags = np.abs(E)
        np.square(mags, out=mags)
        return mags.max(axis=axis) / self._dd

    def _bound(self, rest: np.ndarray, cols: np.ndarray, logs: np.ndarray) -> np.ndarray:
        """eps of the candidates with logs ``logs`` over the columns ``cols``
        (``rest`` holds the rest-sum there), from a columns x candidates
        matrix of entries."""
        return self._scores(rest[:, None], self._T.take(np.add.outer(cols, logs)), 0)

    def _full(self, rest: np.ndarray, logs: np.ndarray) -> np.ndarray:
        self.rows_evaluated += logs.size
        return self._scores(rest, self._rows_of[logs], 1)

    def best_move(self, point: np.ndarray, i: int) -> tuple[int, float, float]:
        log = self.log
        rest = self._rest(point, i)
        cur_v = int(point[i])
        cur = float(self._full(rest, log[point[i:i + 1]])[0])
        # column j + (p-1)/2 is p - x_j, whose |rest| is that of x_j up to
        # rounding: the bounds take their columns from the first half, one of
        # each conjugate pair
        mag = np.abs(rest[:max(1, rest.size // 2)])
        if mag.size > _REFINE_MAX:  # no rung reads past the first _REFINE_MAX columns
            by_mag = np.argpartition(mag, mag.size - _REFINE_MAX)[mag.size - _REFINE_MAX:]
            by_mag = by_mag[np.argsort(mag[by_mag])[::-1]]
        else:
            by_mag = np.argsort(mag)[::-1]  # columns (logs of x), largest |rest| first
        rest_mag, mag = rest[by_mag], mag[by_mag]
        # rung 1: every candidate on the first columns; only a candidate whose
        # bound does not exceed cur can tie or beat the current value
        bound = self._bound(rest_mag[:_FIRST_COLUMNS], by_mag[:_FIRST_COLUMNS], log)
        cand = np.flatnonzero(bound <= cur)
        cand = cand[cand != cur_v]
        # rung 2: the survivors on more columns, visited in (bound, v) order
        bound = self._bound(rest_mag[:_BOUND_COLUMNS], by_mag[:_BOUND_COLUMNS], log[cand])
        keep = np.flatnonzero(bound <= cur)
        keep = keep[np.argsort(bound[keep], kind="stable")]
        cand, bound = cand[keep], bound[keep]
        # rung 3: each batch on the columns whose ceiling U(x) reaches best,
        # a set resized as best falls
        ceiling = ((mag + 1.0) ** 2 if self.mode == "general" else 4.0 * mag ** 2) / self._dd
        best, best_v, fine_for = cur, cur_v, None
        for lo in range(0, cand.size, _BATCH):
            head = int(cand[lo])
            if (bound[lo], head) > (best, best_v):
                break
            if best != fine_for:
                fine_for = best
                n = int(np.count_nonzero(ceiling >= best * (1 - _CEILING_SLACK)))
                n_fine = min(max(n, _REFINE_MIN), _REFINE_MAX)
            batch = cand[lo:lo + _BATCH]
            ref = self._bound(rest_mag[:n_fine], by_mag[:n_fine], log[batch])
            batch = batch[(ref < best) | ((ref == best) & (batch < best_v))]
            if batch.size == 0:
                continue
            scores = self._full(rest, log[batch])
            low = float(scores.min())
            v = int(batch[scores == low].min())
            if (low, v) < (best, best_v):
                best, best_v = low, v
        return best_v, best, cur

    def point_eps(self, point: np.ndarray) -> float:
        return float(self._full(self._rest(point, 0), self.log[point[:1]])[0])


def _descend(evaluator: _Evaluator, start: np.ndarray, cfg: DescentConfig
             ) -> tuple[np.ndarray, float, list[tuple[int, float]]]:
    point = start.copy()
    cur = evaluator.point_eps(point)
    history: list[tuple[int, float]] = [(0, cur)]
    moves: dict[tuple[bytes, int], tuple[int, float, float]] = {}  # see "Move reuse"
    state = point.tobytes()  # one bytes object per point visited, shared by its keys
    for sweep in range(1, cfg.max_sweeps + 1):
        improved = False
        for i in range(point.size):
            move = moves.get((state, i))
            if move is None:
                move = moves[state, i] = evaluator.best_move(point, i)
            best_v, best, here = move
            if best < here:
                point[i] = best_v
                state = point.tobytes()
                cur = min(cur, best)
                improved = True
                if evaluator.mode == "shallow":
                    moves[state, i] = (best_v, best, best)
        history.append((sweep, cur))
        if not improved:
            break
    return point, cur, history


def _expand_point(p: int, point: np.ndarray, mode: str) -> CoefficientSet:
    if mode == "general":
        return CoefficientSet(p, tuple(int(v) for v in point),
                              "optimized", {"mode": "general"})
    expanded = expand_subset_sums(0, [int(v) for v in point], p)
    return CoefficientSet(expanded.p, expanded.coefficients, "optimized",
                          {"mode": "shallow", **expanded.params})


def _check_size(p: int, size: int, mode: str) -> None:
    check_table_size(p)  # before the evaluator allocates its length-p tables
    if size < 1:
        raise DomainError("size must be positive")
    if mode == "shallow":
        if size >= (4 * p).bit_length():  # 2^size > 4p, without building 2^size
            raise DomainError(f"2^{size} far exceeds p={p}; shallow search is pointless")
        check_gap_dim(size)
    if size * (p - 1) > _SWEEP_MAX:
        raise DomainError(f"size {size} at p={p} scores {size * (p - 1)} full-row "
                          f"entries a sweep, above the cap of 2^26")


def coordinate_descent(p: int, size: int, cfg: DescentConfig,
                       initial: tuple[int, ...] | None = None) -> DescentResult:
    """Seeded coordinate descent; with restarts > 0 the best of several
    independent starts is kept.  ``initial`` overrides the first start
    point (used by exhaustive-start experiments)."""
    p = int(PrimeModulus(p))
    _check_size(p, size, cfg.mode)
    evaluator = _Evaluator(p, cfg.mode, size)
    rng = SplitMix64(cfg.seed)

    def draw_start() -> np.ndarray:
        return np.array([rng.in_range(1, p) for _ in range(size)], dtype=np.int64)

    best = None
    evaluations = 0
    for run in range(cfg.restarts + 1):
        if run == 0 and initial is not None:
            start = np.asarray(initial, dtype=np.int64) % p
        else:
            start = draw_start()
        point, cur, history = _descend(evaluator, start, cfg)
        # size for the start's eps, then p candidates per coordinate per sweep
        evaluations += size + (len(history) - 1) * size * p
        if best is None or cur < best[1]:
            best = (point, cur, history)
    point, _, history = best
    best_set = _expand_point(p, point, cfg.mode)
    # final value re-measured through the canonical eps path
    best_eps, argmax = epsilon_of(best_set)
    return DescentResult(best_set, best_eps, argmax, evaluations, evaluator.rows_evaluated,
                         tuple(history))


class ComparisonRecord(Record):
    __slots__ = ("p", "general", "shallow")

    @property
    def ratio(self) -> float:
        """eps_shallow / eps_general, both clamped at 1e-15, so two
        roundoff-level errors (p < 2^m) give 1."""
        return max(self.shallow.best_epsilon, 1e-15) / max(self.general.best_epsilon, 1e-15)


def compare_experiment(primes: list[int], m: int, seed: int, restarts: int = 0):
    """For each prime: optimize d = 2^m free coefficients and m generators,
    each search with ``seed`` and ``restarts``.  Every prime, size and
    setting is checked when this is called; the returned iterator runs the
    searches, the shallow ones in a forked lane (see "Lanes"), and yields
    each prime's record as soon as the prime is done.  Closing it early
    ends the lane."""
    general = DescentConfig(seed, restarts=restarts)
    shallow = DescentConfig(seed, mode="shallow", restarts=restarts)
    primes = [int(PrimeModulus(p)) for p in primes]
    if m >= _SWEEP_MAX.bit_length():  # 2^m (p - 1) > 2^26 at every p; 2^m is never built
        raise DomainError(f"m = {m} scores at least 2^{m} full-row entries a sweep, "
                          f"above the cap of 2^26")
    for p in primes:
        _check_size(p, 1 << m, "general")
        _check_size(p, m, "shallow")
    return _compare_records(primes, m, general, shallow)


def _compare_records(primes: list[int], m: int, general: DescentConfig,
                     shallow: DescentConfig):
    with _in_child(coordinate_descent(p, m, shallow) for p in primes) as shallow_results:
        for p in primes:
            gen_res = coordinate_descent(p, 1 << m, general)
            yield ComparisonRecord(p, gen_res, next(shallow_results))


@contextlib.contextmanager
def _in_child(items):
    """An iterator over ``items``, which a forked child computes beside the
    caller (see "Lanes"); ``items`` itself where os.fork does not exist."""
    if not hasattr(os, "fork"):
        yield items
        return
    import gc  # here, not at the top: no other command loads them
    import signal
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: send each item, or the exception that stopped it
        status = 1
        try:
            gc.freeze()  # leave the parent's garbage alone: a file freed here would flush
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                try:
                    for item in items:
                        pickle.dump((True, item), pipe)
                        pipe.flush()
                except BaseException as exc:
                    try:
                        pickle.loads(pickle.dumps(exc))
                    except Exception:
                        exc = RuntimeError(f"{type(exc).__name__}: {exc}")
                    pickle.dump((False, exc), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    pipe = open(read_fd, "rb")
    reaped = False

    def received():
        nonlocal reaped
        while True:
            try:
                ok, item = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # the child is gone
                status = os.waitpid(pid, 0)[1]
                reaped = True
                code = os.waitstatus_to_exitcode(status)
                try:
                    how = f"was killed by {signal.Signals(-code).name}"
                except ValueError:  # an exit status, or a signal without a name
                    how = f"ended with exit code {code}"
                raise ChildProcessError(f"the forked search process {how} before it "
                                        f"sent every result") from None
            if not ok:
                raise item
            yield item

    try:
        yield received()
    finally:
        pipe.close()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
