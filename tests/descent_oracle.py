"""Full-table reference for coordinate descent: every candidate value of a
coordinate scored against the whole (p, p-1) phase table, independent of
the pruned evaluator in `shallowfp.optimize`.  It scores p (p - 1)
entries a move: cheap at small p, seconds at p = 16411.
"""
import numpy as np

from shallowfp.analysis import roots_of_unity

_CHUNK_ENTRIES = 1 << 21  # table entries scored at once, about 32 MB of complex


def full_table_candidate_eps(p: int, mode: str, point: np.ndarray, i: int) -> np.ndarray:
    """Reference: eps of every value of coordinate i, scored against the
    full (p, p-1) phase table E[v, x-1] = e(v x / p), a chunk of its rows
    at a time."""
    W = roots_of_unity(p)
    x = np.arange(1, p)

    def rows(values: np.ndarray) -> np.ndarray:  # the rows E[values]
        return W[np.outer(values, x) % p]

    size = point.size
    if mode == "general":
        E = rows(point)
        rest = E.sum(axis=0) - E[i]
        d = size
    else:
        ones = 1.0 + rows(point)
        rest = np.prod(np.concatenate([ones[:i], ones[i + 1:]]), axis=0)
        d = 1 << size
    eps = np.empty(p)
    step = max(1, _CHUNK_ENTRIES // p)
    for lo in range(0, p, step):
        E = rows(np.arange(lo, min(lo + step, p)))
        sums = rest[None, :] + E if mode == "general" else rest[None, :] * (1.0 + E)
        mags = np.abs(sums)
        np.square(mags, out=mags)
        eps[lo:lo + step] = mags.max(axis=1) / (d * d)
    return eps


def oracle_move(p: int, mode: str, point: np.ndarray, i: int) -> tuple[int, float, float]:
    eps = full_table_candidate_eps(p, mode, point, i)
    best_v = int(np.argmin(eps))  # first occurrence = smallest value
    return best_v, float(eps[best_v]), float(eps[point[i]])


def oracle_locally_optimal(p: int, mode: str, point: np.ndarray) -> bool:
    for i in range(point.size):
        eps = full_table_candidate_eps(p, mode, point, i)
        if eps.min() < eps[point[i]]:
            return False
    return True
