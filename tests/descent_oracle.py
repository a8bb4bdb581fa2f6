"""Full-table reference for coordinate descent: every candidate value of a
coordinate scored against the whole (p, p-1) phase table, independent of
the pruned evaluator in `shallowfp.optimize`.  Cheap at small p only.
"""
import numpy as np

from shallowfp.analysis import roots_of_unity


def full_table_candidate_eps(p: int, mode: str, point: np.ndarray, i: int) -> np.ndarray:
    """Reference: eps of every value of coordinate i, scored against the
    full (p, p-1) phase table E[v, x-1] = e(v x / p)."""
    W = roots_of_unity(p)
    E = W[np.outer(np.arange(p), np.arange(1, p)) % p]
    size = point.size
    if mode == "general":
        rest = E[point].sum(axis=0) - E[point[i]]
        sums = rest[None, :] + E
        d = size
    else:
        ones = 1.0 + E[point]
        rest = np.prod(np.concatenate([ones[:i], ones[i + 1:]]), axis=0)
        sums = rest[None, :] * (1.0 + E)
        d = 1 << size
    mags = np.abs(sums)
    np.square(mags, out=mags)
    return mags.max(axis=1) / (d * d)


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
