"""State-vector simulation of the 2d-state MOD_p automaton.

The automaton keeps d independent 2-dimensional blocks; reading one letter
rotates block i by 2 pi k_i / p.  All rotations are real orthogonal, so
amplitudes stay real: a state is a (d, 2) float array.  Acceptance after
the end-marker is the squared overlap with the initial state; the final
unitary is never materialized since the measured probability only depends
on that single row.

The acceptance probability after j letters is ((1/d) Re S(j mod p))^2 with
S the exponential sum of `analysis.spectrum`; `acceptance_sweep` reads
it from that kernel, and `step` stays the independent simulation the
tests hold it to.

One word needs only d cosines: `exp_sum`, `error_prob` and `run_word` are
pure `math` and live here, and this module loads numpy (and `analysis`)
only inside the functions that compute with arrays, so `simulate --j`
starts without numpy.  `analysis` does not import this module.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .coeffsets import CoefficientSet
from .record import Record

if TYPE_CHECKING:
    import numpy as np


def exp_sum(K: CoefficientSet, x: int) -> complex:
    """sum_j e(k_j x / p) with compensated (fsum) accumulation."""
    p = int(K.p)
    re = math.fsum(math.cos(2.0 * math.pi * (k * x % p) / p) for k in K.coefficients)
    im = math.fsum(math.sin(2.0 * math.pi * (k * x % p) / p) for k in K.coefficients)
    return complex(re, im)


def error_prob(K: CoefficientSet, x: int) -> float:
    """P_e = ((1/d) sum_j cos(2 pi k_j x / p))^2, from the real part of `exp_sum`."""
    if not (0 <= x < K.p):
        raise ValueError("x must lie in [0, p)")
    return (exp_sum(K, x).real / K.d) ** 2


class QfaState(Record):
    """``amplitudes`` has shape (d, 2): its columns are the q_{i,0} and q_{i,1}
    amplitudes of the d blocks."""

    __slots__ = ("coefficients", "amplitudes")
    __hash__ = None  # an array field has no hash

    def __eq__(self, other):
        import numpy as np
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.coefficients == other.coefficients
                and np.array_equal(self.amplitudes, other.amplitudes))

    def norm(self) -> float:
        return float((self.amplitudes ** 2).sum())


def initial_state(K: CoefficientSet) -> QfaState:
    """Uniform superposition 1/sqrt(d) over the q_{i,0} states."""
    import numpy as np
    amps = np.zeros((K.d, 2))
    amps[:, 0] = 1.0 / math.sqrt(K.d)
    return QfaState(K, amps)


def _rotation_columns(K: CoefficientSet) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np
    p = int(K.p)
    theta = 2.0 * np.pi * (np.asarray(K.coefficients, dtype=np.int64) % p) / p
    return np.cos(theta), np.sin(theta)


def step(state: QfaState) -> QfaState:
    """Apply the one-letter transition: block i rotates by 2 pi k_i / p."""
    import numpy as np
    cos, sin = _rotation_columns(state.coefficients)
    a0 = state.amplitudes[:, 0]
    a1 = state.amplitudes[:, 1]
    out = np.stack([a0 * cos - a1 * sin, a0 * sin + a1 * cos], axis=1)
    return QfaState(state.coefficients, out)


def accept_probability(state: QfaState) -> float:
    """|<psi_0|psi>|^2: probability of measuring the accepting state."""
    d = state.coefficients.d
    return float(state.amplitudes[:, 0].sum() / math.sqrt(d)) ** 2


def run_word(K: CoefficientSet, j: int) -> float:
    """Acceptance probability on the unary word a^j, in closed form:
    ((1/d) sum_i cos(2 pi k_i j / p))^2."""
    if j < 0:
        raise ValueError("word length must be nonnegative")
    return error_prob(K, j % int(K.p))


def acceptance_sweep(K: CoefficientSet) -> np.ndarray:
    """Accept probabilities for j in [0, p), in closed form ((1/d) Re S(j))^2."""
    from .analysis import spectrum
    return (spectrum(K).real / K.d) ** 2

