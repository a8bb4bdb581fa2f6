"""The 2d-state MOD_p automaton, stepped one letter at a time (test-only).

A state is a (d, 2) float array: its columns are the q_{i,0} and q_{i,1}
amplitudes of the d blocks.  The start is 1/sqrt(d) on every q_{i,0}, and
one letter rotates block i by 2 pi k_i / p.  The rotations are real, so
the amplitudes stay real.  Acceptance is the squared overlap with the start.

This is the independent simulation that `qfa`'s closed form and the
circuits' statevector are held to; it shares no kernel with either.
"""
import math

import numpy as np


def states(K, n):
    """The amplitudes after 0, 1, ..., n - 1 letters."""
    p = int(K.p)
    theta = 2.0 * np.pi * (np.asarray(K.coefficients, dtype=np.int64) % p) / p
    cos, sin = np.cos(theta), np.sin(theta)
    amps = np.zeros((K.d, 2))
    amps[:, 0] = 1.0 / math.sqrt(K.d)
    for _ in range(n):
        yield amps
        a0, a1 = amps[:, 0], amps[:, 1]
        amps = np.stack([a0 * cos - a1 * sin, a0 * sin + a1 * cos], axis=1)


def stepped_sweep(K, n):
    """Accept probabilities after 0, 1, ..., n - 1 letters."""
    return np.array([float(amps[:, 0].sum() / math.sqrt(K.d)) ** 2 for amps in states(K, n)])
