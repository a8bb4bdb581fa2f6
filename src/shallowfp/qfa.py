"""Acceptance of the 2d-state MOD_p automaton, in closed form.

The automaton keeps d independent 2-dimensional blocks; reading one letter
rotates block i by 2 pi k_i / p, and acceptance after the end-marker is the
squared overlap with the initial state.  So the acceptance probability after
j letters is ((1/d) Re S(j mod p))^2, with S the exponential sum of
`analysis.spectrum`.  The tests hold this closed form to the automaton
stepped one letter at a time (`tests/automaton.py`) and to the circuits'
statevector.

One word needs only d cosines: `run_word` is pure `math`, so `simulate --j`
starts without the array modules; `acceptance_sweep` reads the whole sweep
from the `analysis` kernel, which it imports when called.  `analysis` does
not import this module.
"""
from __future__ import annotations

import math

from .coeffsets import CoefficientSet


def run_word(K: CoefficientSet, j: int) -> float:
    """Acceptance probability on the unary word a^j:
    ((1/d) sum_i cos(2 pi k_i x / p))^2 at x = j mod p, summed with fsum."""
    if j < 0:
        raise ValueError("word length must be nonnegative")
    p = int(K.p)
    x = j % p
    return (math.fsum(math.cos(2.0 * math.pi * (k * x % p) / p) for k in K.coefficients)
            / K.d) ** 2


def acceptance_sweep(K: CoefficientSet):
    """Accept probabilities for j in [0, p), in closed form ((1/d) Re S(j))^2."""
    from .analysis import spectrum
    return (spectrum(K).real / K.d) ** 2
