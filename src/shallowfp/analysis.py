"""Exact spectral and combinatorial analysis of coefficient sets.

The worst-case error

    eps(K) = max_{x != 0} |sum_j e(k_j x / p)|^2 / d^2

is the square of the epsilon of an epsilon-good set:

    epsilon(K) = (1/d) max_{x != 0} |sum_j e(k_j x / p)|,   eps(K) = epsilon(K)^2.

Bounds on epsilon-good sets are stated in epsilon, and so is the Fourier
bias (epsilon = (p/d) * bias).  The bound checks `analyze` reports are the
two inequalities of the bias-energy chain, for sets without repeats.

One kernel computes the exponential sum: `spectrum(K)` returns
S(x) = sum_j e(k_j x / p) for every x in [0, p), the conjugated length-p
DFT of the multiplicity vector bincount(K) (numpy's FFT, which handles a
prime length with Bluestein's chirp-z transform).  It costs O(p log p),
and each entry is within about 1e-16 * log2(p) * d of the exact sum.  eps,
its argmax, the Fourier bias, the additive energy, the spectrum rows and
the acceptance sweep of `qfa` all derive from it.

eps and the bias are read from one direct sum, not from FFT values.
Since |S(p - x)| = |S(x)|, x and p - x are one answer, so only one member
of each conjugate pair is read.  The argmax x is the smallest x in
[1, max(1, (p - 1)/2)] whose FFT |S(x)| lies within 1e-12 * d of that
half's FFT maximum: a tie tolerance far above the FFT error (at most
4.2e-15 * d measured within the caps) and far below the smallest gap
measured between distinct peak values of the tested sets (6.6e-7 * d).
So exact ties, such as d = 1 or the full residue set, resolve to the
smallest x whatever the rounding.  At that x, |S(x)| is summed directly
as |sum_j W[k_j x mod p]|, with phases looked up in a table W of the
p-th roots of unity, so every angle stays in [0, 2 pi) regardless of the
size of k * x; eps = (|S(x)|/d)^2 and bias = |S(x)|/p.  A peak costs
O(p log p + d).  The direct sums of a conjugate pair, or of two tied x,
may differ in the last bit, so eps can differ from the maximum over all
x != 0 by that much.

Length-p tables (the kernel and the representation-count vector) are
refused for p > TABLE_MAX_P = 2^22 with `DomainError`; see
TABLE_MAX_P for the memory this bounds.  The representation counts R_n
are one inverse DFT of the squared kernel, rounded to integers after a
check that every entry lies within 1/4 of one and that they sum to d^2;
the largest distance measured within the caps (2^22 copies of one
residue) is 0.035.  So the additive energy sum_n R_n^2 is an exact integer.
"""
from __future__ import annotations

import numpy as np

from .coeffsets import CoefficientSet
from .errors import DomainError
from .record import Record

# Largest modulus for which a length-p table is built.  The kernel's peak
# is about 160 bytes per unit of p, most of it scratch of numpy's
# Bluestein FFT, and the energy's inverse transform, run while the kernel
# is held, adds about 16 (measured as max-RSS growth, numpy 2.4): a peak
# of about 0.73 GB for `analyze` of a small set at the cap.
TABLE_MAX_P = 1 << 22

# FFT magnitudes within this multiple of d below the FFT maximum tie with
# it; the FFT error is about 1e-16 * log2(p) * d.
_TIE_TOLERANCE = 1e-12

# Absolute slack of the bias-energy inequalities, far above their roundoff.
_CHAIN_SLACK = 1e-9


class BoundCheck(Record):
    __slots__ = ("name", "lhs", "rhs", "holds")


class AnalysisReport(Record):
    """The `analyze` report; its fields, in order, are the keys of the JSON.
    ``energy`` is the additive energy, ``bias`` the Fourier bias
    max_{xi != 0} |hat(1_K)(xi)| = |S(xi)| / p, with
    hat(1_K)(xi) = (1/p) sum_k e(-xi k / p), and ``bounds`` a tuple of
    `BoundCheck`."""

    __slots__ = ("p", "d", "epsilon", "argmax_x", "energy", "bias", "density", "bounds")

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "bounds": [check._asdict() for check in self.bounds]}


def roots_of_unity(p: int) -> np.ndarray:
    """Table W[r] = e(r / p) = exp(2 pi i r / p) for r in [0, p)."""
    return np.exp(2j * np.pi * np.arange(p) / p)


def check_table_size(p: int) -> None:
    if p > TABLE_MAX_P:
        raise DomainError(f"p = {p} exceeds the cap p <= 2^22 on length-p tables")


def spectrum(K: CoefficientSet) -> np.ndarray:
    """S(x) = sum_j e(k_j x / p) for x in [0, p), multiplicity respected.

    The conjugated DFT of the multiplicity vector: numpy's forward
    transform uses e(-n x / p).  S(0) = d is set exactly.
    """
    p = int(K.p)
    check_table_size(p)
    S = np.fft.fft(np.bincount(np.asarray(K.coefficients, dtype=np.int64), minlength=p))
    np.conjugate(S, out=S)
    S[0] = K.d
    return S


def _peak(K: CoefficientSet, S: np.ndarray) -> tuple[float, int, float]:
    """(eps, x, bias) at the smallest x in [1, max(1, (p-1)/2)], one of each
    conjugate pair, whose kernel value |S(x)| ties with the largest there,
    from one direct sum of d terms in the roots table."""
    p = int(K.p)
    mag = np.abs(S[1:max(1, (p - 1) // 2) + 1])
    x = int(np.argmax(mag >= mag.max() - _TIE_TOLERANCE * K.d)) + 1
    ks = np.asarray(K.coefficients, dtype=np.int64)
    total = float(np.abs(roots_of_unity(p)[ks * x % p].sum()))
    ratio = total / K.d
    return ratio * ratio, x, total / p  # one rounded product, as numpy squares


def epsilon_of(K: CoefficientSet) -> tuple[float, int]:
    """Worst-case error eps(K) and its argmax x in [1, max(1, (p-1)/2)].

    x = 0 is excluded: there the sum is trivially d for every K, while the
    quantity's role is bounding the acceptance probability on words whose
    length is not divisible by p.  The tie rule is the module's: the
    smallest x <= (p-1)/2 whose FFT |S(x)| lies within 1e-12 * d of the
    largest there (p - x attains the same eps); eps is (|S(x)|/d)^2 from a
    direct sum at that x.
    """
    eps, x, _ = _peak(K, spectrum(K))
    return eps, x


def _rep_count_vector(A: CoefficientSet, S: np.ndarray | None = None) -> np.ndarray:
    """R_n(A) = #{(a, b) in A x A : a + b = n mod p}, as a length-p vector:
    the inverse DFT of conj(S)^2, S = `spectrum(A)`, checked and rounded."""
    F = np.conjugate(spectrum(A) if S is None else S)
    F *= F
    conv = np.fft.ifft(F).real
    R = np.rint(conv)
    if np.abs(conv - R).max() >= 0.25 or int(R.sum()) != A.d ** 2:
        raise ArithmeticError("representation counts failed their rounding check")
    return R.astype(np.int64)


def additive_energy(A: CoefficientSet, S: np.ndarray | None = None) -> int:
    """E(A) = sum_n R_n(A)^2; quadruple count with a + b = a' + b'.
    ``S`` is `spectrum(A)`, built here if not given."""
    vec = _rep_count_vector(A, S)
    # sum_n R_n^2 <= max R * sum_n R_n = max R * d^2, and below 2^63 the
    # int64 dot product is exact.  A set has max R <= d, so only a set with
    # d >= 2^21, or a multiset with heavy repeats (max R up to d^2), can pass
    # the bound; its sum is taken in Python ints.
    if int(vec.max()) * A.d ** 2 < 1 << 63:
        return int(vec @ vec)
    return sum(c * c for c in vec.tolist())


def _bias_energy_checks(A: CoefficientSet, bias: float, energy: int) -> tuple[BoundCheck, ...]:
    """Both inequalities of the bias-energy sandwich for a genuine set A:

        ||A||_U^4  <=  E(A,A)/p^3 - (|A|/p)^4  <=  ||A||_U^2 * |A|/p
    """
    p = int(A.p)
    prob = A.d / p
    mid = energy / p ** 3 - prob ** 4
    lower = BoundCheck("bias^4 <= E/p^3 - density^4", bias ** 4, mid,
                       bias ** 4 <= mid + _CHAIN_SLACK)
    upper = BoundCheck("E/p^3 - density^4 <= bias^2 * density", mid, bias ** 2 * prob,
                       mid <= bias ** 2 * prob + _CHAIN_SLACK)
    return lower, upper


def analyze(K: CoefficientSet, S: np.ndarray | None = None) -> AnalysisReport:
    """Full report: eps, argmax, energy, bias, density, and for a set
    without repeats the two checks of the bias-energy chain.

    eps, argmax, bias and the energy derive from one kernel ``S`` =
    `spectrum(K)`, built here if not given.
    """
    p = int(K.p)
    S = spectrum(K) if S is None else S
    eps, argmax, bias = _peak(K, S)
    energy = additive_energy(K, S)
    checks = _bias_energy_checks(K, bias, energy) if len(set(K.coefficients)) == K.d else ()
    return AnalysisReport(p, K.d, eps, argmax, energy, bias, K.d / p, checks)


def spectrum_rows(K: CoefficientSet, S: np.ndarray | None = None):
    """Yield (x, re, im, magnitude2, error_prob) for every x in [0, p), from
    the kernel ``S`` = `spectrum(K)` (built here if not given)."""
    S = spectrum(K) if S is None else S
    re, im = S.real, S.imag
    mag2 = re * re + im * im
    pe = (re / K.d) ** 2
    step = 1 << 16  # rows converted to Python floats at a time
    for lo in range(0, S.size, step):
        hi = min(lo + step, S.size)
        yield from zip(range(lo, hi), re[lo:hi].tolist(), im[lo:hi].tolist(),
                       mag2[lo:hi].tolist(), pe[lo:hi].tolist())
