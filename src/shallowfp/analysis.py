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

eps and the bias are reported from direct sums, not from FFT values.
Since |S(p - x)| = |S(x)|, x and p - x are one answer, so only one member
of each conjugate pair is read: every x in [1, max(1, (p - 1)/2)] whose
FFT |S(x)| lies within 1e-9 * d of that half's FFT maximum is rescored as
|sum_j W[k_j x mod p]|, with phases looked up in a table W of the p-th
roots of unity, so every angle stays in [0, 2 pi) regardless of the size
of k * x.  The window is far wider than the FFT error, so it holds every
x whose direct value could be the largest, and the results equal those of
a direct sweep over the same half.  The reported argmax is the smallest
x <= (p - 1)/2 whose directly computed (|S(x)|/d)^2 is largest.  The two
direct sums of a conjugate pair may differ in the last bit, so eps can
differ from the maximum over all x != 0 by that much.  When many x tie
(d = 1, the full residue set) every x of the half is rescored.

Length-p tables (the kernel and the representation-count vector) are
refused for p > TABLE_MAX_P = 2^22 with `TableTooLargeError`; see
TABLE_MAX_P for the memory this bounds.  The representation counts R_n
are one inverse DFT of the squared kernel, rounded to integers after a
check that every entry lies within 1/4 of one and that they sum to d^2;
the largest distance measured within the caps (2^22 copies of one
residue) is 0.035.  So the additive energy sum_n R_n^2 is an exact integer.
"""
from __future__ import annotations

import numpy as np

from .coeffsets import CoefficientSet
from .errors import TableTooLargeError
from .record import Record

# Element count of one chunk of the (rows x d) phase matrix of the direct
# rescoring; keeps it in bounded memory.
_CHUNK_ELEMS = 1 << 22

# Largest modulus for which a length-p table is built.  The kernel's peak
# is about 160 bytes per unit of p, most of it scratch of numpy's
# Bluestein FFT, and the energy's inverse transform, run while the kernel
# is held, adds about 16 (measured as max-RSS growth, numpy 2.4): a peak
# of about 0.73 GB for `analyze` of a small set at the cap.
TABLE_MAX_P = 1 << 22

# FFT magnitudes within this multiple of d below the FFT maximum are
# rescored directly; the FFT error is about 1e-16 * log2(p) * d.
_RESCORE_WINDOW = 1e-9

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
        raise TableTooLargeError(f"p = {p} exceeds the cap p <= 2^22 on length-p tables")


def _multiplicity_vector(A: CoefficientSet) -> np.ndarray:
    return np.bincount(np.asarray(A.coefficients, dtype=np.int64), minlength=int(A.p))


def spectrum(K: CoefficientSet) -> np.ndarray:
    """S(x) = sum_j e(k_j x / p) for x in [0, p), multiplicity respected.

    The conjugated DFT of the multiplicity vector: numpy's forward
    transform uses e(-n x / p).  S(0) = d is set exactly.
    """
    p = int(K.p)
    check_table_size(p)
    S = np.fft.fft(_multiplicity_vector(K))
    np.conjugate(S, out=S)
    S[0] = K.d
    return S


def _abs_sums(K: CoefficientSet, xs: np.ndarray) -> np.ndarray:
    """|sum_j e(k_j x / p)| for each x in xs, summed directly in the roots table."""
    p = int(K.p)
    ks = np.asarray(K.coefficients, dtype=np.int64)
    W = roots_of_unity(p)
    out = np.empty(xs.size)
    step = max(1, _CHUNK_ELEMS // max(1, K.d))
    for lo in range(0, xs.size, step):
        chunk = xs[lo:lo + step]
        idx = (chunk[:, None] * ks[None, :]) % p
        out[lo:lo + step] = np.abs(W[idx].sum(axis=1))
    return out


def _peak(K: CoefficientSet, S: np.ndarray) -> tuple[float, int, float]:
    """(eps, smallest maximizing x, bias) from direct sums at the x in
    [1, max(1, (p-1)/2)], one of each conjugate pair, whose kernel value
    |S(x)| is within the rescoring window of the largest there."""
    p = int(K.p)
    mag = np.abs(S[1:max(1, (p - 1) // 2) + 1])
    xs = np.flatnonzero(mag >= mag.max() - _RESCORE_WINDOW * K.d) + 1
    sums = _abs_sums(K, xs)
    vals = (sums / K.d) ** 2
    i = int(np.argmax(vals))  # first occurrence = smallest x
    return float(vals[i]), int(xs[i]), float(sums.max()) / p


def epsilon_of(K: CoefficientSet) -> tuple[float, int]:
    """Worst-case error eps(K) and its argmax x in [1, max(1, (p-1)/2)].

    x = 0 is excluded: there the sum is trivially d for every K, while the
    quantity's role is bounding the acceptance probability on words whose
    length is not divisible by p.  The tie rule is the module's: the
    smallest x <= (p-1)/2 whose directly computed (|S(x)|/d)^2 is largest
    (p - x attains the same eps).
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
