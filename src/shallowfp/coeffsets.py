"""Construction and serialization of rotation-coefficient sets.

A coefficient set K = (k_1, ..., k_d) over Z_p drives the d two-dimensional
rotations of the MOD_p automaton.  `CoefficientSet` is the one type every
generator returns and every circuit builder takes; the structure a builder
needs lives in ``params``: ``t0`` and ``T`` (the generators) for subset-sum
sets, ``eps``, ``R`` (the small primes) and ``s_max`` for AIKPS sets.
Supported constructions:

* cyclic     -- powers of the smallest primitive root,
* aikps      -- products s * r^{-1} for small primes r and small s,
* gap        -- subset sums of m generators, searched until the associated
                3^m-point progression is proper,
* random     -- seeded uniform draws from [1, p-1].

All generators are deterministic functions of (p, parameters, seed); the
seeded ones use the SplitMix64 stream documented in rng.py.
"""
from __future__ import annotations

import math
from typing import Sequence

from .errors import DomainError
from .record import Record
from .rng import SplitMix64
from .zmod import PrimeModulus, is_prime, primitive_root

_MAX_GAP_DIM = 16


def check_gap_dim(m: int) -> None:
    """Refuse more than 16 generators, the cap of every properness check,
    subset-sum expansion and shallow search."""
    if m > _MAX_GAP_DIM:
        raise DomainError(f"GAP dimension capped at {_MAX_GAP_DIM} "
                          f"(m <= {_MAX_GAP_DIM}), got m={m}")


# Cap on the size of every generated set, checked before any draw or scan.
# AIKPS checks its bound floor(hi) * s_max (|R| <= floor(hi), so
# d <= floor(hi) * s_max) against it before the prime scan.  Every benchmark
# and test set (AIKPS eps <= 1 at p <= 10^6) lies below it.
_MAX_SET_SIZE = 1 << 22


def _check_set_size(d: int) -> None:
    if d > _MAX_SET_SIZE:
        raise DomainError(f"set size d={d} exceeds the cap d <= 2^22")


def _json_int(data: dict, key: str) -> int:
    value = data[key]
    if type(value) is not int:  # bool is an int subclass, and not a residue
        raise DomainError(
            f"field {key!r} must be an integer, got {type(value).__name__}")
    return value


def _json_ints(data: dict, key: str) -> tuple[int, ...]:
    values = data[key]
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise DomainError(f"field {key!r} must be a list of integers")
    return tuple(values)


class CoefficientSet(Record):
    """An ordered multiset of rotation coefficients with its provenance;
    ``p`` is kept as a `PrimeModulus`."""

    __slots__ = ("p", "coefficients", "method", "params")

    def __init__(self, p: int, coefficients: tuple[int, ...], method: str = "explicit",
                 params: dict | None = None):
        if not isinstance(p, PrimeModulus):
            p = PrimeModulus(p)
        if len(coefficients) == 0:
            raise DomainError("coefficient set must be non-empty")
        if any(not (0 <= k < p) for k in coefficients):
            raise DomainError(f"coefficients must lie in [0, p) for p={int(p)}")
        super().__init__(p, coefficients, method, {} if params is None else params)

    def __hash__(self):  # params is a dict; equal sets agree on the other fields
        return hash((self.p, self.coefficients, self.method))

    @property
    def d(self) -> int:
        return len(self.coefficients)

    def to_json_dict(self) -> dict:
        # Field order fixed: p, method, params, coefficients, then optional
        # t0 / generators for subset-sum sets.
        out = {
            "p": int(self.p),
            "method": self.method,
            "params": {k: v for k, v in self.params.items() if k not in ("t0", "T")},
            "coefficients": [int(k) for k in self.coefficients],
        }
        if "t0" in self.params:
            out["t0"] = int(self.params["t0"])
        if "T" in self.params:
            out["generators"] = [int(t) for t in self.params["T"]]
        return out

    @classmethod
    def from_json_dict(cls, data) -> "CoefficientSet":
        """Inverse of `to_json_dict`; a missing or mistyped field raises
        `DomainError`."""
        if not isinstance(data, dict):
            raise DomainError("coefficient file must hold a JSON object")
        missing = [key for key in ("p", "coefficients") if key not in data]
        if missing:
            raise DomainError(f"coefficient file lacks field {missing[0]!r}")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise DomainError("field 'params' must be a JSON object")
        # t0 and T come only from their own fields, as to_json_dict writes them
        params = {k: v for k, v in params.items() if k not in ("t0", "T")}
        if "t0" in data:
            params["t0"] = _json_int(data, "t0")
        if "generators" in data:
            params["T"] = _json_ints(data, "generators")
        method = data.get("method", "explicit")
        if not isinstance(method, str):  # records hash their method
            raise DomainError("field 'method' must be a string")
        return cls(_json_int(data, "p"), _json_ints(data, "coefficients"), method, params)


class GapFingerprint(Record):
    """The result of the proper-GAP search.

    ``expanded`` is the subset-sum set A = { t_0 + sum(S) mod p | S subseteq T }
    in subset-bitmask order, with t_0 and T in its ``params``; ``tries`` is
    the number of draws the search made, the accepted one included.  The
    search accepts a draw only when the 3^m progression
    B = { 2 t_0 + sum n_i t_i | n_i in {0,1,2} } is proper mod p.
    """

    __slots__ = ("expanded", "tries")


def gen_cyclic(p: int, d: int) -> CoefficientSet:
    """k_i = g^i mod p for i = 1..d, g the smallest primitive root."""
    p = PrimeModulus(p)
    if not (1 <= d <= p - 1):
        raise DomainError(f"cyclic set needs 1 <= d <= p-1, got d={d}, p={int(p)}")
    _check_set_size(d)
    g = primitive_root(p)
    coeffs = []
    v = 1
    for _ in range(d):
        v = v * g % p
        coeffs.append(v)
    return CoefficientSet(p, tuple(coeffs), "cyclic", {"g": g})


def gen_aikps(p: int, eps: float) -> CoefficientSet:
    """AIKPS set for the given eps > 0: coefficients s * r^{-1} mod p.

    r runs over the primes strictly inside ((log2 p)^{1+eps} / 2,
    (log2 p)^{1+eps}) other than p, which has no inverse mod p, and s over
    1 .. floor((log2 p)^{1+2 eps}); ``params`` holds eps, R (the primes r)
    and s_max.  Sizes whose bound
    floor((log2 p)^{1+eps}) * s_max exceeds the 2^22 set-size cap are
    refused before the prime scan.
    """
    p = PrimeModulus(p)
    if not 0 < eps < math.inf:
        raise DomainError(f"AIKPS eps must be positive and finite, got {eps}")
    if p < 5:
        raise DomainError(f"AIKPS construction needs p >= 5, got p={int(p)}")
    log2p = math.log2(p)
    fits = (2.0 + 3.0 * eps) * math.log2(log2p) <= 64.0  # else a power overflows
    if fits:
        hi = log2p ** (1.0 + eps)
        s_max = math.floor(log2p ** (1.0 + 2.0 * eps))
        fits = math.floor(hi) * s_max <= _MAX_SET_SIZE
    if not fits:
        raise DomainError(f"AIKPS size bound floor(hi) * s_max exceeds "
                          f"{_MAX_SET_SIZE} for p={int(p)}, eps={eps}")
    lo = hi / 2.0
    r_primes = tuple(r for r in range(2, math.floor(hi) + 1)
                     if lo < r < hi and r != p and is_prime(r))
    if not r_primes:
        raise DomainError(f"no prime other than p in the AIKPS interval "
                          f"({lo:.6g}, {hi:.6g}) for p={int(p)}, eps={eps}")
    coeffs = []
    for r in r_primes:
        r_inv = pow(r, -1, p)
        coeffs.extend(s * r_inv % p for s in range(1, s_max + 1))
    return CoefficientSet(p, tuple(coeffs), "aikps",
                          {"eps": eps, "R": list(r_primes), "s_max": s_max})


def is_proper_gap(t0: int, generators: Sequence[int], p: int) -> bool:
    """True iff all 3^m values 2 t_0 + sum n_i t_i (n_i in {0,1,2}) are distinct mod p.

    Difference criterion: two values collide iff their digit vectors differ
    by a nonzero c in {-2, ..., 2}^m with sum c_i t_i = 0 mod p, so t_0
    cancels.  The check is an incremental meet in the middle that stops at
    the first such c.  Generator k joins side k % 2, and each side keeps
    the sums sum c_i t_i mod p over its generators so far as a list and a
    set, 0 included.  The sums that generator k adds to its side are those
    with c_k != 0, so a collision whose last nonzero index is k shows up
    right then: a + b = 0 with a new on side k % 2 and b on the other side,
    and the other side's set holds -b = a because it is closed under
    negation.  By the same symmetry only the c_k = 1 and c_k = 2 sums are
    looked up; the c_k = -1 and -2 sums are their negations and are only
    stored.  Generator m - 2 is the last of its side, so its sums go into
    that side's set alone, without their negations.  The last generator
    therefore looks up all four nonzero c_k (a new sum a is the negation
    of a stored sum iff the new sum -a is stored), and it stores nothing.
    A side holds at most 5^floor(m/2) sums instead of the 3^m values.

    Residues are Python ints kept in [0, p), so the check is exact at every p.
    """
    m = len(generators)
    if m < 1:
        raise DomainError("need at least one generator")
    check_gap_dim(m)
    sums = ([0], [0])
    seen = ({0}, {0})
    for k, t in enumerate(generators):
        own, other = sums[k % 2], seen[1 - k % 2]
        shifts = [t % p, 2 * t % p]
        if k == m - 1:
            shifts += [-t % p, -2 * t % p]
        new = []
        for u in shifts:
            chunk = [(v + u) % p for v in own]
            if not other.isdisjoint(chunk):
                return False
            new += chunk
        if k < m - 2:
            new += [p - v for v in new]  # no new sum is 0, which the other set holds
            own += new
        if k < m - 1:
            seen[k % 2].update(new)
    return True


def expand_subset_sums(t0: int, generators: Sequence[int], p: int) -> CoefficientSet:
    """All 2^|T| sums t_0 + sum(S) mod p, in subset-bitmask order.

    Bit i of the mask selects generator t_{i+1}.
    """
    check_gap_dim(len(generators))
    sums = [t0 % p]
    for t in generators:  # doubling trick keeps bitmask order: bit i appended at stage i
        sums = sums + [(v + t) % p for v in sums]
    return CoefficientSet(p, tuple(sums), "gap",
                          {"t0": t0 % p, "T": tuple(t % p for t in generators)})


def gen_gap(p: int, m: int, seed: int, max_tries: int = 1000) -> GapFingerprint:
    """Seeded rejection search for a proper GAP of dimension m in Z_p.

    t_0 is drawn uniformly from [0, p), each generator from [1, p); the
    first draw whose progression B is proper (mod p) is kept.  Each of the
    (5^m - 1)/2 differences c up to sign vanishes mod p with probability
    about 1/p, so a draw is proper with probability about
    exp(-(5^m - 1)/(2p)); where that exponent exceeds 50, the search is
    refused before the first draw.
    """
    p = PrimeModulus(p)
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    check_gap_dim(m)
    if 3 ** m > p:
        raise DomainError(
            f"hypothesis unsatisfiable in Z_p: 3^{m} = {3 ** m} > p = {int(p)}")
    if max_tries < 1:
        raise DomainError(f"max_tries must be positive, got {max_tries}")
    if 5 ** m - 1 > 100 * p:
        raise DomainError(
            f"proper GAP out of reach for p={int(p)}, m={m}: a draw is proper with "
            f"probability about exp(-(5^m - 1)/(2p)) = exp(-{(5 ** m - 1) / (2 * p):.0f}), "
            f"and the search is refused when (5^m - 1)/(2p) > 50")
    rng = SplitMix64(seed)
    for attempt in range(1, max_tries + 1):
        t0 = rng.below(p)
        gens = tuple(rng.in_range(1, p) for _ in range(m))
        if is_proper_gap(t0, gens, p):
            K = expand_subset_sums(t0, gens, p)
            return GapFingerprint(CoefficientSet(p, K.coefficients, K.method,
                                                 {**K.params, "seed": seed}), attempt)
    raise DomainError(
        f"no proper GAP found for p={int(p)}, m={m} in {max_tries} tries (seed {seed})")


def gen_random(p: int, d: int, seed: int) -> CoefficientSet:
    """d seeded uniform draws from [1, p-1]; duplicates allowed."""
    p = PrimeModulus(p)
    if d < 1:
        raise DomainError("d must be positive")
    _check_set_size(d)
    rng = SplitMix64(seed)
    coeffs = tuple(rng.in_range(1, p) for _ in range(d))
    return CoefficientSet(p, coeffs, "random", {"seed": seed})
