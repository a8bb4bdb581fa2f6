"""Gate-level IR for fingerprinting circuits.

A `Circuit` is an immutable record: a tuple of gates, checked against the
register once, and the ``style`` of the builder that made it ("" for one
made by hand).  Each builder checks its `CoefficientSet` K (`DomainError`
for a set its layout cannot take) and returns the circuit whole, in one
of three layouts:

* deep    -- one multi-controlled R_y(4 pi k_j x / p) per coefficient, the
             j-th gate controlled on the binary pattern of j-1,
* shallow -- an H layer and one rotation bank: a singly-controlled
             R_y(4 pi t_j x / p) per generator t_j of K.params["T"], then
             an uncontrolled R_y(4 pi t_0 x / p), t_0 = K.params["t0"]
             (default 0); K must be the subset sums of t_0 and T,
* aikps   -- per prime r in R, the same bank for t_0 = r^{-1} and
             generators 2^k r^{-1} (k < w - 1) on one shared target; R
             and s_max are rebuilt by `gen_aikps` from K's p and
             K.params["eps"], and K must equal the rebuilt set.  A bank's
             sums r^{-1} {1, ..., 2^(w-1)} are `gen_aikps`'s block only if
             s_max = 2^(w-1), and with no H layer or register over R the
             circuit does not prepare K's fingerprint (ROADMAP item 3).

Basis convention is little-endian: qubit q contributes bit q of the basis
index, so for deep/shallow circuits the control-register value equals the
coefficient index (subset bitmask) directly and the target qubit is the
highest bit.

Depth is greedy disjoint-support layering; the LNN CX cost is a declared
model per style (3 CX per singly-controlled rotation, d*ceil(log2 d) for
the deep multi-controlled bank), not a router.  It charges shallow's closing
R_y 3 CX and the same R_y in aikps none; `compare` and `--stats` pin it.

QASM lowering.  A run of consecutive controlled rotations on one target
with one tuple of control qubits is a single uniformly controlled R_y
(a multiplexor): whatever the polarities, it applies R_y(a[v]) to the
target when the controls read v.  `emit_qasm` lowers each run to 2^n R_y
and 2^n CX (Mottonen, Vartiainen, Bergholm and Salomaa 2004), so the
deep layout costs 2^m CX in all and no gate needs x conjugation.  A
singly-controlled rotation is the n = 1 case:
ry(theta/2) cx ry(-theta/2) cx.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterable

from . import coeffsets
from .coeffsets import CoefficientSet
from .errors import DomainError
from .record import Record


class Gate(Record):
    """One gate: ``kind`` is "h" or "ry"; ``controls`` holds
    (qubit, positive-polarity) pairs, and an ry with controls is a
    controlled rotation."""

    __slots__ = ("kind", "target", "angle", "controls")

    def __init__(self, kind: str, target: int, angle: float = 0.0,
                 controls: tuple[tuple[int, bool], ...] = ()):
        if kind not in ("h", "ry"):
            raise ValueError(f"unknown gate kind {kind!r}")
        if kind == "h" and controls:  # emit_qasm writes h uncontrolled
            raise ValueError("h takes no controls")
        if any(c == target for c, _ in controls):
            raise ValueError("control and target must differ")
        if not math.isfinite(angle):
            raise ValueError("angle must be finite")
        super().__init__(kind, target, angle, controls)

    @property
    def qubits(self) -> tuple[int, ...]:
        return tuple(c for c, _ in self.controls) + (self.target,)


class Circuit(Record):
    """A gate list on ``num_qubits`` wires, made whole; ``style`` is "deep",
    "shallow" or "aikps" for a builder's circuit and "" for a hand-made one."""

    __slots__ = ("num_qubits", "gates", "label", "style")

    def __init__(self, num_qubits: int, gates: Iterable[Gate] = (), label: str = "",
                 style: str = ""):
        gates = tuple(gates)
        if any(q >= num_qubits or q < 0 for gate in gates for q in gate.qubits):
            raise ValueError("gate touches a qubit outside the register")
        super().__init__(num_qubits, gates, label, style)


# Declared linear-nearest-neighbor CX budget per rotation construct.
CX_PER_CONTROLLED_RY_LNN = 3
CX_OVERHEAD_FINAL = 3


def _reduced_angle(k: int, x: int, p: int) -> float:
    # R_y has period 4 pi, so 4 pi * (k x mod p) / p is the same rotation
    # as 4 pi k x / p but with a small, precision-friendly argument.
    return 4.0 * math.pi * ((k * x) % p) / p


def _bank(target: int, first: int, t0: int, T: Iterable[int], x: int, p: int) -> list[Gate]:
    """The rotation bank of the subset sums of t0 and T: R_y(4 pi t x / p) per
    generator t, the j-th controlled on qubit first + j, then the uncontrolled
    closing R_y(4 pi t0 x / p), kept even for t0 = 0 for structural fidelity."""
    gates = [Gate("ry", target, _reduced_angle(t, x, p), ((first + j, True),))
             for j, t in enumerate(T)]
    gates.append(Gate("ry", target, _reduced_angle(t0, x, p)))
    return gates


def pad_pow2(K: CoefficientSet) -> CoefficientSet:
    """Pad K to a power-of-two size by repeating the last coefficient."""
    d = K.d
    if d & (d - 1) == 0:
        return K
    target = 1 << d.bit_length()
    coeffs = K.coefficients + (K.coefficients[-1],) * (target - d)
    return CoefficientSet(K.p, coeffs, K.method, K.params)


def build_deep(K: CoefficientSet, x: int) -> Circuit:
    """Deep layout: H layer then one pattern-controlled rotation per k_j."""
    padded = pad_pow2(K)
    d = padded.d
    m = d.bit_length() - 1
    p = int(K.p)
    label = f"deep[d={d},m={m}" + (f",padded_from={K.d}" if d != K.d else "") + "]"
    gates = [Gate("h", q) for q in range(m)]
    pairs = [((q, False), (q, True)) for q in range(m)]  # shared by every gate's controls
    for j, k in enumerate(padded.coefficients):
        controls = tuple(pair[(j >> q) & 1] for q, pair in enumerate(pairs))
        gates.append(Gate("ry", m, _reduced_angle(k, x, p), controls))
    return Circuit(m + 1, gates, label, "deep")


def build_shallow(K: CoefficientSet, x: int) -> Circuit:
    """Shallow layout: one singly-controlled rotation per generator in K.params["T"]."""
    if "T" not in K.params:
        raise DomainError("shallow circuit needs a subset-sum set (gap/optimized "
                          "shallow output with generators)")
    t0, T = K.params.get("t0", 0), K.params["T"]
    if K.coefficients != coeffsets.expand_subset_sums(t0, T, K.p).coefficients:
        raise DomainError("shallow circuit needs coefficients equal to the subset sums "
                          "of t0 and generators")
    m = len(T)
    gates = [Gate("h", q) for q in range(m)] + _bank(m, 0, t0, T, x, int(K.p))
    return Circuit(m + 1, gates, f"shallow[m={m}]", "shallow")


def build_aikps(K: CoefficientSet, x: int) -> Circuit:
    """AIKPS layout: per prime r in R, the bank of t0 = r^{-1} and generators
    2^k r^{-1} on one target; R and s_max come from `gen_aikps` at K's p, eps."""
    eps = K.params.get("eps")
    if K.method != "aikps" or type(eps) not in (int, float):  # not bool
        raise DomainError("aikps circuit needs a set generated by --method aikps")
    rebuilt = coeffsets.gen_aikps(K.p, eps)
    if K.coefficients != rebuilt.coefficients:
        raise DomainError("aikps circuit needs coefficients equal to the set rebuilt "
                          "from p and eps")
    p = int(K.p)
    R = rebuilt.params["R"]
    n_ctrl = max(1, (rebuilt.params["s_max"] - 1).bit_length())  # bits to index 1..s_max
    target = len(R) * n_ctrl
    gates = []
    for b, r in enumerate(R):
        r_inv = pow(r, -1, p)
        T = [(r_inv << k) % p for k in range(n_ctrl)]
        gates += _bank(target, b * n_ctrl, r_inv, T, x, p)
    return Circuit(target + 1, gates, f"aikps[eps={eps:g},blocks={len(R)},w={n_ctrl + 1}]",
                   "aikps")


def depth(c: Circuit) -> int:
    """Greedy layering: gates with disjoint qubit support share a layer."""
    last = [0] * c.num_qubits
    top = 0
    for gate in c.gates:
        layer = max(last[q] for q in gate.qubits) + 1
        for q in gate.qubits:
            last[q] = layer
        top = max(top, layer)
    return top


def cx_count_lnn(c: Circuit) -> int:
    """Declared LNN CX cost; the model is the one of the circuit's style."""
    n_ctrl = sum(1 for g in c.gates if g.controls)
    if c.style == "shallow":
        return n_ctrl * CX_PER_CONTROLLED_RY_LNN + CX_OVERHEAD_FINAL
    if c.style == "deep":
        # nearest-neighbor decomposition of the d-rotation controlled bank
        return n_ctrl * math.ceil(math.log2(n_ctrl)) if n_ctrl > 1 else n_ctrl
    if c.style == "aikps":
        return n_ctrl * CX_PER_CONTROLLED_RY_LNN
    raise ValueError(f"no LNN cost model for circuit style {c.style!r}")


def stats(c: Circuit) -> dict:
    return {
        "label": c.label,
        "num_qubits": c.num_qubits,
        "gates": len(c.gates),
        "depth": depth(c),
        "cx_lnn": cx_count_lnn(c),
    }


# --- OpenQASM 2.0 emission -------------------------------------------------

def _fmt(angle: float) -> str:
    return f"{angle:.17g}"


def _multiplexor_angles(run: list[Gate]) -> list[float]:
    """Gray-ordered R_y angles of the multiplexor formed by ``run``.

    a[v] is the total angle of the gates whose polarity pattern is v (bit b
    set when control b is positive).  Before R_y(phi_k) the CX ladder has
    flipped the target gray(k) . v times (mod 2) when the controls read v,
    and X R_y(phi) X = R_y(-phi), so v sees sum_k (-1)^(gray(k) . v) phi_k.
    That is a[v] when phi is the Walsh-Hadamard transform of a over 2^n,
    read in Gray-code order.
    """
    size = 1 << len(run[0].controls)
    a = [0.0] * size
    for gate in run:
        a[sum(1 << b for b, (_, pol) in enumerate(gate.controls) if pol)] += gate.angle
    h = 1
    while h < size:
        for i in range(0, size, 2 * h):
            for j in range(i, i + h):
                u, v = a[j], a[j + h]
                # -(v - u) equals u - v except that it gives -0 for u == v, so
                # a lone rotation by 0 still lowers to ry(0) cx ry(-0) cx
                a[j], a[j + h] = u + v, -(v - u)
        h *= 2
    return [a[k ^ (k >> 1)] / size for k in range(size)]


def _emit_multiplexor(lines: list[str], run: list[Gate]) -> None:
    """2^n R_y and 2^n CX; CX k comes from control ruler(k + 1), the last
    from control n - 1, so the X-parities cancel at the end."""
    target = run[0].target
    controls = [q for q, _ in run[0].controls]
    last = len(controls) - 1
    for k, phi in enumerate(_multiplexor_angles(run)):
        lines.append(f"ry({_fmt(phi)}) q[{target}];")
        ctrl_bit = ((k + 1) & -(k + 1)).bit_length() - 1  # ruler sequence
        lines.append(f"cx q[{controls[min(ctrl_bit, last)]}],q[{target}];")


def _run_key(gate: Gate) -> tuple | None:
    if not gate.controls:
        return None
    return gate.target, tuple(q for q, _ in gate.controls)


def emit_qasm(c: Circuit) -> str:
    """OpenQASM 2.0 text using only h, ry and cx from qelib1.

    Each run of consecutive controlled ry gates sharing a target and a
    tuple of control qubits is emitted as one multiplexor (2^n R_y, 2^n
    CX), so the output is consumable by any QASM 2.0 simulator.  Emission is
    byte-stable for a fixed circuit (fixed ordering, angles at 17
    significant digits).
    """
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{c.num_qubits}];",
    ]
    for key, group in itertools.groupby(c.gates, key=_run_key):
        if key is not None:
            _emit_multiplexor(lines, list(group))
            continue
        for gate in group:
            if gate.kind == "h":
                lines.append(f"h q[{gate.target}];")
            else:
                lines.append(f"ry({_fmt(gate.angle)}) q[{gate.target}];")
    return "\n".join(lines) + "\n"
