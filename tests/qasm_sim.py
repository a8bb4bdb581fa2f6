"""Independent OpenQASM 2.0 re-simulator used to round-trip emitted circuits.

Supports exactly the dialect the emitter produces: h, ry(theta), cx; any
other op (x included) is rejected.
Deliberately separate from the package's own statevector path except for
the little-endian basis convention, which both sides share.
"""
import re

import numpy as np

_LINE = re.compile(r"^(\w+)(?:\(([^)]*)\))?\s+(.*);$")


def _apply_1q(state: np.ndarray, mat: np.ndarray, q: int, n: int) -> np.ndarray:
    state = state.reshape([2] * n)
    # little-endian: qubit q is axis n-1-q after reshape
    axis = n - 1 - q
    state = np.moveaxis(state, axis, 0)
    state = np.tensordot(mat, state, axes=([1], [0]))
    return np.moveaxis(state, 0, axis).reshape(-1)


def _apply_cx(state: np.ndarray, ctrl: int, tgt: int, n: int) -> np.ndarray:
    idx = np.arange(state.size)
    sel = ((idx >> ctrl) & 1) == 1
    i0 = idx[sel & (((idx >> tgt) & 1) == 0)]
    i1 = i0 | (1 << tgt)
    out = state.copy()
    out[i0], out[i1] = state[i1], state[i0]
    return out


def simulate_qasm(text: str) -> np.ndarray:
    n = None
    state = None
    h_mat = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("OPENQASM", "include", "//")):
            continue
        m = _LINE.match(line)
        if m is None:
            raise ValueError(f"unparseable line: {line!r}")
        op, arg, operands = m.groups()
        qubits = [int(v) for v in re.findall(r"q\[(\d+)\]", operands)]
        if op == "qreg":
            n = int(re.search(r"\[(\d+)\]", operands).group(1))
            state = np.zeros(1 << n)
            state[0] = 1.0
            continue
        if state is None:
            raise ValueError("gate before qreg declaration")
        if op == "h":
            state = _apply_1q(state, h_mat, qubits[0], n)
        elif op == "ry":
            t = float(arg) / 2.0
            mat = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
            state = _apply_1q(state, mat, qubits[0], n)
        elif op == "cx":
            state = _apply_cx(state, qubits[0], qubits[1], n)
        else:
            raise ValueError(f"unsupported op {op!r}")
    return state
