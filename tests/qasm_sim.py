"""The tests' one state-vector simulator: one kernel, two front ends.

`simulate(n, ops)` runs ``ops`` on n qubits from |0...0>.  Each op is a
(2x2 matrix, target, controls) triple, each control a (qubit, polarity)
pair: the matrix acts on the target where every control qubit reads its
polarity.  The basis is little-endian: qubit q is bit q of the index.

* `statevector(c)` runs a `Circuit` gate by gate: h, and ry with its
  polarity controls.  It is the reference the builders and the QASM
  lowering are held to.
* `simulate_qasm(text)` reads exactly the dialect the emitter produces,
  h, ry(theta) and cx, and rejects any other op (x included); cx runs as an
  X controlled on its first qubit.
"""
import math
import re

import numpy as np

_LINE = re.compile(r"^(\w+)(?:\(([^)]*)\))?\s+(.*);$")
_H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _ry(theta: float) -> np.ndarray:
    h = theta / 2.0
    return np.array([[math.cos(h), -math.sin(h)], [math.sin(h), math.cos(h)]])


def simulate(n: int, ops) -> np.ndarray:
    state = np.zeros(1 << n)
    state[0] = 1.0
    idx = np.arange(state.size)
    for mat, target, controls in ops:
        sel = ((idx >> target) & 1) == 0
        for q, pol in controls:
            sel &= ((idx >> q) & 1) == pol
        i0 = idx[sel]
        i1 = i0 | (1 << target)
        a0, a1 = state[i0], state[i1]  # fancy indexing copies
        state[i0] = mat[0, 0] * a0 + mat[0, 1] * a1
        state[i1] = mat[1, 0] * a0 + mat[1, 1] * a1
    return state


def statevector(c) -> np.ndarray:
    """Simulate the `Circuit` ``c`` from |0...0>."""
    return simulate(c.num_qubits, ((_H if g.kind == "h" else _ry(g.angle), g.target, g.controls)
                                   for g in c.gates))


def simulate_qasm(text: str) -> np.ndarray:
    n = None
    ops = []
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
            continue
        if n is None:
            raise ValueError("gate before qreg declaration")
        if op == "h":
            ops.append((_H, qubits[0], ()))
        elif op == "ry":
            ops.append((_ry(float(arg)), qubits[0], ()))
        elif op == "cx":
            ops.append((_X, qubits[1], ((qubits[0], True),)))
        else:
            raise ValueError(f"unsupported op {op!r}")
    return simulate(n, ops)
