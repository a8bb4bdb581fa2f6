"""Output check: byte-exact against golden sha256, else a semantic check.

``golden.json`` holds, per output, the sha256 the seed commit produced and,
for small outputs, the parsed reference.  A file whose hash matches is
exact.  Otherwise the semantic check for its kind decides:

* the file must parse;
* floats agree within ``REL_TOL``/``ABS_TOL`` (reports, CSV rows) or, for
  outputs checked against an independent numpy recomputation, within the
  absolute tolerance stated next to that oracle;
* ``argmax_x`` may be x or p - x, since |S(x)| = |S(p - x)| ties;
* integers and strings are exact.

Large outputs (the sweep and spectrum CSVs, QASM) store only their hash
and are checked against the recomputation from the job's coefficient file.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np

from workloads import Output

REL_TOL = 1e-9
ABS_TOL = 1e-12
SWEEP_TOL = 1e-9  # iterated rotations vs closed form, per accept probability
SPECTRUM_TOL = 1e-8  # fsum sums vs FFT, per re/im/magnitude entry
QASM_TOL = 1e-6  # amplitudes after ~2 million simulated gates

COMPARE_HEADER = ["p", "m", "method", "epsilon", "argmax_x", "depth", "cx_lnn", "sweeps",
                  "evaluations", "seed"]


class CheckError(Exception):
    pass


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def canonical_sha(obj) -> str:
    """Hash of a JSON value independent of whitespace and key order."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def same(ref, got, p: int | None = None, key: str = "") -> None:
    """Raise CheckError unless ``got`` matches ``ref`` within tolerance.

    Keys present only in ``got`` are allowed, so outputs may gain fields.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            raise CheckError(f"{key}: expected an object")
        p = ref.get("p", p)
        for k, v in ref.items():
            if k not in got:
                raise CheckError(f"{key}.{k}: missing")
            same(v, got[k], p, f"{key}.{k}")
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            raise CheckError(f"{key}: expected a list of {len(ref)}")
        for i, (r, g) in enumerate(zip(ref, got)):
            same(r, g, p, f"{key}[{i}]")
    elif isinstance(ref, bool) or isinstance(ref, str):
        if got != ref:
            raise CheckError(f"{key}: {got!r} != {ref!r}")
    elif isinstance(ref, int) and key.endswith("argmax_x"):
        if p is None or got not in (ref, p - ref):
            raise CheckError(f"{key}: {got!r} is neither {ref} nor p - {ref}")
    elif isinstance(ref, int):
        if type(got) is not int or got != ref:
            raise CheckError(f"{key}: {got!r} != {ref}")
    elif isinstance(ref, float):
        if isinstance(got, bool) or not isinstance(got, (int, float)) \
                or not math.isclose(got, ref, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            raise CheckError(f"{key}: {got!r} != {ref!r}")
    elif got != ref:
        raise CheckError(f"{key}: {got!r} != {ref!r}")


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_csv(text: str) -> tuple[list[str], list[list]]:
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        raise CheckError("empty CSV")
    try:
        body = [[v if v in ("general", "shallow") else _number(v) for v in r]
                for r in rows[1:]]
    except ValueError as exc:
        raise CheckError(f"unparseable CSV value: {exc}") from None
    return rows[0], body


def _read_csv(path: Path) -> tuple[list[str], list[list]]:
    with open(path, newline="") as fh:
        return _parse_csv(fh.read())


def _coeffs(path: Path) -> tuple[int, np.ndarray]:
    with open(path) as fh:
        data = json.load(fh)
    return int(data["p"]), np.asarray(data["coefficients"], dtype=np.int64)


def _columns(header: list[str], body: list[list], names: list[str]) -> np.ndarray:
    try:
        idx = [header.index(n) for n in names]
        return np.array([[row[i] for i in idx] for row in body], dtype=float)
    except (ValueError, IndexError, TypeError) as exc:
        raise CheckError(f"CSV lacks columns {names}: {exc}") from None


# --- expected bytes for outputs assembled from per-prime references -------

def compare_expected(refs: dict, keys: tuple[str, ...], ratios: bool) -> bytes:
    if ratios:
        lines = ["p,ratio"] + [refs[k]["ratio_line"] for k in keys]
    else:
        lines = [",".join(COMPARE_HEADER)] + [line for k in keys for line in refs[k]["lines"]]
    return ("\r\n".join(lines) + "\r\n").encode()


# --- semantic checks, one per output kind ---------------------------------

def _json_file(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckError(f"not JSON: {exc}") from None


def _sem_coeffs(path, out, refs, workdir):
    if canonical_sha(_json_file(path)) != refs[out.keys[0]]["canon"]:
        raise CheckError("coefficient set differs from the reference")


def _sem_report(path, out, refs, workdir):
    same(refs[out.keys[0]]["ref"], _json_file(path))


def _sem_word(path, out, refs, workdir):
    try:
        got = float(path.read_text())
    except ValueError as exc:
        raise CheckError(f"not a number: {exc}") from None
    same(refs[out.keys[0]]["ref"], got)


def _sem_compare(path, out, refs, workdir, ratios=False):
    header, body = _read_csv(path)
    want_header, want = _parse_csv(compare_expected(refs, out.keys, ratios).decode())
    if header[:len(want_header)] != want_header:
        raise CheckError(f"header {header} does not start with {want_header}")
    if len(body) != len(want):
        raise CheckError(f"{len(body)} rows, expected {len(want)}")
    for i, (w, g) in enumerate(zip(want, body)):
        p = w[0]
        same(dict(zip(want_header, w)), dict(zip(header, g)), p, f"row{i}")


def _closed_form(p: int, ks: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """S(x) = sum_k e(k x / p) for each x, exact phase reduction mod p."""
    out = np.empty(xs.size, dtype=complex)
    step = max(1, (1 << 21) // ks.size)
    for lo in range(0, xs.size, step):
        ph = (xs[lo:lo + step, None] * ks[None, :]) % p
        out[lo:lo + step] = np.exp(2j * np.pi * ph / p).sum(axis=1)
    return out


def _sem_sweep(path, out, refs, workdir):
    p, ks = _coeffs(workdir / out.context["source"])
    header, body = _read_csv(path)
    got = _columns(header, body, ["j", "accept_prob"])
    js = np.arange(p)
    if got.shape[0] != p or not np.array_equal(got[:, 0], js):
        raise CheckError("sweep rows are not j = 0 .. p-1")
    want = (_closed_form(p, ks, js).real / ks.size) ** 2
    err = np.max(np.abs(got[:, 1] - want))
    if not err <= SWEEP_TOL:
        raise CheckError(f"accept_prob off by {err:.3g}")


def _sem_spectrum(path, out, refs, workdir):
    p, ks = _coeffs(workdir / out.context["source"])
    header, body = _read_csv(path)
    got = _columns(header, body, ["x", "re", "im", "magnitude2", "error_prob"])
    if got.shape[0] != p or not np.array_equal(got[:, 0], np.arange(p)):
        raise CheckError("spectrum rows are not x = 0 .. p-1")
    s = np.fft.fft(np.bincount(ks, minlength=p))  # S(-x); conjugate for S(x)
    s = np.conj(s)
    want = np.stack([s.real, s.imag, np.abs(s) ** 2, (s.real / ks.size) ** 2], axis=1)
    scale = np.array([1.0, 1.0, ks.size, 1.0])
    err = np.max(np.abs(got[:, 1:] - want) / scale)
    if not err <= SPECTRUM_TOL:
        raise CheckError(f"spectrum off by {err:.3g}")


_QASM_LINE = re.compile(r"(h|x|ry\(([^)]*)\)|cx) q\[(\d+)\](?:,q\[(\d+)\])?;")


def simulate_qasm(text: str) -> np.ndarray:
    """Real statevector of an h/x/ry/cx OpenQASM 2.0 program, little-endian."""
    lines = text.splitlines()
    head = re.fullmatch(r"qreg q\[(\d+)\];", lines[2]) if len(lines) > 2 else None
    if lines[:2] != ["OPENQASM 2.0;", 'include "qelib1.inc";'] or head is None:
        raise CheckError("missing OpenQASM 2.0 header or qreg")
    n = int(head.group(1))
    if not 1 <= n <= 20:
        raise CheckError(f"qreg of {n} qubits")
    state = np.zeros(1 << n)
    state[0] = 1.0
    idx = np.arange(1 << n)
    cx_cache: dict = {}
    r2 = math.sqrt(0.5)
    for line in lines[3:]:
        m = _QASM_LINE.fullmatch(line)
        if m is None:
            raise CheckError(f"unparseable QASM line {line[:60]!r}")
        op, angle, a, b = m.groups()
        q = int(a)
        if q >= n or (b is not None and int(b) >= n):
            raise CheckError(f"qubit out of range in {line!r}")
        if op == "cx":
            key = (q, int(b))
            if key not in cx_cache:
                i0 = idx[((idx >> q) & 1 == 1) & ((idx >> key[1]) & 1 == 0)]
                cx_cache[key] = (i0, i0 | (1 << key[1]))
            i0, i1 = cx_cache[key]
            state[i0], state[i1] = state[i1], state[i0]
            continue
        v = state.reshape(-1, 2, 1 << q)
        a0, a1 = v[:, 0, :].copy(), v[:, 1, :].copy()
        if op == "x":
            v[:, 0, :], v[:, 1, :] = a1, a0
        elif op == "h":
            v[:, 0, :], v[:, 1, :] = r2 * (a0 + a1), r2 * (a0 - a1)
        else:
            c, s = math.cos(float(angle) / 2), math.sin(float(angle) / 2)
            v[:, 0, :], v[:, 1, :] = c * a0 - s * a1, s * a0 + c * a1
    return state


def _sem_qasm(path, out, refs, workdir):
    p, ks = _coeffs(workdir / out.context["source"])
    x = int(out.context["x"])
    state = simulate_qasm(path.read_text())
    d = ks.size
    if state.size != 2 * d:
        raise CheckError(f"{state.size} amplitudes, expected {2 * d}")
    ph = 2 * np.pi * ((ks * x) % p) / p
    want = np.concatenate([np.cos(ph), np.sin(ph)]) / math.sqrt(d)
    err = np.max(np.abs(state - want))
    if not err <= QASM_TOL:
        raise CheckError(f"fingerprint amplitudes off by {err:.3g}")


SEMANTIC = {
    "coeffs": _sem_coeffs,
    "analyze": _sem_report,
    "stats": _sem_report,
    "word": _sem_word,
    "compare_csv": _sem_compare,
    "compare_ratios": lambda *a: _sem_compare(*a, ratios=True),
    "sweep": _sem_sweep,
    "spectrum": _sem_spectrum,
    "qasm": _sem_qasm,
}


def expected_sha(out: Output, refs: dict) -> str:
    if out.kind in ("compare_csv", "compare_ratios"):
        return hashlib.sha256(compare_expected(refs, out.keys, out.kind == "compare_ratios")
                              ).hexdigest()
    return refs[out.keys[0]]["sha256"]


def check_output(out: Output, workdir: Path, refs: dict) -> tuple[str, str]:
    """('exact' | 'semantic' | 'failed', detail) for one output file."""
    path = workdir / out.path
    if not path.is_file():
        return "failed", "missing"
    missing = [k for k in out.keys if k not in refs]
    if missing:
        return "failed", f"no golden reference for {missing[0]}"
    if sha256_file(path) == expected_sha(out, refs):
        return "exact", ""
    try:
        SEMANTIC[out.kind](path, out, refs, workdir)
    except CheckError as exc:
        return "failed", str(exc)
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        return "failed", f"{type(exc).__name__}: {exc}"
    return "semantic", "matches within tolerance"
