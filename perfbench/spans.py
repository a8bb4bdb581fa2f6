"""In-memory spans around calls into the package's public functions.

The traced run replaces module attributes with timing wrappers, runs the
batch in this process, and restores the originals.  A span records its
name, start, end and the span that was open when it began; a span's self
time is its duration minus the part of it that its children cover.
Per-element helpers (``exp_sum``, ``SplitMix64.next_u64``, ...) are never
wrapped: their counts are derived from arguments and results instead.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self._stack: list[Span] = []

    def wrap(self, name: str, fn, count=None, eager: bool = False):
        """Wrapper timing ``fn`` as span ``name``; ``count(tracer, args, result)``
        runs after the span closes.  ``eager`` drains a generator inside the span."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, parent, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = list(result)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, bound.arguments, result)
            return iter(result) if eager else result

        return wrapper

    def peak(self, name: str, value) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), value)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


# --- derived counts -------------------------------------------------------

def _descent(t: Tracer, a: dict, r) -> None:
    p, size, cfg = int(a["p"]), int(a["size"]), a["cfg"]
    t.counts["optimize.evaluations"] += r.evaluations
    t.counts["optimize.sweeps"] += r.sweeps_used
    t.peak("optimize.table_bytes_max", p * (p - 1) * 16)  # computed, not measured
    starts = cfg.restarts + 1 - (a.get("initial") is not None)
    if p > 2:
        t.counts["rng.draws"] += starts * size


def _sweep(t: Tracer, a: dict, r) -> None:
    K = next(iter(a.values()))
    p = int(K.p)
    t.counts["analysis.sweep_points"] += p - 1
    t.counts["analysis.phase_ops"] += (p - 1) * K.d  # computed from (p, d)


def _acceptance(t: Tracer, a: dict, r) -> None:
    t.counts["qfa.acceptance_sweep.steps"] += len(r) - 1


def _gates(t: Tracer, a: dict, r) -> None:
    t.counts["circuit.gates"] += len(r.gates)


def _qasm(t: Tracer, a: dict, r) -> None:
    t.counts["circuit.qasm_lines"] += r.count("\n")


def _gap(t: Tracer, a: dict, r) -> None:
    t.counts["coeffsets.gen_gap.tries"] += r.tries
    t.counts["coeffsets.gen_gap.accepted"] += 1
    t.counts["rng.draws"] += r.tries * (1 + int(a["m"]))  # t_0 plus m generators per try


def _random(t: Tracer, a: dict, r) -> None:
    if int(a["p"]) > 2:
        t.counts["rng.draws"] += int(a["d"])


# (span name, [module.attr aliases to patch], count, eager)
PATCHES = (
    ("optimize.coordinate_descent", ["optimize.coordinate_descent"], _descent, False),
    ("analysis.epsilon_of", ["analysis.epsilon_of", "optimize.epsilon_of"], _sweep, False),
    ("analysis.fourier_bias", ["analysis.fourier_bias"], _sweep, False),
    ("analysis.additive_energy", ["analysis.additive_energy"], None, False),
    ("analysis.spectrum_rows", ["analysis.spectrum_rows"], None, True),
    ("analysis.analyze", ["analysis.analyze"], None, False),
    ("analysis.error_prob", ["analysis.error_prob", "qfa.error_prob"], None, False),
    ("qfa.acceptance_sweep", ["qfa.acceptance_sweep"], _acceptance, False),
    ("qfa.run_word", ["qfa.run_word"], None, False),
    ("circuit.build", ["circuit.build_deep", "circuit.build_shallow", "circuit.build_aikps"],
     _gates, False),
    ("circuit.emit_qasm", ["circuit.emit_qasm"], _qasm, False),
    ("circuit.stats", ["circuit.stats"], None, False),
    ("coeffsets.gen_gap", ["coeffsets.gen_gap"], _gap, False),
    ("coeffsets.is_proper_gap", ["coeffsets.is_proper_gap"], None, False),
    ("coeffsets.gen_aikps", ["coeffsets.gen_aikps"], None, False),
    ("coeffsets.gen_random", ["coeffsets.gen_random"], _random, False),
    ("coeffsets.gen_cyclic", ["coeffsets.gen_cyclic"], None, False),
    ("coeffsets.from_json_dict", ["coeffsets.CoefficientSet.from_json_dict"], None, False),
    ("zmod.is_prime", ["zmod.is_prime", "coeffsets.is_prime", "cli.is_prime"], None, False),
    ("zmod.primitive_root", ["zmod.primitive_root", "coeffsets.primitive_root"], None, False),
)


def _resolve(alias: str):
    """(owner object, attribute name) for 'module.attr' or 'module.Class.attr'."""
    mod, *path = alias.split(".")
    owner = importlib.import_module(f"shallowfp.{mod}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class Patch:
    """Installs the wrappers of ``PATCHES`` for one tracer; ``remove`` undoes it.

    Aliases the package no longer has are skipped and listed in ``missing``,
    so a refactor that drops a re-export does not break the traced run.
    """

    def __init__(self, tracer: Tracer):
        self._saved = []
        self.missing = []
        for name, aliases, count, eager in PATCHES:
            wrapped = {}  # one wrapper per distinct original function
            for alias in aliases:
                try:
                    owner, attr = _resolve(alias)
                    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(alias)
                    continue
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = tracer.wrap(name, fn, count, eager)
                new = classmethod(wrapped[id(fn)]) if is_cm else wrapped[id(fn)]
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


SPAN_NAMES = tuple(name for name, *_ in PATCHES)


def layer_totals(tracer: Tracer) -> dict[str, float]:
    """calls and self_s per span name (plus the job-level 'cli' span), and counts."""
    selfs = self_times(tracer.spans)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for s in tracer.spans:
        calls[s.name] += 1
        self_s[s.name] += selfs[s.id]
    out = {}
    for name in ("cli",) + SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out.update(tracer.counts)
    out.update(tracer.maxima)
    return out
