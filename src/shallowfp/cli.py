"""Batch command-line front end.

Subcommands: gen, analyze, simulate, circuit, optimize, compare.  All data
goes to files or stdout as JSON/CSV; diagnostics go to stderr.  Exit codes:
0 success, 1 usage error, 2 domain error (composite modulus, unsatisfiable
GAP hypothesis, empty AIKPS interval, ...).

Every command is deterministic given its flags; seeds are always explicit
flags, and floats are printed with 17 significant digits so re-runs are
byte-identical.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from typing import Sequence

# analysis, qfa and optimize (and with them numpy) are imported by the
# commands that run them, so gen and circuit start without numpy.
from . import circuit, coeffsets
from .errors import DomainError
from .zmod import PrimeModulus, is_prime


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _int_at_least(low: int):
    """argparse type for an integer >= low (argparse calls it 'integer' in errors)."""
    def integer(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {n}")
        return n
    return integer


def _load_coeffs(path: str) -> coeffsets.CoefficientSet:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise UsageError(f"{path} is not a JSON file: {exc}") from None
    return coeffsets.CoefficientSet.from_json_dict(data)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _cmd_gen(args) -> int:
    p = PrimeModulus(args.p)
    if args.method == "cyclic":
        if args.d is None:
            raise UsageError("--method cyclic requires --d")
        K = coeffsets.gen_cyclic(p, args.d)
    elif args.method == "aikps":
        if args.eps is None:
            raise UsageError("--method aikps requires --eps")
        K = coeffsets.gen_aikps(p, args.eps)
    elif args.method == "gap":
        if args.m is None:
            raise UsageError("--method gap requires --m")
        K = coeffsets.gen_gap(p, args.m, args.seed, args.max_tries).expanded
    elif args.method == "random":
        if args.d is None:
            raise UsageError("--method random requires --d")
        K = coeffsets.gen_random(p, args.d, args.seed)
    else:  # pragma: no cover - argparse choices guard this
        raise UsageError(f"unknown method {args.method}")
    _write_text(args.out, _json_dumps(K.to_json_dict()))
    return 0


def _cmd_analyze(args) -> int:
    from . import analysis
    K = _load_coeffs(args.coeffs)
    report = analysis.analyze(K)
    _write_text(None, _json_dumps(report.to_json_dict()))
    if args.spectrum:
        with open(args.spectrum, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "re", "im", "magnitude2", "error_prob"])
            for x, re, im, mag2, pe in analysis.spectrum_rows(K):
                writer.writerow([x, _fmt(re), _fmt(im), _fmt(mag2), _fmt(pe)])
    return 0


def _cmd_simulate(args) -> int:
    from . import qfa
    K = _load_coeffs(args.coeffs)
    if args.j is not None:
        _write_text(args.out, _fmt(qfa.run_word(K, args.j)) + "\n")
        return 0
    probs = qfa.acceptance_sweep(K)
    rows = "".join(f"{j},{_fmt(float(v))}\n" for j, v in enumerate(probs))
    _write_text(args.out, "j,accept_prob\n" + rows)
    return 0


def _build_circuit(K: coeffsets.CoefficientSet, style: str, x: int) -> circuit.Circuit:
    if style == "deep":
        return circuit.build_deep(K, x)
    if style == "shallow":
        if "T" not in K.params:
            raise DomainError("shallow circuit needs a subset-sum set (gap/optimized "
                              "shallow output with generators)")
        sums = coeffsets.expand_subset_sums(K.params.get("t0", 0), K.params["T"], K.p)
        if K.coefficients != sums.coefficients:
            raise DomainError("shallow circuit needs coefficients equal to the subset sums "
                              "of t0 and generators")
        return circuit.build_shallow(K, x)
    if style == "aikps":
        if K.method != "aikps" or not isinstance(K.params.get("eps"), (int, float)):
            raise DomainError("aikps circuit needs a set generated by --method aikps")
        # rebuilt from (p, eps): R and s_max are not read from the file
        return circuit.build_aikps(coeffsets.gen_aikps(K.p, K.params["eps"]), x)
    raise UsageError(f"unknown style {style}")


def _cmd_circuit(args) -> int:
    K = _load_coeffs(args.coeffs)
    c = _build_circuit(K, args.style, args.x)
    if args.emit_qasm:
        _write_text(args.emit_qasm, circuit.emit_qasm(c))
    else:
        _write_text(None, _json_dumps(circuit.stats(c)))
    return 0


def _cmd_optimize(args) -> int:
    from . import optimize
    cfg = optimize.DescentConfig(seed=args.seed, max_sweeps=args.max_sweeps,
                                 mode=args.mode, restarts=args.restarts)
    result = optimize.coordinate_descent(args.p, args.size, cfg)
    out = {
        "best": result.best_set.to_json_dict(),
        "best_epsilon": result.best_epsilon,
        "sweeps_used": result.sweeps_used,
        "evaluations": result.evaluations,
        "history": [[s, e] for s, e in result.history],
    }
    _write_text(args.out, _json_dumps(out))
    return 0


def _cmd_compare(args) -> int:
    from . import optimize
    if args.p_list:
        with open(args.p_list) as fh:
            entries = [line.strip() for line in fh if line.strip()]
        try:
            numbers = [int(entry) for entry in entries]
        except ValueError as exc:
            raise UsageError(f"prime list {args.p_list}: {exc}") from None
        primes = [PrimeModulus(n) for n in numbers]
    else:
        primes = [n for n in range(2, args.p_max + 1) if is_prime(n)]
    if not primes:
        raise UsageError("empty prime list")

    cfg = optimize.DescentConfig(seed=args.seed, restarts=args.restarts)
    records = []
    last = time.perf_counter()
    for rec in optimize.compare_experiment(primes, args.m, cfg):
        # one JSON object per prime, flushed as soon as the prime is done
        now = time.perf_counter()
        line = {"p": rec.p, "eps_general": rec.eps_general,
                "eps_shallow": rec.eps_shallow, "ratio": rec.ratio,
                "seconds": now - last,
                "rows_evaluated": rec.general.rows_evaluated + rec.shallow.rows_evaluated,
                "candidates": rec.general.evaluations + rec.shallow.evaluations}
        last = now
        print(json.dumps(line), file=sys.stderr, flush=True)
        records.append(rec)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "m", "method", "epsilon", "argmax_x", "depth",
                         "cx_lnn", "sweeps", "evaluations", "seed"])
        for rec in records:
            for mode, style, res in (("general", "deep", rec.general),
                                     ("shallow", "shallow", rec.shallow)):
                built = circuit.stats(_build_circuit(res.best_set, style, res.argmax_x))
                writer.writerow([rec.p, rec.m, mode, _fmt(res.best_epsilon), res.argmax_x,
                                 built["depth"], built["cx_lnn"], res.sweeps_used,
                                 res.evaluations, args.seed])
    ratios_path = args.out.rsplit(".", 1)[0] + "_ratios.csv"
    with open(ratios_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "ratio"])
        for rec in records:
            writer.writerow([rec.p, _fmt(rec.ratio)])
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="shallowfp",
                     description="Quantum-fingerprinting lab for MOD_p coefficient sets")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a coefficient set")
    g.add_argument("--method", required=True, choices=["cyclic", "aikps", "gap", "random"])
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--d", type=_int_at_least(1))
    g.add_argument("--m", type=_int_at_least(1))
    g.add_argument("--eps", type=float)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--max-tries", type=int, default=1000)
    g.add_argument("--out")
    g.set_defaults(func=_cmd_gen)

    a = sub.add_parser("analyze", help="worst-case error, energy, bias report")
    a.add_argument("--coeffs", required=True)
    a.add_argument("--spectrum")
    a.set_defaults(func=_cmd_analyze)

    s = sub.add_parser("simulate", help="run the automaton on unary words")
    s.add_argument("--coeffs", required=True)
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument("--j", type=_int_at_least(0))
    group.add_argument("--sweep", action="store_true")
    s.add_argument("--out")
    s.set_defaults(func=_cmd_simulate)

    c = sub.add_parser("circuit", help="build a circuit; QASM or stats")
    c.add_argument("--coeffs", required=True)
    c.add_argument("--style", required=True, choices=["deep", "shallow", "aikps"])
    c.add_argument("--x", type=int, required=True)
    group = c.add_mutually_exclusive_group(required=True)
    group.add_argument("--emit-qasm")
    group.add_argument("--stats", action="store_true")
    c.set_defaults(func=_cmd_circuit)

    o = sub.add_parser("optimize", help="coordinate-descent search")
    o.add_argument("--p", type=int, required=True)
    o.add_argument("--size", type=_int_at_least(1), required=True)
    o.add_argument("--mode", required=True, choices=["general", "shallow"])
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--max-sweeps", type=_int_at_least(1), default=100)
    o.add_argument("--restarts", type=_int_at_least(0), default=0)
    o.add_argument("--out")
    o.set_defaults(func=_cmd_optimize)

    cmp_ = sub.add_parser("compare", help="general vs shallow error experiment")
    group = cmp_.add_mutually_exclusive_group(required=True)
    group.add_argument("--p-list")
    group.add_argument("--p-max", type=int)
    cmp_.add_argument("--m", type=_int_at_least(1), required=True)
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.add_argument("--restarts", type=_int_at_least(0), default=0)
    cmp_.add_argument("--out", required=True)
    cmp_.set_defaults(func=_cmd_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, OSError) as exc:  # OSError: a file that cannot be read or written
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
