"""Batch command-line front end.

Subcommands: gen, analyze, simulate, circuit, optimize, compare.  All data
goes to files or stdout as JSON/CSV; diagnostics go to stderr.  Exit codes:
0 success, 1 usage error, 2 domain error (composite modulus, unsatisfiable
GAP hypothesis, empty AIKPS interval, ...).

Every command is deterministic given its flags; seeds are always explicit
flags, and floats are printed with 17 significant digits so re-runs are
byte-identical.  A command reads its inputs, then opens every output, then
computes: a path that cannot be written ends the run before any work, and
an output may overwrite the file the command read.

Exit.  ``entry()``, the console script and ``python -m shallowfp.cli``, runs
``main()`` and then ``gc.freeze()`` before it raises ``SystemExit``.  The
full collections that interpreter finalization runs over the heap of a
process about to end made up most of a 11-45 ms exit (3-12 ms frozen, on
a 2-vCPU VM under Python 3.11), as much as the work of a small command.
Only those collections are skipped: stdout and stderr are still flushed
and atexit handlers still run.  ``main()`` does not freeze: tests and the
benchmark's traced run call it many times in one long process, whose
garbage must still be collected.  ``entry()``, not ``main()``, also owns
stdout, which in-process callers replace with their own: it runs
``main()`` over a buffered stdout and flushes it, so a write cut short (a
closed pipe, a full disk) ends the run with exit 1 and one usage line,
also where ``PYTHONUNBUFFERED`` made ``sys.stdout`` a raw stream that
drops the rest of a short write.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import sys
from typing import Sequence

# Modules that only some commands run are imported inside those commands:
# analysis, qfa and optimize (so gen, circuit and simulate --j start without
# numpy), circuit, and time.
from . import coeffsets
from .errors import DomainError
from .zmod import PrimeModulus, is_prime


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


_FLOAT = "%.17g"  # 17 significant digits: every float reads back exactly
_CHUNK = 1 << 12  # rows formatted by one template in _format_rows


def _fmt(x: float) -> str:
    return _FLOAT % x


def _format_rows(row: str, rows) -> str:
    """Every tuple of ``rows`` formatted by the %-template ``row``, one
    template per chunk of rows instead of one call per value."""
    rows, chunks = iter(rows), []
    while chunk := list(itertools.islice(rows, _CHUNK)):
        chunks.append((row * len(chunk)) % tuple(itertools.chain.from_iterable(chunk)))
    return "".join(chunks)


@contextlib.contextmanager
def _output(path: str | None, newline: str | None = None):
    """The file ``path`` opened for writing, or stdout for None or "-".

    The file is opened without truncation and cut to what was written when
    the block ends, so a run that fails before it writes leaves an existing
    file as it was; a file that the open created is removed.  A process
    started with its stdout closed has ``sys.stdout`` None: asking for it
    is a usage error."""
    if path is None or path == "-":
        if sys.stdout is None:
            raise UsageError("stdout is closed")
        yield sys.stdout
        return
    created = not os.path.lexists(path)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        with open(fd, "w", newline=newline) as fh:
            yield fh
            if os.path.isfile(path):  # not /dev/null or a pipe
                fh.truncate()
    except BaseException:
        if created:
            os.remove(path)
        raise


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


_GEN_SIZE_FLAG = {"cyclic": "d", "aikps": "eps", "gap": "m", "random": "d"}


def _cmd_gen(args) -> int:
    p = PrimeModulus(args.p)
    flag = _GEN_SIZE_FLAG[args.method]
    if getattr(args, flag) is None:
        raise UsageError(f"--method {args.method} requires --{flag}")
    with _output(args.out) as out:
        if args.method == "cyclic":
            K = coeffsets.gen_cyclic(p, args.d)
        elif args.method == "aikps":
            K = coeffsets.gen_aikps(p, args.eps)
        elif args.method == "gap":
            K = coeffsets.gen_gap(p, args.m, args.seed, args.max_tries).expanded
        else:
            K = coeffsets.gen_random(p, args.d, args.seed)
        out.write(_json_dumps(K.to_json_dict()))
    return 0


def _cmd_analyze(args) -> int:
    from . import analysis
    K = _load_coeffs(args.coeffs)
    # without --spectrum the second handle is stdout, and nothing is written to it
    with _output(None) as out, _output(args.spectrum, newline="") as spectrum:
        S = analysis.spectrum(K)  # the one forward transform of the run
        report = analysis.analyze(K, S)
        out.write(_json_dumps(report.to_json_dict()))
        if args.spectrum:
            # the bytes csv.writer wrote: numeric fields unquoted, \r\n line ends
            rows = _format_rows(f"%d,{_FLOAT},{_FLOAT},{_FLOAT},{_FLOAT}\r\n",
                                analysis.spectrum_rows(K, S))
            spectrum.write("x,re,im,magnitude2,error_prob\r\n" + rows)
    return 0


def _cmd_simulate(args) -> int:
    from . import qfa
    K = _load_coeffs(args.coeffs)
    with _output(args.out) as out:
        if args.j is not None:
            out.write(_fmt(qfa.run_word(K, args.j)) + "\n")
        else:
            probs = qfa.acceptance_sweep(K).tolist()
            out.write("j,accept_prob\n" + _format_rows(f"%d,{_FLOAT}\n", enumerate(probs)))
    return 0


def _cmd_circuit(args) -> int:
    from . import circuit
    K = _load_coeffs(args.coeffs)
    with _output(args.emit_qasm) as out:  # None with --stats: stdout
        c = getattr(circuit, f"build_{args.style}")(K, args.x)  # it checks K
        out.write(_json_dumps(circuit.stats(c)) if args.stats else circuit.emit_qasm(c))
    return 0


def _cmd_optimize(args) -> int:
    from . import optimize
    cfg = optimize.DescentConfig(seed=args.seed, max_sweeps=args.max_sweeps,
                                 mode=args.mode, restarts=args.restarts)
    with _output(args.out) as out:
        result = optimize.coordinate_descent(args.p, args.size, cfg)
        out.write(_json_dumps({
            "best": result.best_set.to_json_dict(),
            "best_epsilon": result.best_epsilon,
            "sweeps_used": result.sweeps_used,
            "evaluations": result.evaluations,
            "history": [[s, e] for s, e in result.history],
        }))
    return 0


def _cmd_compare(args) -> int:
    import time

    from . import circuit, optimize
    from .analysis import check_table_size
    if args.out == "-":  # the ratios file is named after --out
        raise UsageError("compare --out must name a file, not stdout")
    if args.p_list:
        with open(args.p_list) as fh:
            entries = [line.strip() for line in fh if line.strip()]
        try:
            numbers = [int(entry) for entry in entries]
        except ValueError as exc:
            raise UsageError(f"prime list {args.p_list}: {exc}") from None
        primes = [PrimeModulus(n) for n in numbers]
    else:
        # the largest prime is checked first, so a --p-max above the table
        # cap ends the run at once instead of after a scan of minutes
        top = next((n for n in range(args.p_max, 1, -1) if is_prime(n)), 0)
        check_table_size(top)
        primes = [n for n in range(2, args.p_max + 1) if is_prime(n)]
    if not primes:
        raise UsageError("empty prime list")

    cfg = optimize.DescentConfig(seed=args.seed, restarts=args.restarts)
    experiment = optimize.compare_experiment(primes, args.m, cfg)  # checks primes and sizes
    ratios_path = os.path.splitext(args.out)[0] + "_ratios.csv"
    # closing: a run that stops early still ends the experiment's search process
    with _output(args.out, newline="") as out_fh, \
            _output(ratios_path, newline="") as ratios_fh, contextlib.closing(experiment):
        records = []
        last = time.perf_counter()
        for rec in experiment:
            # one JSON object per prime, flushed as soon as the prime is done
            now = time.perf_counter()
            line = {"p": rec.p, "eps_general": rec.general.best_epsilon,
                    "eps_shallow": rec.shallow.best_epsilon, "ratio": rec.ratio,
                    "seconds": now - last,
                    "rows_evaluated": rec.general.rows_evaluated + rec.shallow.rows_evaluated,
                    "candidates": rec.general.evaluations + rec.shallow.evaluations}
            last = now
            print(json.dumps(line), file=sys.stderr, flush=True)
            records.append(rec)

        # the bytes csv.writer wrote: numeric fields unquoted, \r\n line ends
        rows = []
        for rec in records:
            for mode, style, res in (("general", "deep", rec.general),
                                     ("shallow", "shallow", rec.shallow)):
                build = getattr(circuit, f"build_{style}")
                built = circuit.stats(build(res.best_set, res.argmax_x))
                rows.append((rec.p, args.m, mode, res.best_epsilon, res.argmax_x,
                             built["depth"], built["cx_lnn"], res.sweeps_used,
                             res.evaluations, args.seed))
        out_fh.write("p,m,method,epsilon,argmax_x,depth,cx_lnn,sweeps,evaluations,seed\r\n"
                     + _format_rows(f"%d,%d,%s,{_FLOAT},%d,%d,%d,%d,%d,%d\r\n", rows))
        ratios_fh.write("p,ratio\r\n" + _format_rows(f"%d,{_FLOAT}\r\n",
                                                      ((rec.p, rec.ratio) for rec in records)))
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
    g.add_argument("--max-tries", type=_int_at_least(1), default=1000)
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


def entry() -> None:
    """Run ``main()`` on ``sys.argv`` and end the process with its exit code."""
    stdout = sys.stdout
    if stdout is None:  # the process started with fd 1 closed
        code = main()
    else:
        stdout.flush()
        sys.stdout = open(stdout.fileno(), "w", encoding=stdout.encoding,
                          errors=stdout.errors, closefd=False)
        try:
            code = main()
            sys.stdout.flush()
        except OSError as exc:  # the flush: main() reports the OSErrors it meets
            if code == 0:  # a run that failed has its one line already
                print(f"usage error: {exc}", file=sys.stderr)
                code = 1
        finally:
            with contextlib.suppress(OSError):  # after a failed flush: drops the rest
                sys.stdout.close()
            sys.stdout = stdout
    gc.freeze()  # the heap dies with the process: no exit-time collection walks it
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
