"""Seeded inputs and job lists for the benchmark workloads.

A workload is a batch of ``shallowfp`` CLI jobs run one at a time.  The
benchmark seed picks every input (primes, CLI seeds, word lengths, circuit
x values) from the pools stored in ``golden.json``; each pooled input has a
reference output recorded there, so every seed can be checked byte for
byte.  The CLI sees only the generated inputs: prime lists, seeds and the
coefficient files earlier jobs of the batch wrote.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

WORKLOADS = ("compare", "spectral", "circuits")


@dataclass(frozen=True)
class Output:
    """One file a job writes, how to check it, and its golden keys."""

    path: str  # relative to the batch's work directory
    kind: str  # checker kind, a key of checker.SEMANTIC
    keys: tuple[str, ...]  # golden reference keys (one per prime for compare)
    context: dict = field(default_factory=dict)  # e.g. source coefficient file, x


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]  # CLI arguments after the program name
    outputs: tuple[Output, ...]
    stdout: str | None = None  # file receiving the job's stdout, if any


@dataclass(frozen=True)
class Batch:
    workload: str
    seed: int
    files: dict  # input files written before the batch: name -> text
    jobs: tuple[Job, ...]
    inputs: dict  # the generated inputs, for the results file


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _rng(workload: str, seed: int) -> random.Random:
    # string seeding hashes with sha512, stable across Python versions
    return random.Random(f"{workload}:{seed}")


def compare_key(m: int, restarts: int, seed: int, p: int) -> str:
    return f"compare:m{m}:r{restarts}:s{seed}:p{p}"


def _compare(pools: dict, rng: random.Random, seed: int) -> Batch:
    pool = pools["compare"]
    m, restarts = pool["m"], pool["restarts"]
    cli_seed = rng.choice(sorted(pool["bands"], key=int))
    primes = [rng.choice(band) for band in pool["bands"][cli_seed]]
    cli_seed = int(cli_seed)
    keys = tuple(compare_key(m, restarts, cli_seed, p) for p in primes)
    job = Job("compare",
              ("compare", "--p-list", "primes.txt", "--m", str(m), "--seed", str(cli_seed),
               "--restarts", str(restarts), "--out", "cmp.csv"),
              (Output("cmp.csv", "compare_csv", keys),
               Output("cmp_ratios.csv", "compare_ratios", keys)))
    return Batch("compare", seed, {"primes.txt": "".join(f"{p}\n" for p in primes)}, (job,),
                 {"primes": primes, "cli_seed": cli_seed, "m": m, "restarts": restarts})


def _spectral(pools: dict, rng: random.Random, seed: int) -> Batch:
    pool = pools["spectral"]
    p = rng.choice(pool["aikps_primes"])
    eps, d = pool["eps"], pool["cyclic_d"]
    j = rng.choice(pool["words"])
    q = rng.choice(pool["random_primes"])
    rd = pool["random_d"]
    rs = rng.choice(pool["random_seeds"])
    aikps = f"gen:aikps:p{p}:eps{eps}"
    cyclic = f"gen:cyclic:p{p}:d{d}"
    rand = f"gen:random:p{q}:d{rd}:s{rs}"
    jobs = (
        Job("gen-aikps", ("gen", "--method", "aikps", "--p", str(p), "--eps", str(eps),
                          "--out", "aikps.json"),
            (Output("aikps.json", "coeffs", (aikps,)),)),
        Job("analyze", ("analyze", "--coeffs", "aikps.json"),
            (Output("analyze_aikps.json", "analyze", ("analyze:" + aikps,)),),
            stdout="analyze_aikps.json"),
        Job("gen-cyclic", ("gen", "--method", "cyclic", "--p", str(p), "--d", str(d),
                           "--out", "cyclic.json"),
            (Output("cyclic.json", "coeffs", (cyclic,)),)),
        Job("simulate-sweep", ("simulate", "--coeffs", "cyclic.json", "--sweep",
                               "--out", "sweep.csv"),
            (Output("sweep.csv", "sweep", ("sweep:" + cyclic,), {"source": "cyclic.json"}),)),
        Job("simulate-word", ("simulate", "--coeffs", "cyclic.json", "--j", str(j)),
            (Output("word.txt", "word", (f"word:{cyclic}:j{j}",),
                    {"source": "cyclic.json", "j": j}),),
            stdout="word.txt"),
        Job("gen-random", ("gen", "--method", "random", "--p", str(q), "--d", str(rd),
                           "--seed", str(rs), "--out", "random.json"),
            (Output("random.json", "coeffs", (rand,)),)),
        Job("analyze-spectrum", ("analyze", "--coeffs", "random.json",
                                 "--spectrum", "spectrum.csv"),
            (Output("analyze_random.json", "analyze", ("analyze:" + rand,)),
             Output("spectrum.csv", "spectrum", ("spectrum:" + rand,),
                    {"source": "random.json"})),
            stdout="analyze_random.json"),
    )
    return Batch("spectral", seed, {}, jobs,
                 {"aikps_p": p, "eps": eps, "cyclic_d": d, "j": j,
                  "random_p": q, "random_d": rd, "random_seed": rs})


def _circuits(pools: dict, rng: random.Random, seed: int) -> Batch:
    pool = pools["circuits"]
    p, gs, tries = rng.choice(pool["gap"])
    m, eps = pool["m"], pool["eps"]
    x = rng.choice(pool["x"])
    gap = f"gen:gap:p{p}:m{m}:s{gs}"
    aikps = f"gen:aikps:p{p}:eps{eps}"
    jobs = (
        Job("gen-gap", ("gen", "--method", "gap", "--p", str(p), "--m", str(m),
                        "--seed", str(gs), "--out", "gap.json"),
            (Output("gap.json", "coeffs", (gap,)),)),
        Job("qasm-deep", ("circuit", "--coeffs", "gap.json", "--style", "deep", "--x", str(x),
                          "--emit-qasm", "deep.qasm"),
            (Output("deep.qasm", "qasm", (f"qasm:deep:{gap}:x{x}",),
                    {"source": "gap.json", "x": x}),)),
        Job("stats-shallow", ("circuit", "--coeffs", "gap.json", "--style", "shallow",
                              "--x", str(x), "--stats"),
            (Output("stats_shallow.json", "stats", (f"stats:shallow:{gap}:x{x}",)),),
            stdout="stats_shallow.json"),
        Job("gen-aikps", ("gen", "--method", "aikps", "--p", str(p), "--eps", str(eps),
                          "--out", "aikps.json"),
            (Output("aikps.json", "coeffs", (aikps,)),)),
        Job("stats-aikps", ("circuit", "--coeffs", "aikps.json", "--style", "aikps",
                            "--x", str(x), "--stats"),
            (Output("stats_aikps.json", "stats", (f"stats:aikps:{aikps}:x{x}",)),),
            stdout="stats_aikps.json"),
    )
    return Batch("circuits", seed, {}, jobs,
                 {"p": p, "m": m, "gap_seed": gs, "gap_tries": tries, "eps": eps, "x": x})


_BUILDERS = {"compare": _compare, "spectral": _spectral, "circuits": _circuits}


def make_batch(workload: str, seed: int, golden: dict) -> Batch:
    """The batch of jobs for ``workload``; a pure function of (workload, seed)."""
    return _BUILDERS[workload](golden["pools"], _rng(workload, seed), seed)
