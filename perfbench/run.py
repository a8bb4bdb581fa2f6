"""Benchmark of the shallowfp CLI: seeded job batches, end to end and per layer.

    python3 perfbench/run.py --workload compare --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root; the package is imported from ./src.  With
``--trace 0`` each job is a fresh ``python -c`` process running the CLI and
the end-to-end metrics are printed.  With ``--trace 1`` the same jobs run
inside this process, once plainly and once with spans around the package's
public functions, and the per-layer metrics are printed.  Batches repeat
until ``--seconds`` is used up; each batch's outputs are checked against
golden.json.  The last stdout line is one JSON object; a results file with
provenance goes to perfbench/results/.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

import runner  # noqa: E402

os.environ.update(runner.THREAD_VARS)  # before numpy loads in this process

import checker  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES_PER_BATCH = 4


class SetupError(Exception):
    """The checkout cannot be benchmarked (no package source, no golden file)."""


# --- provenance -------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def provenance(root: Path, workload: str, seed: int) -> dict:
    import numpy

    cpu = {}
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        text = ""
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            cpu[key.strip()] = value.strip()
    if "Model name" not in cpu:
        for line in _read("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                cpu["Model name"] = line.partition(":")[2].strip()
                break
    for index, key in ((2, "L2 cache"), (3, "L3 cache")):
        if key not in cpu:
            size = _read(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size").strip()
            cpu[key] = size or "unknown"
    mem = next((line.split(":", 1)[1].strip() for line in _read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")), "unknown")
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": workload, "seed": seed, "nproc": os.cpu_count(),
        "cpu_model": cpu.get("Model name", "unknown"), "l2": cpu.get("L2 cache", "unknown"),
        "l3": cpu.get("L3 cache", "unknown"), "mem_total": mem,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "thread_vars": dict(runner.THREAD_VARS),
    }


# --- one batch --------------------------------------------------------------

def _check_batch(batch: workloads.Batch, results: list, workdir: Path, refs: dict) -> dict:
    jobs = []
    for job, res in zip(batch.jobs, results):
        outcome = {"job": job.name, "returncode": res.returncode, "wall_s": res.wall_s,
                   "outputs": {}}
        if res.returncode == 0:
            for out in job.outputs:
                outcome["outputs"][out.path] = checker.check_output(out, workdir, refs)
        else:
            outcome["stderr"] = res.stderr_tail
        outcome["ok"] = res.returncode == 0 and all(
            status != "failed" for status, _ in outcome["outputs"].values())
        jobs.append(outcome)
    return {
        "jobs": jobs,
        "failed": sum(not j["ok"] for j in jobs),
        "exact": sum(s == "exact" for j in jobs for s, _ in j["outputs"].values()),
        "output_bytes": sum((workdir / o.path).stat().st_size
                            for job in batch.jobs for o in job.outputs
                            if (workdir / o.path).is_file()),
    }


def _prepare(workdir: Path, batch: workloads.Batch) -> None:
    for job in batch.jobs:  # no stale output may pass the check
        for out in job.outputs:
            (workdir / out.path).unlink(missing_ok=True)
    for name, text in batch.files.items():
        (workdir / name).write_text(text)


def _items(batch: workloads.Batch, results: list) -> list[float]:
    """Item latencies.  On compare an item is one prime, timed by the arrival
    of its stderr progress line (lines are counted, their text is not parsed).
    Elsewhere an item is one generated input: a ``gen`` job plus the jobs
    after it that consume its file."""
    if batch.workload == "compare":
        stamps = results[0].line_times
        return [b - a for a, b in zip([0.0] + stamps[:-1], stamps)]
    items: list[float] = []
    for job, res in zip(batch.jobs, results):
        if job.argv[0] == "gen" or not items:
            items.append(0.0)
        items[-1] += res.wall_s
    return items


def item_quantiles(per_batch: list[list[float]]) -> tuple[float, float, int]:
    """p50 and p90 over the items of a batch, each item taken as its median
    over the batches, so the quantiles do not shift with the batch count."""
    n = min(len(items) for items in per_batch)
    typical = [statistics.median(items[i] for items in per_batch) for i in range(n)]
    if n == 1:
        return typical[0], typical[0], n
    q = statistics.quantiles(typical, n=10, method="inclusive")
    return statistics.median(typical), q[8], n


def _loop(seconds: float, once):
    """Call ``once()`` while a further call is expected to end by ``seconds``
    (overrunning by at most half a call); at least once."""
    start = time.perf_counter()
    out, longest = [], 0.0
    while True:
        t = time.perf_counter()
        out.append(once())
        longest = max(longest, time.perf_counter() - t)
        if time.perf_counter() - start + longest / 2 > seconds:
            return out


def measure_end_to_end(root: Path, batch, workdir: Path, refs: dict, seconds: float) -> dict:
    env = runner.child_env(root / "src")
    runner.time_import(root, env)  # compiles bytecode; not a sample
    setup = []

    def once():
        # set-up samples are spread over the run, not bunched at its start
        setup.extend(runner.time_import(root, env) for _ in range(SETUP_SAMPLES_PER_BATCH))
        _prepare(workdir, batch)
        t = time.perf_counter()
        results = [runner.run_process(job, workdir, env) for job in batch.jobs]
        wall = time.perf_counter() - t
        return wall, results, _check_batch(batch, results, workdir, refs)

    runs = _loop(seconds, once)
    p50, p90, n_items = item_quantiles([_items(batch, results) for _, results, _ in runs])
    attempted = len(runs) * len(batch.jobs)
    failed = sum(c["failed"] for _, _, c in runs)
    metrics = {
        "wall_s": statistics.median(w for w, _, _ in runs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r.maxrss_mb for _, results, _ in runs for r in results),
        "item_p50_s": p50,
        "item_p90_s": p90,
        "ok_ratio": (attempted - failed) / attempted,
    }
    detail = {"batches": [{"wall_s": w, "jobs": c["jobs"],
                           "peak_rss_mb": max(r.maxrss_mb for r in results)}
                          for w, results, c in runs],
              "setup_samples_s": setup, "item_samples": f"{n_items} items x {len(runs)} batches"}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "detail": detail}


def _import_package(src: Path):
    sys.path.insert(0, str(src))
    import shallowfp.cli

    if not Path(shallowfp.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"shallowfp imported from {shallowfp.cli.__file__}, not {src}")
    return shallowfp.cli


def measure_layers(root: Path, batch, workdir: Path, refs: dict, seconds: float) -> dict:
    cli = _import_package(root / "src")
    traced_batches = []

    def once():
        _prepare(workdir, batch)
        t = time.perf_counter()
        for job in batch.jobs:
            runner.run_inprocess(job, workdir, cli.main)
        plain = time.perf_counter() - t
        _prepare(workdir, batch)
        tracer = spans.Tracer()
        patch = spans.Patch(tracer)
        try:
            main = tracer.wrap("cli", cli.main)
            t = time.perf_counter()
            results = [runner.run_inprocess(job, workdir, main) for job in batch.jobs]
            traced = time.perf_counter() - t
        finally:
            patch.remove()
        check = _check_batch(batch, results, workdir, refs)
        totals = spans.layer_totals(tracer)
        tries = totals.get("coeffsets.gen_gap.tries", 0)
        totals["coeffsets.gap_accept_ratio"] = (
            totals.get("coeffsets.gen_gap.accepted", 0) / tries if tries else 0.0)
        totals["cli.output_bytes"] = check["output_bytes"]
        totals["cli.outputs_exact"] = check["exact"]
        totals["trace.wall_s"] = traced
        totals["trace.overhead_s"] = traced - plain
        traced_batches.append(tracer.spans)
        return plain, traced, totals, check, patch.missing

    _prepare(workdir, batch)
    for job in batch.jobs:  # warm-up: first in-process calls pay for fresh heap pages
        runner.run_inprocess(job, workdir, cli.main)
    runs = _loop(seconds, once)
    metrics = {name: statistics.median(totals.get(name, 0) for _, _, totals, _, _ in runs)
               for name in PER_LAYER}
    attempted = len(runs) * len(batch.jobs)
    failed = sum(c["failed"] for _, _, _, c, _ in runs)
    detail = {"batches": [{"untraced_wall_s": p, "traced_wall_s": t, "jobs": c["jobs"]}
                          for p, t, _, c, _ in runs],
              "unpatched_aliases": runs[0][4], "spans": traced_batches}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "detail": detail}


# --- driver -----------------------------------------------------------------

def run_workload(root: Path, golden: dict, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    batch = workloads.make_batch(workload, seed, golden)
    workdir = HERE / ".work" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        measure = measure_layers if trace else measure_end_to_end
        result = measure(root, batch, workdir, golden["refs"], seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    table = PER_LAYER if trace else END_TO_END
    result["units"] = {name: spec[0] for name, spec in table.items()}
    _write_results(root, workload, seed, trace, batch, result)
    return result


def _write_results(root, workload, seed, trace, batch, result) -> None:
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{workload}-seed{seed}-trace{int(trace)}"
    detail = dict(result["detail"])
    span_lists = detail.pop("spans", None)
    doc = {"provenance": provenance(root, workload, seed), "inputs": batch.inputs,
           "jobs": [list(job.argv) for job in batch.jobs],
           "correct": result["failed"] == 0, "attempted": result["attempted"],
           "failed": result["failed"],
           "metrics": {k: {"value": v, "unit": result["units"][k]}
                       for k, v in result["metrics"].items()},
           "detail": detail}
    with open(f"{stem}.json", "w") as fh:
        json.dump(doc, fh, indent=1, default=str)
    if span_lists is not None:
        with open(f"{stem}-spans.jsonl", "w") as fh:
            for b, span_list in enumerate(span_lists):
                selfs = spans.self_times(span_list)
                for s in span_list:
                    fh.write(json.dumps({"batch": b, "id": s.id, "name": s.name,
                                         "parent": s.parent, "start": s.start, "end": s.end,
                                         "self_s": selfs[s.id]}) + "\n")


def _check_checkout(root: Path) -> dict:
    if not (root / "src" / "shallowfp" / "cli.py").is_file():
        raise SetupError(f"no package source at {root / 'src' / 'shallowfp'}; "
                         "run from the repository root")
    try:
        return workloads.load_golden()
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {workloads.GOLDEN_PATH}: {exc}") from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so running jobs are killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    try:
        golden = _check_checkout(root)
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(root, golden, w, args.seed, args.seconds, bool(args.trace))
                   for w in names}
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    prefix = args.workload == "all"
    metrics = {}
    for w, res in results.items():
        for name, value in res["metrics"].items():
            unit = res["units"][name]
            key = f"{w}.{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit}
            print(f"{w}.{name} = {value:.6g} {unit}")
        samples = res["detail"].get("item_samples")
        if samples is not None:
            print(f"{w}.item samples = {samples}")
        print(f"{w}: {res['attempted'] - res['failed']}/{res['attempted']} jobs ok")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
