"""Run one CLI job, either as a fresh process or inside this process.

Processes are how users run the lab, so end-to-end numbers come from them.
The in-process path exists for the traced run, where the benchmark wraps
the package's functions before calling ``shallowfp.cli.main``.
"""
from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Job

# BLAS/OpenMP pools sized to one thread: the box has two cores and the
# benchmark process itself occupies one while a job runs.
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

CLI_SHIM = "import sys; from shallowfp.cli import entry; sys.argv[0] = 'shallowfp'; entry()"
IMPORT_SHIM = "import shallowfp.cli"


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.update(THREAD_VARS)
    env["PYTHONPATH"] = str(src)
    return env


@dataclass
class JobResult:
    name: str
    wall_s: float
    returncode: int
    maxrss_mb: float = 0.0
    # seconds from job start at which each stderr line arrived
    line_times: list = field(default_factory=list)
    stderr_tail: str = ""


def _spawn(argv: list, cwd: Path, env: dict, stdout_path: Path | None) -> JobResult:
    """Start ``python -c <argv>``, timestamp stderr lines, reap with wait4."""
    tail: deque = deque(maxlen=5)
    stamps = []
    t0 = time.perf_counter()
    with open(stdout_path if stdout_path else os.devnull, "wb") as out:
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                                stdout=out, stderr=subprocess.PIPE)
        try:
            with proc.stderr:
                for line in proc.stderr:
                    stamps.append(time.perf_counter() - t0)
                    tail.append(line.decode(errors="replace"))
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no job running behind us
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB
    return JobResult("", wall, proc.returncode, usage.ru_maxrss / 1024.0, stamps,
                     "".join(tail))


def run_process(job: Job, workdir: Path, env: dict) -> JobResult:
    stdout = workdir / job.stdout if job.stdout else None
    result = _spawn(["-c", CLI_SHIM, *job.argv], workdir, env, stdout)
    result.name = job.name
    return result


def time_import(root: Path, env: dict) -> float:
    """Seconds for a fresh interpreter to start and import shallowfp.cli."""
    result = _spawn(["-c", IMPORT_SHIM], root, env, None)
    if result.returncode != 0:
        raise RuntimeError(f"import shallowfp.cli failed: {result.stderr_tail.strip()}")
    return result.wall_s


def run_inprocess(job: Job, workdir: Path, cli_main) -> JobResult:
    """Call ``cli_main(argv)`` with cwd, stdout and stderr redirected."""
    old = os.getcwd()
    err = io.StringIO()
    os.chdir(workdir)
    t0 = time.perf_counter()
    try:
        with open(job.stdout if job.stdout else os.devnull, "w") as out, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli_main(list(job.argv))
            except Exception:  # a crashing job is a failed job, not a crashed benchmark
                traceback.print_exc(file=err)
                rc = -1
    finally:
        wall = time.perf_counter() - t0
        os.chdir(old)
    return JobResult(job.name, wall, rc, 0.0, [], err.getvalue()[-2000:])
