"""Rebuild golden.json: the input pools and the reference outputs.

    python3 perfbench/record.py        # from the repository root, ~8 minutes

Run it only on the commit whose outputs are the reference (the pools and
hashes in the checked-in golden.json come from the seed commit).  Every
pooled input is run through the CLI once and its outputs are hashed; small
outputs also keep their parsed content for the semantic check.

Pool rules, chosen so that a batch costs about the same for every seed:

* compare: for each anchor prime size, the first primes above it; an entry
  (prime, CLI seed) is kept only if its descent evaluation count lies within
  ``EVAL_BAND`` of the band's median.  Descent length varies several-fold
  between seeds, and one long descent would otherwise set the batch time.
* spectral: primes just above 65537 (AIKPS d = 1792) and just above 20011.
* circuits: (prime, seed) pairs whose ``gen_gap`` rejection search takes
  between ``GAP_TRIES`` tries; the search length is geometric with a mean
  near 450 tries at p ~ 10^6, m = 10, and its time is proportional to it.
"""
from __future__ import annotations

import csv
import json
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checker  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402
from shallowfp.rng import SplitMix64  # noqa: E402
from shallowfp.zmod import is_prime  # noqa: E402

COMPARE = {"m": 3, "restarts": 3, "seeds": (1, 2, 3, 4),
           "anchors": (150, 300, 450, 600, 750, 900, 1050, 1200, 1350, 1500), "per_band": 5}
EVAL_BAND = (0.85, 1.2)
SPECTRAL = {"aikps_from": 65537, "n_aikps": 8, "eps": 0.5, "cyclic_d": 64,
            "words": [1000, 31337, 99991, 123456],
            "random_from": 20011, "n_random": 4, "random_d": 64, "random_seeds": [1, 2, 3, 4]}
CIRCUITS = {"gap_from": 1000003, "n_gap_primes": 4, "m": 10, "eps": 0.5,
            "x": [2, 12345, 500001], "n_gap": 8}
GAP_TRIES = (110, 140)


def primes_from(lo: int, n: int) -> list[int]:
    out = []
    while len(out) < n:
        if is_prime(lo):
            out.append(lo)
        lo += 1
    return out


def gap_tries(p: int, m: int, seed: int, cap: int) -> int | None:
    """Tries gen_gap(p, m, seed) needs, by a vectorized properness test."""
    digits = np.stack(np.meshgrid(*[np.arange(3)] * m, indexing="ij"), -1).reshape(-1, m)
    rng = SplitMix64(seed)
    for attempt in range(1, cap + 1):
        t0 = rng.below(p)
        gens = np.array([rng.in_range(1, p) for _ in range(m)], dtype=np.int64)
        vals = (2 * t0 + digits @ gens) % p
        if np.bincount(vals, minlength=p).max() == 1:
            return attempt
    return None


class Recorder:
    def __init__(self, work: Path):
        self.work = work
        self.env = runner.child_env(ROOT / "src")
        self.refs: dict = {}

    def run_batch(self, batch: workloads.Batch) -> None:
        """Run the jobs that produce unrecorded outputs (and all generators)."""
        for name, text in batch.files.items():
            (self.work / name).write_text(text)
        for job in batch.jobs:
            fresh = [o for o in job.outputs if o.keys[0] not in self.refs]
            if not fresh and all(o.kind != "coeffs" for o in job.outputs):
                continue
            res = runner.run_process(job, self.work, self.env)
            if res.returncode != 0:
                raise SystemExit(f"{job.argv} failed: {res.stderr_tail}")
            print(f"  {res.wall_s:6.2f}s {' '.join(job.argv)}", flush=True)
            for out in fresh:
                self.refs[out.keys[0]] = self.reference(out)

    def reference(self, out: workloads.Output) -> dict:
        path = self.work / out.path
        ref = {"sha256": checker.sha256_file(path)}
        if out.kind == "coeffs":
            ref["canon"] = checker.canonical_sha(json.loads(path.read_text()))
        elif out.kind in ("analyze", "stats"):
            ref["ref"] = json.loads(path.read_text())
        elif out.kind == "word":
            ref["ref"] = float(path.read_text())
        return ref


def record_compare(rec: Recorder) -> dict:
    cfg = COMPARE
    bands = [primes_from(a, cfg["per_band"]) for a in cfg["anchors"]]
    (rec.work / "primes.txt").write_text("".join(f"{p}\n" for b in bands for p in b))
    evals: dict = {}
    for seed in cfg["seeds"]:
        job = workloads.Job("compare", (
            "compare", "--p-list", "primes.txt", "--m", str(cfg["m"]), "--seed", str(seed),
            "--restarts", str(cfg["restarts"]), "--out", "cmp.csv"), ())
        res = runner.run_process(job, rec.work, rec.env)
        if res.returncode != 0:
            raise SystemExit(f"compare failed: {res.stderr_tail}")
        print(f"  {res.wall_s:6.2f}s compare seed {seed}", flush=True)
        with open(rec.work / "cmp.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        with open(rec.work / "cmp_ratios.csv", newline="") as fh:
            ratios = {int(r[0]): ",".join(r) for r in list(csv.reader(fh))[1:]}
        for general, shallow in zip(rows[0::2], rows[1::2]):
            p = int(general[0])
            key = workloads.compare_key(cfg["m"], cfg["restarts"], seed, p)
            rec.refs[key] = {"lines": [",".join(general), ",".join(shallow)],
                             "ratio_line": ratios[p]}
            evals[(seed, p)] = int(general[8]) + int(shallow[8])
    kept = {}
    for seed in cfg["seeds"]:
        kept[str(seed)] = []
        for band in bands:
            mid = statistics.median(evals[(s, p)] for s in cfg["seeds"] for p in band)
            lo, hi = EVAL_BAND[0] * mid, EVAL_BAND[1] * mid
            kept[str(seed)].append([p for p in band if lo <= evals[(seed, p)] <= hi])
        if any(not b for b in kept[str(seed)]):
            del kept[str(seed)]  # a seed needs a typical prime in every band
    dropped = sorted(k for k in evals if not any(k[1] in b for b in kept.get(str(k[0]), [])))
    print(f"  compare: dropped (seed, p) {dropped}", flush=True)
    return {"m": cfg["m"], "restarts": cfg["restarts"], "bands": kept}


def record_spectral(rec: Recorder) -> dict:
    cfg = SPECTRAL
    pool = {"aikps_primes": primes_from(cfg["aikps_from"], cfg["n_aikps"]),
            "eps": cfg["eps"], "cyclic_d": cfg["cyclic_d"], "words": cfg["words"],
            "random_primes": primes_from(cfg["random_from"], cfg["n_random"]),
            "random_d": cfg["random_d"], "random_seeds": cfg["random_seeds"]}
    left = [(p, j) for p in pool["aikps_primes"] for j in pool["words"]]
    right = [(q, s) for q in pool["random_primes"] for s in pool["random_seeds"]]
    for i in range(max(len(left), len(right))):
        (p, j), (q, s) = left[i % len(left)], right[i % len(right)]
        one = dict(pool, aikps_primes=[p], words=[j], random_primes=[q], random_seeds=[s])
        rec.run_batch(workloads.make_batch("spectral", 0, {"pools": {"spectral": one}}))
    return pool


def record_circuits(rec: Recorder) -> dict:
    cfg = CIRCUITS
    gap = []
    seed = 0
    primes = primes_from(cfg["gap_from"], cfg["n_gap_primes"])
    while len(gap) < cfg["n_gap"]:
        seed += 1
        p = primes[seed % len(primes)]
        tries = gap_tries(p, cfg["m"], seed, GAP_TRIES[1])
        if tries is not None and tries >= GAP_TRIES[0]:
            gap.append([p, seed, tries])
            print(f"  gap pool: p={p} seed={seed} tries={tries}", flush=True)
    pool = {"gap": gap, "m": cfg["m"], "eps": cfg["eps"], "x": cfg["x"]}
    for entry in gap:
        for x in cfg["x"]:
            one = dict(pool, gap=[entry], x=[x])
            rec.run_batch(workloads.make_batch("circuits", 0, {"pools": {"circuits": one}}))
    return pool


def main() -> int:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        rec = Recorder(Path(tmp))
        pools = {}
        for name, fn in (("compare", record_compare), ("spectral", record_spectral),
                         ("circuits", record_circuits)):
            print(f"recording {name}", flush=True)
            pools[name] = fn(rec)
    golden = {"about": "perfbench reference outputs; rebuild with perfbench/record.py",
              "pools": pools, "refs": dict(sorted(rec.refs.items()))}
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.GOLDEN_PATH} with {len(rec.refs)} references")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
