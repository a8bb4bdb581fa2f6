"""Names, units and directions of every metric the benchmark reports.

BENCHMARK.json lists the same metrics; test_perfbench checks they agree.
Time bounds sit at the 0.25 ceiling: on the shared two-core host a pure
Python loop runs up to ~1.7x slower for minutes at a time, and the
quartile spread of wall_s over ten seeds was 0.06-0.26 of the median at
the seed commit (perfbench/baseline.json).
"""
from __future__ import annotations

# name -> (unit, better, bound, meaning)
END_TO_END = {
    "wall_s": ("s", "lower", 0.25, "median wall time of one job batch"),
    "setup_s": ("s", "lower", 0.25,
                "median over fresh interpreters of starting and importing shallowfp.cli"),
    "peak_rss_mb": ("MB", "lower", 0.1, "largest max-RSS over the job processes"),
    "item_p50_s": ("s", "lower", 0.25,
                   "median time per item: a prime on compare, a generated input and the "
                   "jobs consuming it elsewhere"),
    "item_p90_s": ("s", "lower", 0.25, "90th percentile of the time per item"),
    "ok_ratio": ("ratio", "higher", 0.01,
                 "jobs that exited 0 and passed the output check, over jobs attempted"),
}

_TIMED = {
    "optimize": ["coordinate_descent"],
    "analysis": ["epsilon_of", "fourier_bias", "additive_energy", "spectrum_rows", "analyze"],
    "coeffsets": ["gen_gap", "is_proper_gap", "gen_aikps", "from_json_dict"],
    "zmod": ["is_prime", "primitive_root"],
}


def _per_layer() -> dict:
    out = {"cli.self_s": ("s", "lower"), "cli.output_bytes": ("bytes", "lower"),
           "cli.outputs_exact": ("count", "higher")}
    for mod, fns in _TIMED.items():
        for fn in fns:
            out[f"{mod}.{fn}.calls"] = ("count", "lower")
            out[f"{mod}.{fn}.self_s"] = ("s", "lower")
    counts = ["optimize.evaluations", "optimize.sweeps", "analysis.sweep_points",
              "analysis.phase_ops", "qfa.acceptance_sweep.steps", "qfa.run_word.calls",
              "circuit.gates", "circuit.qasm_lines", "coeffsets.gen_gap.tries", "rng.draws"]
    times = ["qfa.acceptance_sweep.self_s", "circuit.build.self_s", "circuit.emit_qasm.self_s",
             "circuit.stats.self_s", "trace.wall_s", "trace.overhead_s"]
    out.update({name: ("count", "lower") for name in counts})
    out.update({name: ("s", "lower") for name in times})
    out["optimize.table_bytes_max"] = ("bytes", "lower")
    out["coeffsets.gap_accept_ratio"] = ("ratio", "higher")
    return out


# name -> (unit, better)
PER_LAYER = _per_layer()
