"""Tests of the benchmark itself: inputs, span arithmetic, metric names, checker.

    python3 -m pytest perfbench -q
"""
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checker  # noqa: E402
import workloads  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from spans import Span, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def golden():
    return workloads.load_golden()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(golden, workload):
    first = workloads.make_batch(workload, 11, golden)
    assert workloads.make_batch(workload, 11, golden) == first
    distinct = {json.dumps(workloads.make_batch(workload, s, golden).inputs, sort_keys=True)
                for s in range(12)}
    assert len(distinct) > 1
    for job in first.jobs:
        for out in job.outputs:
            assert all(k in golden["refs"] for k in out.keys), out.keys


def test_self_time_of_span_tree():
    spans = [
        Span(0, "cli", None, 0.0, 10.0),
        Span(1, "a", 0, 1.0, 4.0),
        Span(2, "b", 0, 3.0, 6.0),  # overlaps a: the union 1..6 counts once
        Span(3, "c", 1, 2.0, 3.0),
        Span(4, "d", 0, 9.0, 12.0),  # runs past its parent: clipped at 10
    ]
    got = self_times(spans)
    assert got == pytest.approx({0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0})


def test_metric_names_and_benchmark_file():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    assert set(e2e) == set(END_TO_END) and set(layer) == set(PER_LAYER)
    for name, (unit, better, bound, _) in END_TO_END.items():
        assert e2e[name] == {"name": name, "unit": unit, "better": better, "bound": bound}
    for name, (unit, better) in PER_LAYER.items():
        assert layer[name] == {"name": name, "unit": unit, "better": better}
    names = list(e2e) + list(layer) + [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def _write(tmp_path, name, text):
    (tmp_path / name).write_text(text)
    return tmp_path / name


def test_checker_rejects_corruption_and_accepts_argmax_tie(golden, tmp_path):
    refs = golden["refs"]
    batch = workloads.make_batch("spectral", 3, golden)
    out = next(o for j in batch.jobs for o in j.outputs if o.kind == "analyze")
    report = refs[out.keys[0]]["ref"]
    p, x = report["p"], report["argmax_x"]

    _write(tmp_path, out.path, json.dumps(report, indent=2) + "\n")
    assert checker.check_output(out, tmp_path, refs)[0] == "exact"

    _write(tmp_path, out.path, json.dumps(dict(report, argmax_x=p - x)))
    assert checker.check_output(out, tmp_path, refs)[0] == "semantic"

    _write(tmp_path, out.path, json.dumps(dict(report, argmax_x=x + 1)))
    assert checker.check_output(out, tmp_path, refs)[0] == "failed"
    _write(tmp_path, out.path, json.dumps(dict(report, epsilon=report["epsilon"] * 1.001)))
    assert checker.check_output(out, tmp_path, refs)[0] == "failed"
    _write(tmp_path, out.path, json.dumps(report)[:-20])
    assert checker.check_output(out, tmp_path, refs)[0] == "failed"


def test_checker_compare_rows(golden, tmp_path):
    refs = golden["refs"]
    batch = workloads.make_batch("compare", 2, golden)
    csv_out = batch.jobs[0].outputs[0]
    good = checker.compare_expected(refs, csv_out.keys, ratios=False).decode()
    _write(tmp_path, csv_out.path, good.replace("\r\n", "\n"))  # same rows, other line ends
    assert checker.check_output(csv_out, tmp_path, refs)[0] == "semantic"
    row = good.split("\r\n")[1].split(",")
    tied = ",".join(row[:4] + [str(int(row[0]) - int(row[4]))] + row[5:])
    _write(tmp_path, csv_out.path, good.replace(",".join(row), tied))
    assert checker.check_output(csv_out, tmp_path, refs)[0] == "semantic"
    broken = ",".join(row[:3] + [str(float(row[3]) + 1e-3)] + row[4:])
    _write(tmp_path, csv_out.path, good.replace(",".join(row), broken))
    assert checker.check_output(csv_out, tmp_path, refs)[0] == "failed"


def test_oracles_accept_program_output_and_reject_changes(tmp_path):
    from shallowfp import analysis, circuit, coeffsets, qfa

    K = coeffsets.gen_random(101, 8, 5)
    _write(tmp_path, "k.json", json.dumps(K.to_json_dict()))
    x = 7
    probs = qfa.acceptance_sweep(K)
    rows = np.array(list(analysis.spectrum_rows(K)))

    def sweep_csv(v):
        return "j,accept_prob\n" + "".join(f"{j},{float(a)!r}\n" for j, a in enumerate(v))

    def spectrum_csv(r):
        return "x,re,im,magnitude2,error_prob\n" + "".join(
            f"{int(row[0])}," + ",".join(repr(float(v)) for v in row[1:]) + "\n" for row in r)

    qasm = circuit.emit_qasm(circuit.build_deep(K, x))
    lines = qasm.splitlines(keepends=True)
    i = next(n for n, line in enumerate(lines) if line.startswith("ry("))
    bad_qasm = "".join(lines[:i] + ["ry(0.5) q[3];\n"] + lines[i + 1:])
    bad_probs, bad_rows = probs.copy(), rows.copy()
    bad_probs[1] += 1e-3
    bad_rows[3, 1] += 1e-3
    cases = [("c.qasm", "qasm", qasm, bad_qasm),
             ("s.csv", "sweep", sweep_csv(probs), sweep_csv(bad_probs)),
             ("p.csv", "spectrum", spectrum_csv(rows), spectrum_csv(bad_rows))]
    for name, kind, text, bad in cases:
        out = workloads.Output(name, kind, ("k",), {"source": "k.json", "x": x})
        refs = {"k": {"sha256": "0" * 64}}
        _write(tmp_path, name, text)
        assert checker.check_output(out, tmp_path, refs) == ("semantic",
                                                             "matches within tolerance")
        _write(tmp_path, name, bad)
        assert checker.check_output(out, tmp_path, refs)[0] == "failed", kind
    state = checker.simulate_qasm(qasm)
    assert np.allclose(np.linalg.norm(state), 1.0)
