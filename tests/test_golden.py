"""Golden outputs: seeded CLI runs must reproduce recorded bytes exactly.

Each hash was recorded from the code before a change that must not alter
outputs; a change that alters one of them has to say why.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shallowfp.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# re-recorded when argmax_x became the member of its conjugate pair below
# p/2: at p = 307 both argmax_x values and the last bits of both epsilons
# (and so of the ratio) changed; points, sweeps and evaluations did not
COMPARE_SHA256 = {
    "cmp.csv": "d0ab94c4f67dc1ffb8fbbc889b065cf48a9126997d1b12c3d2b59757d6ba0e1a",
    "cmp_ratios.csv": "99b75a18412ccb3f19ec2821183475adf084b57a1ab6e9224589701948188d28",
}


def test_compare_csvs_are_byte_identical(tmp_path, capsys):
    plist = tmp_path / "primes.txt"
    plist.write_text("151\n307\n457\n")
    code = main(["compare", "--p-list", str(plist), "--m", "3", "--seed", "1",
                 "--restarts", "3", "--out", str(tmp_path / "cmp.csv")])
    capsys.readouterr()
    assert code == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in COMPARE_SHA256}
    assert got == COMPARE_SHA256


def _compare_pool() -> dict:
    with open(PERFBENCH / "golden.json") as fh:
        return json.load(fh)["pools"]["compare"]


COMPARE_POOL = _compare_pool()


@pytest.mark.parametrize("seed", sorted(COMPARE_POOL["bands"], key=int))
def test_compare_pool_matches_the_benchmark_references(seed, tmp_path, capsys, monkeypatch):
    # one run over every pooled prime of a CLI seed, where a benchmark run
    # draws one prime a band; each row is held to its reference by the
    # benchmark's own checker
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checker
    import workloads
    m, restarts = COMPARE_POOL["m"], COMPARE_POOL["restarts"]
    primes = [p for band in COMPARE_POOL["bands"][seed] for p in band]
    (tmp_path / "primes.txt").write_text("".join(f"{p}\n" for p in primes))
    assert main(["compare", "--p-list", str(tmp_path / "primes.txt"), "--m", str(m),
                 "--seed", seed, "--restarts", str(restarts),
                 "--out", str(tmp_path / "cmp.csv")]) == 0
    capsys.readouterr()
    keys = tuple(workloads.compare_key(m, restarts, int(seed), p) for p in primes)
    refs = workloads.load_golden()["refs"]
    for out in (workloads.Output("cmp.csv", "compare_csv", keys),
                workloads.Output("cmp_ratios.csv", "compare_ratios", keys)):
        status, detail = checker.check_output(out, tmp_path, refs)
        assert status != "failed", f"{out.path}: {detail}"


ANALYZE_SHA256 = {
    "random-20011-64-s4": "053aedf01153b25c0d69e14b38fdf8d15f6500936b90aa2b0944862897c8fe7c",
    "aikps-1013-0.5": "2ac2f11ab813672e9b639b1d066a36a251b6ea1dc1326a1388c21d82851b0358",
}
ANALYZE_GEN = {
    "random-20011-64-s4": ["--method", "random", "--p", "20011", "--d", "64", "--seed", "4"],
    "aikps-1013-0.5": ["--method", "aikps", "--p", "1013", "--eps", "0.5"],
}


@pytest.mark.parametrize("name", sorted(ANALYZE_SHA256))
def test_analyze_json_is_byte_identical(name, tmp_path, capsys):
    kpath = str(tmp_path / "k.json")
    assert main(["gen", *ANALYZE_GEN[name], "--out", kpath]) == 0
    capsys.readouterr()
    assert main(["analyze", "--coeffs", kpath]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_SHA256[name]


# numpy's dispatched AVX2 and AVX-512 kernels; with them disabled every
# ufunc falls back to the baseline build
CPU_FEATURES_OFF = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")


def _dispatch_reason() -> str | None:
    """Why disabling CPU_FEATURES_OFF would change nothing here, or None."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        return "numpy 1 has no X86_V3/X86_V4 dispatch targets"
    if not set(CPU_FEATURES_OFF) <= set(umath.__cpu_dispatch__):
        return f"numpy does not dispatch on all of {CPU_FEATURES_OFF}"
    if not any(umath.__cpu_features__.get(name) for name in CPU_FEATURES_OFF):
        return f"the CPU has none of {CPU_FEATURES_OFF}"
    return None


def _run_without_fast_kernels(argv) -> subprocess.CompletedProcess:
    """The CLI run in a fresh interpreter with CPU_FEATURES_OFF disabled."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(CPU_FEATURES_OFF),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import sys\n"
              "from numpy._core._multiarray_umath import __cpu_features__\n"
              f"assert not any(__cpu_features__[f] for f in {CPU_FEATURES_OFF!r})\n"
              "from shallowfp.cli import main\n"
              f"sys.exit(main({list(argv)!r}))\n")
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          timeout=120)


@pytest.mark.skipif(_dispatch_reason() is not None, reason=str(_dispatch_reason()))
@pytest.mark.parametrize("name", sorted(ANALYZE_SHA256))
def test_analyze_json_does_not_depend_on_cpu_dispatch(name, tmp_path, capsys):
    kpath = str(tmp_path / "k.json")
    assert main(["gen", *ANALYZE_GEN[name], "--out", kpath]) == 0
    capsys.readouterr()
    result = _run_without_fast_kernels(["analyze", "--coeffs", kpath])
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == ANALYZE_SHA256[name]


# The descent compares candidates whose scores differ in the last bits, and
# those bits follow the kernels numpy dispatches to: the shallow rows'
# complex multiply fuses with FMA where the CPU has it, so its moves (not
# the peak) differ without the fast kernels.  ROADMAP item 8 makes shallow
# scores exact real products; this test then passes and loses its marker.
@pytest.mark.skipif(_dispatch_reason() is not None, reason=str(_dispatch_reason()))
@pytest.mark.xfail(strict=True, reason="ROADMAP item 8: shallow descent scores follow "
                                       "numpy's CPU dispatch")
def test_compare_csvs_do_not_depend_on_cpu_dispatch(tmp_path):
    plist = tmp_path / "primes.txt"
    plist.write_text("151\n307\n457\n")
    result = _run_without_fast_kernels(["compare", "--p-list", str(plist), "--m", "3",
                                        "--seed", "1", "--restarts", "3",
                                        "--out", str(tmp_path / "cmp.csv")])
    assert result.returncode == 0, result.stderr.decode()
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in COMPARE_SHA256}
    assert got == COMPARE_SHA256


QASM_SHA256 = {
    "shallow-gap-1013-3-s1-x12": "456b2651a3b147338f44454ef35c747d43ade436924b17e91b099b38d6fd878a",
    "aikps-1013-0.5-x5": "5fb534884f3c0158edfdf86188fe65195d16648e394bf0f1f8ea6a027713504c",
}
QASM_RUN = {
    "shallow-gap-1013-3-s1-x12": (["--method", "gap", "--p", "1013", "--m", "3", "--seed", "1"],
                                  ["--style", "shallow", "--x", "12"]),
    "aikps-1013-0.5-x5": (["--method", "aikps", "--p", "1013", "--eps", "0.5"],
                          ["--style", "aikps", "--x", "5"]),
}


@pytest.mark.parametrize("name", sorted(QASM_SHA256))
def test_circuit_qasm_is_byte_identical(name, tmp_path):
    kpath, qpath = tmp_path / "k.json", tmp_path / "c.qasm"
    gen_args, circuit_args = QASM_RUN[name]
    assert main(["gen", *gen_args, "--out", str(kpath)]) == 0
    assert main(["circuit", "--coeffs", str(kpath), *circuit_args,
                 "--emit-qasm", str(qpath)]) == 0
    assert hashlib.sha256(qpath.read_bytes()).hexdigest() == QASM_SHA256[name]


GAP_1E6 = ["--method", "gap", "--p", "1000003", "--m", "10", "--seed", "5"]
GAP_1E6_SHA256 = "3f99082fff06d6fde7943779cc468a40c92ed6bf657e6f67c604c3f11eb9d404"
STATS_SHA256 = {
    "shallow-gap-1000003-10-s5-x12345":
        "a0b93b420f7319b2f52d7e71f8296f2d517a9a3318b1274a8952ff48df10139e",
    "aikps-1000003-0.5-x12345":
        "1662d5050ff0edf948e7445878797fe0f194360acde85d23fbd979f020c0caa2",
}
STATS_RUN = {
    "shallow-gap-1000003-10-s5-x12345": (GAP_1E6, ["--style", "shallow", "--x", "12345"]),
    "aikps-1000003-0.5-x12345": (["--method", "aikps", "--p", "1000003", "--eps", "0.5"],
                                 ["--style", "aikps", "--x", "12345"]),
}


def test_gen_gap_json_is_byte_identical(tmp_path):
    kpath = tmp_path / "k.json"
    assert main(["gen", *GAP_1E6, "--out", str(kpath)]) == 0
    assert hashlib.sha256(kpath.read_bytes()).hexdigest() == GAP_1E6_SHA256


@pytest.mark.parametrize("name", sorted(STATS_SHA256))
def test_circuit_stats_are_byte_identical(name, tmp_path, capsys):
    kpath = str(tmp_path / "k.json")
    gen_args, circuit_args = STATS_RUN[name]
    assert main(["gen", *gen_args, "--out", kpath]) == 0
    capsys.readouterr()
    assert main(["circuit", "--coeffs", kpath, *circuit_args, "--stats"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STATS_SHA256[name]


SPECTRAL_CSV_SHA256 = {
    "sweep-cyclic-65537-64": "215d2f1e0da8e1c1490578395e53664ae7b54cdb7ca341c84c2aadb9c3eaefb3",
    "spectrum-random-20011-64-s4":
        "993eaf23a956cc14c35de0f73607af167cc61b21348b1454d5aafe824cee833f",
}
SPECTRAL_CSV_RUN = {
    "sweep-cyclic-65537-64": (["--method", "cyclic", "--p", "65537", "--d", "64"],
                              ["simulate", "--sweep", "--out"]),
    "spectrum-random-20011-64-s4": (ANALYZE_GEN["random-20011-64-s4"],
                                    ["analyze", "--spectrum"]),
}


@pytest.mark.parametrize("name", sorted(SPECTRAL_CSV_SHA256))
def test_spectral_csvs_are_byte_identical(name, tmp_path, capsys):
    kpath, cpath = tmp_path / "k.json", tmp_path / "out.csv"
    gen_args, (command, *flags) = SPECTRAL_CSV_RUN[name]
    assert main(["gen", *gen_args, "--out", str(kpath)]) == 0
    assert main([command, "--coeffs", str(kpath), *flags, str(cpath)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(cpath.read_bytes()).hexdigest() == SPECTRAL_CSV_SHA256[name]
