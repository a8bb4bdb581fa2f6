import gc
import importlib
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import assert_no_child_left, patch_descent
from shallowfp import coeffsets
from shallowfp.cli import main
from shallowfp.errors import DomainError

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict:
    """The environment of a new interpreter that imports the package from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh_python(*args, cwd, text=True):
    """Run ``python *args`` in a new interpreter that imports the package from SRC."""
    return subprocess.run([sys.executable, *args], cwd=cwd, env=child_env(),
                          capture_output=True, text=text, timeout=60)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_cyclic_to_file(self, tmp_path, capsys):
        out = tmp_path / "k.json"
        code, _, _ = run(capsys, "gen", "--method", "cyclic", "--p", "7", "--d", "3",
                         "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["coefficients"] == [3, 2, 6]
        assert data["method"] == "cyclic"

    def test_gap_unsatisfiable_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "--method", "gap", "--p", "13", "--m", "3")
        assert code == 2
        assert "unsatisfiable" in err

    def test_composite_p_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "--method", "cyclic", "--p", "9", "--d", "2")
        assert code == 2
        assert "not prime" in err

    def test_missing_flag_exit_1(self, capsys):
        code, _, _ = run(capsys, "gen", "--method", "cyclic", "--p", "7")
        assert code == 1

    def test_seeds_congruent_mod_2_64_draw_the_same_set(self, capsys):
        # the generator starts from seed mod 2^64; params keep the seed as given
        for seed in (-1, 2 ** 64 - 1, 2 ** 65 - 1):
            code, stdout, _ = run(capsys, "gen", "--method", "random", "--p", "1013",
                                  "--d", "4", "--seed", str(seed))
            data = json.loads(stdout)
            assert code == 0
            assert data["params"] == {"seed": seed}
            assert data["coefficients"] == [233, 986, 390, 339]

    @pytest.mark.parametrize("p", ["5", "7"])
    def test_aikps_interval_containing_p(self, capsys, p):
        code, stdout, err = run(capsys, "gen", "--method", "aikps", "--p", p, "--eps", "1")
        assert (code, err) == (0, "")
        assert int(p) not in json.loads(stdout)["params"]["R"]

    def test_unknown_flag_exit_1(self, capsys):
        code, _, _ = run(capsys, "gen", "--method", "cyclic", "--p", "7", "--d", "3",
                         "--frobnicate")
        assert code == 1


@pytest.mark.parametrize("argv", [
    ["compare", "--p-max", "7", "--m", "0", "--out", "x.csv"],
    ["optimize", "--p", "31", "--size", "0", "--mode", "general"],
    ["gen", "--method", "cyclic", "--p", "7", "--d", "0"],
    ["gen", "--method", "random", "--p", "7", "--d", "0"],
    ["gen", "--method", "gap", "--p", "1013", "--m", "0"],
    ["simulate", "--coeffs", "k.json", "--j", "-3"],
    ["optimize", "--p", "31", "--size", "2", "--mode", "general", "--max-sweeps", "0"],
    ["optimize", "--p", "31", "--size", "2", "--mode", "general", "--restarts", "-1"],
    ["compare", "--p-max", "7", "--m", "2", "--restarts", "-1", "--out", "x.csv"],
    ["gen", "--method", "gap", "--p", "1000003", "--m", "10", "--max-tries", "0"],
    ["gen", "--method", "gap", "--p", "1000003", "--m", "10", "--max-tries", "-1"],
], ids=["compare-m0", "optimize-size0", "cyclic-d0", "random-d0", "gap-m0", "simulate-j-3",
        "optimize-sweeps0", "optimize-restarts-1", "compare-restarts-1", "gap-max-tries0",
        "gap-max-tries-1"])
def test_bad_size_flag_exit_1(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.json").write_text(json.dumps({"p": 7, "method": "explicit", "params": {},
                                                 "coefficients": [1, 2]}))
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert err.count("\n") == 1 and err.startswith("usage error:")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv,needle", [
    (["gen", "--method", "gap", "--p", "1000003", "--m", "17"], "m <= 16"),
    (["gen", "--method", "cyclic", "--p", "7", "--d", "9"], "d <= p-1"),
    (["gen", "--method", "aikps", "--p", "1013", "--eps", "-1"], "eps must be positive"),
    (["analyze", "--coeffs", "range.json"], "[0, p)"),
    (["circuit", "--coeffs", "wide.json", "--style", "shallow", "--x", "1", "--stats"],
     "capped at 16"),
    (["gen", "--method", "random", "--p", "9223372036854775837", "--d", "3"], "2^63"),
    (["gen", "--method", "aikps", "--p", "1013", "--eps", "8"], "AIKPS size bound"),
    (["optimize", "--p", "7", "--size", "20", "--mode", "shallow"], "far exceeds"),
    (["compare", "--p-max", "7", "--m", "4", "--out", "x.csv"], "far exceeds"),
    # the least prime above 2^22, and far above it: refused before the prime scan
    (["compare", "--p-max", "4194319", "--m", "3", "--out", "x.csv"], "p = 4194319 exceeds"),
    (["compare", "--p-max", "100000000", "--m", "3", "--out", "x.csv"], "exceeds the cap"),
    # 2.0e8 and 1.7e10 full-row entries a sweep, refused before any start is drawn
    (["optimize", "--p", "1013", "--size", "200000", "--mode", "general"],
     "full-row entries a sweep"),
    (["compare", "--p-list", "primes.txt", "--m", "18", "--out", "x.csv"],
     "full-row entries a sweep"),
    # 2^m (p - 1) > 2^26 at every p: refused without building or printing 2^m
    (["compare", "--p-max", "5", "--m", "100000000", "--out", "x.csv"],
     "full-row entries a sweep"),
    # 10^8 coefficients, refused before the first draw; the cyclic modulus is
    # the largest prime below 2^63, so p - 1 does not bound d
    (["gen", "--method", "random", "--p", "101", "--d", "100000000"], "exceeds the cap"),
    (["gen", "--method", "cyclic", "--p", "9223372036854775783", "--d", "100000000"],
     "exceeds the cap"),
], ids=["gap-m17", "cyclic-d9", "aikps-eps-1", "analyze-range", "shallow-17-generators",
        "p-above-2^63", "aikps-eps-8", "optimize-shallow-size20", "compare-m4",
        "compare-p-max-4194319", "compare-p-max-1e8", "optimize-general-size200000",
        "compare-m18", "compare-m1e8", "random-d1e8", "cyclic-d1e8-p-below-2^63"])
def test_out_of_range_exit_2(tmp_path, capsys, monkeypatch, argv, needle):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "range.json").write_text(json.dumps({"p": 7, "method": "explicit",
                                                     "params": {}, "coefficients": [1, 9]}))
    (tmp_path / "wide.json").write_text(json.dumps({"p": 1000003, "method": "gap", "params": {},
                                                    "coefficients": [0], "t0": 0,
                                                    "generators": list(range(1, 18))}))
    (tmp_path / "primes.txt").write_text("65537\n")
    start = time.perf_counter()
    code, stdout, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0  # refused before any long scan or allocation
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and err.startswith("error:") and needle in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,needle", [
    (["optimize", "--p", "5", "--size", "1000000000000", "--mode", "shallow"], "far exceeds"),
    (["compare", "--p-max", "5", "--m", "1000000000000", "--out", "x.csv"],
     "full-row entries a sweep"),
], ids=["optimize-shallow-size1e12", "compare-m1e12"])
def test_huge_size_refused_before_2_to_the_size(tmp_path, argv, needle):
    # 2^(10^12) is a 125 GB integer; the child's address space is capped at
    # 2 GB, so a run that builds it fails fast instead of filling memory
    resource = pytest.importorskip("resource")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))

    result = subprocess.run([sys.executable, "-m", "shallowfp.cli", *argv], cwd=tmp_path,
                            env=child_env(), capture_output=True, text=True, timeout=60,
                            preexec_fn=cap_memory)
    assert (result.returncode, result.stdout) == (2, "")
    err = result.stderr
    assert err.count("\n") == 1 and err.startswith("error:") and needle in err
    assert not (tmp_path / "x.csv").exists()


COMMANDS_ON_FILE = {
    "analyze": ["analyze", "--coeffs", "k.json"],
    "simulate": ["simulate", "--coeffs", "k.json", "--j", "3"],
    "circuit": ["circuit", "--coeffs", "k.json", "--style", "deep", "--x", "1", "--stats"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS_ON_FILE))
@pytest.mark.parametrize("content,code,needle", [
    (None, 1, "No such file"),
    ('{"p": 7, "coefficients": [1, 2]', 1, "not a JSON file"),
    (b"\xff\xfe{}", 1, "not a JSON file"),
    ('{"p": 7}', 2, "'coefficients'"),
    ('{"coefficients": [1, 2]}', 2, "'p'"),
    ('[7, [1, 2]]', 2, "JSON object"),
    ('{"p": "7", "coefficients": [1, 2]}', 2, "'p' must be an integer"),
    ('{"p": 7.0, "coefficients": [1, 2]}', 2, "'p' must be an integer"),
    ('{"p": 7, "coefficients": [1, "2"]}', 2, "'coefficients' must be a list"),
    ('{"p": 7, "coefficients": 3}', 2, "'coefficients' must be a list"),
    ('{"p": 7, "coefficients": [1, 2], "t0": null}', 2, "'t0' must be an integer"),
    ('{"p": 7, "coefficients": [1, 2], "generators": [true]}', 2, "'generators'"),
    ('{"p": 7, "coefficients": [1, 2], "params": [1]}', 2, "'params'"),
    ('{"p": 7, "coefficients": [1, 2], "method": [1]}', 2, "'method' must be a string"),
], ids=["missing", "garbled", "binary", "no-coefficients", "no-p", "array", "p-string",
        "p-float", "coefficient-string", "coefficients-int", "t0-null", "generator-bool",
        "params-list", "method-list"])
def test_bad_coefficient_file(tmp_path, capsys, monkeypatch, command, content, code, needle):
    # an unreadable file or invalid JSON is a usage error (1); valid JSON
    # without the schema's fields is a domain error (2); one line either way
    monkeypatch.chdir(tmp_path)
    if isinstance(content, str):
        (tmp_path / "k.json").write_text(content)
    elif content is not None:
        (tmp_path / "k.json").write_bytes(content)
    rc, stdout, err = run(capsys, *COMMANDS_ON_FILE[command])
    assert rc == code
    assert stdout == ""
    assert err.count("\n") == 1 and needle in err
    assert err.startswith("usage error:" if code == 1 else "error:")
    assert "Traceback" not in err


def test_unwritable_output_exit_1(tmp_path, capsys):
    code, stdout, err = run(capsys, "gen", "--method", "cyclic", "--p", "7", "--d", "3",
                            "--out", str(tmp_path / "no-such-dir" / "k.json"))
    assert code == 1
    assert stdout == ""
    assert err.count("\n") == 1 and err.startswith("usage error:")


# each command with an output in a missing directory, and the function that
# does its work, replaced by one that fails the test if it is called
UNWRITABLE = {
    "gen": (["gen", "--method", "gap", "--p", "1013", "--m", "3", "--out", "no/k.json"],
            "coeffsets", "gen_gap"),
    "analyze": (["analyze", "--coeffs", "k.json", "--spectrum", "no/s.csv"],
                "analysis", "analyze"),
    "simulate": (["simulate", "--coeffs", "k.json", "--sweep", "--out", "no/s.csv"],
                 "qfa", "acceptance_sweep"),
    "circuit": (["circuit", "--coeffs", "k.json", "--style", "deep", "--x", "1",
                 "--emit-qasm", "no/c.qasm"], "circuit", "build_deep"),
    "optimize": (["optimize", "--p", "1013", "--size", "3", "--mode", "shallow",
                  "--out", "no/o.json"], "optimize", "coordinate_descent"),
    "compare": (["compare", "--p-max", "13", "--m", "2", "--out", "no/c.csv"],
                "optimize", "coordinate_descent"),
}


@pytest.mark.parametrize("command", list(UNWRITABLE))
def test_unwritable_output_ends_the_run_before_any_work(tmp_path, capsys, monkeypatch,
                                                        command):
    argv, module, name = UNWRITABLE[command]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.json").write_text(json.dumps(coeffsets.gen_cyclic(13, 4).to_json_dict()))

    def no_work(*args, **kwargs):
        raise AssertionError(f"{module}.{name} ran before the output was opened")

    monkeypatch.setattr(importlib.import_module(f"shallowfp.{module}"), name, no_work)
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (1, "")
    assert err.count("\n") == 1 and err.startswith("usage error:")


def test_output_may_overwrite_the_input(tmp_path, capsys):
    # the coefficient file is read before the output is opened
    kpath = tmp_path / "k.json"
    kpath.write_text(json.dumps(coeffsets.gen_cyclic(13, 4).to_json_dict()))
    code, _, _ = run(capsys, "simulate", "--coeffs", str(kpath), "--sweep", "--out", str(kpath))
    assert code == 0
    assert kpath.read_text().splitlines()[:2] == ["j,accept_prob", "0,1"]


def test_dash_output_is_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run(capsys, "gen", "--method", "cyclic", "--p", "13", "--d", "4",
                          "--out", "-")
    assert code == 0
    (tmp_path / "k.json").write_text(stdout)
    code, stdout, _ = run(capsys, "circuit", "--coeffs", "k.json", "--style", "deep",
                          "--x", "1", "--emit-qasm", "-")
    assert code == 0 and stdout.startswith("OPENQASM 2.0;")
    assert not (tmp_path / "-").exists()


def test_refused_run_leaves_the_output_path_as_it_was(tmp_path, capsys):
    kpath = tmp_path / "k.json"
    argv = ["gen", "--method", "gap", "--p", "1013", "--m", "17", "--out", str(kpath)]
    assert run(capsys, *argv)[0] == 2
    assert not kpath.exists()
    kpath.write_text("an older file")
    assert run(capsys, *argv)[0] == 2
    assert kpath.read_text() == "an older file"
    # a shorter output replaces a longer file whole
    kpath.write_text("x" * 10000)
    assert run(capsys, "gen", "--method", "cyclic", "--p", "13", "--d", "4",
               "--out", str(kpath))[0] == 0
    assert json.loads(kpath.read_text()) == coeffsets.gen_cyclic(13, 4).to_json_dict()


class TestAnalyze:
    def test_report_on_stdout(self, tmp_path, capsys):
        out = tmp_path / "k.json"
        run(capsys, "gen", "--method", "cyclic", "--p", "7", "--d", "3",
            "--out", str(out))
        code, stdout, _ = run(capsys, "analyze", "--coeffs", str(out))
        assert code == 0
        report = json.loads(stdout)
        assert report["p"] == 7
        assert report["d"] == 3

    def test_gap_without_generators(self, tmp_path, capsys):
        # a one-point set is a 0-dimensional GAP: d = 1, and a set, so it
        # gets the two bias-energy checks and nothing GAP-specific
        kpath = tmp_path / "k.json"
        kpath.write_text(json.dumps({"p": 7, "method": "gap", "params": {},
                                     "coefficients": [3], "t0": 3, "generators": []}))
        code, stdout, err = run(capsys, "analyze", "--coeffs", str(kpath))
        assert (code, err) == (0, "")
        report = json.loads(stdout)
        assert report["d"] == 1
        assert [b["name"] for b in report["bounds"]] == [
            "bias^4 <= E/p^3 - density^4", "E/p^3 - density^4 <= bias^2 * density"]

    def test_spectrum_csv(self, tmp_path, capsys):
        kpath = tmp_path / "k.json"
        spath = tmp_path / "spectrum.csv"
        run(capsys, "gen", "--method", "cyclic", "--p", "7", "--d", "3",
            "--out", str(kpath))
        code, _, _ = run(capsys, "analyze", "--coeffs", str(kpath),
                         "--spectrum", str(spath))
        assert code == 0
        lines = spath.read_text().splitlines()
        assert lines[0] == "x,re,im,magnitude2,error_prob"
        assert len(lines) == 8  # header + one row per x in [0, 7)

    def test_energy_of_aikps_set_beyond_2_16(self, tmp_path, capsys):
        # d = 94208 > 2^16, and by Parseval the energy is (1/p) sum_x |S(x)|^4
        kpath = tmp_path / "k.json"
        run(capsys, "gen", "--method", "aikps", "--p", "65537", "--eps", "1",
            "--out", str(kpath))
        code, stdout, err = run(capsys, "analyze", "--coeffs", str(kpath))
        assert (code, err) == (0, "")
        report = json.loads(stdout)
        coeffs = json.loads(kpath.read_text())["coefficients"]
        mag2 = np.abs(np.fft.fft(np.bincount(coeffs, minlength=65537))) ** 2
        assert report["d"] == len(coeffs) == 94208
        assert report["energy"] == pytest.approx(float(mag2 @ mag2) / 65537, rel=1e-9)

    def test_one_forward_transform(self, tmp_path, capsys, monkeypatch):
        # eps, bias, energy and the spectrum rows all read one kernel
        kpath = tmp_path / "k.json"
        run(capsys, "gen", "--method", "random", "--p", "1013", "--d", "16", "--seed", "2",
            "--out", str(kpath))
        calls = []
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda *a, **kw: calls.append(1) or fft(*a, **kw))
        counts = []
        for extra in ([], ["--spectrum", str(tmp_path / "s.csv")]):
            calls.clear()
            assert run(capsys, "analyze", "--coeffs", str(kpath), *extra)[0] == 0
            counts.append(len(calls))
        assert counts == [1, 1]


class TestTableSizeCap:
    # p = 10^18 + 3 is prime; a length-p table would need exabytes
    @pytest.mark.parametrize("argv", [["analyze"], ["analyze", "--spectrum", "s.csv"],
                                      ["simulate", "--sweep"]])
    def test_huge_modulus_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        kpath = tmp_path / "k.json"
        kpath.write_text(json.dumps({"p": 10 ** 18 + 3, "method": "explicit", "params": {},
                                     "coefficients": [1, 2, 3]}))
        code, stdout, err = run(capsys, argv[0], "--coeffs", str(kpath), *argv[1:])
        assert code == 2
        assert stdout == ""
        assert err.count("\n") == 1 and "2^22" in err
        assert "Traceback" not in err
        assert not (tmp_path / "s.csv").exists()

    # 4194319 is the least prime above 2^22; the descent's length-p tables are
    # refused before any allocation, and compare checks every prime first
    @pytest.mark.parametrize("argv", [
        ["optimize", "--p", "4194319", "--size", "2", "--mode", "general"],
        ["compare", "--p-list", "primes.txt", "--m", "2", "--out", "c.csv"],
    ], ids=["optimize", "compare"])
    def test_descent_table_cap_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "primes.txt").write_text("13\n4194319\n")
        start = time.perf_counter()
        code, stdout, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, stdout) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error:") and "2^22" in err
        assert not (tmp_path / "c.csv").exists()


class TestSimulate:
    def test_single_word(self, tmp_path, capsys):
        kpath = tmp_path / "k.json"
        run(capsys, "gen", "--method", "cyclic", "--p", "7", "--d", "3",
            "--out", str(kpath))
        code, stdout, _ = run(capsys, "simulate", "--coeffs", str(kpath), "--j", "7")
        assert code == 0
        assert float(stdout) == pytest.approx(1.0, abs=1e-10)

    def test_sweep_csv(self, tmp_path, capsys):
        kpath = tmp_path / "k.json"
        opath = tmp_path / "sweep.csv"
        run(capsys, "gen", "--method", "random", "--p", "11", "--d", "4",
            "--seed", "3", "--out", str(kpath))
        code, _, _ = run(capsys, "simulate", "--coeffs", str(kpath), "--sweep",
                         "--out", str(opath))
        assert code == 0
        lines = opath.read_text().splitlines()
        assert lines[0] == "j,accept_prob"
        assert len(lines) == 12


class TestCircuit:
    def test_stats(self, tmp_path, capsys):
        kpath = tmp_path / "k.json"
        run(capsys, "gen", "--method", "gap", "--p", "1013", "--m", "3",
            "--seed", "1", "--out", str(kpath))
        code, stdout, _ = run(capsys, "circuit", "--coeffs", str(kpath),
                              "--style", "shallow", "--x", "5", "--stats")
        assert code == 0
        data = json.loads(stdout)
        assert data["depth"] == 5
        assert data["cx_lnn"] == 12

    def test_deep_stats_of_a_single_coefficient(self, tmp_path, capsys):
        # d = 1 lowers to one uncontrolled rotation: no CX, as d * ceil(log2 d) says
        kpath = tmp_path / "k.json"
        run(capsys, "gen", "--method", "cyclic", "--p", "2", "--d", "1", "--out", str(kpath))
        code, stdout, _ = run(capsys, "circuit", "--coeffs", str(kpath),
                              "--style", "deep", "--x", "1", "--stats")
        assert code == 0
        data = json.loads(stdout)
        assert (data["gates"], data["cx_lnn"]) == (1, 0)

    def test_emit_qasm_round_trips_through_gen_output(self, tmp_path, capsys):
        kpath = tmp_path / "k.json"
        qpath = tmp_path / "c.qasm"
        run(capsys, "gen", "--method", "cyclic", "--p", "13", "--d", "8",
            "--out", str(kpath))
        code, _, _ = run(capsys, "circuit", "--coeffs", str(kpath),
                         "--style", "deep", "--x", "3", "--emit-qasm", str(qpath))
        assert code == 0
        assert qpath.read_text().startswith("OPENQASM 2.0;")

    def test_shallow_refuses_edited_coefficients(self, tmp_path, capsys):
        kpath = tmp_path / "k.json"
        run(capsys, "gen", "--method", "gap", "--p", "1013", "--m", "3",
            "--seed", "1", "--out", str(kpath))
        data = json.loads(kpath.read_text())
        data["coefficients"][3] = (data["coefficients"][3] + 1) % 1013
        kpath.write_text(json.dumps(data))
        code, stdout, err = run(capsys, "circuit", "--coeffs", str(kpath),
                                "--style", "shallow", "--x", "5", "--stats")
        assert code == 2
        assert stdout == ""
        assert err.count("\n") == 1 and "subset sums" in err

    def test_aikps_refuses_edited_coefficients(self, tmp_path, capsys):
        # the layout is rebuilt from p and eps, so a cut-down file would
        # otherwise print the circuit of the full 495-coefficient set
        kpath = tmp_path / "k.json"
        run(capsys, "gen", "--method", "aikps", "--p", "1013", "--eps", "0.5",
            "--out", str(kpath))
        data = json.loads(kpath.read_text())
        assert len(data["coefficients"]) == 495
        data["coefficients"] = data["coefficients"][:3]
        kpath.write_text(json.dumps(data))
        code, stdout, err = run(capsys, "circuit", "--coeffs", str(kpath),
                                "--style", "aikps", "--x", "5", "--stats")
        assert code == 2
        assert stdout == ""
        assert err.count("\n") == 1 and "rebuilt from p and eps" in err

    @pytest.mark.parametrize("style,params", [("aikps", {"eps": "0.5"}),
                                              ("shallow", {"t0": 0, "T": "ab"}),
                                              ("aikps", {"eps": True})])
    def test_builder_params_from_file_are_checked(self, tmp_path, capsys, style, params):
        # a mistyped eps (a bool too), or generators hidden in "params" instead of their
        # own field, end in one line instead of a TypeError
        kpath = tmp_path / "k.json"
        kpath.write_text(json.dumps({"p": 13, "method": style, "params": params,
                                     "coefficients": [1, 2]}))
        code, stdout, err = run(capsys, "circuit", "--coeffs", str(kpath),
                                "--style", style, "--x", "1", "--stats")
        assert code == 2
        assert stdout == ""
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_shallow_needs_generators(self, tmp_path, capsys):
        kpath = tmp_path / "k.json"
        run(capsys, "gen", "--method", "cyclic", "--p", "13", "--d", "4",
            "--out", str(kpath))
        code, _, err = run(capsys, "circuit", "--coeffs", str(kpath),
                           "--style", "shallow", "--x", "1", "--stats")
        assert code == 2
        assert "subset-sum" in err


class TestOptimize:
    def test_output_round_trips(self, tmp_path, capsys):
        opath = tmp_path / "opt.json"
        code, _, _ = run(capsys, "optimize", "--p", "31", "--size", "2",
                         "--mode", "shallow", "--seed", "4", "--out", str(opath))
        assert code == 0
        data = json.loads(opath.read_text())
        assert data["best"]["method"] == "optimized"
        assert len(data["best"]["generators"]) == 2
        assert len(data["best"]["coefficients"]) == 4

    def test_shallow_above_the_generator_cap_exit_2(self, capsys, monkeypatch):
        # 2^17 <= 4p and 17 (p - 1) <= 2^26, but the expansion takes at most
        # 16 generators: refused before the evaluator is built
        from shallowfp import optimize

        def no_evaluator(*args):
            raise AssertionError("the descent started")

        monkeypatch.setattr(optimize, "_Evaluator", no_evaluator)
        code, stdout, err = run(capsys, "optimize", "--mode", "shallow", "--size", "17",
                                "--p", "1000003", "--max-sweeps", "3")
        assert (code, stdout) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error:") and "capped at 16" in err


class TestCompare:
    def test_small_run(self, tmp_path, capsys):
        opath = tmp_path / "cmp.csv"
        code, _, _ = run(capsys, "compare", "--p-max", "13", "--m", "2",
                         "--seed", "7", "--out", str(opath))
        assert code == 0
        lines = opath.read_text().splitlines()
        assert lines[0] == ("p,m,method,epsilon,argmax_x,depth,cx_lnn,"
                            "sweeps,evaluations,seed")
        # primes 2..13 -> 6 primes, two rows each
        assert len(lines) == 1 + 12
        # depth and cx_lnn of the built deep (d = 4) and shallow (m = 2) circuits
        rows = [row.split(",") for row in lines[1:]]
        assert {(r[2], r[5], r[6]) for r in rows} == {("general", "5", "8"),
                                                      ("shallow", "4", "9")}
        ratios = (tmp_path / "cmp_ratios.csv").read_text().splitlines()
        assert ratios[0] == "p,ratio"
        assert len(ratios) == 7
        # at p = 2 < 2^m both errors are roundoff; each is clamped at 1e-15
        assert ratios[1] == "2,1"

    def test_ratios_path_keeps_a_dotted_directory(self, tmp_path, capsys):
        # only the extension of the file name goes: run.d/cmp -> run.d/cmp_ratios.csv
        (tmp_path / "run.d").mkdir()
        code, _, _ = run(capsys, "compare", "--p-max", "5", "--m", "2", "--seed", "1",
                         "--out", str(tmp_path / "run.d" / "cmp"))
        assert code == 0
        assert (tmp_path / "run.d" / "cmp_ratios.csv").read_text().startswith("p,ratio")
        assert not (tmp_path / "run_ratios.csv").exists()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(capsys, "compare", "--p-max", "7", "--m", "2", "--seed", "1",
            "--out", str(a))
        run(capsys, "compare", "--p-max", "7", "--m", "2", "--seed", "1",
            "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_nonprime_list_entry_exit_2(self, tmp_path, capsys):
        plist = tmp_path / "primes.txt"
        plist.write_text("7\n9\n")
        code, _, err = run(capsys, "compare", "--p-list", str(plist), "--m", "2",
                           "--seed", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "9" in err

    def test_non_integer_list_entry_exit_1(self, tmp_path, capsys):
        plist = tmp_path / "primes.txt"
        plist.write_text("7\nabc\n")
        code, stdout, err = run(capsys, "compare", "--p-list", str(plist), "--m", "2",
                                "--out", str(tmp_path / "x.csv"))
        assert (code, stdout) == (1, "")
        assert err.count("\n") == 1 and err.startswith("usage error:") and "'abc'" in err
        assert not (tmp_path / "x.csv").exists()

    def test_progress_is_one_json_object_per_prime(self, tmp_path, capsys):
        code, _, err = run(capsys, "compare", "--p-max", "13", "--m", "2",
                           "--seed", "7", "--out", str(tmp_path / "cmp.csv"))
        assert code == 0
        lines = [json.loads(line) for line in err.splitlines()]
        assert [line["p"] for line in lines] == [2, 3, 5, 7, 11, 13]
        for line in lines:
            assert set(line) == {"p", "eps_general", "eps_shallow", "ratio", "seconds",
                                 "rows_evaluated", "candidates"}
            assert line["seconds"] >= 0
            assert 0 < line["rows_evaluated"] <= line["candidates"]

    @pytest.mark.parametrize("blocked", ["out-dir", "ratios"])
    def test_unwritable_output_fails_before_the_search(self, tmp_path, capsys, blocked):
        if blocked == "out-dir":
            out = tmp_path / "missing" / "x.csv"
        else:
            out = tmp_path / "x.csv"
            (tmp_path / "x_ratios.csv").mkdir()  # the ratios path is a directory
        code, stdout, err = run(capsys, "compare", "--p-max", "13", "--m", "2",
                                "--out", str(out))
        assert (code, stdout) == (1, "")
        # one line and no progress object: no search ran
        assert err.count("\n") == 1 and err.startswith("usage error:")

    def test_out_stdout_is_refused(self, tmp_path, capsys, monkeypatch):
        # the ratios file is named after --out, so "-" would write "-_ratios.csv"
        from shallowfp import optimize
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(optimize, "compare_experiment", None)  # no descent may start
        code, stdout, err = run(capsys, "compare", "--p-max", "13", "--m", "2", "--out", "-")
        assert (code, stdout) == (1, "")
        assert err.count("\n") == 1 and err.startswith("usage error:") and "--out" in err
        assert list(tmp_path.iterdir()) == []

    def test_threads_flag_is_gone(self, tmp_path, capsys):
        code, _, err = run(capsys, "compare", "--p-max", "7", "--m", "2",
                           "--threads", "2", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "--threads" in err

    def test_empty_list_exit_1(self, tmp_path, capsys):
        plist = tmp_path / "primes.txt"
        plist.write_text("")
        code, _, _ = run(capsys, "compare", "--p-list", str(plist), "--m", "2",
                         "--seed", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 1


# a run that stops early, with its shallow lane busy or not, leaves no process
class TestCompareLanes:
    def test_shallow_lane_domain_error_exit_2(self, tmp_path, capsys, monkeypatch):
        def fail(p):
            raise DomainError(f"no shallow search at p={p}")

        patch_descent(monkeypatch, shallow=fail)
        code, stdout, err = run(capsys, "compare", "--p-max", "13", "--m", "2",
                                "--out", str(tmp_path / "x.csv"))
        assert (code, stdout, err) == (2, "", "error: no shallow search at p=2\n")
        assert_no_child_left()

    def test_failed_csv_write_exit_1(self, tmp_path, capsys, monkeypatch):
        from shallowfp import cli

        def full(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "_format_rows", full)
        code, _, err = run(capsys, "compare", "--p-max", "13", "--m", "2",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1 and err.splitlines()[-1].startswith("usage error: [Errno 28]")
        assert_no_child_left()

    def test_general_lane_error_exit_1(self, tmp_path, capsys, monkeypatch):
        def full(p):
            if p == 3:
                raise OSError(28, "No space left on device")

        patch_descent(monkeypatch, general=full,
                      shallow=lambda p: time.sleep(0 if p == 2 else 60))
        started = time.perf_counter()
        code, _, err = run(capsys, "compare", "--p-max", "13", "--m", "2",
                           "--out", str(tmp_path / "x.csv"))
        assert time.perf_counter() - started < 10  # the busy lane was killed
        assert code == 1 and len(err.splitlines()) == 2  # p = 2's progress, then the error
        assert_no_child_left()

    def test_killed_lane_leaves_the_outputs_unchanged(self, tmp_path, capsys, monkeypatch):
        argv = ["compare", "--p-max", "13", "--m", "2", "--restarts", "1"]
        assert run(capsys, *argv, "--out", str(tmp_path / "clean.csv"))[0] == 0
        parent = os.getpid()

        def die(p):
            if p == 5 and os.getpid() != parent:  # the forked lane, at the third prime
                os.kill(os.getpid(), signal.SIGKILL)

        patch_descent(monkeypatch, shallow=die)
        code, stdout, err = run(capsys, *argv, "--out", str(tmp_path / "killed.csv"))
        assert (code, stdout, len(err.splitlines())) == (0, "", 6)  # one line per prime
        for clean, killed in (("clean.csv", "killed.csv"),
                              ("clean_ratios.csv", "killed_ratios.csv")):
            assert (tmp_path / killed).read_bytes() == (tmp_path / clean).read_bytes()
        assert_no_child_left()

    @pytest.mark.parametrize("stop", ["end", "error"])
    def test_stderr_reaches_eof_when_the_run_exits(self, tmp_path, stop):
        # perfbench reads a job's stderr to EOF before it reaps the job: a
        # process left holding the pipe would read as a hang
        script = ("import sys, time\n"
                  "from shallowfp import cli, optimize\n"
                  "from shallowfp.errors import DomainError\n"
                  "real = optimize.coordinate_descent\n"
                  "def patched(p, size, cfg, initial=None):\n"
                  "    if cfg.mode == 'shallow' and p > 2:\n"
                  "        time.sleep(600)\n"
                  "    if cfg.mode == 'general' and p > 2:\n"
                  "        raise DomainError('stopped')\n"
                  "    return real(p, size, cfg, initial)\n"
                  f"if {stop == 'error'}:\n"
                  "    optimize.coordinate_descent = patched\n"
                  "argv = ['compare', '--p-max', '13', '--m', '2', '--out', 'c.csv']\n"
                  "sys.exit(cli.main(argv))\n")
        result = fresh_python("-c", script, cwd=tmp_path)  # times out at 60 s
        lines = result.stderr.splitlines()
        if stop == "end":
            assert result.returncode == 0 and len(lines) == 6
        else:
            assert result.returncode == 2 and lines[-1] == "error: stopped"


def count_calls(monkeypatch, name):
    """Wrap coeffsets.<name> so that every call appends its result to a list."""
    results = []
    fn = getattr(coeffsets, name)

    def wrapper(*args, **kwargs):
        results.append(fn(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(coeffsets, name, wrapper)
    return results


class TestProperGapChecks:
    """The 3^m properness check runs once per draw of the GAP search, and
    nowhere else: building a circuit from a subset-sum set never runs it."""

    def test_gen_gap_checks_each_draw_once(self, tmp_path, capsys, monkeypatch):
        checks = count_calls(monkeypatch, "is_proper_gap")
        searches = count_calls(monkeypatch, "gen_gap")
        code, _, _ = run(capsys, "gen", "--method", "gap", "--p", "1013", "--m", "5",
                         "--seed", "2", "--out", str(tmp_path / "k.json"))
        assert code == 0
        assert searches[0].tries == 10
        assert len(checks) == 10 and checks[-1] and not any(checks[:-1])

    def test_hopeless_search_makes_no_draw(self, capsys, monkeypatch):
        # (5^16 - 1)/(2p) = 1526: a draw is proper with probability about e^-1526
        def no_check(*args):
            raise AssertionError("a draw was checked")

        monkeypatch.setattr(coeffsets, "is_proper_gap", no_check)
        code, stdout, err = run(capsys, "gen", "--method", "gap", "--p", "50000017",
                                "--m", "16")
        assert (code, stdout) == (2, "")
        assert err.count("\n") == 1 and "(5^m - 1)/(2p) > 50" in err

    def test_cutoff_lies_at_50(self, capsys, monkeypatch):
        # (5^10 - 1)/(2p) is 50.003 at p = 97651 and 49.99 at the next prime
        checks = count_calls(monkeypatch, "is_proper_gap")
        code, _, err = run(capsys, "gen", "--method", "gap", "--p", "97651", "--m", "10")
        assert code == 2 and "> 50" in err and checks == []
        code, _, err = run(capsys, "gen", "--method", "gap", "--p", "97673", "--m", "10",
                           "--max-tries", "1")
        assert code == 2 and "in 1 tries" in err and checks == [False]

    def test_shallow_circuit_and_compare_run_no_check(self, tmp_path, capsys, monkeypatch):
        kpath = tmp_path / "k.json"
        run(capsys, "gen", "--method", "gap", "--p", "1013", "--m", "5",
            "--seed", "2", "--out", str(kpath))
        checks = count_calls(monkeypatch, "is_proper_gap")
        code, _, _ = run(capsys, "circuit", "--coeffs", str(kpath),
                         "--style", "shallow", "--x", "5", "--stats")
        assert code == 0
        code, _, _ = run(capsys, "compare", "--p-max", "13", "--m", "2",
                         "--seed", "7", "--out", str(tmp_path / "cmp.csv"))
        assert code == 0
        assert checks == []


def test_traced_run_patches_every_alias(tmp_path, capsys, monkeypatch):
    # the per-layer benchmark wraps package functions by name; a refactor
    # that drops one of them, or the .tries it counts, breaks its numbers
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    kpath = str(tmp_path / "k.json")
    tracer = spans.Tracer()
    patch = spans.Patch(tracer)
    try:
        assert main(["gen", "--method", "gap", "--p", "1013", "--m", "5", "--seed", "2",
                     "--out", kpath]) == 0
        assert main(["circuit", "--coeffs", kpath, "--style", "shallow", "--x", "5",
                     "--stats"]) == 0
    finally:
        patch.remove()
    capsys.readouterr()
    # the three names the package dropped: analyze(K).bias replaced
    # fourier_bias, and run_word computes what error_prob did
    assert patch.missing == ["analysis.fourier_bias", "analysis.error_prob", "qfa.error_prob"]
    totals = spans.layer_totals(tracer)
    tries = coeffsets.gen_gap(1013, 5, 2).tries
    assert totals["coeffsets.gen_gap.tries"] == tries
    assert totals["coeffsets.is_proper_gap.calls"] == tries
    assert totals["circuit.build.calls"] == 1


def test_module_form_writes_what_main_writes(tmp_path, capsys):
    argv = ["gen", "--method", "random", "--p", "1013", "--d", "16", "--seed", "9"]
    assert main(argv + ["--out", str(tmp_path / "main.json")]) == 0
    result = fresh_python("-m", "shallowfp.cli", *argv, "--out", "module.json", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "module.json").read_bytes() == (tmp_path / "main.json").read_bytes()


class TestReadme:
    """README's CLI examples, run as written and compared with what they show."""

    text = (SRC.parent / "README.md").read_text()

    def test_cli_block_runs_in_order(self, tmp_path, capsys, monkeypatch):
        # the first sh block between "## CLI" and the next "### " heading
        section = self.text.split("\n## CLI\n", 1)[1].split("\n### ", 1)[0]
        block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
        commands = [shlex.split(line) for line in block.splitlines()
                    if line and not line.startswith("#")]
        assert commands and all(argv[0] == "shallowfp" for argv in commands)
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert main(argv[1:]) == 0, argv
            capsys.readouterr()

    def test_seed_rule_example(self, capsys):
        rule = self.text.split("\nSeed rule:", 1)[1].split("\n\n", 1)[0]
        command = re.search(r"`(gen [^`]+)`", rule).group(1).split()
        shown = json.loads(re.search(r"`(\[[\d, ]+\])`", rule).group(1))
        seeds = [int(seed) for seed in re.findall(r"`--seed (-?\d+)`", rule)]
        assert (shown, seeds) == ([233, 986, 390, 339], [-1, 2 ** 64 - 1, 2 ** 65 - 1])
        for seed in seeds:
            code, stdout, _ = run(capsys, *command, "--seed", str(seed))
            assert (code, json.loads(stdout)["coefficients"]) == (0, shown)

    def test_compare_progress_example(self, tmp_path, capsys):
        # every field of the shown line but the wall time
        notes = self.text.split("\nProgress goes to stderr", 1)[1]
        p = int(re.search(r"here p = (\d+) of", notes).group(1))
        flags = re.search(r"of `(--m [^`]+)`", notes).group(1).split()
        shown = json.loads(notes.split("```\n", 1)[1].split("\n```", 1)[0])
        (tmp_path / "primes.txt").write_text(f"{p}\n")
        code, _, err = run(capsys, "compare", "--p-list", str(tmp_path / "primes.txt"),
                           *flags, "--out", str(tmp_path / "cmp.csv"))
        got = json.loads(err)
        assert code == 0 and list(got) == list(shown)
        del got["seconds"], shown["seconds"]
        assert got == shown


class TestEntry:
    """entry(), the console script, in a new interpreter: main()'s bytes and
    exit codes, a buffered stdout of its own, and a frozen heap at exit."""

    def test_success_writes_what_main_writes(self, tmp_path, capsys):
        # the report and then the spectrum rows, both on stdout, in that order
        K = coeffsets.gen_random(1013, 16, 9)
        (tmp_path / "k.json").write_text(json.dumps(K.to_json_dict()))
        argv = ["analyze", "--coeffs", str(tmp_path / "k.json"), "--spectrum", "-"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        result = fresh_python("-m", "shallowfp.cli", *argv, cwd=tmp_path, text=False)
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == out.encode()

    @pytest.mark.parametrize("argv, code, prefix", [
        (["gen", "--method", "cyclic", "--p", "7"], 1, "usage error: "),
        (["gen", "--method", "cyclic", "--p", "8", "--d", "3"], 2, "error: "),
    ], ids=["usage", "domain"])
    def test_failure_exits_with_one_line(self, tmp_path, argv, code, prefix):
        result = fresh_python("-m", "shallowfp.cli", *argv, cwd=tmp_path)
        assert (result.returncode, result.stdout) == (code, "")
        assert result.stderr.count("\n") == 1 and result.stderr.startswith(prefix)

    @pytest.mark.parametrize("argv, code", [
        (["gen", "--method", "cyclic", "--p", "7"], 1),
        (["gen", "--method", "cyclic", "--p", "4", "--d", "1"], 2),
    ], ids=["usage", "domain"])
    def test_stderr_that_cannot_take_the_line_keeps_the_exit_code(self, tmp_path, argv, code):
        # fd 2 is a pipe whose reader has closed: the line is lost, the code is not
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run([sys.executable, "-m", "shallowfp.cli", *argv],
                                    cwd=tmp_path, env=child_env(), stdout=subprocess.PIPE,
                                    stderr=write, timeout=60)
        finally:
            os.close(write)
        assert (result.returncode, result.stdout) == (code, b"")

    def test_atexit_handlers_run_on_a_frozen_heap(self, tmp_path):
        # a handler of the calling script still runs, after entry() froze
        # the heap and gave stdout back
        script = ("import atexit, gc, sys\n"
                  "from shallowfp.cli import entry\n"
                  "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
                  "sys.argv = ['shallowfp', 'gen', '--method', 'cyclic', '--p', '7', '--d', '3']\n"
                  "entry()\n")
        result = fresh_python("-c", script, cwd=tmp_path)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.endswith("}\nfrozen True\n")

    def test_main_in_process_freezes_nothing(self, capsys):
        before = gc.get_freeze_count()
        code, _, _ = run(capsys, "gen", "--method", "cyclic", "--p", "7", "--d", "3")
        assert code == 0 and gc.get_freeze_count() == before

    def test_closed_stdout_at_start(self, tmp_path):
        # the interpreter sets sys.stdout to None: a command writing files
        # runs, and one writing to stdout ends with one usage line before
        # it opens another output
        K = coeffsets.gen_cyclic(7, 3)
        cases = [
            (["gen", "--method", "cyclic", "--p", "7", "--d", "3", "--out", "k.json"], 0),
            (["optimize", "--p", "31", "--size", "2", "--mode", "shallow", "--out", "o.json"], 0),
            (["gen", "--method", "cyclic", "--p", "7", "--d", "3"], 1),
            (["analyze", "--coeffs", "cyc.json"], 1),
            (["analyze", "--coeffs", "cyc.json", "--spectrum", "s.csv"], 1),
            (["circuit", "--coeffs", "cyc.json", "--style", "deep", "--x", "2", "--stats"], 1),
            (["simulate", "--coeffs", "cyc.json", "--j", "5"], 1),
            (["optimize", "--p", "31", "--size", "2", "--mode", "shallow"], 1),
        ]
        for argv, code in cases:
            (tmp_path / "cyc.json").write_text(json.dumps(K.to_json_dict()))
            result = subprocess.run([sys.executable, "-m", "shallowfp.cli", *argv],
                                    cwd=tmp_path, env=child_env(), stdout=subprocess.DEVNULL,
                                    stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1),
                                    timeout=60)
            if code == 0:
                assert (result.returncode, result.stderr) == (0, b""), argv
                assert json.loads((tmp_path / argv[-1]).read_text()), argv
            else:
                assert (result.returncode, result.stderr) == \
                    (1, b"usage error: stdout is closed\n"), argv
                assert [path.name for path in tmp_path.iterdir()] == ["cyc.json"], argv
            for path in tmp_path.iterdir():
                path.unlink()

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv, nbytes", [
        (["simulate", "--coeffs", "cyc.json", "--sweep"], 10),
        # the reader leaves first: the report is still in the buffer when
        # the rows fail, and main() has reported the error already
        (["analyze", "--coeffs", "cyc.json", "--spectrum", "-"], 0),
    ], ids=["sweep", "spectrum"])
    def test_stdout_cut_short_is_a_usage_error(self, tmp_path, unbuffered, argv, nbytes):
        # under PYTHONUNBUFFERED sys.stdout is a raw stream, which drops the
        # rest of a short write without an error; the sweep's 1.6 MB fill
        # the pipe long before its reader closes it
        K = coeffsets.gen_cyclic(65551, 64)
        (tmp_path / "cyc.json").write_text(json.dumps(K.to_json_dict()))
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "shallowfp.cli", *argv], cwd=tmp_path,
                                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                bufsize=0)
        try:
            proc.stdout.read(nbytes)
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 1
        assert err == b"usage error: [Errno 32] Broken pipe\n"


# gen (the GAP search included), circuit --stats and --emit-qasm do
# integer work only, and simulate --j sums d cosines; starting numpy would
# cost them more than the work itself
NUMPY_FREE = {
    "import": None,
    "gen-gap": ["gen", "--method", "gap", "--p", "1000003", "--m", "10", "--seed", "5",
                "--out", "o.json"],
    "gen-cyclic": ["gen", "--method", "cyclic", "--p", "1000003", "--d", "64", "--out", "o.json"],
    "gen-aikps": ["gen", "--method", "aikps", "--p", "65537", "--eps", "0.5", "--out", "o.json"],
    "gen-random": ["gen", "--method", "random", "--p", "1000003", "--d", "64", "--seed", "3",
                   "--out", "o.json"],
    "stats-deep": ["circuit", "--coeffs", "gap.json", "--style", "deep", "--x", "7", "--stats"],
    "stats-shallow": ["circuit", "--coeffs", "gap.json", "--style", "shallow", "--x", "7",
                      "--stats"],
    "stats-aikps": ["circuit", "--coeffs", "aikps.json", "--style", "aikps", "--x", "7",
                    "--stats"],
    "qasm-deep": ["circuit", "--coeffs", "gap.json", "--style", "deep", "--x", "7",
                  "--emit-qasm", "c.qasm"],
    "simulate-word": ["simulate", "--coeffs", "gap.json", "--j", "12345"],
}


# commands that compute with numpy; numpy itself does not import dataclasses.
# analyze and simulate --sweep write p rows, so they read the p = 1013 set
# (the p = 1000003 one loads the same modules, in seconds instead of 0.2 s)
NUMPY_COMMANDS = {
    "analyze": ["analyze", "--coeffs", "small.json", "--spectrum", "s.csv"],
    "simulate-sweep": ["simulate", "--coeffs", "small.json", "--sweep", "--out", "s.csv"],
    "optimize": ["optimize", "--p", "31", "--size", "2", "--mode", "shallow", "--out", "o.json"],
    "compare": ["compare", "--p-max", "13", "--m", "2", "--out", "c.csv"],
}


def modules_after(tmp_path, argv) -> set[str]:
    """The modules a fresh interpreter holds after importing the CLI and
    running ``argv`` (None: nothing), which must exit 0."""
    for name, gap in (("gap.json", coeffsets.gen_gap(1000003, 10, 5)),
                      ("small.json", coeffsets.gen_gap(1013, 5, 2))):
        (tmp_path / name).write_text(json.dumps(gap.expanded.to_json_dict()))
    aikps = coeffsets.gen_aikps(1000003, 0.5)
    (tmp_path / "aikps.json").write_text(json.dumps(aikps.to_json_dict()))
    script = ("import sys\n"
              "import shallowfp.cli\n"
              f"rc = shallowfp.cli.main({argv!r}) if {argv!r} else 0\n"
              "print(rc, *sys.modules)\n")
    result = fresh_python("-c", script, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    rc, *modules = result.stdout.splitlines()[-1].split()
    assert rc == "0"
    return set(modules)


@pytest.mark.parametrize("name", list(NUMPY_FREE))
def test_command_never_imports_numpy(tmp_path, name):
    assert "numpy" not in modules_after(tmp_path, NUMPY_FREE[name])


@pytest.mark.parametrize("name", list(NUMPY_FREE))
def test_start_path_loads_only_what_the_command_runs(tmp_path, name):
    # dataclasses imports inspect; together they cost about 16 ms of every start
    modules = modules_after(tmp_path, NUMPY_FREE[name])
    assert not modules & {"dataclasses", "inspect", "csv"}
    if name == "import" or name.startswith("gen-"):
        assert "shallowfp.circuit" not in modules


@pytest.mark.parametrize("name", list(NUMPY_COMMANDS))
def test_numpy_commands_never_import_dataclasses(tmp_path, name):
    modules = modules_after(tmp_path, NUMPY_COMMANDS[name])
    assert "numpy" in modules and "dataclasses" not in modules
