"""Fuzz of the CLI error contract over bounded grids of flags and files.

Every command runs in-process through `main`: each run must end with exit
code 0, 1 or 2, let no exception escape, and print exactly one stderr line
when it fails.  The grids include composite, negative and >= 2^63 moduli,
sizes from -2 to 20 and unreadable, garbled and out-of-range files.
`optimize` and `compare` stay at p <= 30 and d <= 64, so no search builds
a large table.
"""
import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from shallowfp.cli import main

P = [-7, 0, 1, 2, 3, 4, 5, 7, 9, 13, 29, 1013, 2 ** 61 - 1, 2 ** 63 - 25, 2 ** 63,
     2 ** 64 + 13]
SMALL_P = [-7, 0, 1, 2, 3, 4, 5, 7, 9, 13, 23, 29, 2 ** 63]
SIZES = list(range(-2, 21))
BIG_INT = 2 ** 70

FILES = {
    "random.json": {"p": 101, "method": "random", "params": {}, "coefficients": [1, 5, 9]},
    "gap.json": {"p": 1013, "method": "gap", "params": {}, "t0": 0, "generators": [1, 3, 9],
                 "coefficients": [0, 1, 3, 4, 9, 10, 12, 13]},
    "gap0.json": {"p": 7, "method": "gap", "params": {}, "t0": 3, "generators": [],
                  "coefficients": [3]},
    "aikps.json": {"p": 5, "method": "aikps", "params": {"eps": 1.0}, "coefficients": [2]},
    "big.json": {"p": 2 ** 61 - 1, "coefficients": [1, 2, 3]},
    "range.json": {"p": 7, "coefficients": [1, 9]},
    "composite.json": {"p": 9, "coefficients": [1]},
    "garbled.json": '{"p": 7',
    "binary.json": b"\xff\xfe{}",
    "schema.json": '{"p": "7", "coefficients": []}',
    "missing.json": None,
}
PRIME_LISTS = {
    "ok.txt": "29\n23\n",
    "mixed.txt": "7\nabc\n",
    "late-small.txt": "29\n3\n",
    "negative.txt": "-7\n",
    "composite.txt": "9\n",
    "huge.txt": f"{2 ** 63 + 29}\n",
    "empty.txt": "",
}

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, content in {**FILES, **PRIME_LISTS}.items():
        if isinstance(content, dict):
            (root / name).write_text(json.dumps(content))
        elif isinstance(content, str):
            (root / name).write_text(content)
        elif content is not None:
            (root / name).write_bytes(content)
    return root


def always(name, values):
    """``[name, str(value)]`` for a value from ``values``."""
    return st.sampled_from(values).map(lambda v: [name, str(v)])


def flag(name, values):
    """Either no flag or ``[name, str(value)]`` for a value from ``values``."""
    return st.one_of(st.just([]), always(name, values))


def argv_of(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


def check(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code:
        assert text.count("\n") == 1 and "Traceback" not in text, (argv, text)


def coeffs(workdir):
    return st.sampled_from(sorted(FILES)).map(lambda n: ["--coeffs", str(workdir / n)])


@SETTINGS
@given(data=st.data())
def test_gen(workdir, data):
    argv = data.draw(argv_of(
        st.just(["gen"]), always("--method", ["cyclic", "aikps", "gap", "random"]),
        always("--p", P), flag("--d", SIZES), flag("--m", SIZES),
        flag("--eps", [-1.0, 0.0, 0.3, 0.5, 1.0, 1.5, 8.0, "nan", "inf"]),
        flag("--seed", [-1, 0, BIG_INT]), flag("--max-tries", [-1, 0, 1, 1000])))
    check(argv + ["--out", str(workdir / "gen.json")])


@SETTINGS
@given(data=st.data())
def test_analyze(workdir, data):
    check(data.draw(argv_of(st.just(["analyze"]), coeffs(workdir),
                            flag("--spectrum", [workdir / "s.csv", workdir / "no" / "s.csv"]))))


@SETTINGS
@given(data=st.data())
def test_simulate(workdir, data):
    check(data.draw(argv_of(st.just(["simulate"]), coeffs(workdir),
                            st.one_of(always("--j", [-3, 0, 5, BIG_INT]),
                                      st.sampled_from([["--sweep"], [], ["--sweep", "--j", "1"]])),
                            st.just(["--out", str(workdir / "sim.csv")]))))


@SETTINGS
@given(data=st.data())
def test_circuit(workdir, data):
    check(data.draw(argv_of(st.just(["circuit"]), coeffs(workdir),
                            always("--style", ["deep", "shallow", "aikps", "wide"]),
                            always("--x", [-3, 0, 5, BIG_INT]),
                            st.sampled_from([["--stats"], ["--emit-qasm", str(workdir / "c.qasm")],
                                             []]))))


@SETTINGS
@given(data=st.data())
def test_optimize(workdir, data):
    check(data.draw(argv_of(st.just(["optimize"]), always("--p", SMALL_P),
                            always("--size", SIZES), always("--mode", ["general", "shallow"]),
                            flag("--seed", [0, 7]),
                            flag("--max-sweeps", [-1, 0, 1, 3]), flag("--restarts", [-1, 0, 2]),
                            st.just(["--out", str(workdir / "opt.json")]))))


@SETTINGS
@given(data=st.data())
def test_compare(workdir, data):
    primes = st.one_of(
        st.sampled_from([-7, 0, 1, 2, 13, 29]).map(lambda n: ["--p-max", str(n)]),
        st.sampled_from(sorted(PRIME_LISTS) + ["absent.txt"]).map(
            lambda n: ["--p-list", str(workdir / n)]))
    check(data.draw(argv_of(st.just(["compare"]), primes, always("--m", list(range(-2, 7))),
                            flag("--restarts", [-1, 0, 1]), flag("--seed", [0, 7]),
                            st.just(["--out", str(workdir / "cmp.csv")]))))
