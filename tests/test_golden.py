"""Golden outputs: seeded CLI runs must reproduce recorded bytes exactly.

Each hash was recorded from the code before a change that must not alter
outputs; a change that alters one of them has to say why.
"""
import hashlib

from shallowfp.cli import main

COMPARE_SHA256 = {
    "cmp.csv": "da0d8c4ed7f6fb8d3f69b2eca921cfd0c79dbfe43957354bbb02ac224ac0c6ce",
    "cmp_ratios.csv": "558a9e05ed1c319f87b77c086aed9cc0b0d5aae23c6a9527b97c7458da1678f0",
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
