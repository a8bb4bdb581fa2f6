"""Helpers the test modules share: a set built from given residues, the
point a descent ended at, and the hooks of the compare lane tests."""
import os
from typing import Iterable

import pytest

from shallowfp import optimize
from shallowfp.coeffsets import CoefficientSet
from shallowfp.zmod import PrimeModulus


def explicit_set(p: int, coefficients: Iterable[int]) -> CoefficientSet:
    """The given coefficients, reduced mod p, as a CoefficientSet."""
    p = PrimeModulus(p)
    return CoefficientSet(p, tuple(k % p for k in coefficients), "explicit", {})


def best_point(result: optimize.DescentResult) -> tuple[int, ...]:
    """The coefficients (general) or generators (shallow) of ``result.best_set``."""
    if result.best_set.params["mode"] == "shallow":
        return result.best_set.params["T"]
    return result.best_set.coefficients


def patch_descent(monkeypatch, shallow=None, general=None):
    """Replace optimize.coordinate_descent by one that calls ``shallow(p)``
    or ``general(p)`` first where given; patched before the first record,
    so compare's forked shallow lane runs it too."""
    real = optimize.coordinate_descent

    def patched(p, size, cfg, initial=None):
        hook = shallow if cfg.mode == "shallow" else general
        if hook is not None:
            hook(p)
        return real(p, size, cfg, initial)

    monkeypatch.setattr(optimize, "coordinate_descent", patched)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
