import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


def pytest_addoption(parser):
    parser.addoption("--run-full-scale", action="store_true", default=False,
                     help="run the long full-scale experiments (descent at p = 65537)")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "full_scale: long-running full-scale experiment (opt-in)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-full-scale"):
        return
    skip = pytest.mark.skip(reason="needs --run-full-scale")
    for item in items:
        if "full_scale" in item.keywords:
            item.add_marker(skip)
