"""The benchmark's traced run wraps program functions by name.

``benchmarks/launch.py`` lists them in ``TRACED`` and installs a wrapper on
each module attribute of that name; its per-layer metrics are keyed on
``<module>.<name>``. A rename or move in ``src/`` would crash the traced
run, so this test pins every listed name to a defining module.
"""

import ast
import importlib
from pathlib import Path

import pytest

LAUNCH = Path(__file__).resolve().parents[1] / "benchmarks" / "launch.py"
MODULES = ("cli", "simstudy", "sampler", "estimators", "metrics", "model", "graph")


def traced_names():
    tree = ast.parse(LAUNCH.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED list in {LAUNCH}")


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_is_defined_in_its_module(name):
    homes = []
    for short in MODULES:
        fn = getattr(importlib.import_module(f"arealrisk.{short}"), name, None)
        if fn is not None and fn.__module__ == f"arealrisk.{short}":
            homes.append(short)
    assert homes, f"{name} is not defined in any of {MODULES}"
