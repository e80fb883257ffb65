"""The package names and attributes that the benchmark harness reaches.

``perfbench/child.py`` patches and calls package functions by name.  These
tests read that file without running it and check that each such name
still exists and is callable, and that each call it makes still fits the
signature, so that deleting or renaming one cannot break the benchmark
unseen.  The harness's oracle also reads the activity's grid and frames and
the kernel's fields; the last test runs it on small gathers.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from motionlift.gabor import LiftedActivity, ManifoldGrid
from motionlift.kernels import KernelGrid, SdeSpec, contour_lattice, trajectory_lattice
from motionlift.population import facilitate

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _child_tree_and_modules():
    """The parsed harness and its package modules by the names it binds."""
    tree = ast.parse(CHILD.read_text())
    modules = {alias.asname or alias.name: importlib.import_module(f"motionlift.{alias.name}")
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "motionlift"
               for alias in node.names}
    return tree, modules


def test_every_package_name_the_benchmark_reaches_is_callable():
    tree, modules = _child_tree_and_modules()
    names = set()
    for node in ast.walk(tree):
        # ``module.attr`` anywhere, and the (module, "attr", ...) entries of
        # the list of patches
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module, attr = node.value.id, node.attr
        elif (isinstance(node, ast.Tuple) and len(node.elts) > 1
              and isinstance(node.elts[0], ast.Name) and isinstance(node.elts[1], ast.Constant)):
            module, attr = node.elts[0].id, node.elts[1].value
        else:
            continue
        if module in modules:
            names.add((module, attr))
    assert {("experiments", "facilitation_difference"), ("kernels", "KernelGrid"),
            ("kernels", "kernel_lookup"), ("population", "facilitate"),
            ("population", "truncated_kernel_values")} <= names
    broken = [f"{module}.{attr}" for module, attr in sorted(names)
              if not callable(getattr(modules[module], attr, None))]
    assert not broken


def test_every_package_call_of_the_benchmark_fits_the_signature():
    # ``module.attr(...)`` calls: the positional count and the keyword names
    # must bind to the signature as it is now
    tree, modules = _child_tree_and_modules()
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id in modules]
    assert {"KernelGrid", "facilitate", "kernel_lookup"} <= {c.func.attr for c in calls}
    unfit = []
    for call in calls:
        assert not any(isinstance(a, ast.Starred) for a in call.args)
        assert all(k.arg is not None for k in call.keywords)
        target = getattr(modules[call.func.value.id], call.func.attr)
        try:
            inspect.signature(target).bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            unfit.append(f"line {call.lineno}: {call.func.value.id}.{call.func.attr}: {exc}")
    assert not unfit


@pytest.mark.parametrize("rank", [4, 5])
def test_the_benchmark_oracle_passes_on_small_gathers(monkeypatch, rank):
    # load the harness as a module without writing its bytecode cache or
    # keeping the source path it puts on sys.path
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    grid = ManifoldGrid(6, 3, 1.0)
    if rank == 4:
        lat, ns, mode = contour_lattice(3, grid), 1, "contour"
    else:
        lat, ns, mode = trajectory_lattice(3, 3, grid), 4, "trajectory"
    rng = np.random.default_rng(rank)
    vals = rng.uniform(0, 1, lat.shape)
    kernel = KernelGrid(lat.axes, lat.origin, lat.spacing, vals / vals.sum(),
                        SdeSpec(mode, 0.1, 0.1, 0.1, 1.0, 1, 0))
    act = LiftedActivity(grid, rng.uniform(0, 1, (9, 8, ns, 6, 3)), "facilitation",
                         np.arange(ns))
    capture = child.Capture()
    capture.activity, capture.kernel = act, kernel
    capture.output = facilitate(act, kernel)
    result = child.oracle_check(capture, seed=11)
    assert result["rank"] == rank and result["nodes"] == child.ORACLE_NODES
    assert result["max_rel_err"] <= 1e-9
