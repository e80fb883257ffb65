"""The package names and attributes that the benchmark harness reaches.

``perfbench/child.py`` patches and calls package functions by name.  These
tests read that file without running it and check that each such name
still exists and is callable, and that each call it makes still fits the
signature, so that deleting or renaming one cannot break the benchmark
unseen.  The harness's oracle also reads the activity's grid and frames and
the kernel's fields; a test runs it on small gathers.  The last test
resolves the config of every workload in ``perfbench/run.py`` and builds
its model, so a config rule cannot refuse a benchmark run unseen.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from motionlift import cli
from motionlift.gabor import GaborBank, LiftedActivity, ManifoldGrid
from motionlift.kernels import KernelGrid, SdeSpec, contour_lattice, trajectory_lattice
from motionlift.population import facilitate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CHILD = PERFBENCH / "child.py"


def _load(monkeypatch, path: Path):
    """A harness file loaded as a module without running its main, writing
    its bytecode cache or keeping any source path it puts on sys.path; it is
    in ``sys.modules`` (its dataclasses look themselves up there) for the
    test only."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


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
    child = _load(monkeypatch, CHILD)
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


def test_every_benchmark_workload_resolves_to_a_model(monkeypatch):
    # each workload's argv, with the flags the harness adds, through the CLI's
    # own parser and config resolution, up to the checks a run makes before
    # its output: the stimulus specs, the fiber grid, the lift's bank, the
    # SDE and the kernel lattice
    run = _load(monkeypatch, PERFBENCH / "run.py")
    for table in (run.WORKLOADS, run.TINY):
        for workload in table.values():
            args = cli.build_parser().parse_args(
                [*workload.argv, "--out", "out", "--seed", "1", "--kernel-cache", "cache"])
            if args.command == "experiment1":
                cfg = cli._experiment_config(cli.Experiment1Config, args)
                cfg.stimulus_spec()
            else:
                cfg = cli._experiment_config(cli.Experiment2Config, args)
                for delta_t, delta_theta in cfg.sweep:
                    cfg.stimulus_spec(delta_t, delta_theta)
            grid, spec, lattice = cfg.model()
            GaborBank(grid, cfg.p_modulus)
            assert spec.n_paths == cfg.n_paths and lattice.shape[-2:] == (
                grid.n_theta, 2 * grid.n_v - 1)
