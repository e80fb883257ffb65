"""The package names that the benchmark harness reaches.

``perfbench/child.py`` patches and calls package functions by name.  This
test reads that file without running it and checks that each such name
still exists and is callable, so that deleting one cannot break the
benchmark unseen.
"""

import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def test_every_package_name_the_benchmark_reaches_is_callable():
    tree = ast.parse(CHILD.read_text())
    modules = {alias.asname or alias.name: importlib.import_module(f"motionlift.{alias.name}")
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "motionlift"
               for alias in node.names}
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
