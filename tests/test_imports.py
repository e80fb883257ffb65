"""The package needs nothing beyond the one runtime dependency that
``pyproject.toml`` declares, numpy: a module that imports another installed
package would pass here and fail on a clean install."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "motionlift"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "motionlift"}


def _imported_packages(path: Path):
    """The top-level package of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_the_package_imports_only_the_standard_library_numpy_and_itself():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "gabor.py" in sources
    stray = [(path.name, top) for path in sources for top in _imported_packages(path)
             if top not in ALLOWED]
    assert stray == []
