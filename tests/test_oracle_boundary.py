"""The frozen reference implementations stay out of the shipped package.

``oracles/`` holds executable specifications for the equivalence suites and
benchmarks.  If a module under ``src/repro`` imported it, the installed
package would break (``oracles`` is not installed) and the array-native path
would quietly regain a second implementation.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


def _oracle_imports(path: Path, root: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module]
        else:
            continue
        found += [
            f"{path.relative_to(root)}:{node.lineno} imports {name}"
            for name in names
            if name == "oracles" or name.startswith("oracles.")
        ]
    return found


def test_no_module_under_src_imports_the_oracles():
    modules = sorted(SOURCE_ROOT.rglob("*.py"))
    assert len(modules) > 50  # the walk really covers the package
    offenders = [line for path in modules for line in _oracle_imports(path, SOURCE_ROOT)]
    assert offenders == []


def test_the_scan_detects_an_oracle_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import numpy\n"
        "def f():\n"
        "    from oracles.rr import evaluate_scalar\n"
        "    import oracles\n",
        encoding="utf-8",
    )
    assert _oracle_imports(module, tmp_path) == [
        "module.py:3 imports oracles.rr",
        "module.py:4 imports oracles",
    ]
