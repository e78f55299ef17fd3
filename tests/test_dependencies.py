"""numpy stays the only runtime dependency: the package imports nothing else
outside the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fmlp_rul"


def _imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "fmlp_rul"}
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 9
    outside = {path.name: sorted(_imported_modules(path) - allowed) for path in sources}
    assert {name: mods for name, mods in outside.items() if mods} == {}

