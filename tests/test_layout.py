"""Package layout: every module has a caller inside the package."""

import ast
import pathlib

import dpmps

PACKAGE = pathlib.Path(dpmps.__file__).parent
ENTRY_POINTS = {"__init__", "cli"}


def imported_modules(path):
    """Sibling modules named by the relative imports of a source file
    (`from .x import ...` and `from . import x`), the package's only
    import style."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_is_imported_by_another():
    files = {p.stem: p for p in PACKAGE.glob("*.py")}
    imported = set()
    for name, path in files.items():
        imported |= imported_modules(path) - {name}
    orphans = sorted(set(files) - ENTRY_POINTS - imported)
    assert orphans == []
