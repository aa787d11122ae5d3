"""``mixers`` never imports ``trainers``: the step engine imports the mixers, not the reverse."""

import ast
from pathlib import Path

from dataflex import mixers


def imported_modules(path):
    """Every module name an import statement in ``path`` names, relative ones with their leading dots."""
    names = set()
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)  # ``from . import trainers``
    return names


def test_mixers_does_not_import_trainers():
    names = imported_modules(mixers.__file__)
    assert names, "the scan found no imports at all"
    assert not [name for name in names if "trainers" in name.split(".")]
