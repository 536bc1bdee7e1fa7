"""Source hygiene: no module of the package imports a name it never uses."""
import ast
from pathlib import Path

import softaug

PACKAGE = Path(softaug.__file__).parent


def _unused_imports(source: str) -> list[str]:
    """Module-level imported names that nothing else in the module refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names that appear only in quoted annotations, such as -> "Mlp"
    used |= {n.value for n in ast.walk(tree)
             if isinstance(n, ast.Constant) and isinstance(n.value, str)
             and n.value.isidentifier()}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_the_checker_sees_an_unused_import():
    assert _unused_imports("import json\nfrom os import path, sep\nprint(sep)\n") == [
        "line 1: json", "line 2: path"]
    assert _unused_imports("from __future__ import annotations\nimport a.b\na.b.c()\n") == []


def test_no_module_has_an_unused_import():
    # __init__.py re-exports names it does not use itself
    found = {path.name: _unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
