"""Source hygiene: no module of the package imports a name it never uses, and every
public name has a caller in the package or the benchmark."""
import ast
from pathlib import Path

import softaug

PACKAGE = Path(softaug.__file__).parent
BENCHMARK = Path(__file__).parents[1] / "perfbench"


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


# public names kept without a caller in src or the benchmark, each with its reason
UNCALLED = {
    # the graph engine moves to tests/ whole once training builds no graph
    "autodiff",
    # acceptance criterion 06 reads the target function through the package
    "data.synth_truth",
}


def _public_defs(tree: ast.Module) -> list[str]:
    """Public top-level functions and classes, and their public methods as Class.method."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [f"{node.name}.{m.name}" for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return names


def _references(tree: ast.Module) -> set[str]:
    """Names, attributes, and the parts of string constants that are (dotted) names,
    as the benchmark's tracer names what it wraps."""
    refs = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = n.value.split(".")
            if all(p.isidentifier() for p in parts):
                refs.update(parts)
    return refs


def _uncalled(modules: dict[str, str], callers: list[str]) -> list[str]:
    """`module.name` of each public def in `modules` (name -> source) that no
    module and no caller source refers to."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    refs = set().union(*map(_references, [*trees.values(), *map(ast.parse, callers)]))
    return [f"{module}.{name}" for module, tree in trees.items()
            for name in _public_defs(tree) if name.split(".")[-1] not in refs]


def test_the_checker_sees_an_uncalled_public_name():
    modules = {"a": "def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
                    "class K:\n    def run(self): pass\n    def idle(self): pass\n",
               "b": "from .a import used\nused()\nK().run\n"}
    assert _uncalled(modules, []) == ["a.unused", "a.K.idle"]
    assert _uncalled(modules, ["TRACED = {(a, 'K.idle'): 1, (a, 'unused'): 2}"]) == []
    del modules["b"]
    assert _uncalled(modules, []) == ["a.used", "a.unused", "a.K", "a.K.run", "a.K.idle"]


def test_every_public_name_has_a_caller():
    # __init__.py only re-exports, so a name it lists is not called for that
    modules = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    callers = [path.read_text() for path in sorted(BENCHMARK.glob("*.py"))]
    found = [name for name in _uncalled(modules, callers)
             if name not in UNCALLED and name.split(".")[0] not in UNCALLED]
    assert found == []
