"""Import hygiene of the package sources, checked on their syntax trees.

Every imported name must be used in its module or re-exported through
`__all__`, and every `__all__` entry must name something the module binds.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "groupnear").glob("*.py"))


def _imported_names(tree):
    """{bound name: line} for every top-level or nested import except
    `from __future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _module_bindings(tree):
    """Names bound at module level: definitions, assignments and imports."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                out |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out |= set(_imported_names(node))
    return out


def _dunder_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_used_and_exports_resolve(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    exported = _dunder_all(tree)
    used = _used_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used and name not in exported
    )
    assert not unused, f"{path.name}: unused imports {unused}"
    unresolved = sorted(set(exported) - _module_bindings(tree))
    assert not unresolved, f"{path.name}: __all__ names nothing bound: {unresolved}"
