"""Import hygiene of the package sources and the tests, checked on their
syntax trees.

Every imported name must be used in its module or re-exported through
`__all__`, every `__all__` entry must name something the module binds, and
every private top-level helper must be referenced somewhere in the package
(for a package module) or in the tests (for a test module).  The package
states its API once: `groupnear.__all__` is the only `__all__` in it.
Every name the package exports must have a caller outside the tests: the
CLI or another package module than its own, the benchmark harness
(`perfbench/`, where a function may be looked up by its name as a string),
or the README; a short allow-list covers the spec, result and error types.
CI runs nothing but the dependency install and the ROADMAP tier-1 command,
so tier-1 is the one gate and each of its checks is made once.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "groupnear").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))


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


@pytest.mark.parametrize(
    "path", SOURCES + TESTS, ids=[p.name for p in SOURCES] + [f"tests/{p.name}" for p in TESTS]
)
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


def test_only_the_package_assigns_dunder_all():
    # One API list: a module list would restate part of groupnear.__all__.
    listed = sorted(
        path.name
        for path in SOURCES
        if path.name != "__init__.py" and "__all__" in _module_bindings(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert listed == [], f"modules with their own __all__: {listed}"


def _private_definitions(tree):
    """{name: line} for top-level `_`-prefixed functions, classes and
    assigned constants (dunders excluded)."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                out |= {n.id: node.lineno for n in ast.walk(target) if isinstance(n, ast.Name)}
    return {
        name: line
        for name, line in out.items()
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    }


def _references(tree):
    """Names read as variables or attributes, or imported from elsewhere."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {alias.name for alias in node.names}
    return out


def _unreferenced_private_helpers(paths):
    """Top-level private helpers of the modules at paths that none of them
    references."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    referenced = set().union(*(_references(tree) for tree in trees.values()))
    return sorted(
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in referenced
    )


def test_private_helpers_are_referenced():
    dead = _unreferenced_private_helpers(SOURCES)
    assert not dead, f"private helpers nothing references: {dead}"


def test_private_test_helpers_are_referenced():
    dead = _unreferenced_private_helpers(TESTS)
    assert not dead, f"private test helpers nothing references: {dead}"


def test_package_exports_no_kernels_or_chain():
    # The public API is entry points, specs, results, errors and JSON I/O:
    # the matrix kernels and the resultant chain stay in their modules.
    import groupnear
    from groupnear import matcore, polyres

    def defined_in(module):
        return {name for name, obj in vars(module).items() if getattr(obj, "__module__", None) == module.__name__}

    exported = set(groupnear.__all__)
    assert not exported & defined_in(polyres)
    assert exported & defined_in(matcore) == {"random_general", "matrix_to_json", "matrix_from_json"}


# Exports kept without a caller: the types a caller receives or builds
# (specs, results, errors), and lie_basis, the orthonormal Lie basis the
# census derives from each group's projection, which the acceptance tests
# read to compare two groups' Lie algebras.
_EXPORTS_WITHOUT_CALLER = {
    "GroupSpec",
    "CriticalPoint",
    "CensusResult",
    "WeightSet",
    "GroupnearError",
    "InputError",
    "ConditioningError",
    "ConvergenceError",
    "DegeneracyError",
    "SingularityError",
    "UnsupportedError",
    "lie_basis",
}


def test_package_exports_have_callers():
    # A caller is the CLI or a package module other than the defining one
    # (a name read or imported), perfbench (a name, or a string for its
    # by-name lookups) or the README (a word).
    import groupnear

    refs = {path.stem: _references(ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCES}
    outside = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    for path in BENCH:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        outside |= _references(tree)
        outside |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    dead = []
    for name in sorted(set(groupnear.__all__) - _EXPORTS_WITHOUT_CALLER):
        home = getattr(groupnear, name).__module__.rsplit(".", 1)[-1]
        callers = outside.union(*(r for stem, r in refs.items() if stem not in (home, "__init__")))
        if name not in callers:
            dead.append(f"{name} ({home})")
    assert not dead, f"exported names with no caller outside the tests: {dead}"


def test_ci_runs_only_the_install_and_tier1():
    # A check CI made beside tier-1 would repeat one tier-1 makes, or be
    # enforced on no pull request.  The workflow is read as text: CI
    # installs no YAML parser.
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text(encoding="utf-8"))
    assert tier1, "ROADMAP.md names no tier-1 command"
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    runs = re.findall(r"^\s*(?:- )?run:\s*(.*?)\s*$", workflow, re.MULTILINE)
    assert len(runs) == 2 and runs[0].startswith("python -m pip install "), f"CI runs {runs}"
    assert runs[1] == tier1.group(1)


def test_ci_other_steps_are_checkout_and_python_setup():
    # Beside its two runs, the workflow only checks the code out and sets
    # up each Python of its matrix: 3.10 and 3.11.
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    uses = re.findall(r"^\s*(?:- )?uses:\s*(\S+)", workflow, re.MULTILINE)
    assert [u.split("@")[0] for u in uses] == ["actions/checkout", "actions/setup-python"], f"CI uses {uses}"
    versions = re.findall(r"^\s*python-version:\s*\[(.*)\]\s*$", workflow, re.MULTILINE)
    assert versions == ['"3.10", "3.11"'], f"CI matrix {versions}"


def test_test_imports_are_declared_dependencies():
    # Beside the standard library and the repository's own modules, the
    # tests and the benchmark import numpy, the one runtime dependency, and
    # what pyproject's `test` extra lists, so installing the package with
    # that extra is enough for tier-1.
    scripts = TESTS + sorted((ROOT / "tests" / "corpus").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    imported = set()
    for path in scripts:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"groupnear"} - {path.stem for path in scripts}
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")

    def declared(key):
        body = re.search(rf"^{key} = \[(.*?)\]", pyproject, re.MULTILINE | re.DOTALL)
        assert body, f"pyproject.toml has no {key} list"
        return set(re.findall(r'"([A-Za-z0-9_.-]+)', body.group(1)))

    assert declared("dependencies") == {"numpy"}
    assert third_party - {"numpy"} <= declared("test"), f"undeclared test imports: {third_party - {'numpy'}}"
