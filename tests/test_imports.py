"""Every name a module of the package imports is used in that module, every
module it imports is the standard library's, its own, or a declared
dependency, and it imports its own modules at module level.

Stand-ins for a linter's unused-import rule and a dependency check, on the
standard library's `ast` alone and without importing the package: deleting
code must not leave imports behind, and no module may reach for a library
that `pyproject.toml` does not declare. `__init__.py` is left out of the
unused-import check, since its imports are the package's public names.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qvn"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source):
    """Names bound by the import statements of `source` that nothing in it
    reads, with the line of each."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "annotations" and getattr(node, "module", None) == "__future__":
                    continue
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def imported_packages(source):
    """Top-level package of each absolute import in `source`, at module level
    or inside a function, with the line of its first import."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # a relative import stays inside the package
        for name in names:
            found.setdefault(name.split(".")[0], node.lineno)
    return found


def undeclared(packages, declared):
    """(line, name) of each package that is neither the standard library's,
    the package's own, nor declared."""
    allowed = set(sys.stdlib_module_names) | {"qvn"} | set(declared)
    return sorted((line, name) for name, line in packages.items() if name not in allowed)


def function_level_imports(source):
    """(line, module) of each import of the package's own modules made
    inside a function, where a reader of the module's imports misses it."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.ImportFrom):
                modules = ["." * node.level + (node.module or "")]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                if module.startswith(".") or module.split(".")[0] == "qvn":
                    found.add((node.lineno, module))
    return sorted(found)


def declared_dependencies():
    """Import names of the `pyproject.toml` dependencies, e.g. `numpy` for
    `numpy>=2.0`."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
        for dep in project.get("dependencies", [])
    }


def test_detector_finds_an_unused_import():
    source = "import os\nfrom x import a, b\nimport p.q\n\ndef f():\n    return a + p.r\n"
    assert unused_imports(source) == [(1, "os"), (2, "b")]


def test_detector_finds_an_undeclared_import():
    source = (
        "import os.path\nfrom numpy import linalg\nfrom . import kernel\nfrom qvn import gates\n"
        "\ndef f():\n    import scipy.linalg\n    return scipy.linalg\n"
    )
    assert undeclared(imported_packages(source), {"numpy"}) == [(7, "scipy")]


def test_detector_finds_a_function_level_import():
    source = (
        "import json\nfrom . import kernel\n\ndef f():\n    from .kernel import eig_unitary\n"
        "    import json\n\n    def g():\n        import qvn.gates\n        from . import text\n"
        "    return eig_unitary, json, g\n"
    )
    assert function_level_imports(source) == [(5, ".kernel"), (9, "qvn.gates"), (10, ".")]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_own_modules_imported_at_module_level(path):
    assert function_level_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_stdlib_and_declared_dependencies(path):
    packages = imported_packages(path.read_text(encoding="utf-8"))
    assert undeclared(packages, declared_dependencies()) == []


def test_every_declared_dependency_is_imported():
    imported = set()
    for path in SOURCES:
        imported |= set(imported_packages(path.read_text(encoding="utf-8")))
    assert declared_dependencies() - imported == set()
