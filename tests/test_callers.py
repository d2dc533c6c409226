"""Every function, class and method of the package has a caller outside
itself and the tests.

A module-level function or class, or a method of a module-level class, that
no code of the package outside its own body refers to, that no code of the
benchmark refers to, and that `qvn/__init__.py` does not export, is code
that only the tests run: an oracle that belongs in `tests/`, or code to
delete. This reads the sources with the standard library's `ast` alone,
without importing anything.

References are matched by name: `f` and `obj.f` both refer to every
definition named `f`; a class's methods other than dunders are looked up by
their own names. Strings count word by word, as `getattr` and
`bench/tracer.py`'s `TRACED` name what they reach in strings; docstrings do
not count, so a name that only a docstring mentions is unused.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qvn"
BENCH = ROOT / "bench"


def definitions(tree):
    """(qualified name, name, node) of each module-level function and class
    of a module, and of each method of its classes but dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item


def references(node):
    """How often code under `node` names each identifier: as a name, as an
    attribute, or as a word of a string that is not a docstring."""
    docstrings = {
        id(child.body[0].value)
        for child in ast.walk(node)
        if isinstance(child, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and child.body
        and isinstance(child.body[0], ast.Expr)
        and isinstance(child.body[0].value, ast.Constant)
    }
    found = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found[child.id] += 1
        elif isinstance(child, ast.Attribute):
            found[child.attr] += 1
        elif isinstance(child, ast.Constant) and isinstance(child.value, str) and id(child) not in docstrings:
            found.update(re.findall(r"\w+", child.value))
    return found


def exported(tree):
    """The names an `__init__` module imports, which are its public API."""
    return {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}


def unused(package, bench, public):
    """The qualified names of the definitions in `package` (module name ->
    tree) that nothing in `package` outside their own body, nothing in
    `bench` (trees) and no name in `public` refers to."""
    outside = set(public)
    for tree in bench:
        outside |= set(references(tree))
    everywhere = sum((references(tree) for tree in package.values()), Counter())
    missing = []
    for module, tree in package.items():
        for qualified, name, node in definitions(tree):
            if name not in outside and everywhere[name] - references(node)[name] <= 0:
                missing.append(f"{module}.{qualified}")
    return missing


def test_detector_finds_an_unused_definition():
    source = (
        "def used():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def orphan():\n    pass\n"
        "def documented():\n    '''Calls orphan.'''\n"
        "def exported():\n    pass\n"
        "def traced():\n    pass\n"
        "def reached():\n    pass\n"
        "class K:\n    def __init__(self):\n        self.x = used()\n"
        "    def method(self):\n        return self.x\n"
        "    def called(self):\n        return getattr(self, 'reached')\n"
        "K().called()\n"
        "documented()\n"
    )
    bench = ast.parse("TRACED = (('m', 'K.traced'),)\n")
    found = unused({"m": ast.parse(source)}, [bench], {"exported"})
    assert found == ["m.recursive", "m.orphan", "m.K.method"]


def test_every_definition_has_a_caller():
    package = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    bench = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(BENCH.glob("*.py"))]
    missing = unused(package, bench, exported(package["__init__"]))
    assert not missing, "definitions that only the tests call: " + ", ".join(missing)
