"""Every default value the package offers is one that some call sets.

A parameter default, or a dataclass field default, that no call in the
package, the benchmark or the tests ever passes is a setting nobody uses,
and one more configuration for the tests to cover. This reads the sources
with the standard library's `ast` alone, without importing anything.

Calls are matched by the called name: `f(...)` and `obj.f(...)` both call
every function or method named `f`. A class is called by its own name, for
its `__init__` or its dataclass fields, and `super().__init__(...)` inside
a class calls its base class. A default counts as passed when some call
names its keyword, gives enough positional arguments to reach it, or
unpacks `*args` or `**kwargs` there.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qvn"
CALLERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "bench").glob("*.py")),
           *sorted((ROOT / "tests").glob("*.py"))]


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _field_is_init(value):
    """False for `field(..., init=False)`."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        for kw in value.keywords:
            if kw.arg == "init" and isinstance(kw.value, ast.Constant):
                return bool(kw.value.value)
    return True


def _field_has_default(value):
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
    return True


def _function_defaults(fn, skip_first):
    """(parameter, positional index or None) of each defaulted parameter of
    `fn`; the index does not count `self` or `cls` when skip_first."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults) - (1 if skip_first else 0)
    for index, arg in enumerate(positional[len(positional) - len(args.defaults):]):
        yield arg.arg, first + index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def defaults(source, module):
    """Every settable default of one module: (where, callee, parameter,
    positional index or None)."""
    tree = ast.parse(source)
    out = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node)
                if _is_dataclass(node) and not any(
                    isinstance(n, ast.FunctionDef) and n.name == "__init__" for n in node.body
                ):
                    index = 0
                    for stmt in node.body:
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                            if stmt.value is not None and not _field_is_init(stmt.value):
                                continue
                            if stmt.value is not None and _field_has_default(stmt.value):
                                out.append((f"{module}.{node.name}.{stmt.target.id}",
                                            node.name, stmt.target.id, index))
                            index += 1
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators = {getattr(d, "id", None) for d in node.decorator_list}
                if cls is not None and node.name == "__init__":
                    callee, where = cls.name, f"{module}.{cls.name}"
                else:
                    callee = node.name
                    where = f"{module}.{cls.name}.{node.name}" if cls else f"{module}.{node.name}"
                skip = cls is not None and "staticmethod" not in decorators
                for param, index in _function_defaults(node, skip):
                    out.append((f"{where}({param})", callee, param, index))
                visit(node.body, None)

    visit(tree.body, None)
    return out


def calls(source):
    """For each called name, a list of (keywords passed, positional count,
    unpacks *args, unpacks **kwargs), one per call."""
    tree = ast.parse(source)
    found = {}

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if (
                name == "__init__"
                and isinstance(func.value, ast.Call)
                and getattr(func.value.func, "id", None) == "super"
                and cls is not None
                and cls.bases
            ):
                base = cls.bases[0]
                name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
            elif name == "cls" and cls is not None:
                name = cls.name
            if name is not None:
                found.setdefault(name, []).append((
                    {kw.arg for kw in node.keywords if kw.arg is not None},
                    sum(1 for a in node.args if not isinstance(a, ast.Starred)),
                    any(isinstance(a, ast.Starred) for a in node.args),
                    any(kw.arg is None for kw in node.keywords),
                ))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(tree, None)
    return found


def unpassed(knobs, call_table):
    """The `where` of each default that no call in `call_table` passes."""
    missing = []
    for where, callee, param, index in knobs:
        if not any(
            param in keywords
            or double
            or (index is not None and (index < count or star))
            for keywords, count, star, double in call_table.get(callee, ())
        ):
            missing.append(where)
    return missing


def _all_calls():
    table = {}
    for path in CALLERS:
        for name, entries in calls(path.read_text(encoding="utf-8")).items():
            table.setdefault(name, []).extend(entries)
    return table


def test_detector_finds_an_unpassed_default():
    source = (
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "class K:\n    def __init__(self, x, y=0):\n        pass\n"
        "    def m(self, z=1):\n        pass\n"
        "class J(K):\n    def __init__(self):\n        super().__init__(1, 2)\n"
        "@dataclass\nclass D:\n    p: int\n    q: int = 0\n"
        "    r: int = field(default=0, init=False)\n"
        "f(0, 1)\nf(0, d=4)\nK(1).m()\nD(1)\n"
    )
    knobs = defaults(source, "m")
    assert unpassed(knobs, calls(source)) == ["m.f(c)", "m.K.m(z)", "m.D.q"]


def test_every_default_is_passed_by_some_call():
    knobs = []
    for path in sorted(PACKAGE.glob("*.py")):
        knobs += defaults(path.read_text(encoding="utf-8"), path.stem)
    assert knobs
    missing = unpassed(knobs, _all_calls())
    assert not missing, "defaults that no call passes: " + ", ".join(missing)
