"""Every callable the benchmark's per-layer tracer wraps still exists.

`bench/tracer.py` lists (module, attribute path) pairs in `TRACED` and
looks each one up when `bench/run.py --trace 1` installs it, so deleting or
renaming one of them breaks the traced benchmark. The tuple is read with
`ast`, without importing the benchmark.
"""

import ast
import importlib
from functools import reduce
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def traced_names():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py assigns no TRACED tuple")


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    for module, path in names:
        owner = importlib.import_module(f"qvn.{module}")
        target = reduce(getattr, path.split("."), owner)
        assert callable(target), f"qvn.{module}.{path}"
