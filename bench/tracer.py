"""Per-layer timing from outside the program.

`Tracer.install` wraps the listed qvn functions and methods and rebinds
every module-level name in the qvn package that refers to one of them, so
calls through `from .x import f` copies are counted too. Each wrapper keeps
a call count, the total time and the self time: the total less the time
spent in wrapped calls made from inside it.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path) of every traced callable. A class is traced
# through its __init__; methods are patched on their class.
TRACED = (
    ("cli", "parse_run_file"),
    ("cli", "parse_diagram"),
    ("control", "execute"),
    ("memory", "deserialize"),
    ("memory", "synthesize"),
    ("memory", "MemoryUnit.restore"),
    ("memory", "MemoryUnit.fetch_consume"),
    ("memory", "MemoryUnit.verify_conservation"),
    ("uqt", "stored_program"),
    ("uqt", "compose"),
    ("uqt", "symmetric_decompose"),
    ("uqt", "bell_measure_pair"),
    ("duality", "choi_of_unitary"),
    ("kernel", "DensityOperator"),
    ("kernel", "eig_unitary"),
    ("kernel", "apply_to_subsystems"),
    ("kernel", "measure_wire_computational"),
    ("tailed", "inject"),
    ("tailed", "eval_topological"),
    ("qec", "logical_program"),
    ("qec", "logical_compose"),
)


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self._children = []  # child-time accumulator per open traced call

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
                if children:
                    children[-1] += elapsed

        return traced

    def install(self):
        package = sys.modules["qvn"]
        modules = [m for n, m in list(sys.modules.items()) if n == "qvn" or n.startswith("qvn.")]
        for mod_name, path in TRACED:
            owner = getattr(package, mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            target = getattr(owner, attr)
            name = f"{mod_name}.{path}"
            if isinstance(target, type):
                target.__init__ = self._wrap(name, target.__init__)
            elif outer:
                setattr(owner, attr, self._wrap(name, target))
            else:
                wrapper = self._wrap(name, target)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is target:
                            setattr(mod, key, wrapper)

    def reset(self):
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
