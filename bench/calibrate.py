"""Host-speed calibration, run interleaved with the timed operations.

The shared host this benchmark was tuned on changes speed by 20-50 % over
seconds to minutes, and the process's CPU time swings with its wall time,
so neither clock alone gives a steady figure. A fixed chunk of mixed work
(many numpy calls on 4x4 arrays with small Python objects around them, a
128x128 LAPACK eigensolver and a multi-operand einsum, the kinds of work
qvn does) runs between rounds until its time is REF_SHARE of the
operation time so far. The chunks then
sample the host's speed at the same moments as the operations, and the
ratio of the two rates no longer depends on that speed.

The chunks run with the garbage collector off: their objects are freed by
reference counting alone, so a chunk's time does not grow with the objects
qvn keeps alive, and a qvn change that holds more memory cannot slow the
chunk and so hide its own cost.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

REF_SHARE = 0.25
# Chunks per second of the nominal host; scales the reported figures to
# seconds of that host. Measured as the median on the 2-core machine the
# benchmark was tuned on (README).
NOMINAL_CHUNKS_PER_S = 220.0


@dataclass(frozen=True)
class _Record:
    tensor: object
    dims: tuple


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(20211217)
        z = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        self.herm = z + z.conj().T
        self.m4 = z[:4, :4].copy()
        self.v4 = z[0, :4].copy()
        self.ring = [z[i:i + 2, i:i + 2].copy() for i in range(12)]
        self.spec = ",".join(f"{chr(97 + i)}{chr(97 + (i + 1) % 12)}" for i in range(12)) + "->"
        self.gen = np.random.default_rng(5)
        self.chunks = 0
        self.seconds = 0.0

    def _chunk(self):
        v, m = self.v4, self.m4
        for _ in range(25):
            o = np.outer(v, v.conj())
            np.linalg.eigvalsh(o + o.conj().T)
            t = np.moveaxis(np.kron(v, v).reshape(2, 2, 2, 2), (0, 3), (0, 1)).reshape(4, -1)
            p = (np.abs(m @ t) ** 2).sum(axis=1)
            self.gen.choice(4, p=p / p.sum())
            _Record(t, tuple(int(d) for d in t.shape))
            {k: 2 * k for k in range(8)}
        np.linalg.eigvalsh(self.herm)
        np.einsum(self.spec, *self.ring)

    def keep_up(self, op_seconds):
        """Run chunks until calibration time reaches REF_SHARE of op time."""
        gc.disable()
        try:
            while self.seconds < REF_SHARE * op_seconds:
                start = time.perf_counter()
                self._chunk()
                self.seconds += time.perf_counter() - start
                self.chunks += 1
        finally:
            gc.enable()

    def warm_up(self):
        self._chunk()
