"""The three benchmark workloads and the independent checks of their outputs.

A workload is built once per worker process from the benchmark seed and
then hands out rounds. A round is a fixed list of operations; each
operation is a pair (op, check): `op()` is the timed call into qvn and
`check(out)` verifies its output outside the timed region, with numpy
only, never against saved output. Every round of a workload does the same
amount of work, so per-op counts repeat exactly whatever the seed and the
run length.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from qvn import cli, memory, qec, uqt
from qvn.kernel import RngStream

HERE = os.path.dirname(os.path.abspath(__file__))
DEMO_RUN_FILE = os.path.join(HERE, "inputs", "demo.run")
DEMO_SHOTS = 200  # the `run shots=` line of inputs/demo.run
# run_demo's final check reads X and Y of the same composition, where
# <Z> = 0 cannot tell T H|1> from H|1>, H T|1> or an uncorrected byproduct.
CHECK_OBSERVABLES = ("X", "Y")
CHECK_SHOTS = 500

# compose_wide: (qubits, strategy) per op; the logical op rides last.
COMPOSE_MIX = (
    (4, uqt.ByproductStrategy.CORRECTION_TABLE),
    (4, uqt.ByproductStrategy.SYMMETRIC_PAIR),
    (3, uqt.ByproductStrategy.REPEAT_UNTIL_SUCCESS),
)
# The Bell outcomes of a unitary composition are uniform whatever the gates,
# so a protocol stream fixed per position in the round makes every round
# (and every seed) take the same number of Bell rounds; only the gates vary.
# With seed 18 the n=3 repeat_until_success op takes 64 Bell rounds, its
# expected count d^2 (the trials are geometric with success chance 1/d^2).
PROTOCOL_SEED = 18
FIDELITY_FLOOR = 1.0 - 1e-10

# topo_ring: one ring of each size per round. All stay under the 26-segment
# label limit of the single-pass einsum; 20 takes about 0.1 s today.
RING_SIZES = (10, 15, 20)
RING_POOL = 4  # distinct rings per size, cycled round by round


class OpFailed(Exception):
    """An operation ended without a result (here: a nonzero `qvn` exit)."""


def run_cli(argv):
    """In-process `qvn <argv>`; returns the captured report text."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"qvn {argv[0]} exited with {code}")
    return buf.getvalue()


def haar_unitary(rng: np.random.Generator, d):
    """Haar-random unitary from QR of a complex Gaussian matrix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def format_data(matrix):
    """Row-major `re,im;re,im;...` with repr floats, so parsing is exact."""
    return ";".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in np.asarray(matrix).reshape(-1))


def qvn1_custom(name, gate):
    """QVN1 document of one custom gate acting on every wire."""
    n = int(gate.shape[0]).bit_length() - 1
    wires = ",".join(str(q) for q in range(n))
    return (
        f"QVN1 name={name} n={n}\n"
        f"t=0 g=custom q={wires} rows={gate.shape[0]} data={format_data(gate)}\n"
    )


def unitary_of_program(program):
    """U from the dual-state amplitudes vec(U)/sqrt(d)."""
    d = program.d
    return np.asarray(program.choi.pure_amplitudes).reshape(d, d) * math.sqrt(d)


class RunDemo:
    """One op is `qvn run inputs/demo.run --seed s`: H then T, composed with
    the correction table, |1> injected, Z read, 200 shots."""

    def __init__(self, seed, part, workdir):
        self.seed, self.part = seed, part
        h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
        t = np.diag([1.0, np.exp(1j * math.pi / 4)])
        paulis = {
            "X": np.array([[0, 1], [1, 0]], dtype=complex),
            "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
            "Z": np.diag([1.0, -1.0]).astype(complex),
        }
        psi = t @ h @ np.array([0.0, 1.0], dtype=complex)
        # <1|H†T†PTH|1>: 0 for Z, -cos(pi/4) for X, -sin(pi/4) for Y
        self.exact = {k: float(np.vdot(psi, p @ psi).real) for k, p in paulis.items()}
        self.shots = 0
        self.p1 = 0
        with open(DEMO_RUN_FILE, encoding="utf-8") as fh:
            demo = fh.read()
        self.check_files = {}
        for obs in CHECK_OBSERVABLES:
            path = os.path.join(workdir, f"demo_{obs}.run")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(demo.replace(f"shots={DEMO_SHOTS}", f"shots={CHECK_SHOTS}")
                         .replace("obs=Z", f"obs={obs}"))
            self.check_files[obs] = path

    def _run_seed(self, r):
        return (self.seed * 1000 + self.part) * 100_000 + r

    def round(self, r):
        def op():
            return run_cli(["run", DEMO_RUN_FILE, "--seed", str(self._run_seed(r))])

        return [(op, self._check)]

    def _estimate_ok(self, c, obs, shots):
        return (
            c["shots"] == shots
            and c["branches"]["P0"] + c["branches"]["P1"] == shots
            and c["audit_consistent"] is True
            and abs(c["estimate"] - self.exact[obs]) <= 5.0 * c["standard_error"]
        )

    def _check(self, text):
        c = json.loads(text)["canonical"]
        self.shots += DEMO_SHOTS
        self.p1 += c["branches"]["P1"]
        return self._estimate_ok(c, "Z", DEMO_SHOTS)

    def final_check(self):
        """P1 over all shots of this process within 5 sigma of shots/2, and
        <X>, <Y> of the composed program within 5 standard errors of numpy."""
        p = 0.5
        sigma = math.sqrt(self.shots * p * (1.0 - p))
        ok = self.shots > 0 and abs(self.p1 - self.shots * p) <= 5.0 * sigma
        for obs, path in self.check_files.items():
            c = json.loads(run_cli(["run", path, "--seed", str(self._run_seed(0))]))["canonical"]
            ok = self._estimate_ok(c, obs, CHECK_SHOTS) and ok
        return ok


class ComposeWide:
    """One op synthesizes two never-seen programs from QVN1 text and composes
    them; a round is one op per COMPOSE_MIX entry plus one logical
    composition on the 3-qubit bit-flip code."""

    def __init__(self, seed, part, workdir):
        self.seed, self.part = seed, part
        self.code = qec.bit_flip_code()
        self.v = np.asarray(self.code.isometry)
        self.complement = np.eye(self.v.shape[0]) - self.v @ self.v.conj().T

    def _gen(self, r, j):
        return np.random.default_rng([self.seed, self.part, r, j])

    def round(self, r):
        ops = []
        for j, (n, strategy) in enumerate(COMPOSE_MIX):
            rng = self._gen(r, j)
            g1, g2 = haar_unitary(rng, 2**n), haar_unitary(rng, 2**n)
            tag = f"s{self.seed}p{self.part}r{r}j{j}"
            doc1, doc2 = qvn1_custom(f"a{tag}", g1), qvn1_custom(f"b{tag}", g2)
            ops.append((self._compose_op(doc1, doc2, strategy, j), self._compose_check(g2 @ g1, strategy)))
        j = len(COMPOSE_MIX)
        rng = self._gen(r, j)
        u1, u2 = self._symmetric_logical(rng), self._symmetric_logical(rng)
        ops.append((self._logical_op(u1, u2, j), self._logical_check(u2 @ u1)))
        return ops

    @staticmethod
    def _compose_op(doc1, doc2, strategy, position):
        def op():
            p1 = memory.synthesize(memory.deserialize(doc1))
            p2 = memory.synthesize(memory.deserialize(doc2))
            return uqt.compose(p1, p2, strategy, RngStream(PROTOCOL_SEED, stream_id=position))

        return op

    @staticmethod
    def _compose_check(expected, strategy):
        def check(out):
            result, used = out
            d = expected.shape[0]
            overlap = abs(np.trace(expected.conj().T @ unitary_of_program(result))) / d
            single_pass = strategy is not uqt.ByproductStrategy.REPEAT_UNTIL_SUCCESS
            return overlap >= FIDELITY_FLOOR and (used == 1 if single_pass else used >= 1)

        return check

    def _symmetric_logical(self, rng):
        """Physical gate V G V^T + (1 - P) with G a random symmetric unitary;
        V is real, so the physical gate is symmetric and commutes with P."""
        theta = rng.uniform(0.0, 2.0 * math.pi)
        o = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        g = o @ np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 2))) @ o.T
        return self.v @ g @ self.v.T + self.complement

    def _logical_op(self, u1, u2, position):
        code = self.code

        def op():
            lp1, lp2 = qec.logical_program(code, u1), qec.logical_program(code, u2)
            return qec.logical_compose(
                lp1, lp2, uqt.ByproductStrategy.CORRECTION_TABLE,
                RngStream(PROTOCOL_SEED, stream_id=position),
            )

        return op

    def _logical_check(self, product):
        omega = np.eye(2, dtype=complex).reshape(-1) / math.sqrt(2.0)
        expected = np.kron(product @ self.v, self.v) @ omega  # (U2 U1 V (x) V)|w>

        def check(out):
            result, used = out
            return used == 1 and abs(np.vdot(expected, result.state.amplitudes)) >= FIDELITY_FLOOR

        return check

    def final_check(self):
        return True


class TopoRing:
    """One op is `qvn topo-eval` of a closed ring of seeded Haar 2x2 vertices."""

    def __init__(self, seed, part, workdir):
        rng = np.random.default_rng([seed, part])
        self.pool = {}
        for m in RING_SIZES:
            rings = []
            for i in range(RING_POOL):
                gates = [haar_unitary(rng, 2) for _ in range(m)]
                lines = [f"vertex g=custom legs=1 rows=2 data={format_data(u)}" for u in gates]
                # vertex v's head feeds vertex v+1's tail: the value is
                # tr(U_{m-1} ... U_0) / 2^m
                lines += [f"segment a={v}.h0 b={(v + 1) % m}.t0" for v in range(m)]
                path = os.path.join(workdir, f"ring{m}_{i}.topo")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("\n".join(lines) + "\n")
                product = np.eye(2, dtype=complex)
                for u in gates:
                    product = u @ product
                rings.append((path, np.trace(product) / 2**m, 2.0**-m))
            self.pool[m] = rings

    def round(self, r):
        ops = []
        for m in RING_SIZES:
            path, expected, scale = self.pool[m][r % RING_POOL]
            ops.append((self._op(path), self._check(expected, scale)))
        return ops

    @staticmethod
    def _op(path):
        return lambda: run_cli(["topo-eval", path])

    @staticmethod
    def _check(expected, scale):
        def check(text):
            amp = json.loads(text)["canonical"]["amplitude"]
            value = complex(float(amp["re"]), float(amp["im"]))
            # relative to |expected|, floored at the ring's scale 2^-m so a
            # trace that happens to sit near zero is not judged on round-off
            return abs(value - expected) <= 1e-10 * max(abs(expected), scale)

        return check

    def final_check(self):
        return True


WORKLOADS = {"run_demo": RunDemo, "compose_wide": ComposeWide, "topo_ring": TopoRing}
