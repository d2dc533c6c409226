"""Command-line front end: batch runs over QVN1 files with JSON reports.

Reports carry a deterministic `canonical` object (same inputs and seed
give byte-identical content) and a `meta` object for timing and versions.

A run file bundles memory slots and a schedule, in the line grammar of
`qvn.text`; each slot holds a QVN1 document and the schedule block holds
schedule lines:

    run shots=200 seed=7
    slot addr=0 copies=5
    QVN1 name=H n=1
    t=0 g=H q=0
    endslot
    schedule
    restore addr=0 copies=1
    inject target=0
    readout target=0 obs=Z
    endschedule
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time

import numpy as np

from . import __version__
from . import control, duality, memory, qec, tailed, uqt
from .errors import ParseError, QvnError, ValidationError
from .gates import GATE_MATRICES
from .kernel import DEFAULT_TOL, RngStream, UnitaryOp, random_pure_state, unitarity_residuals
from .memory import MemoryUnit
from .text import decode, lines, read_matrices

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INPUT = 2

# Most repeats `compose` and `qec-check` loop over.
MAX_REPEATS = 10_000
# Most amplitudes of the open-diagram state `topo-eval` writes into its report.
MAX_REPORT_AMPLITUDES = 2**16


def _fail(code, message, exit_code):
    print(f"error[{code}] {message}", file=sys.stderr)
    return exit_code


def _emit(report, out_path):
    """Write the report to `out_path`, or to stdout and flush it, so that a
    failed write raises here. Each `cmd_*` builds its report afresh as a
    tree, so the encoder's check for cycles guards nothing."""
    text = json.dumps(report, indent=2, sort_keys=True, check_circular=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text, flush=True)


def _complex_entry(z):
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_entry(m):
    return [[_complex_entry(z) for z in row] for row in np.asarray(m)]


def _check_seed(seed):
    """A ValidationError unless the --seed is non-negative, as a SeedSequence
    entropy must be."""
    if seed < 0:
        raise ValidationError(f"--seed must be >= 0, got {seed}")


def _check_repeats(repeats):
    """A ValidationError naming the limit unless 1 <= repeats <= MAX_REPEATS."""
    if repeats < 1:
        raise ValidationError(f"--repeats must be >= 1, got {repeats}")
    if repeats > MAX_REPEATS:
        raise ValidationError(f"--repeats {repeats} exceeds the limit MAX_REPEATS = {MAX_REPEATS}")


def _read_file(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FileNotFoundError(f"{path}: {exc.strerror}") from exc
    return decode(data)


# ---------------------------------------------------------------------------
# Run files
# ---------------------------------------------------------------------------


def parse_run_file(text):
    """Returns (shots, seed, slots, instructions); a slot is
    (addr, copies, description)."""
    shots, seed = 1, 0
    run_line = None
    slots = []
    instructions = []
    mode = "top"
    for line in lines(text):
        if mode == "slot":
            if line.verb == "endslot":
                line.done()
                if not doc:
                    raise line.error("slot holds no QVN1 document")
                slots.append(slot + (memory.description_of_lines(doc),))
                mode = "top"
            else:
                doc.append(line)
        elif mode == "schedule":
            if line.verb == "endschedule":
                line.done()
                mode = "top"
            else:
                instructions.append(control.parse_instruction(line))
        elif line.verb == "run":
            if run_line is not None:
                raise line.error(f"a second run line; line {run_line.no} is the run line")
            run_line = line
            shots = line.int("shots", 1, low=1, high=control.MAX_SHOTS)
            seed = line.int("seed", 0, low=0)
            line.done()
        elif line.verb == "slot":
            slot = (line.int("addr"), line.int("copies", 1, low=1, high=memory.MAX_COPIES))
            if any(addr == slot[0] for addr, _, _ in slots):
                raise line.error(f"address {slot[0]} already in use", "addr")
            line.done()
            doc = []
            mode, opened = "slot", line
        elif line.verb == "schedule":
            line.done()
            mode, opened = "schedule", line
        else:
            raise line.error("expected a run, slot or schedule line")
    if mode != "top":
        raise opened.error(f"unterminated {mode} block")
    return shots, seed, slots, instructions


def cmd_run(args):
    shots, seed, slots, instructions = parse_run_file(_read_file(args.file))
    if args.shots is not None:
        shots = args.shots
    if args.seed is not None:
        _check_seed(args.seed)
        seed = args.seed
    mem = MemoryUnit()
    slot_names = {}
    for addr, copies, desc in slots:
        mem.store(desc, copies, address=addr)
        slot_names[addr] = desc.name
    sched = control.Schedule(tuple(instructions), shots=shots, seed=seed)
    result = control.execute(mem, sched)
    per_instruction = []
    for idx, ins in enumerate(sched.instructions):
        entry = {"index": idx, "op": type(ins).__name__.lower()}
        if isinstance(ins, control.Compose):
            entry.update(a=ins.addr1, b=ins.addr2, dest=ins.dest, strategy=ins.strategy.value)
        elif isinstance(ins, control.Inject):
            entry.update(target=ins.target, bits=ins.bits)
        elif isinstance(ins, control.Readout):
            entry.update(target=ins.target, observable=ins.label)
        elif isinstance(ins, control.Restore):
            entry.update(addr=ins.addr, copies=ins.copies)
        elif isinstance(ins, control.SampleTail):
            entry.update(target=ins.target, tail=ins.tail)
        per_instruction.append(entry)
    canonical = {
        "command": "run",
        "shots": shots,
        "seed": seed,
        "estimate": result.estimate,
        "standard_error": result.standard_error,
        "branches": {"P0": result.n_p0, "P1": result.n_p1},
        "copies_after": {str(a): c for a, c in sorted(result.copies_after.items())},
        "slots": {str(a): n for a, n in sorted(slot_names.items())},
        "audit_consistent": result.audit_consistent,
        "instructions": per_instruction,
    }
    return canonical


def cmd_compose(args):
    _check_seed(args.seed)
    _check_repeats(args.repeats)
    desc1 = memory.deserialize(_read_file(args.program1))
    desc2 = memory.deserialize(_read_file(args.program2))
    if desc1.n != desc2.n:
        raise ValidationError(
            f"programs act on {desc1.n} and {desc2.n} qubits; composition needs equal widths"
        )
    # copies are immutable values: one synthesis per program serves every repeat
    p1, p2 = memory.synthesize(desc1), memory.synthesize(desc2)
    target = duality.vec(p2.op.matrix @ p1.op.matrix)
    target = target / np.linalg.norm(target)
    names = (
        [s.value for s in uqt.ByproductStrategy]
        if args.strategy == "all"
        else [args.strategy]
    )
    strategies = {}
    for pos, name in enumerate(names):
        # building the exact outcome table draws nothing; each repeat samples it
        table = uqt.Composition(p1, p2, uqt.ByproductStrategy(name))
        rng = RngStream(args.seed, stream_id=pos)
        trials = [table.sample(rng)[1] for _ in range(args.repeats)]
        # every repeat leaves the one composed program: the fidelity of its
        # unit vector to the target's, which rounding may put past 1
        result = table.program.amplitudes
        fid = abs(np.vdot(result / np.linalg.norm(result), target)) ** 2
        strategies[name] = {
            "min_fidelity": min(float(fid), 1.0),
            "mean_trials": float(np.mean(trials)),
            "repeats": args.repeats,
        }
    return {
        "command": "compose",
        "programs": [desc1.name, desc2.name],
        "seed": args.seed,
        "strategies": strategies,
    }


def cmd_qec_check(args):
    _check_seed(args.seed)
    _check_repeats(args.repeats)
    code = qec.parse_code(_read_file(args.code))
    tokens = [t for t in args.errors.split(",") if t]
    if not tokens:
        raise ValidationError("no error tokens given")
    errors = [qec.pauli_site_operator(t, code.n) for t in tokens]
    kl = qec.check_kl(code, errors)
    det = qec.check_detection(code, errors)
    canonical = {
        "command": "qec-check",
        "code": {"name": code.name, "n": code.n, "k": code.k, "distance": code.distance},
        "errors": tokens,
        "kl": {
            "satisfied": bool(kl.satisfied),
            "max_residual": kl.max_residual,
            "c": _matrix_entry(kl.c),
        },
        "detection": {
            "satisfied": bool(det.satisfied),
            "max_residual": det.max_residual,
            "coefficients": [_complex_entry(e) for e in det.coefficients],
        },
    }
    if args.recovery:
        rec = qec.build_recovery(code, errors)
        rng = RngStream(args.seed)
        worst = 1.0
        channel = qec.error_channel(errors)
        recovery = np.stack(rec.channel.kraus_ops)
        for _ in range(args.repeats):
            psi = random_pure_state(code.logical_dim, rng)
            enc = code.isometry @ psi.amplitudes
            # Σ_{r,i} |⟨ψ|R_r √p_i E_i|ψ⟩|² on the encoded vector
            damaged = np.stack([k @ enc for k in channel.kraus_ops])
            overlaps = (enc.conj() @ recovery) @ damaged.T
            worst = min(worst, float((np.abs(overlaps) ** 2).sum()))
        canonical["recovery"] = {
            "kraus_count": len(rec.channel.kraus_ops),
            "min_state_fidelity": worst,
            "repeats": args.repeats,
        }
    return canonical


# ---------------------------------------------------------------------------
# Topological diagram files
# ---------------------------------------------------------------------------

_ENDPOINT_RE = re.compile(r"^(\d+)\.([ht])(\d+)$")


def _endpoint(line, key):
    value = line.str(key)
    m = _ENDPOINT_RE.match(value)
    if m:
        vertex, kind, leg = m.groups()
        try:
            return int(vertex), kind, int(leg)
        except ValueError:  # more digits than `int` reads
            pass
    raise line.error(f"bad endpoint {value!r} (want <vertex>.<h|t><leg>)", key)


def _check_unitary(custom):
    """Raise, at its line, the unitarity error of the first custom vertex in
    `custom`, (line, gate) pairs in file order, whose gate is not unitary.
    The gates of one size are checked as one stack."""
    by_size = {}
    for pos, (_, gate) in enumerate(custom):
        by_size.setdefault(len(gate), []).append(pos)
    failing = []  # the first failing position of each size
    for rows, members in by_size.items():
        residuals = unitarity_residuals(np.array([custom[p][1] for p in members]))
        bad = np.flatnonzero(~(residuals <= DEFAULT_TOL * rows))  # NaN fails
        if bad.size:
            failing.append(members[bad[0]])
    if failing:
        line, gate = custom[min(failing)]
        with line.located():
            UnitaryOp(gate)


def _read_gates(fields, custom):
    """The gates of the custom vertices' `data=` fields, (line, rows, rows)
    in file order, read as one batch. A field at fault is reported as if
    each field had been read at its own line: after the unitarity error of
    a custom vertex above it, `custom` being their lines in file order."""
    try:
        return read_matrices(fields)
    except ParseError as exc:
        above = read_matrices([field for field in fields if field[0].no < exc.line])
        _check_unitary(list(zip(custom, above)))
        raise


def parse_diagram(text) -> tailed.TopoDiagram:
    """The diagram of a diagram file. The keys are read line by line; the
    custom vertices' `data=` are read together once the lines are, and a
    fault is reported as the first one in file order, with a custom vertex
    that is not unitary reported before any fault further down."""
    vertices = []  # (gate, legs), with None for a custom gate not read yet
    segments = []
    fields = []  # the (line, rows, rows) of each custom vertex's data=
    custom = []  # the lines of the custom vertices read in full
    saw_header = False
    try:
        for line in lines(text):
            if line.verb == "QVN1" and not saw_header:
                line.str("name", "")  # a diagram may be named; the name is not kept
                line.done()
                saw_header = True
            elif line.verb == "vertex":
                legs = line.int("legs", 1, low=1, high=tailed.MAX_VERTEX_LEGS)
                tag = line.str("g")
                if tag == "custom":
                    rows = line.int("rows", low=1)
                    line.str("data")
                    fields.append((line, rows, rows))
                    gate, shape = None, (rows, rows)
                elif tag in GATE_MATRICES:
                    gate = GATE_MATRICES[tag]
                    shape = gate.shape
                else:
                    raise line.error(f"unknown vertex gate {tag!r}", "g")
                line.done()
                if gate is None:  # the named gates are unitary already
                    custom.append(line)
                with line.located():
                    tailed.check_vertex_shape(shape, legs)
                vertices.append((gate, legs))
            elif line.verb == "segment":
                segments.append((line, _endpoint(line, "a"), _endpoint(line, "b")))
                line.done()
            else:
                raise line.error("expected a vertex or segment line")
    except ParseError:
        # the data= read so far come before this fault, and a custom vertex
        # read so far that is not unitary comes first
        _check_unitary(list(zip(custom, _read_gates(fields, custom))))
        raise
    gates = _read_gates(fields, custom)
    _check_unitary(list(zip(custom, gates)))
    gates = iter(gates)
    vertices = tuple(
        tailed.TopoVertex(next(gates) if gate is None else gate, legs) for gate, legs in vertices
    )
    try:
        return tailed.TopoDiagram(vertices, tuple((a, b) for _, a, b in segments))
    except ValidationError:
        # a segment may name a vertex given further down, so endpoints are
        # checked once every vertex is read; the first fault is reported
        # again at its own line and key
        unwired = tailed.TopoDiagram(vertices, ())
        seen = set()
        for line, a, b in segments:
            for key, ep in (("a", a), ("b", b)):
                with line.located(key):
                    unwired.check_endpoint(ep, seen)
        raise


def cmd_topo_eval(args):
    diagram = parse_diagram(_read_file(args.diagram))
    # each segment joins two of the diagram's endpoints, and no endpoint is
    # in two segments; `eval_topological` lists the open ones
    n_open = 2 * sum(vert.legs for vert in diagram.vertices) - 2 * len(diagram.segments)
    size = 2**n_open
    if size > MAX_REPORT_AMPLITUDES:
        raise ValidationError(
            f"the open diagram's state has {size} amplitudes; the report limit is "
            f"MAX_REPORT_AMPLITUDES = {MAX_REPORT_AMPLITUDES}"
        )
    value = tailed.eval_topological(diagram)
    closed = not n_open
    canonical = {
        "command": "topo-eval",
        "vertices": len(diagram.vertices),
        "segments": len(diagram.segments),
        "closed": closed,
    }
    if closed:
        canonical["amplitude"] = {
            "re": f"{value.real:.15e}",
            "im": f"{value.imag:.15e}",
            "abs": f"{abs(value):.15e}",
        }
    else:
        canonical["state"] = [_complex_entry(z) for z in value.amplitudes]
    return canonical


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    """A malformed command line, in argparse's words."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise `_UsageError`, so that `main`
    reports one `error[E_USAGE]` line and exits 2, with no usage block."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    """The `qvn` argument parser, built once per process: parse_args keeps
    no state between calls. Subcommand parsers are `_Parser`s too."""
    parser = _Parser(
        prog="qvn", description="Stored-program quantum architecture simulator."
    )
    parser.add_argument("--version", action="version", version=f"qvn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run file's schedule")
    p_run.add_argument("file")
    p_run.add_argument("--shots", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=cmd_run)

    p_comp = sub.add_parser("compose", help="compose two stored programs")
    p_comp.add_argument("program1")
    p_comp.add_argument("program2")
    p_comp.add_argument("--strategy", default="all",
                        choices=["all"] + [s.value for s in uqt.ByproductStrategy])
    p_comp.add_argument("--seed", type=int, default=0)
    p_comp.add_argument("--repeats", type=int, default=10)
    p_comp.add_argument("--out", default=None)
    p_comp.set_defaults(func=cmd_compose)

    p_qec = sub.add_parser("qec-check", help="test correctability of an error set")
    p_qec.add_argument("code")
    p_qec.add_argument("--errors", required=True,
                       help="comma-separated tokens such as I,X0,X1,X2")
    p_qec.add_argument("--recovery", action="store_true",
                       help="also build the recovery and verify random logical states")
    p_qec.add_argument("--seed", type=int, default=0)
    p_qec.add_argument("--repeats", type=int, default=20)
    p_qec.add_argument("--out", default=None)
    p_qec.set_defaults(func=cmd_qec_check)

    p_topo = sub.add_parser("topo-eval", help="evaluate a topological diagram")
    p_topo.add_argument("diagram")
    p_topo.add_argument("--out", default=None)
    p_topo.set_defaults(func=cmd_topo_eval)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        return _fail("E_USAGE", str(exc), EXIT_INPUT)
    start = time.time()
    try:
        canonical = args.func(args)
    except FileNotFoundError as exc:
        return _fail("E_IO", str(exc), EXIT_INPUT)
    except ParseError as exc:
        return _fail("E_PARSE", str(exc), EXIT_INPUT)
    except ValidationError as exc:
        return _fail("E_VALIDATION", str(exc), EXIT_INPUT)
    except QvnError as exc:
        return _fail("E_RUNTIME", str(exc), EXIT_RUNTIME)
    report = {
        "canonical": canonical,
        "meta": {
            "version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "runtime_seconds": round(time.time() - start, 6),
        },
    }
    try:
        _emit(report, args.out)
    except BrokenPipeError:
        # the reader has gone; stdout now writes to nowhere, so the flush at
        # exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _fail("E_IO", "stdout was closed before the report was written", EXIT_RUNTIME)
    except OSError as exc:
        return _fail("E_IO", f"cannot write the report: {exc}", EXIT_RUNTIME)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
