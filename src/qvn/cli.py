"""Command-line front end: batch runs over QVN1 files with JSON reports.

Reports carry a deterministic `canonical` object (same inputs and seed
give byte-identical content) and a `meta` object for timing and versions.

A run file bundles memory slots and a schedule:

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
import json
import re
import sys
import time

import numpy as np

from . import __version__
from . import control, duality, memory, qec, tailed, uqt
from .errors import ParseError, QvnError, ValidationError
from .gates import GATE_MATRICES
from .kernel import RngStream, UnitaryOp
from .memory import MemoryUnit, _tokenize, parse_complex_data

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INPUT = 2


def _fail(code, message, exit_code):
    print(f"error[{code}] {message}", file=sys.stderr)
    return exit_code


def _emit(report, out_path):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _complex_entry(z):
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_entry(m):
    return [[_complex_entry(z) for z in row] for row in np.asarray(m)]


def _read_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FileNotFoundError(f"{path}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# Run files
# ---------------------------------------------------------------------------


def parse_run_file(text):
    """Returns (shots, seed, slot list, schedule lines)."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    shots, seed = 1, 0
    slots = []
    schedule_lines = []
    mode = "top"
    slot_fields = None
    slot_doc = []
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if mode == "top":
            if not stripped or stripped.startswith("#"):
                continue
            tokens = _tokenize(line, line_no)
            verb = tokens[0][1]
            if verb == "run" and tokens[0][0] is None:
                fields = {k: (v, c) for k, v, c in tokens[1:]}
                shots = control._int_field(fields, "shots", line_no, default=1)
                seed = control._int_field(fields, "seed", line_no, default=0)
            elif verb == "slot" and tokens[0][0] is None:
                fields = {k: (v, c) for k, v, c in tokens[1:]}
                if "addr" not in fields:
                    raise ParseError("slot needs addr=", line_no, 1)
                slot_fields = {
                    "addr": control._int_field(fields, "addr", line_no),
                    "copies": control._int_field(fields, "copies", line_no, default=1),
                    "kind": fields.get("kind", (memory.PROGRAM, 1))[0],
                    "line": line_no,
                }
                slot_doc = []
                mode = "slot"
            elif verb == "schedule" and tokens[0][0] is None:
                mode = "schedule"
            else:
                raise ParseError(f"unexpected line {stripped!r}", line_no, 1)
        elif mode == "slot":
            if stripped == "endslot":
                slots.append((slot_fields, "\n".join(slot_doc) + "\n"))
                mode = "top"
            else:
                slot_doc.append(line)
        elif mode == "schedule":
            if stripped == "endschedule":
                mode = "top"
            elif stripped and not stripped.startswith("#"):
                schedule_lines.append((line_no, line))
    if mode != "top":
        raise ParseError(f"unterminated {mode} block", len(lines), 1)
    return shots, seed, slots, schedule_lines


def cmd_run(args):
    text = _read_file(args.file)
    shots, seed, slots, schedule_lines = parse_run_file(text)
    if args.shots is not None:
        shots = args.shots
    if args.seed is not None:
        seed = args.seed
    mem = MemoryUnit() if args.tolerance is None else MemoryUnit(tol=args.tolerance)
    slot_names = {}
    for fields, doc in slots:
        desc = memory.deserialize(doc)
        mem.store(desc, fields["copies"], kind=fields["kind"], address=fields["addr"])
        slot_names[fields["addr"]] = desc.name
    instructions = [control.parse_instruction(line, ln) for ln, line in schedule_lines]
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
    if args.repeats < 1:
        raise ValidationError(f"--repeats must be >= 1, got {args.repeats}")
    desc1 = memory.deserialize(_read_file(args.program1))
    desc2 = memory.deserialize(_read_file(args.program2))
    if desc1.n != desc2.n:
        raise ValidationError(
            f"programs act on {desc1.n} and {desc2.n} qubits; composition needs equal widths"
        )
    target = duality.vec(desc2.unitary() @ desc1.unitary())
    # copies are immutable values: one synthesis per program serves every repeat
    p1, p2 = memory.synthesize(desc1), memory.synthesize(desc2)
    names = (
        [s.value for s in uqt.ByproductStrategy]
        if args.strategy == "all"
        else [args.strategy]
    )
    strategies = {}
    for pos, name in enumerate(names):
        strat = uqt.ByproductStrategy(name)
        rng = RngStream(args.seed, stream_id=pos)
        fidelities = []
        trials = []
        for _ in range(args.repeats):
            result, used = uqt.compose(p1, p2, strat, rng)
            fid = abs(np.vdot(result.amplitudes, target)) ** 2
            fidelities.append(float(fid))
            trials.append(used)
        strategies[name] = {
            "min_fidelity": min(fidelities),
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
        from .kernel import DensityOperator, apply_channel, random_pure_state

        channel = qec.error_channel(errors)
        for _ in range(args.repeats):
            psi = random_pure_state(code.logical_dim, rng)
            enc = code.isometry @ psi.amplitudes
            rho = DensityOperator(np.outer(enc, enc.conj()))
            out = apply_channel(rec.channel, apply_channel(channel, rho))
            worst = min(worst, float(np.real(np.vdot(enc, out.matrix @ enc))))
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


def _parse_endpoint(text, line_no, col):
    m = _ENDPOINT_RE.match(text)
    if not m:
        raise ParseError(f"bad endpoint {text!r} (want <vertex>.<h|t><leg>)", line_no, col)
    return int(m.group(1)), m.group(2), int(m.group(3))


def parse_diagram(text) -> tailed.TopoDiagram:
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    site_dim = 2
    vertices = []
    segments = []
    saw_header = False
    for line_no, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        tokens = _tokenize(line, line_no)
        verb = tokens[0][1]
        fields = {k: (v, c) for k, v, c in tokens[1:]}
        if verb == "QVN1" and not saw_header:
            saw_header = True
            continue
        if verb == "vertex":
            legs = control._int_field(fields, "legs", line_no, default=1)
            tag = fields.get("g", (None, 1))[0]
            if tag is None:
                raise ParseError("vertex needs g=", line_no, 1)
            if tag == "custom":
                rows = control._int_field(fields, "rows", line_no)
                if "data" not in fields:
                    raise ParseError("custom vertex needs data=", line_no, 1)
                gate = parse_complex_data(fields["data"][0], rows, rows, line_no, fields["data"][1])
                UnitaryOp(gate)
            elif tag in GATE_MATRICES:
                gate = GATE_MATRICES[tag]
            else:
                raise ParseError(f"unknown vertex gate {tag!r}", line_no, fields["g"][1])
            try:
                vertices.append(tailed.TopoVertex(gate, legs, site_dim))
            except ValidationError as exc:
                raise ParseError(str(exc), line_no, 1) from exc
        elif verb == "segment":
            if "a" not in fields or "b" not in fields:
                raise ParseError("segment needs a= and b=", line_no, 1)
            a = _parse_endpoint(fields["a"][0], line_no, fields["a"][1])
            b = _parse_endpoint(fields["b"][0], line_no, fields["b"][1])
            segments.append((a, b))
        else:
            raise ParseError(f"unexpected line {line.strip()!r}", line_no, 1)
    try:
        return tailed.TopoDiagram(tuple(vertices), tuple(segments), site_dim)
    except ValidationError as exc:
        raise ParseError(f"bad diagram: {exc}", 1, 1) from exc


def cmd_topo_eval(args):
    diagram = parse_diagram(_read_file(args.diagram))
    value = tailed.eval_topological(diagram)
    canonical = {
        "command": "topo-eval",
        "vertices": len(diagram.vertices),
        "segments": len(diagram.segments),
        "closed": diagram.closed,
    }
    if diagram.closed:
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qvn", description="Stored-program quantum architecture simulator."
    )
    parser.add_argument("--version", action="version", version=f"qvn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run file's schedule")
    p_run.add_argument("file")
    p_run.add_argument("--shots", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--tolerance", type=float, default=None)
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
    parser = build_parser()
    args = parser.parse_args(argv)
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
    _emit(report, args.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
