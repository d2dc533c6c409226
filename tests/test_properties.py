"""Property tests: serialize/parse round trips of the program and code
formats are byte exact, any line-shaped text given to a parser (run files
nest program documents and schedule lines) either parses or raises a
QvnError, every `qvn` subcommand given any files and argv ends in a report
or in one error line, the pairwise diagram contraction agrees with the
single-pass einsum, the index-only Bell measurement agrees with the dense basis, the
table-driven schedule executor agrees with the per-shot one, batch-derived
shot streams draw as numpy seeds them, and lazily concatenated program
descriptions flatten to the eager concatenation."""

import contextlib
import io
import json
import re
import string
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import dense_bell_probabilities, einsum_oracle, per_shot_execute
from qvn import cli, control, gates, memory, qec
from qvn.control import Compose, Inject, Readout, Restore, SampleTail, Schedule
from qvn.errors import QvnError, ValidationError
from qvn.kernel import (
    SHOT_BLOCK,
    Observable,
    PureState,
    RngStream,
    checked_cdf,
    haar_random_unitary,
    shot_streams,
)
from qvn.memory import GATE_ARITY, GateRecord, ProgramDescription
from qvn.tailed import TopoDiagram, TopoVertex, eval_topological
from qvn.uqt import BellBasis, ByproductStrategy, bell_probabilities, fusion_probabilities

NAMES = st.text(string.ascii_letters + string.digits + "_-;.#=", min_size=1, max_size=8)
SEEDS = st.integers(0, 2**32 - 1)


def haar(dim, seed):
    return haar_random_unitary(dim, RngStream(seed)).matrix


@st.composite
def descriptions(draw, n=None):
    n = n or draw(st.integers(1, 3))
    time = draw(st.integers(-2, 2))
    gate_list = []
    for _ in range(draw(st.integers(0, 4))):
        time += draw(st.integers(0, 2))
        tag = draw(st.sampled_from(sorted(t for t, a in GATE_ARITY.items() if a <= n) + ["custom"]))
        arity = GATE_ARITY[tag] if tag != "custom" else draw(st.integers(1, n))
        targets = tuple(draw(st.permutations(range(n)))[:arity])
        matrix = haar(2**arity, draw(SEEDS)) if tag == "custom" else None
        gate_list.append(GateRecord(time, tag, targets, matrix))
    return ProgramDescription(draw(NAMES), n, tuple(gate_list))


@st.composite
def codes(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, n))
    isometry = haar(2**n, draw(SEEDS))[:, : 2**k]
    return qec.Code(n, k, isometry, distance=draw(st.integers(1, 3)), name=draw(NAMES))


@given(descriptions())
def test_qvn1_round_trip_byte_exact(desc):
    text = memory.serialize(desc)
    back = memory.deserialize(text)
    assert back == desc
    assert memory.serialize(back) == text


@given(codes())
def test_code_round_trip_byte_exact(code):
    text = qec.serialize_code(code)
    assert qec.serialize_code(qec.parse_code(text)) == text


# Line-shaped fuzzing. A document is built from each format's line
# templates (verb, keys); a key takes a small, negative or non-numeric
# value, or is left out, and a line may end in a stray token, a comment or
# a repeated key. Run files nest QVN1 and schedule documents in blocks.
INTEGERS = ["-1", "0", "1", "2", "x"]
VALUES = {
    "n": ["1", "-1", "0", "2", "40", "x"],
    "name": ["a", ""],
    "g": ["custom", "H", "CX", "Q"],
    "q": ["0", "0,1", "x"],
    "data": ["1,0", "1,0;0,0;0,0;1,0", "x,0", "nan,0", "1,0;0,0;0,0;0,inf"],
    "obs": ["custom", "Z", "W"],
    "strategy": ["correction_table", "magic"],
    "bits": ["1", "2"],
    "kind": ["program"],
    "a": ["0", "0.h0", "0.t0", "x"],
    "b": ["0", "0.h0", "0.t0", "x"],
}
GATE = ("", ["t", "g", "q", "rows", "data"])
HEADERS = {
    "qvn1": ("QVN1", ["name", "n"]),
    "code": ("QVN1", ["name", "n", "k", "distance"]),
    "diagram": ("QVN1", ["name"]),
    "run": ("run", ["shots", "seed"]),
}
BODIES = {
    "qvn1": [GATE],
    "code": [("isometry", ["rows", "cols", "data"])],
    "diagram": [("vertex", ["g", "legs", "rows", "data"]), ("segment", ["a", "b"])],
    "schedule": [
        ("compose", ["a", "b", "strategy", "dest"]),
        ("inject", ["target", "bits"]),
        ("readout", ["target", "obs", "rows", "data"]),
        ("restore", ["addr", "copies"]),
        ("sampletail", ["target", "tail"]),
    ],
}
PARSERS = {
    "qvn1": memory.deserialize,
    "run": cli.parse_run_file,
    "diagram": cli.parse_diagram,
    "code": qec.parse_code,
}


def line_of(template):
    verb, keys = template
    fields = [
        st.sampled_from(VALUES.get(k, INTEGERS) + [None]).map(
            lambda v, k=k: "" if v is None else f"{k}={v}"
        )
        for k in keys
    ]
    tails = ["", "", "", " junk", " # note", f" {keys[0] if keys else 'x'}=0"]
    return st.builds(
        lambda fs, tail: " ".join(t for t in (verb, *fs) if t) + tail,
        st.tuples(*fields),
        st.sampled_from(tails),
    )


def lines_of(fmt):
    """Strategy for the list of lines of one `fmt` document."""
    head = line_of(HEADERS[fmt]).map(lambda x: [x]) if fmt in HEADERS else st.just([])
    if fmt == "run":
        block = st.one_of(
            st.tuples(line_of(("slot", ["addr", "copies", "kind"])), lines_of("qvn1")).map(
                lambda b: [b[0], *b[1], "endslot"]
            ),
            lines_of("schedule").map(lambda b: ["schedule", *b, "endschedule"]),
        )
    else:
        block = st.one_of([line_of(t) for t in BODIES[fmt]]).map(lambda x: [x])
    body = st.lists(block, max_size=3).map(lambda bs: [x for b in bs for x in b])
    return st.builds(lambda h, b: h + b, head, body)


DOCUMENTS = {
    fmt: st.builds(lambda eol, lines: eol.join(lines), st.sampled_from(["\n", "\r\n", "\r"]),
                   lines_of(fmt))
    for fmt in PARSERS
}


@pytest.mark.parametrize("fmt", sorted(PARSERS))
@given(data=st.data())
def test_parser_raises_only_qvn_errors(fmt, data):
    text = data.draw(DOCUMENTS[fmt])
    try:
        PARSERS[fmt](text)
    except QvnError:
        pass


# The whole command line: any bytes as each file a subcommand reads, and
# any argv around them, run through `cli.main` in an empty working directory.
# A file is random bytes, a line-shaped document or a well-formed one.
CLI_FILES = {"compose": ["qvn1", "qvn1"], "qec-check": ["code"], "run": ["run"],
             "topo-eval": ["diagram"]}
WELL_FORMED = {
    "qvn1": ["QVN1 name=H n=1\nt=0 g=H q=0\n",
             "QVN1 name=C n=2\nt=0 g=CX q=1,0\nt=1 g=custom q=0 rows=2 data=0,0;1,0;1,0;0,0\n"],
    "code": [qec.serialize_code(qec.bit_flip_code())],
    "run": ["run shots=3 seed=1\nslot addr=0 copies=1\nQVN1 name=H n=1\nt=0 g=H q=0\nendslot\n"
            "schedule\nrestore addr=0 copies=1\ninject target=0\nreadout target=0 obs=Z\n"
            "endschedule\n"],
    "diagram": ["vertex g=T\nsegment a=0.h0 b=0.t0\n", "vertex g=CX legs=2\nsegment a=0.h0 b=0.t1\n"],
}
COUNTS = ["0", "1", "3", "-1", "10001", "x"]
CLI_OPTIONS = {
    "compose": {"--strategy": ["all", "symmetric_pair", "magic"], "--seed": COUNTS,
                "--repeats": COUNTS},
    "qec-check": {"--errors": ["I", "I,X0", "X0,Z9", "Q", ","], "--recovery": None,
                  "--seed": COUNTS, "--repeats": COUNTS},
    "run": {"--shots": ["1", "3", "0", "1000001", "x"], "--seed": COUNTS},
    "topo-eval": {},
}
# a report file, one in a directory that does not exist, and a directory
OUT_PATHS = ["report.json", "missing/report.json", "."]


@st.composite
def command_lines(draw, command):
    """(argv, {file name: bytes}) of one `qvn <command>` call. Each flag
    keeps its value next to it; the groups and any stray tokens come in a
    drawn order."""
    files, groups = {}, []
    for i, fmt in enumerate(CLI_FILES[command]):
        name = f"in{i}"
        files[name] = draw(st.one_of(
            st.binary(max_size=64),
            DOCUMENTS[fmt].map(str.encode),
            st.sampled_from(WELL_FORMED[fmt]).map(str.encode),
        ))
        groups.append([draw(st.sampled_from([name, name, name, "absent", "."]))])
    for flag, values in {**CLI_OPTIONS[command], "--out": OUT_PATHS}.items():
        if flag == "--errors" or draw(st.booleans()):  # qec-check requires --errors
            groups.append([flag] if values is None else [flag, draw(st.sampled_from(values))])
    if draw(st.integers(0, 4)) == 4:
        groups.append([draw(st.text(max_size=6))])
    return [command, *(token for group in draw(st.permutations(groups)) for token in group)], files


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command", sorted(CLI_FILES))
@given(data=st.data())
def test_cli_reports_or_fails_in_one_line(command, data):
    argv, files = data.draw(command_lines(command))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work, contextlib.chdir(work):
        for name, content in files.items():
            Path(name).write_bytes(content)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # --help and --version print and exit
                code = exc.code
        report = Path("report.json")
        written = report.read_text() if report.is_file() else ""
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
        for text in (out, written):
            if text.startswith("{"):
                json.loads(text, parse_constant=_reject_constant)
    else:
        assert re.fullmatch(r"error\[E_[A-Z]+\] [^\n]*\n", err), err
        assert out == ""


@st.composite
def diagrams(draw):
    """1-6 vertices of 1-2 legs with Haar gates; a random pairing of their
    endpoints into segments (self-loops, multi-edges and disjoint
    components among them) leaves the rest open. At most 16 einsum labels
    keep the oracle fast."""
    legs = draw(st.lists(st.integers(1, 2), min_size=1, max_size=6))
    vertices = tuple(TopoVertex(haar(2**k, draw(SEEDS)), k) for k in legs)
    endpoints = [(v, kind, leg) for v, k in enumerate(legs) for kind in "ht" for leg in range(k)]
    order = draw(st.permutations(endpoints))
    count = draw(st.integers(max(0, len(order) - 16), len(order) // 2))
    segments = tuple((order[2 * i], order[2 * i + 1]) for i in range(count))
    return TopoDiagram(vertices, segments)


@given(diagrams())
def test_pairwise_contraction_matches_einsum(diagram):
    value, oracle = eval_topological(diagram), einsum_oracle(diagram)
    if diagram.closed:
        assert abs(value - oracle) <= 1e-10
    else:
        expected = oracle.reshape(-1) / np.linalg.norm(oracle)
        overlap = np.vdot(expected, value.amplitudes)
        phase = overlap / abs(overlap)
        assert np.abs(value.amplitudes - phase * expected).max() <= 1e-10


def random_amplitudes(shape, seed):
    """A normalized complex Gaussian tensor: no unitary structure."""
    gen = np.random.default_rng(seed)
    z = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    return z / np.linalg.norm(z)


# qubit bases at d = 2, 4, 8 and Weyl bases at d = 3, 5
BELL_DIMS = st.sampled_from([2, 3, 4, 5, 8])


@given(BELL_DIMS, st.lists(st.integers(1, 3), max_size=2), st.data())
def test_bell_probabilities_match_dense_basis(d, extra, data):
    dims = [d, d, *extra]
    order = data.draw(st.permutations(range(len(dims))))
    dims = [dims[i] for i in order]
    wire_a, wire_b = order.index(0), order.index(1)
    tensor = random_amplitudes(dims, data.draw(SEEDS))
    probs, residuals = bell_probabilities(
        PureState(tensor.reshape(-1), dims), wire_a, wire_b, BellBasis.for_dim(d)
    )
    oracle_probs, oracle_residuals = dense_bell_probabilities(tensor, wire_a, wire_b, d)
    assert np.abs(probs - oracle_probs).max() <= 1e-12
    assert np.abs(residuals - oracle_residuals).max() <= 1e-12


@given(BELL_DIMS, SEEDS)
def test_fusion_probabilities_match_dense_basis(d, seed):
    m1, m2 = random_amplitudes((d, d), seed), random_amplitudes((d, d), seed + 1)
    probs = fusion_probabilities(m1, m2, BellBasis.for_dim(d))
    joint = np.kron(m1.reshape(-1), m2.reshape(-1)).reshape(d, d, d, d)
    oracle, _ = dense_bell_probabilities(joint, 0, 3, d)
    assert np.abs(probs - oracle).max() <= 1e-12


@st.composite
def runnable_schedules(draw):
    """Two n-qubit slots (n = 1-3) of 1-3 copies and a schedule over them
    of up to seven instructions of all five kinds and 1-40 shots. Most
    schedules restore slot 1 and compose slot 0 with it, into a fresh slot
    or back into slot 0, so that slot 0 holds a new program every shot
    (a chain). One in five drops the restores, and some tail indices are
    out of range, so errors are covered too."""
    n = draw(st.integers(1, 3))
    slots = [(draw(descriptions(n)), draw(st.integers(1, 3))) for _ in range(2)]
    addrs = [0, 1]
    instructions = [Restore(1, 2)]
    dest = None
    if draw(st.integers(0, 3)):
        dest = draw(st.sampled_from([0, 2]))
        instructions.append(Compose(0, 1, draw(st.sampled_from(list(ByproductStrategy))), dest))
    if dest != 0:
        instructions.insert(0, Restore(0, 2))
    if dest == 2:
        addrs.append(2)
    if not draw(st.integers(0, 4)):
        instructions = [i for i in instructions if not isinstance(i, Restore)]
    readout = False
    for _ in range(draw(st.integers(0, 5))):
        verb = draw(st.sampled_from(["compose", "inject", "readout", "restore", "sampletail"]))
        if verb == "compose":
            a, b = draw(st.sampled_from(addrs)), draw(st.sampled_from(addrs))
            dests = {i.dest for i in instructions if isinstance(i, Compose)}
            dest = draw(st.sampled_from([a, b, len(addrs)]).filter(lambda x: x not in dests))
            strategy = draw(st.sampled_from(list(ByproductStrategy)))
            instructions.append(Compose(a, b, strategy, dest))
            if dest == len(addrs):
                addrs.append(dest)
        elif verb == "inject":
            bits = draw(st.one_of(st.just(""), st.text("01", min_size=n, max_size=n)))
            instructions.append(Inject(draw(st.sampled_from(addrs)), bits))
        elif verb == "readout" and not readout:
            readout = True
            label = "".join(draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n)))
            obs = Observable(gates.pauli_string_matrix(label))
            instructions.append(Readout(draw(st.sampled_from(addrs)), obs, label))
        elif verb == "restore":
            instructions.append(Restore(draw(st.sampled_from(addrs)), draw(st.integers(1, 3))))
        elif verb == "sampletail":
            tail = draw(st.sampled_from([*range(n)] * 3 + [n]))
            instructions.append(SampleTail(draw(st.sampled_from(addrs)), tail))
    sched = Schedule(tuple(instructions), shots=draw(st.integers(1, 40)), seed=draw(SEEDS))
    return slots, sched


def run_or_error(executor, slots, sched):
    """The executor's result and the gates of every copy left in memory, or
    the type and message of the error it raised."""
    mem = memory.MemoryUnit()
    for address, (desc, copies) in enumerate(slots):
        mem.store(desc, copies, address=address)
    try:
        result = executor(mem, sched)
    except QvnError as exc:
        return type(exc), str(exc)
    programs = {a: [p.op.matrix.tobytes() for p in slot.copies] for a, slot in mem.slots.items()}
    return result, programs


@given(runnable_schedules(), st.sampled_from([control.MAX_RETAINED_ENTRIES, 64, 0]))
def test_execute_matches_per_shot_oracle(case, retained):
    # with 64 entries some results are kept and the rest rebuilt per draw
    with mock.patch.object(control, "MAX_RETAINED_ENTRIES", retained):
        got = run_or_error(control.execute, *case)
    assert got == run_or_error(per_shot_execute, *case)


# ---------------------------------------------------------------------------
# Shot streams
# ---------------------------------------------------------------------------

STREAM_CALLS = st.lists(
    st.sampled_from(["random", "draw", "uniforms", "choices", "normal"]), min_size=1, max_size=6
)
CDF = checked_cdf([0.1, 0.0, 0.3, 0.6])


def stream_draws(stream, calls):
    out = []
    for call in calls:
        if call == "random":
            out.append(stream.random())
        elif call == "draw":
            out.append(stream.draw(CDF))
        elif call == "uniforms":
            out.append(stream.uniforms(3).tolist())
        elif call == "choices":
            out.append(stream.choices([1.0, 2.0, 0.0, 5.0], 2).tolist())
        else:
            out.append(stream.normal((2,)).tolist())
    return out


@given(
    st.one_of(st.sampled_from([0, 2**32 - 1, 2**32]), st.integers(0, 2**160)),
    st.sampled_from([1, 2, SHOT_BLOCK, SHOT_BLOCK + 1, 2 * SHOT_BLOCK + 3]),
    STREAM_CALLS,
)
@example(2**160 - 1, SHOT_BLOCK + 1, ["random", "normal", "draw"])
def test_shot_streams_draw_as_rng_stream(seed, shots, calls):
    # 2**160 - 1 has five 32-bit words: more than the pool, so no padding
    count = 0
    for shot, stream in enumerate(shot_streams(seed, shots)):
        oracle = RngStream(seed, stream_id=shot)
        assert stream._gen.bit_generator.state == oracle._gen.bit_generator.state
        assert stream_draws(stream, calls) == stream_draws(oracle, calls)
        count += 1
    assert count == shots


# ---------------------------------------------------------------------------
# Lazily concatenated descriptions
# ---------------------------------------------------------------------------


def eager_then(first, later):
    """`ProgramDescription.then` as a copy of both gate lists, re-checked."""
    offset = (first.gate_list[-1].time + 1) if first.gate_list else 0
    shifted = tuple(replace(g, time=g.time + offset) for g in later.gate_list)
    return ProgramDescription(f"{first.name};{later.name}", first.n, first.gate_list + shifted)


def then_or_error(combine, a, b):
    try:
        return combine(a, b)
    except ValidationError as exc:
        return str(exc)


@given(st.lists(descriptions(n=2), min_size=2, max_size=6), st.data())
def test_then_flattens_to_eager_concatenation(parts, data):
    # fold the parts in a drawn bracketing, reading some middle results early
    lazy, eager = list(parts), list(parts)
    while len(lazy) > 1:
        i = data.draw(st.integers(0, len(lazy) - 2))
        got = then_or_error(lambda a, b: a.then(b), lazy[i], lazy[i + 1])
        want = then_or_error(eager_then, eager[i], eager[i + 1])
        if isinstance(want, str):
            assert got == want
            return
        lazy[i : i + 2], eager[i : i + 2] = [got], [want]
        if data.draw(st.booleans()):
            assert got.gate_list == want.gate_list
    assert lazy[0] == eager[0]
    assert (lazy[0].start, lazy[0].span) == (eager[0].start, eager[0].span)
    assert memory.serialize(lazy[0]) == memory.serialize(eager[0])
