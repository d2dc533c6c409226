"""Property tests: serialize/parse round trips of the program and code
formats are byte exact, any line-shaped text given to a parser (run files
nest program documents and schedule lines) either parses or raises a
QvnError, every `qvn` subcommand given any files and argv ends in a report
or in one error line, the pairwise diagram contraction agrees with the
single-pass einsum, its bitmask plan is the tuple-label plan, diagram files
with faults put in read as the line-at-a-time reader reads them, the
index-only Bell measurement agrees with the dense basis, the
table-driven schedule executor agrees with the per-shot one, batch-derived
shot streams and doubles draw as numpy seeds them, at any read positions,
a branch's estimate is numpy's mean and variance bit for bit, lazily
concatenated program descriptions flatten to the eager concatenation,
`data=` matrices read as one entry at a time reads them, and
repeat-until-success leaves its rounds and its stream where one draw per
round leaves them."""

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

from conftest import (
    comparable,
    dense_bell_probabilities,
    diagram_terms,
    einsum_oracle,
    entrywise_matrix,
    line_at_a_time_diagram,
    numpy_branch_estimate,
    per_round_draw,
    per_shot_execute,
    tuple_label_plan,
)
from qvn import cli, control, gates, memory, qec, tailed, text, uqt
from qvn.control import Compose, Inject, Readout, Restore, SampleTail, Schedule
from qvn.errors import ParseError, QvnError, ValidationError
from qvn.kernel import (
    SHOT_BLOCK,
    Observable,
    PureState,
    RngStream,
    checked_cdf,
    haar_random_unitary,
    shot_uniforms,
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
# The last of each kind overflows a float: U†U of a gate with 1e300
# entries, and the mean of readout values of ±1e308; each must end in one
# error line.
OVERFLOWING_GATE = "rows=2 data=1e300,1e300;0,0;0,0;1,0"
README_RUN = (Path(__file__).resolve().parent.parent / "bench" / "inputs" / "demo.run").read_text()
WELL_FORMED = {
    "qvn1": ["QVN1 name=H n=1\nt=0 g=H q=0\n",
             "QVN1 name=C n=2\nt=0 g=CX q=1,0\nt=1 g=custom q=0 rows=2 data=0,0;1,0;1,0;0,0\n",
             f"QVN1 name=O n=1\nt=0 g=custom q=0 {OVERFLOWING_GATE}\n"],
    "code": [qec.serialize_code(qec.bit_flip_code())],
    "run": ["run shots=3 seed=1\nslot addr=0 copies=1\nQVN1 name=H n=1\nt=0 g=H q=0\nendslot\n"
            "schedule\nrestore addr=0 copies=1\ninject target=0\nreadout target=0 obs=Z\n"
            "endschedule\n",
            README_RUN.replace("obs=Z", "obs=custom rows=2 data=1e308,0;0,0;0,0;-1e308,0")],
    "diagram": ["vertex g=T\nsegment a=0.h0 b=0.t0\n", "vertex g=CX legs=2\nsegment a=0.h0 b=0.t1\n",
                f"vertex g=custom {OVERFLOWING_GATE}\nsegment a=0.h0 b=0.t0\n"],
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


@st.composite
def diagram_texts(draw):
    """A diagram from `diagrams()` with some gates swapped for named gates of
    their size, and its diagram file: custom gates in exact
    `format_complex_data` text, segment lines before or after the vertices."""
    diagram = draw(diagrams())
    vertices, vertex_lines = [], []
    for vert in diagram.vertices:
        names = [name for name, g in gates.GATE_MATRICES.items() if g.shape == vert.gate.shape]
        name = draw(st.sampled_from(["custom", *names]))
        if name == "custom":
            data = text.format_complex_data(vert.gate)
            vertex_lines.append(f"vertex g=custom legs={vert.legs} rows={2**vert.legs} data={data}")
            vertices.append(vert)
        else:
            vertex_lines.append(f"vertex g={name} legs={vert.legs}")
            vertices.append(TopoVertex(gates.GATE_MATRICES[name], vert.legs))
    segment_lines = [
        f"segment a={a[0]}.{a[1]}{a[2]} b={b[0]}.{b[1]}{b[2]}" for a, b in diagram.segments
    ]
    body = segment_lines + vertex_lines if draw(st.booleans()) else vertex_lines + segment_lines
    source = "\n".join(["QVN1 name=drawn", *body]) + "\n"
    return TopoDiagram(tuple(vertices), diagram.segments), source


@given(diagram_texts())
def test_parsed_diagram_is_the_built_one(case):
    built, source = case
    parsed = cli.parse_diagram(source)
    assert [v.legs for v in parsed.vertices] == [v.legs for v in built.vertices]
    assert all(np.array_equal(p.gate, b.gate) for p, b in zip(parsed.vertices, built.vertices))
    assert parsed.segments == built.segments

    def evaluated(diagram):  # a named gate may leave the zero state
        try:
            value = eval_topological(diagram)
        except QvnError as exc:
            return str(exc)
        return value if diagram.closed else value.amplitudes.tobytes()

    assert evaluated(parsed) == evaluated(built)


# whole lines that are at fault, put into a diagram file: non-unitary gates
# of two sizes, a rows/legs mismatch, bad data= entries, an unknown gate,
# key or verb, a stray token and bad, missing or reused endpoints; the first
# five hold two faults each, in the order one line reads them
FAULT_LINES = (
    "vertex g=custom rows=2 data=2,0;0,0;0,0;1,0 bogus=1",
    "vertex g=custom legs=2 rows=2 data=2,0;0,0;0,0;1,0",
    "vertex g=custom rows=2 data=nan,0;0,0;0,0;1,0 bogus=1",
    "vertex g=custom legs=2 rows=2 data=1,0;0,0;0,0 stray",
    "vertex g=custom rows=2 bogus=1",
    "vertex g=custom rows=2 data=2,0;0,0;0,0;1,0",
    f"vertex g=custom legs=2 rows=4 data={text.format_complex_data(np.diag([2, 1, 1, 1]))}",
    "vertex g=custom legs=2 rows=2 data=1,0;0,0;0,0;1,0",
    "vertex g=custom rows=2 data=nan,0;0,0;0,0;1,0",
    "vertex g=custom rows=2 data=1,0;0,0;0,0;inf,0",
    "vertex g=custom rows=2 data=1,0;0,0;0,0",
    "vertex g=custom rows=2 data=1,0,0;0;0,0;1,0",
    "vertex g=custom rows=2",
    "vertex g=FOO",
    "vertex g=T bogus=1",
    "vertex g=T stray",
    "gate x=1",
    "QVN1 name=again",
    "segment a=0.h0 b=0.q0",
    "segment a=0.h0 b=99.t0",
    "segment a=0.h0 b=0.t7",
    "segment a=0.h0",
    "segment a=0.h0 b=0.t0",
)


def _reuse_a(line):  # a segment whose two endpoints are one
    a = re.search(r" a=(\S+)", line)
    return re.sub(r" b=\S+", f" b={a.group(1)}", line) if a else line


# faults put into a line of the file; one that does not apply leaves it as it is
LINE_FAULTS = (
    lambda s: re.sub(r"data=[^,;]*,", "data=nan,", s),
    lambda s: re.sub(r",[^,;]*$", ",inf", s) if "data=" in s else s,
    lambda s: re.sub(r"data=[^,;]*,", "data=2,", s),  # no longer unitary
    lambda s: re.sub(r";[^;]*$", "", s) if "data=" in s else s,  # an entry short
    lambda s: s + ";0,0" if "data=" in s else s,  # an entry over
    lambda s: re.sub(r"data=([^,;]*),([^,;]*);([^,;]*),", r"data=\1,\2,\3;", s),  # misaligned
    lambda s: re.sub(r"rows=(\d+)", lambda m: "rows=" + ("4" if m[1] == "2" else "2"), s),
    lambda s: re.sub(r"legs=(\d+)", lambda m: f"legs={int(m[1]) % 3 + 1}", s),
    lambda s: re.sub(r"g=\S+", "g=FOO", s),
    lambda s: s + " bogus=1",
    lambda s: s + " stray",
    lambda s: re.sub(r" b=\S+", " b=0.q0", s),
    lambda s: re.sub(r" b=\S+", " b=99.t0", s),
    lambda s: re.sub(r" b=(\d+)\.([ht])\d+", r" b=\1.\g<2>7", s),
    lambda s: re.sub(r" b=\S+", "", s),
    _reuse_a,
)


@st.composite
def faulty_diagram_texts(draw):
    """A diagram file from `diagram_texts()` with one to three faults put
    in: a line of `FAULT_LINES` inserted, a fault of `LINE_FAULTS` made in a
    line, or a line given twice."""
    _, source = draw(diagram_texts())
    body = source.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(["insert", "change", "repeat"]))
        at = draw(st.integers(0, len(body) - 1))
        if how == "insert":
            body.insert(at, draw(st.sampled_from(FAULT_LINES)))
        elif how == "change":
            body[at] = draw(st.sampled_from(LINE_FAULTS))(body[at])
        else:
            body.insert(draw(st.integers(0, len(body))), body[at])
    return "\n".join(body) + "\n"


def diagram_or_error(parse, source):
    """Each vertex's legs and gate bits and the segments of the diagram
    `parse` makes of `source`, or its error's type, message, line and column."""
    try:
        diagram = parse(source)
    except QvnError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    vertices = [(v.legs, v.gate.shape, v.gate.tobytes()) for v in diagram.vertices]
    return vertices, diagram.segments


@given(faulty_diagram_texts())
# a gate that is not unitary comes before a bad entry below it, not above it
@example("vertex g=custom rows=2 data=2,0;0,0;0,0;1,0\nvertex g=custom rows=2 data=nan,0;0,0;0,0;1,0\n")
@example("vertex g=T\nvertex g=custom rows=2 data=1,0;0,0;0,0\n"
         "vertex g=custom rows=2 data=2,0;0,0;0,0;1,0\nvertex g=FOO\n")
def test_diagram_reads_as_line_at_a_time_oracle(source):
    assert diagram_or_error(cli.parse_diagram, source) == diagram_or_error(
        line_at_a_time_diagram, source
    )


def ring(m):
    """A closed ring of m one-leg vertices, each head wired to the next tail."""
    vertices = tuple(TopoVertex(np.eye(2), 1) for _ in range(m))
    return TopoDiagram(vertices, tuple(((v, "h", 0), ((v + 1) % m, "t", 0)) for v in range(m)))


@st.composite
def plan_diagrams(draw):
    """1-8 vertices of 1-3 legs; a random pairing of their endpoints into
    segments (self-loops, multi-edges and disjoint components among them)
    leaves the rest open. Only the wiring matters to a plan."""
    legs = draw(st.lists(st.integers(1, 3), min_size=1, max_size=8))
    vertices = tuple(TopoVertex(np.eye(2**k), k) for k in legs)
    endpoints = [(v, kind, leg) for v, k in enumerate(legs) for kind in "ht" for leg in range(k)]
    order = draw(st.permutations(endpoints))
    count = draw(st.integers(0, len(order) // 2))
    return TopoDiagram(vertices, tuple((order[2 * i], order[2 * i + 1]) for i in range(count)))


def plan_or_error(plan, terms, d):
    try:
        return plan(terms, d)
    except ValidationError as exc:
        return str(exc)


# d = 64 puts a vertex of three legs past MAX_INTERMEDIATE_ENTRIES
@given(plan_diagrams(), st.sampled_from([2, 2, 2, 64]))
@example(ring(20), 2)
@example(ring(53), 2)
def test_bitmask_plan_is_the_tuple_label_plan(diagram, d):
    terms = diagram_terms(diagram)
    assert plan_or_error(tailed._contraction_plan, terms, d) == plan_or_error(
        tuple_label_plan, terms, d
    )


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


def transform_composition(p1, p2, strategy):
    """`uqt.Composition` built from the full transform: (cdfs, program
    matrix), each round's cdf from `fusion_probabilities` and its trivial
    outcome's fused state normalized by the computed p_0."""
    if strategy is ByproductStrategy.SYMMETRIC_PAIR:
        gates_of_rounds = [p2.symmetric_factors.s2.matrix, p2.symmetric_factors.s1.matrix]
    else:
        gates_of_rounds = [p2.op.matrix]
    repeat = strategy is ByproductStrategy.REPEAT_UNTIL_SUCCESS
    d, basis = p1.d, p2.basis
    m1, cdfs = p1.amplitudes.reshape(d, d), []
    for u in gates_of_rounds:
        m2 = u / np.sqrt(d)
        probs = fusion_probabilities(m1, m2, basis)
        cdfs.append(checked_cdf([probs[0], probs.sum() - probs[0]] if repeat else probs))
        m1 = m2 @ basis.apply(0, m1, adjoint=True) / np.sqrt(d * probs[0])
    return cdfs, m1 * np.sqrt(d)


@given(st.sampled_from([2, 3, 4, 5, 8, 16]), st.sampled_from(list(ByproductStrategy)), SEEDS)
def test_closed_form_composition_matches_transform(d, strategy, seed):
    # every outcome of a unitary composition has probability 1/d², rounded
    # for d not a power of two; the full transform is the oracle
    p1, p2 = uqt.stored_program(haar(d, seed)), uqt.stored_program(haar(d, seed + 1))
    table = uqt.Composition(p1, p2, strategy)
    cdfs, program = transform_composition(p1, p2, strategy)
    assert len(table.cdfs) == len(cdfs)
    for cdf, oracle in zip(table.cdfs, cdfs):
        assert cdf.shape == oracle.shape
        assert np.abs(cdf - oracle).max() <= 1e-12
    assert np.abs(table.program.op.matrix - program).max() <= 1e-12


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
    """The executor's result and each slot's description and the gates of
    every copy left in it, or the type and message of the error it raised."""
    mem = memory.MemoryUnit()
    for address, (desc, copies) in enumerate(slots):
        mem.store(desc, copies, address=address)
    try:
        result = executor(mem, sched)
    except QvnError as exc:
        return type(exc), str(exc)
    slots = {a: (s.description, [p.op.matrix.tobytes() for p in s.copies]) for a, s in mem.slots.items()}
    return comparable(result), slots


@given(runnable_schedules(), st.sampled_from([control.MAX_RETAINED_ENTRIES, 64, 0]))
# 300 shots draw from two blocks of shot streams, with copies of slot 0
# piling up and slot 1's taken from below each shot's own restores
@example(
    (
        [
            (ProgramDescription("HT", 2, (GateRecord(0, "H", (0,)), GateRecord(1, "CX", (0, 1)))), 1),
            (ProgramDescription("T", 2, (GateRecord(0, "T", (1,)),)), 600),
        ],
        Schedule(
            (
                Restore(0, 2),
                Restore(1, 1),
                Compose(0, 1, ByproductStrategy.SYMMETRIC_PAIR, 2),
                Compose(2, 1, ByproductStrategy.CORRECTION_TABLE, 3),
                Inject(3, "10"),
                SampleTail(3, 1),
                Readout(3, Observable(gates.pauli_string_matrix("ZX")), "ZX"),
            ),
            shots=300,
            seed=2**40 + 7,
        ),
    ),
    64,
)
# the README run file restoring the slot its compose creates: each shot's
# restore copies the program synthesized from the composed description
@example(
    (
        [
            (ProgramDescription("H", 1, (GateRecord(0, "H", (0,)),)), 1),
            (ProgramDescription("T", 1, (GateRecord(0, "T", (0,)),)), 1),
        ],
        Schedule(
            (
                Restore(0, 1),
                Restore(1, 1),
                Compose(0, 1, ByproductStrategy.CORRECTION_TABLE, 2),
                Restore(2, 1),
                Inject(2, "1"),
                Readout(2, Observable(gates.Z), "Z"),
            ),
            shots=40,
            seed=7,
        ),
    ),
    control.MAX_RETAINED_ENTRIES,
)
# two injections on programs of two widths before the readout: the readout
# is split on the one of its own target, slot 0, and its complement branch
# inverted through that program's two tails, not the later inject's one
@example(
    (
        [
            (ProgramDescription("HC", 2, (GateRecord(0, "H", (0,)), GateRecord(1, "CX", (0, 1)))), 40),
            (ProgramDescription("T", 1, (GateRecord(0, "T", (0,)),)), 40),
        ],
        Schedule(
            (
                Inject(0, "10"),
                Inject(1, "1"),
                Readout(0, Observable(gates.pauli_string_matrix("ZX")), "ZX"),
            ),
            shots=40,
            seed=11,
        ),
    ),
    control.MAX_RETAINED_ENTRIES,
)
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
    st.integers(0, 3),
    STREAM_CALLS,
)
@example(2**160 - 1, SHOT_BLOCK + 1, 1, ["random", "normal", "draw"])
def test_cursor_streams_draw_as_rng_stream(seed, shots, skip, calls):
    # 2**160 - 1 has five 32-bit words: more than the pool, so no padding.
    # The cursor hands each shot's stream out `skip` draws in, and the
    # double read after it is the one after what each stream drew.
    drawn = []

    def draw(stream):
        drawn.append((stream.stream_id, stream_draws(stream, calls)))

    uniforms = shot_uniforms(seed, shots, ((skip, draw), 0))
    assert [shot for shot, _ in drawn] == list(range(shots))
    for shot, draws in drawn:
        oracle = RngStream(seed, stream_id=shot)
        oracle.uniforms(skip)
        assert draws == stream_draws(oracle, calls)
        assert uniforms[shot].tolist() == [oracle.random()]


@given(
    SEEDS,
    st.sampled_from([1, 2, SHOT_BLOCK, SHOT_BLOCK + 1, 2 * SHOT_BLOCK + 3]),
    st.sets(st.integers(0, 8)).map(sorted).map(tuple),
)
@example(2**160 - 1, SHOT_BLOCK + 1, (0, 1, 2))
@example(2**160 - 1, SHOT_BLOCK + 1, (1, 2))
@example(2**160 - 1, SHOT_BLOCK + 1, ())
@example(2**160 - 1, 2 * SHOT_BLOCK + 3, (0, 3, 8))
@example(0, SHOT_BLOCK, (5,))
def test_shot_uniforms_are_rng_stream_uniforms(seed, shots, positions):
    # any sorted subset of a stream's first nine draws: none, ones that
    # skip draw 0, ones with gaps
    uniforms = shot_uniforms(seed, shots, positions)
    assert uniforms.shape == (shots, len(positions))
    draws = positions[-1] + 1 if positions else 0
    for shot in range(shots):
        oracle = RngStream(seed, stream_id=shot).uniforms(draws)[list(positions)]
        assert uniforms[shot].tobytes() == oracle.tobytes()


# ---------------------------------------------------------------------------
# Branch estimates
# ---------------------------------------------------------------------------

FLOAT_MAX = np.finfo(float).max


@st.composite
def branch_samples(draw):
    """One branch's readout values: ±1, floats of any size, or values near
    overflow, in runs of 1, 2, 3, 200 or 10⁴; short runs also as any finite
    floats."""
    size = draw(st.sampled_from([1, 2, 3, 200, 10_000]))
    kind = draw(st.sampled_from(["pm1", "floats", "near-overflow", "any"]))
    gen = np.random.default_rng(draw(SEEDS))
    if kind == "pm1":
        return gen.choice([-1.0, 1.0], size)
    if kind == "floats":
        return gen.standard_normal(size) * 10.0 ** gen.integers(-300, 300, size)
    if kind == "near-overflow":
        return gen.choice([-1.0, 1.0], size) * gen.uniform(FLOAT_MAX / 4, FLOAT_MAX, size)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return np.array(draw(st.lists(finite, min_size=min(size, 3), max_size=min(size, 3))))


@given(
    branch_samples(),
    st.sampled_from([0.0, 1.0, -2.5]),
    st.sampled_from([1.0, 3.0, 1023.0]),
    st.booleans(),
)
@example(np.array([1e308, -1e308, 1e308]), 0.0, 1.0, False)
@example(np.array([1.5e308]), 0.0, 1.0, True)
@example(np.ones(10_000), 0.0, 1.0, False)
def test_branch_estimate_is_numpy_mean_and_var(values, trace_of_o, scale, invert):
    # every bit of numpy's mean and ddof=1 variance, overflow included
    with np.errstate(over="ignore", invalid="ignore"):
        got = tailed._branch_estimate(values.copy(), trace_of_o, scale, invert)
        want = numpy_branch_estimate(values.copy(), trace_of_o, scale, invert)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_overflowing_readouts_end_in_estimation_error():
    # the run file of WELL_FORMED whose readout values are ±1e308
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work, contextlib.chdir(work):
        Path("overflow.run").write_text(WELL_FORMED["run"][-1])
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", "overflow.run"])
    assert code != 0 and out.getvalue() == ""
    assert err.getvalue().count("\n") == 1
    assert "the readout samples overflow: their estimate is not finite" in err.getvalue()


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


# ---------------------------------------------------------------------------
# data= matrices
# ---------------------------------------------------------------------------

# the spellings `float` takes or refuses at the edges: signed zero, the
# least subnormal and the greatest double, underscores, a bare sign and
# point, exponent case, the words for infinity and NaN, overflow, and empty
# or broken parts
PART_SPELLINGS = (
    "-0.0", "5e-324", "1.7976931348623157e308", "1_0", "+.5", "1E3", "infinity", "nan",
    "-inf", "1e400", "", "x", "1__0", "0x1", ".",
)
PARTS = st.one_of(
    st.sampled_from(PART_SPELLINGS),
    st.floats().map(repr),
    st.text("0123456789.eE+-_xn,;", max_size=5),
)


@st.composite
def matrix_fields(draw):
    """(rows, cols, data=) with entries of one to three parts, their count
    rows·cols or one off it."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    count = rows * cols + draw(st.sampled_from([0, 0, 0, -1, 1]))
    weights = st.sampled_from([2, 2, 2, 2, 1, 3])
    entries = [",".join(draw(st.lists(PARTS, min_size=k, max_size=k))) for k in draw(
        st.lists(weights, min_size=count, max_size=count))]
    return rows, cols, ";".join(entries)


def matrix_or_error(read, rows, cols, data):
    """The bits and shape of the matrix `read` makes of a line's `data=`, or
    its ParseError's message, line and column."""
    line = text.Line(4, f"vertex g=custom data={data}")
    try:
        m = read(line, rows, cols)
    except ParseError as exc:
        return str(exc), exc.line, exc.column
    return m.shape, m.dtype, m.view(np.uint64).tobytes()


@given(matrix_fields())
@example((2, 2, "1,0,0;0;0,0;1,0"))  # a 3-part entry beside a 1-part one
@example((1, 3, "-0.0,5e-324;1.7976931348623157e308,-0.0;1_0,+.5"))
@example((2, 1, "1E3,1_0;infinity,0"))
@example((1, 2, "nan,0;x,0"))
@example((2, 2, "1,0;;0,0;1,0"))
@example((1, 1, "1,0,"))
@example((1, 1, "1"))
@example((2, 2, "1,0;0,0;0,0"))
def test_matrix_reads_as_entrywise_oracle(field):
    assert matrix_or_error(text.Line.matrix, *field) == matrix_or_error(entrywise_matrix, *field)


# ---------------------------------------------------------------------------
# Repeat-until-success draws
# ---------------------------------------------------------------------------


def drawn_then_stream(call, seed):
    """What `call(rng)` gives on `RngStream(seed)`, or its error's type and
    text, then that stream's PCG64 state and next double."""
    rng = RngStream(seed)
    try:
        out = call(rng)
    except QvnError as exc:
        out = type(exc), str(exc)
    return out, rng._gen.bit_generator.state, rng.random()


@given(st.floats(0.0, 1.0), st.integers(1, 4), SEEDS)
@example(0.0, 2, 0)  # never heralded: the bound, after all 64·d² draws
@example(2e-3, 2, 3)  # past the first block
@example(1.0, 1, 5)  # the first double heralds
def test_rus_rounds_draw_as_one_draw_per_round(p0, d, seed):
    cdf = checked_cdf([p0, 1.0 - p0])
    got = drawn_then_stream(lambda rng: uqt._draw_round(cdf, d, True, rng), seed)
    assert got == drawn_then_stream(lambda rng: per_round_draw(cdf, d, True, rng), seed)


def symmetric_logical(code, seed):
    """Physical gate V G Vᵀ + (1 − P) of a random symmetric logical gate
    G = diag(phases) on a code with a real isometry V."""
    v = np.asarray(code.isometry)
    phases = np.exp(1j * np.random.default_rng(seed).uniform(0, 2 * np.pi, v.shape[1]))
    return v @ np.diag(phases) @ v.T + np.eye(v.shape[0]) - v @ v.T


def rus_compose(n, seed):
    p1, p2 = (uqt.stored_program(haar(2**n, seed + i)) for i in (0, 1))

    def call(rng):
        result, rounds = uqt.compose(p1, p2, ByproductStrategy.REPEAT_UNTIL_SUCCESS, rng)
        return result.amplitudes.tobytes(), rounds

    return call


def rus_teleport(n, seed):
    u1, u2 = haar(2**n, seed), haar(2**n, seed + 1)
    amp1, amp2 = u1.reshape(-1) / 2 ** (n / 2), u2.reshape(-1) / 2 ** (n / 2)

    def call(rng):
        state, rounds = uqt.teleport(
            amp1, amp2, BellBasis.for_dim(2**n), u2, ByproductStrategy.REPEAT_UNTIL_SUCCESS, rng
        )
        return state.amplitudes.tobytes(), rounds

    return call


def rus_logical_compose(n, seed):
    code = qec.bit_flip_code() if n > 1 else qec.Code(1, 1, np.eye(2))
    lp1, lp2 = (qec.logical_program(code, symmetric_logical(code, seed + i)) for i in (0, 1))

    def call(rng):
        result, rounds = qec.logical_compose(lp1, lp2, ByproductStrategy.REPEAT_UNTIL_SUCCESS, rng)
        return result.state.amplitudes.tobytes(), rounds

    return call


def rus_execute(n, seed):
    """A schedule of two repeat-until-success composes, the second on the
    first's result, then an inject and a tail draw, whose outcomes show
    where each composition left each shot's stream. Its results, copies
    and errors are checked against the per-shot executor's with one draw
    per round; a seed that is a multiple of 1024 runs more shots than one
    stream block."""
    slots = []
    for address in range(2):
        gate = GateRecord(0, "custom", tuple(range(n)), haar(2**n, seed + address))
        slots.append((ProgramDescription(f"u{address}", n, (gate,)), 1))
    rus = ByproductStrategy.REPEAT_UNTIL_SUCCESS
    sched = Schedule(
        (Restore(0, 1), Restore(1, 2), Compose(0, 1, rus, 2), Compose(2, 1, rus, 3),
         Inject(3, ""), SampleTail(3, 0)),
        shots=seed % 4 + 1 if seed % 1024 else SHOT_BLOCK + 2,
        seed=seed,
    )

    def call(_):
        got = run_or_error(control.execute, slots, sched)
        with mock.patch.object(uqt, "_draw_round", per_round_draw):
            assert got == run_or_error(per_shot_execute, slots, sched)
        return got

    return call


RUS_CALLS = {
    "compose": rus_compose,
    "teleport": rus_teleport,
    "logical_compose": rus_logical_compose,
    "execute": rus_execute,
}


@given(st.sampled_from(sorted(RUS_CALLS)), st.integers(1, 3), SEEDS)
@example("execute", 2, 3 * 1024)  # past the first block of shots
def test_rus_stream_matches_per_round_oracle(api, n, seed):
    call = RUS_CALLS[api](n, seed)
    got = drawn_then_stream(call, seed)
    with mock.patch.object(uqt, "_draw_round", per_round_draw):
        assert got == drawn_then_stream(call, seed)
