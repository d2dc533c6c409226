import cmath
import heapq
import re
import tempfile

import numpy as np
import pytest

from qvn import tailed, uqt
from qvn.control import Compose, ExecutionResult, Inject, Readout, Restore, SampleTail
from qvn.errors import EstimationError, NumericalError, OutOfCopiesError, ParseError, ValidationError
from qvn.gates import GATE_MATRICES
from qvn.kernel import DEFAULT_TOL, RngStream, UnitaryOp, unitarity_residuals
from qvn.text import lines

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # hypothesis is a test extra; tests/test_properties.py skips without it
    pass
else:
    # deterministic, no example database, few examples per property
    settings.register_profile(
        "qvn", derandomize=True, database=None, deadline=None, max_examples=100
    )
    settings.load_profile("qvn")
    # Hypothesis also caches the constants it finds in source files; keep
    # that cache in a temporary directory removed at exit, out of the tree.
    _HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="qvn-hypothesis-")
    set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture
def rng():
    return RngStream(20240811)


def spanning_pure_states(d):
    """d² pure states whose density matrices span the operator space."""
    states = []
    eye = np.eye(d, dtype=complex)
    for i in range(d):
        states.append(eye[:, i])
    for i in range(d):
        for j in range(i + 1, d):
            states.append((eye[:, i] + eye[:, j]) / np.sqrt(2))
            states.append((eye[:, i] + 1j * eye[:, j]) / np.sqrt(2))
    return states


def matrix_units(d):
    """All d² matrix units E_ij, the spanning set for channel equality."""
    units = []
    for i in range(d):
        for j in range(d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = 1.0
            units.append(m)
    return units


def kraus_action(kraus_ops, mat):
    """Direct Kraus-sum action on an arbitrary matrix (the dense oracle)."""
    return sum(k @ mat @ k.conj().T for k in kraus_ops)


EINSUM_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def einsum_oracle(diagram):
    """Unnormalized value of a diagram from one single-pass np.einsum, the
    oracle for `tailed.eval_topological`: a scalar for a closed diagram, a
    tensor with axes in `open_endpoints()` order for an open one. Its cost
    doubles per segment, so keep to m <= 12 segments."""
    assert len(diagram.segments) <= 12
    open_eps = diagram.open_endpoints()
    groups = [*diagram.segments, *((ep,) for ep in open_eps)]
    letters = {ep: c for c, group in zip(EINSUM_LETTERS, groups) for ep in group}
    terms = [
        "".join(letters[(v, kind, leg)] for kind in "ht" for leg in range(vert.legs))
        for v, vert in enumerate(diagram.vertices)
    ]
    spec = ",".join(terms) + "->" + "".join(letters[ep] for ep in open_eps)
    tensors = [vert.tensor() for vert in diagram.vertices]
    return np.einsum(spec, *tensors) * 2 ** (-len(diagram.segments) / 2.0)


# ---------------------------------------------------------------------------
# Entry-by-entry `data=` reader, the oracle for `text.Line.matrix`
# ---------------------------------------------------------------------------


def entrywise_matrix(line, rows, cols):
    """The rows×cols matrix of a line's `data=`, read one entry at a time:
    each entry split at `,`, its two parts made one complex number and
    checked finite, so the first entry at fault names the error."""
    text = line.str("data")
    col = line.fields["data"][1]
    entries = text.split(";")
    if len(entries) != rows * cols:
        raise ParseError(
            f"expected {rows * cols} complex entries, got {len(entries)}", line.no, col
        )
    out = np.empty(rows * cols, dtype=complex)
    for i, entry in enumerate(entries):
        parts = entry.split(",")
        if len(parts) != 2:
            raise ParseError(f"bad complex entry {entry!r}", line.no, col)
        try:
            z = complex(float(parts[0]), float(parts[1]))
        except ValueError:
            raise ParseError(f"bad number in entry {entry!r}", line.no, col) from None
        if not cmath.isfinite(z):
            raise ParseError(f"non-finite entry {entry!r}", line.no, col)
        out[i] = z
    return out.reshape(rows, cols)


# ---------------------------------------------------------------------------
# Tuple-label greedy plan, the oracle for `tailed._contraction_plan`
# ---------------------------------------------------------------------------


def tuple_label_plan(terms, d):
    """`tailed._contraction_plan` with each tensor's labels held as tuples
    alone: shared labels found by scanning both tuples, a pair's score the
    size of the two label sets' symmetric difference, and every owner list
    rebuilt on each join. Returns the same (loops, steps, labels)."""
    loops, live = [], {}
    for t, labels in enumerate(terms):
        pairs, live[t] = tailed._self_loops(labels)
        loops.append(pairs)
        tailed._check_entries(d ** len(live[t]), "entries in one tensor")
    owners = {}  # label -> ids of the live tensors that carry it
    for t, labels in live.items():
        for label in labels:
            owners.setdefault(label, []).append(t)
    steps = []

    def join(a, b):
        la, lb = live.pop(a), live.pop(b)
        shared = [x for x in la if x in lb]
        labels = tuple(x for x in la if x not in shared) + tuple(x for x in lb if x not in shared)
        tailed._check_entries(
            d ** len(la) + d ** len(lb) + d ** len(labels),
            "live entries in one step (both operands and the result)",
        )
        new = len(terms) + len(steps)
        order_a = [i for i, x in enumerate(la) if x not in shared] + [la.index(x) for x in shared]
        order_b = [lb.index(x) for x in shared] + [i for i, x in enumerate(lb) if x not in shared]
        steps.append((a, b, order_a, order_b, d ** len(shared), (d,) * len(labels)))
        live[new] = labels
        for x in shared:
            del owners[x]
        for x in labels:
            owners[x] = [new if t in (a, b) else t for t in owners[x]]
        return new

    def candidate(a, b):
        return len(set(live[a]) ^ set(live[b])), a, b

    heap = [candidate(*ids) for ids in owners.values() if len(ids) == 2]
    heapq.heapify(heap)
    while heap:
        _, a, b = heapq.heappop(heap)
        if a in live and b in live:
            new = join(a, b)
            for x in live[new]:
                if len(owners[x]) == 2:
                    heapq.heappush(heap, candidate(min(owners[x]), new))
    sizes = [(len(labels), t) for t, labels in live.items()]
    heapq.heapify(sizes)
    while len(sizes) > 1:
        (_, a), (_, b) = heapq.heappop(sizes), heapq.heappop(sizes)
        new = join(min(a, b), max(a, b))
        heapq.heappush(sizes, (len(live[new]), new))
    (labels,) = live.values()
    return loops, steps, labels


def diagram_terms(diagram):
    """Each vertex's axis labels as `tailed.eval_topological` gives them to
    its plan: one label per segment, then one per open endpoint in
    `open_endpoints()` order; a vertex's axes are its heads, then its tails."""
    groups = [*diagram.segments, *((ep,) for ep in diagram.open_endpoints())]
    label_of = {ep: label for label, group in enumerate(groups) for ep in group}
    return [
        [label_of[(v, kind, leg)] for kind in "ht" for leg in range(vert.legs)]
        for v, vert in enumerate(diagram.vertices)
    ]


# ---------------------------------------------------------------------------
# Line-at-a-time diagram reader, the oracle for `cli.parse_diagram`
# ---------------------------------------------------------------------------

_ENDPOINT_RE = re.compile(r"^(\d+)\.([ht])(\d+)$")


def _oracle_endpoint(line, key):
    value = line.str(key)
    m = _ENDPOINT_RE.match(value)
    if not m:
        raise line.error(f"bad endpoint {value!r} (want <vertex>.<h|t><leg>)", key)
    return int(m.group(1)), m.group(2), int(m.group(3))


def _oracle_check_unitary(custom):
    """The unitarity error, at its line, of the first (line, gate) pair in
    `custom` whose gate is not unitary; the gates of one size as one stack."""
    by_size = {}
    for pos, (_, gate) in enumerate(custom):
        by_size.setdefault(len(gate), []).append(pos)
    failing = []
    for rows, members in by_size.items():
        residuals = unitarity_residuals(np.stack([custom[p][1] for p in members]))
        bad = np.flatnonzero(~(residuals <= DEFAULT_TOL * rows))
        if bad.size:
            failing.append(members[bad[0]])
    if failing:
        line, gate = custom[min(failing)]
        with line.located():
            UnitaryOp(gate)


def line_at_a_time_diagram(text):
    """`cli.parse_diagram` reading each custom vertex's `data=` at its own
    line, one entry at a time: a fault ends the reading where it stands,
    after the unitarity error of any custom vertex read before it."""
    vertices = []
    segments = []
    custom = []
    saw_header = False
    try:
        for line in lines(text):
            if line.verb == "QVN1" and not saw_header:
                line.str("name", "")
                line.done()
                saw_header = True
            elif line.verb == "vertex":
                legs = line.int("legs", 1, low=1, high=tailed.MAX_VERTEX_LEGS)
                tag = line.str("g")
                if tag == "custom":
                    rows = line.int("rows", low=1)
                    gate = entrywise_matrix(line, rows, rows)
                elif tag in GATE_MATRICES:
                    gate = GATE_MATRICES[tag]
                else:
                    raise line.error(f"unknown vertex gate {tag!r}", "g")
                line.done()
                if tag == "custom":
                    custom.append((line, gate))
                with line.located():
                    vertices.append(tailed.TopoVertex(gate, legs))
            elif line.verb == "segment":
                segments.append((line, _oracle_endpoint(line, "a"), _oracle_endpoint(line, "b")))
                line.done()
            else:
                raise line.error("expected a vertex or segment line")
    except ParseError:
        _oracle_check_unitary(custom)
        raise
    _oracle_check_unitary(custom)
    try:
        return tailed.TopoDiagram(tuple(vertices), tuple((a, b) for _, a, b in segments))
    except ValidationError:
        unwired = tailed.TopoDiagram(tuple(vertices), ())
        seen = set()
        for line, a, b in segments:
            for key, ep in (("a", a), ("b", b)):
                with line.located(key):
                    unwired.check_endpoint(ep, seen)
        raise


# ---------------------------------------------------------------------------
# One draw per round, the oracle for `uqt._draw_round`
# ---------------------------------------------------------------------------


def per_round_draw(cdf, d, repeat, rng):
    """`uqt._draw_round` with one `RngStream.draw` per round: (outcome k,
    rounds drawn), redrawing with `repeat` until k = 0, at most 64·d²
    rounds."""
    max_rounds = uqt.MAX_ROUNDS_PER_OUTCOME * d * d if repeat else 1
    for rounds in range(1, max_rounds + 1):
        k = rng.draw(cdf)
        if k == 0 or not repeat:
            return k, rounds
    raise NumericalError(
        f"no trivial Bell outcome in {max_rounds} rounds "
        f"(repeat-until-success bound {uqt.MAX_ROUNDS_PER_OUTCOME}·d² at d={d})"
    )


# the error of repeat-until-success that reaches its bound at d = 2
RUS_BOUND_D2 = "no trivial Bell outcome in 256 rounds (repeat-until-success bound 64·d² at d=2)"


def never_heralded(monkeypatch):
    """Make every double an `RngStream` hands out in blocks 1 or more, so no
    repeat-until-success round heralds k = 0; the stream still advances."""
    uniforms = RngStream.uniforms
    monkeypatch.setattr(RngStream, "uniforms", lambda self, size: uniforms(self, size) + 1.0)


def assert_drawn(rng, doubles):
    """`rng` stands `doubles` doubles past its seeding."""
    reference = RngStream(rng.seed, rng.stream_id)
    reference._gen.random(doubles)
    assert rng.random() == reference.random()



# ---------------------------------------------------------------------------
# Dense gate and program oracles
# ---------------------------------------------------------------------------


def nfold_toffoli(n):
    """Monolithic n-fold Toffoli, the oracle for `tailed.toffoli_cascade`:
    X on the last qubit when all n controls are 1, the last 2×2 block."""
    m = np.eye(2 ** (n + 1), dtype=complex)
    m[-2:, -2:] = GATE_MATRICES["X"]
    return m


def basis_image(cascade, bits):
    """A `tailed.ToffoliCascade` applied to the basis state of `bits`."""
    amp = np.zeros(2**cascade.num_qubits, dtype=complex)
    amp[int("".join(str(b) for b in bits), 2)] = 1.0
    return cascade.apply(amp)


def decode_program(lp):
    """Logical-space operator carried by an encoded program state (a
    `qec.LogicalProgram`)."""
    v = lp.code.isometry
    n_dim = lp.code.physical_dim
    mat = lp.state.amplitudes.reshape(n_dim, n_dim)
    return np.sqrt(lp.code.logical_dim) * v.conj().T @ mat @ v.conj()


# ---------------------------------------------------------------------------
# Dense Bell-basis oracles for `uqt`, at d <= 8
# ---------------------------------------------------------------------------


def weyl_ops(d):
    """Dense generalized Pauli (Weyl) unitaries X^a Z^b, ordered k = a*d + b.

    X|j> = |j+1 mod d>, Z|j> = ω^j |j> with ω = exp(2πi/d); the k = 0
    element is the identity and tr(σ_k† σ_l) = d δ_kl.
    """
    omega = np.exp(2j * np.pi / d)
    shift = np.zeros((d, d), dtype=complex)
    for j in range(d):
        shift[(j + 1) % d, j] = 1.0
    clock = np.diag(omega ** np.arange(d))
    return [
        np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
        for a in range(d)
        for b in range(d)
    ]


def pauli_product_ops(n):
    """Dense tensor-product qubit basis from per-qubit factors {I, Z, X, XZ},
    one base-4 digit per qubit, qubit 0 most significant."""
    single = weyl_ops(2)
    ops = []
    for k in range(4**n):
        digits = [(k >> (2 * (n - 1 - q))) & 3 for q in range(n)]
        op = np.eye(1, dtype=complex)
        for digit in digits:
            op = np.kron(op, single[digit])
        ops.append(op)
    return ops


def dense_paulis(d):
    """The d² dense σ_k of `BellBasis.for_dim(d)`, in outcome order."""
    assert d <= 8
    n = d.bit_length() - 1
    return pauli_product_ops(n) if 2**n == d else weyl_ops(d)


def dense_bell_vectors(d):
    """Rows are the normalized Bell states (σ_k ⊗ I)|ω> = vec(σ_k)/√d."""
    return np.stack([p.reshape(-1) / np.sqrt(d) for p in dense_paulis(d)])


def dense_bell_probabilities(tensor, wire_a, wire_b, d):
    """Bell outcome probabilities and residuals of an amplitude tensor, by
    the dense d²×d² basis matrix acting on the measured pair."""
    moved = np.moveaxis(tensor, (wire_a, wire_b), (0, 1)).reshape(d * d, -1)
    residuals = dense_bell_vectors(d).conj() @ moved
    return (np.abs(residuals) ** 2).sum(axis=1), residuals


def dense_corrected(amp1, amp2, u2):
    """The Bell measurement of (h1, t2) on the d⁴-amplitude joint state, one
    outcome at a time: k -> the fused (head, tail) amplitudes of outcome k,
    corrected by U2σ_kU2†, for each k with p_k > 0."""
    u2 = np.asarray(u2)
    d = u2.shape[0]
    probs, residuals = dense_bell_probabilities(np.kron(amp1, amp2).reshape(d, d, d, d), 0, 3, d)
    paulis = dense_paulis(d)
    corrected = {}
    for k in np.flatnonzero(probs > 1e-12):
        mat = (residuals[k] / np.sqrt(probs[k])).reshape(d, d).T  # (t1, h2) -> (h2, t1)
        if k != 0:
            mat = u2 @ paulis[k] @ u2.conj().T @ mat
        corrected[int(k)] = mat.reshape(-1)
    return corrected


def dense_teleport(amp1, amp2, u2, strategy, rng):
    """`uqt.teleport` on the d⁴-amplitude joint state: one dense Bell
    measurement of (h1, t2) per round, redrawn from the recomputed
    distribution. Returns (state amplitudes, rounds, outcome k)."""
    from qvn.uqt import MAX_ROUNDS_PER_OUTCOME, ByproductStrategy

    d = np.shape(u2)[0]
    joint = np.kron(amp1, amp2).reshape(d, d, d, d)
    repeat = strategy is ByproductStrategy.REPEAT_UNTIL_SUCCESS
    for rounds in range(1, MAX_ROUNDS_PER_OUTCOME * d * d + 1):
        probs, _ = dense_bell_probabilities(joint, 0, 3, d)
        k = rng.choice(probs)
        if k == 0 or not repeat:
            break
    return dense_corrected(amp1, amp2, u2)[k], rounds, k


# ---------------------------------------------------------------------------
# numpy's mean and variance, the oracle for `tailed._branch_estimate`
# ---------------------------------------------------------------------------


def numpy_branch_estimate(values, trace_of_o, scale, invert):
    """`tailed._branch_estimate` through `ndarray.mean` and
    `ndarray.var(ddof=1)`."""
    n = values.size
    mean = float(values.mean())
    var_mean = float(values.var(ddof=1) / n) if n > 1 else 0.0
    if invert:
        return trace_of_o - scale * mean, scale * scale * var_mean
    return mean, var_mean


# ---------------------------------------------------------------------------
# Per-shot schedule executor, the oracle for `control.execute`
# ---------------------------------------------------------------------------


def comparable(result):
    """The fields of an `ExecutionResult` as a value that `==` compares like
    with like: each outcome column as its dtype and its entries."""
    fields = dict(vars(result))
    fields["outcomes"] = tuple((column.dtype, column.tolist()) for column in result.outcomes)
    return fields


def per_shot_execute(mem, sched):
    """`control.execute` without outcome tables: every shot runs each
    instruction's one-shot kernel afresh (`uqt.compose`, `tailed.inject`,
    the readout distribution and a draw from `tailed.tail_outcomes`), on the
    same `RngStream(seed, stream_id=shot)`. A compose puts its result on
    top of its destination's copies; a readout's value is grouped by the
    branch of the last inject on its target before it, the complement
    inverted through that inject's tails."""
    outcomes = [[] for _ in sched.instructions]
    grouped = {"P0": [], "P1": [], "none": []}
    n_tails = 0
    trace_of_o = None
    for shot_idx in range(sched.shots):
        rng = RngStream(sched.seed, stream_id=shot_idx)
        states, injected, split, value = {}, {}, None, None

        def load(address):
            if address not in states:
                states[address] = tailed.program_state(mem.fetch_consume(address))
            return states[address]

        for idx, ins in enumerate(sched.instructions):
            try:
                if isinstance(ins, Compose):
                    p1 = mem.fetch_consume(ins.addr1)
                    p2 = mem.fetch_consume(ins.addr2)
                    result, used = uqt.compose(p1, p2, ins.strategy, rng)
                    outcomes[idx].append(used)
                    if ins.dest in mem.slots:
                        mem.replace_copies(ins.dest, [*mem.slots[ins.dest].copies, result])
                    else:
                        mem.store_copies([result], description=result.description, address=ins.dest)
                elif isinstance(ins, Inject):
                    state = load(ins.target)
                    n = len(state.subsystem_dims) // 2
                    spec = tailed.InjectionSpec(tuple(range(n)), ins.bits or "1" * n)
                    branch, _, states[ins.target] = tailed.inject(state, spec, rng)
                    outcomes[idx].append(branch)
                    injected[ins.target] = (branch, n)
                elif isinstance(ins, Readout):
                    state = load(ins.target)
                    n = len(state.subsystem_dims) // 2
                    spec = tailed.ReadoutSpec(ins.observable, tuple(range(n)))
                    vals, probs = tailed._observable_distribution(state, spec)
                    if probs.sum() <= 0:
                        raise EstimationError("readout distribution vanished")
                    value = float(vals[rng.choice(probs)].real)
                    outcomes[idx].append(value)
                    trace_of_o = ins.observable.trace
                    split = injected.get(ins.target)
                elif isinstance(ins, Restore):
                    mem.restore(ins.addr, ins.copies)
                elif isinstance(ins, SampleTail):
                    if ins.target in states:
                        n = len(states[ins.target].subsystem_dims) // 2
                    else:
                        n = mem.peek(ins.target).d.bit_length() - 1
                    if not 0 <= ins.tail < n:
                        raise ValidationError(
                            f"sampletail tail={ins.tail} is out of range: the program at "
                            f"address {ins.target} has {n} tails (0..{n - 1})"
                        )
                    tail = tailed.tail_outcomes(load(ins.target), n + ins.tail)
                    bit, states[ins.target] = tail.sample(rng)
                    outcomes[idx].append(bit)
            except OutOfCopiesError as exc:
                raise OutOfCopiesError(
                    exc.address, f"instruction {idx} ({type(ins).__name__}): {exc}"
                ) from exc
        if value is not None:
            grouped["none" if split is None else f"P{split[0]}"].append(value)
            n_tails = max(n_tails, split[1] if split else 0)
    estimate = stderr = None
    n1 = len(grouped["P1"]) + len(grouped["none"])
    n0 = len(grouped["P0"])
    if trace_of_o is not None and (n0 or n1):
        estimate, stderr = tailed.combine_branch_estimates(
            np.array(grouped["P1"] + grouped["none"]), np.array(grouped["P0"]), trace_of_o, n_tails
        )
    return ExecutionResult(
        estimate=estimate,
        standard_error=stderr,
        shots=sched.shots,
        n_p0=n0,
        n_p1=n1,
        outcomes=tuple(
            np.array(column, float if isinstance(ins, Readout) else int)
            for ins, column in zip(sched.instructions, outcomes)
        ),
        copies_after={addr: len(slot.copies) for addr, slot in mem.slots.items()},
        audit_consistent=mem.verify_conservation(),
    )
