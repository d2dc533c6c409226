"""Tailed quantum circuits: gates on qubit wires and ebit heads, input
injection by measurement, observable readout, contraction, and topological
diagram evaluation.

Wire layout of a circuit state, all wires qubit-sized: heads of the e
ebits first, then their tails, then the q plain qubit wires. With this
block order the e ebits form one high-dimensional ebit between the head
and tail groups, so a program state is literally (U ⊗ I)|ω⟩.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gates
from .duality import bell_state
from .errors import (
    DimensionMismatchError,
    EstimationError,
    NumericalError,
    ValidationError,
)
from .kernel import (
    Observable,
    PureState,
    RngStream,
    apply_to_subsystems,
    measure_wire_computational,
)
from .uqt import BellBasis, StoredProgram, bell_measure_pair, bell_probabilities

Endpoint = tuple  # ("h"|"t"|"q", index)


@dataclass(frozen=True)
class InjectionSpec:
    """Heralded computational-input measurement on a set of tails."""

    target_tails: tuple[int, ...]
    bitstring: str = ""

    def __post_init__(self):
        tails = tuple(int(t) for t in self.target_tails)
        object.__setattr__(self, "target_tails", tails)
        bits = self.bitstring or "1" * len(tails)
        if len(bits) != len(tails) or any(c not in "01" for c in bits):
            raise ValidationError(f"bitstring {bits!r} does not fit {len(tails)} tails")
        object.__setattr__(self, "bitstring", bits)


@dataclass(frozen=True, eq=False)
class ReadoutSpec:
    """Observable supported on a set of heads; tr(O) rides along."""

    observable: Observable
    target_heads: tuple[int, ...]
    trace_of_o: float = None

    def __post_init__(self):
        heads = tuple(int(h) for h in self.target_heads)
        object.__setattr__(self, "target_heads", heads)
        if self.observable.dim != 2 ** len(heads):
            raise DimensionMismatchError(
                f"observable dim {self.observable.dim} != 2^{len(heads)} head wires"
            )
        if self.trace_of_o is None:
            object.__setattr__(self, "trace_of_o", self.observable.trace)


@dataclass(frozen=True)
class RunRecord:
    """Per-shot trace of one algorithm execution."""

    shot: int
    injection_branch: str
    observable_value: float
    bell_outcomes: tuple[int, ...] = ()


@dataclass(frozen=True)
class RunResult:
    """Aggregated estimate with its standard error and branch statistics."""

    estimate: float
    standard_error: float
    shots: int
    n_p0: int
    n_p1: int
    p1_exact: float
    records: tuple[RunRecord, ...] = ()


@dataclass(frozen=True, eq=False)
class CircuitGate:
    matrix: np.ndarray
    targets: tuple[Endpoint, ...]

    def __init__(self, matrix, targets):
        m = np.asarray(matrix, dtype=complex)
        targets = tuple((str(kind), int(idx)) for kind, idx in targets)
        if m.shape != (2 ** len(targets),) * 2:
            raise ValidationError(
                f"gate shape {m.shape} does not fit {len(targets)} qubit targets"
            )
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "targets", targets)


@dataclass(frozen=True, eq=False)
class TailedCircuit:
    qubit_wires: int
    ebit_wires: int
    gates: tuple[CircuitGate, ...] = ()
    injection: InjectionSpec | None = None
    readout: ReadoutSpec | None = None
    contractions: tuple[tuple[Endpoint, Endpoint], ...] = ()
    postselected_topological: bool = False

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "contractions", tuple(self.contractions))
        for g in self.gates:
            for kind, idx in g.targets:
                if kind == "t":
                    raise ValidationError("gates may not target tails")
                if kind == "h" and not 0 <= idx < self.ebit_wires:
                    raise ValidationError(f"head index {idx} out of range")
                if kind == "q" and not 0 <= idx < self.qubit_wires:
                    raise ValidationError(f"qubit index {idx} out of range")
                if kind not in ("h", "q"):
                    raise ValidationError(f"unknown endpoint kind {kind!r}")
        seen = set()
        for a, b in self.contractions:
            for ep in (a, b):
                if ep in seen:
                    raise ValidationError(f"endpoint {ep} contracted twice")
                seen.add(ep)
        if not self.postselected_topological:
            self._check_time_flow()

    def _check_time_flow(self):
        """Reject head→tail contraction cycles (closed time loops)."""
        edges = {}
        for a, b in self.contractions:
            pair = {a[0]: a, b[0]: b}
            if set(pair) == {"h", "t"}:
                src = pair["h"][1]
                dst = pair["t"][1]
                edges.setdefault(src, []).append(dst)
        state = {}

        def visit(node):
            if state.get(node) == 1:
                raise ValidationError(
                    "contraction graph has a directed cycle; "
                    "flag the circuit postselected-topological to allow it"
                )
            if state.get(node) == 2:
                return
            state[node] = 1
            for nxt in edges.get(node, []):
                visit(nxt)
            state[node] = 2

        for node in list(edges):
            visit(node)

    @property
    def num_wires(self):
        return 2 * self.ebit_wires + self.qubit_wires

    def wire(self, endpoint) -> int:
        kind, idx = endpoint
        if kind == "h":
            return idx
        if kind == "t":
            return self.ebit_wires + idx
        if kind == "q":
            return 2 * self.ebit_wires + idx
        raise ValidationError(f"unknown endpoint kind {kind!r}")


def simulate(circuit: TailedCircuit) -> PureState:
    """Global state of the gate network over ebits and fresh qubits."""
    e, q = circuit.ebit_wires, circuit.qubit_wires
    if e == 0 and q == 0:
        raise ValidationError("circuit has no wires")
    parts = []
    if e:
        parts.append(bell_state(2**e))
    if q:
        zero = np.zeros(2**q, dtype=complex)
        zero[0] = 1.0
        parts.append(zero)
    amp = parts[0] if len(parts) == 1 else np.kron(parts[0], parts[1])
    dims = (2,) * circuit.num_wires
    for g in circuit.gates:
        wires = [circuit.wire(ep) for ep in g.targets]
        amp = apply_to_subsystems(amp, dims, g.matrix, wires)
    return PureState(amp, dims)


def program_state(program: StoredProgram) -> PureState:
    """A stored program's dual state laid out as a 2n-wire circuit state."""
    d = program.d
    n = d.bit_length() - 1
    if 2**n != d:
        raise ValidationError(f"program dim {d} is not a power of two")
    return PureState(program.amplitudes, (2,) * (2 * n))


def circuit_of_description(desc) -> TailedCircuit:
    """Tailed circuit of a serialized gate sequence: every gate on heads.

    Simulating the result reproduces the program state synthesized from
    the same description, tying the QVN1 format to the circuit IR.
    """
    gate_list = tuple(
        CircuitGate(g.gate_matrix(), tuple(("h", t) for t in g.targets))
        for g in desc.gate_list
    )
    return TailedCircuit(qubit_wires=0, ebit_wires=desc.n, gates=gate_list)


# ---------------------------------------------------------------------------
# Injection
# ---------------------------------------------------------------------------


def _resolve_tails(state: PureState, spec: InjectionSpec, num_ebits):
    if num_ebits is None:
        if len(state.subsystem_dims) % 2:
            raise ValidationError("cannot infer ebit count; pass num_ebits")
        num_ebits = len(state.subsystem_dims) // 2
    wires = [num_ebits + t for t in spec.target_tails]
    for w in wires:
        if not num_ebits <= w < 2 * num_ebits:
            raise ValidationError(f"tail wire {w} out of range")
    return wires


def injection_branches(state: PureState, spec: InjectionSpec, num_ebits=None):
    """Exact branch data for the binary injection measurement.

    Returns (p1, post1, p0, post0); posts are None for vanishing branches.
    P1 projects the target tails onto the desired bitstring, collapsing the
    heads of a program state onto U|bits⟩.
    """
    wires = _resolve_tails(state, spec, num_ebits)
    dims = state.subsystem_dims
    tensor = state.tensor()
    idx = [slice(None)] * len(dims)
    for w, bit in zip(wires, spec.bitstring):
        idx[w] = int(bit)
    sub = tensor[tuple(idx)]
    p1 = float(np.clip((np.abs(sub) ** 2).sum(), 0.0, 1.0))
    p0 = 1.0 - p1
    post1 = post0 = None
    if p1 > 1e-14:
        proj = np.zeros_like(tensor)
        proj[tuple(idx)] = sub
        post1 = PureState(proj.reshape(-1) / math.sqrt(p1), dims)
    if p0 > 1e-14:
        proj = np.zeros_like(tensor)
        proj[tuple(idx)] = sub
        rem = tensor - proj
        post0 = PureState(rem.reshape(-1) / math.sqrt(p0), dims)
    return p1, post1, p0, post0


def inject(state: PureState, spec: InjectionSpec, rng: RngStream, num_ebits=None):
    """Injection by the heralded measurement of the target tails.

    Samples the binary outcome of the projector onto the desired bitstring
    from its exact branches, with the single draw an ancilla read-out would
    make. Returns (branch, probability, post state); branch 1 collapses
    the tails onto the desired bitstring.
    """
    if not spec.target_tails:
        raise ValidationError("injection needs at least one target tail")
    p1, post1, p0, post0 = injection_branches(state, spec, num_ebits)
    branch = rng.choice([p0, p1])
    prob, post = (p1, post1) if branch else (p0, post0)
    if post is None:
        raise NumericalError(f"sampled branch P{branch} has vanishing probability")
    return branch, prob, post


@dataclass(frozen=True, eq=False)
class ToffoliCascade:
    """Cascade realization of the n-fold Toffoli as an explicit gate list.

    Wire order: n controls, n−1 ancillas, one target. Materializing the
    dense unitary is quadratic in 2^(2n), so the circuit form is primary
    and `to_matrix` is offered for small n.
    """

    n: int
    gate_list: tuple
    num_qubits: int

    def apply(self, amplitudes):
        dims = (2,) * self.num_qubits
        amp = np.asarray(amplitudes, dtype=complex)
        for g, targets in self.gate_list:
            amp = apply_to_subsystems(amp, dims, g, targets)
        return amp

    def apply_to_basis_state(self, bits):
        amp = np.zeros(2**self.num_qubits, dtype=complex)
        amp[int("".join(str(b) for b in bits), 2)] = 1.0
        return self.apply(amp)

    def to_matrix(self):
        if self.num_qubits > 10:
            raise ValidationError("dense cascade matrix only offered for <= 10 qubits")
        dim = 2**self.num_qubits
        return np.stack(
            [self.apply(col) for col in np.eye(dim, dtype=complex).T], axis=1
        )


def toffoli_cascade(n) -> ToffoliCascade:
    """n-fold Toffoli from a cascade of Toffolis over n−1 ancillas.

    Computes the AND chain into the last ancilla, copies it onto the
    target, and uncomputes, so ancillas started at |0⟩ end at |0⟩ and the
    non-ancilla sector sees exactly the monolithic gate.
    """
    if n < 2:
        raise ValidationError("cascade needs n >= 2 controls")
    controls = list(range(n))
    anc = [n + j for j in range(n - 1)]
    target = 2 * n - 1
    chain = [(gates.CCX, [controls[0], controls[1], anc[0]])]
    for j in range(1, n - 1):
        chain.append((gates.CCX, [anc[j - 1], controls[j + 1], anc[j]]))
    middle = [(gates.CX, [anc[-1], target])]
    gate_list = tuple(chain + middle + list(reversed(chain)))
    return ToffoliCascade(n=n, gate_list=gate_list, num_qubits=2 * n)


# ---------------------------------------------------------------------------
# Tail sampling and contraction
# ---------------------------------------------------------------------------


def sample_tail_z(state: PureState, tail_wire, rng: RngStream):
    """Z measurement on a tail; the wire stays in place, collapsed.

    For a program ebit the outcomes are equiprobable and inject |0⟩ or
    |1⟩; the outcome bit is the X-frame record relative to a |1⟩ input.
    """
    bit, _, amp = measure_wire_computational(
        state.amplitudes, state.subsystem_dims, tail_wire, rng
    )
    return bit, PureState(amp, state.subsystem_dims)


def contract(
    state: PureState,
    wire_a,
    wire_b,
    rng: RngStream | None,
    postselect_trivial=False,
    basis: BellBasis | None = None,
):
    """Bell-measurement fusion of two endpoints.

    Returns (outcome, probability, post state with the pair removed). With
    postselection the trivial outcome is forced and its exact branch
    probability returned; a vanished branch yields (0, 0.0, None).
    """
    dims = state.subsystem_dims
    if wire_a == wire_b:
        raise ValidationError("contraction needs two distinct endpoints")
    if dims[wire_a] != dims[wire_b]:
        raise DimensionMismatchError("contracted endpoints must share a dimension")
    if basis is None:
        basis = BellBasis.for_dim(dims[wire_a])
    if not postselect_trivial:
        if rng is None:
            raise ValidationError("sampled contraction needs an RngStream")
        return bell_measure_pair(state, wire_a, wire_b, basis, rng)
    probs, residuals = bell_probabilities(state, wire_a, wire_b, basis)
    p0 = float(probs[0])
    if p0 <= 1e-28:
        return 0, 0.0, None
    out_dims = tuple(dm for i, dm in enumerate(dims) if i not in (wire_a, wire_b))
    return 0, p0, PureState(residuals[0] / math.sqrt(p0), out_dims)


# ---------------------------------------------------------------------------
# Topological diagrams
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TopoVertex:
    """Diagram vertex: a gate over k heads with k matching tails."""

    gate: np.ndarray
    legs: int
    site_dim: int = 2

    def __init__(self, gate, legs=None, site_dim=2):
        m = np.asarray(gate, dtype=complex)
        if legs is None:
            legs = round(math.log(m.shape[0], site_dim))
        if m.shape != (site_dim**legs,) * 2:
            raise ValidationError(
                f"vertex gate shape {m.shape} does not fit {legs} legs of dim {site_dim}"
            )
        object.__setattr__(self, "gate", m)
        object.__setattr__(self, "legs", int(legs))
        object.__setattr__(self, "site_dim", int(site_dim))

    def tensor(self):
        d, k = self.site_dim, self.legs
        return self.gate.reshape((d,) * (2 * k)) / d ** (k / 2.0)


@dataclass(frozen=True, eq=False)
class TopoDiagram:
    """Vertices wired by Bell-segment contractions; value is an overlap."""

    vertices: tuple[TopoVertex, ...]
    segments: tuple[tuple[Endpoint, Endpoint], ...]
    site_dim: int = 2

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "segments", tuple(self.segments))
        seen = set()
        for a, b in self.segments:
            for ep in (a, b):
                self._check_endpoint(ep)
                if ep in seen:
                    raise ValidationError(f"endpoint {ep} used by two segments")
                seen.add(ep)

    def _check_endpoint(self, ep):
        if len(ep) != 3 or ep[1] not in ("h", "t"):
            raise ValidationError(f"malformed endpoint {ep!r}")
        v, kind, leg = ep
        if not 0 <= v < len(self.vertices):
            raise ValidationError(f"endpoint {ep!r} names a missing vertex")
        if not 0 <= leg < self.vertices[v].legs:
            raise ValidationError(f"endpoint {ep!r} names a missing leg")

    def endpoints(self):
        out = []
        for v, vert in enumerate(self.vertices):
            for kind in ("h", "t"):
                for leg in range(vert.legs):
                    out.append((v, kind, leg))
        return out

    def open_endpoints(self):
        used = {ep for seg in self.segments for ep in seg}
        return [ep for ep in self.endpoints() if ep not in used]

    @property
    def closed(self):
        return not self.open_endpoints()


_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def eval_topological(diagram: TopoDiagram):
    """Exact value of a diagram as an overlap of dual states with ebits.

    Closed diagrams return a complex amplitude (a single circle with gate
    U gives tr(U)/d); open diagrams return the normalized prepared state.
    """
    if not diagram.vertices:
        raise ValidationError("empty diagram")
    d = diagram.site_dim
    open_eps = diagram.open_endpoints()
    # one label per segment (shared by its two endpoints) and per open endpoint
    groups = [*diagram.segments, *((ep,) for ep in open_eps)]
    if len(groups) > len(_LETTERS):
        raise ValidationError(
            f"diagram needs {len(groups)} einsum labels; at most {len(_LETTERS)} are supported"
        )
    letters = {ep: label for label, group in zip(_LETTERS, groups) for ep in group}
    terms = []
    tensors = []
    for v, vert in enumerate(diagram.vertices):
        axes = [(v, "h", leg) for leg in range(vert.legs)]
        axes += [(v, "t", leg) for leg in range(vert.legs)]
        terms.append("".join(letters[ep] for ep in axes))
        tensors.append(vert.tensor())
    out = "".join(letters[ep] for ep in open_eps)
    spec = ",".join(terms) + "->" + out
    value = np.einsum(spec, *tensors) * d ** (-len(diagram.segments) / 2.0)
    if diagram.closed:
        return complex(value)
    flat = np.asarray(value).reshape(-1)
    norm = np.linalg.norm(flat)
    if norm <= 1e-28:
        raise NumericalError("open diagram prepares the zero state")
    return PureState(flat / norm, (d,) * len(open_eps))


# ---------------------------------------------------------------------------
# Algorithm execution
# ---------------------------------------------------------------------------


def _observable_distribution(state: PureState, readout: ReadoutSpec):
    """Eigenvalues and their exact probabilities for O on the head wires."""
    head_wires = list(readout.target_heads)
    dims = state.subsystem_dims
    vals, vecs = np.linalg.eigh(readout.observable.matrix)
    tensor = state.tensor()
    moved = np.moveaxis(tensor, head_wires, range(len(head_wires)))
    mat = moved.reshape(readout.observable.dim, -1)
    coeffs = vecs.conj().T @ mat
    probs = np.clip((np.abs(coeffs) ** 2).sum(axis=1), 0.0, None)
    return vals, probs


def _branch_estimate(values, trace_of_o, scale, invert):
    n = values.size
    mean = float(values.mean())
    var_mean = float(values.var(ddof=1) / n) if n > 1 else 0.0
    if invert:
        return trace_of_o - scale * mean, scale * scale * var_mean
    return mean, var_mean


def combine_branch_estimates(direct, complement, trace_of_o, n_tails):
    """Inverse-variance combination of the two injection branches.

    `direct` holds readout samples that saw the desired input and estimate
    tr(O ρ_f) as they are; `complement` holds the P0 samples, inverted
    through E[O|P0] = (tr O − o_f)/(2^n − 1). Returns (estimate, standard
    error).
    """
    estimates = []
    if direct.size:
        estimates.append(_branch_estimate(direct, trace_of_o, 1.0, False))
    if complement.size:
        estimates.append(
            _branch_estimate(complement, trace_of_o, float(2**n_tails - 1), True)
        )
    if not estimates:
        raise EstimationError("no usable branch samples")
    floor = 1e-30
    if all(v <= floor for _, v in estimates):
        return float(np.mean([e for e, _ in estimates])), 0.0
    weights = [1.0 / max(v, floor) for _, v in estimates]
    est = float(sum(w * e for w, (e, _) in zip(weights, estimates)) / sum(weights))
    return est, float(1.0 / math.sqrt(sum(weights)))


def run_algorithm(
    program,
    readout: ReadoutSpec,
    injection: InjectionSpec,
    shots,
    rng: RngStream,
    collect_records=False,
) -> RunResult:
    """Estimate tr(O ρ_f) by repeated inject-then-measure shots.

    The rare branch measures O on U|bits⟩ directly; the common complement
    branch is inverted through E[O|P0] = (tr O − o_f)/(2^n − 1) and the two
    estimates are combined by inverse-variance weighting.
    """
    if shots < 1:
        raise ValidationError("shots must be >= 1")
    state = program_state(program) if isinstance(program, StoredProgram) else (
        simulate(program) if isinstance(program, TailedCircuit) else program
    )
    if not isinstance(state, PureState):
        raise ValidationError(f"cannot run object of type {type(program).__name__}")
    num_ebits = (
        program.ebit_wires
        if isinstance(program, TailedCircuit)
        else len(state.subsystem_dims) // 2
    )
    n = len(injection.target_tails)
    p1, post1, p0, post0 = injection_branches(state, injection, num_ebits)

    dists = {}
    if post1 is not None:
        dists[1] = _observable_distribution(post1, readout)
    if post0 is not None:
        dists[0] = _observable_distribution(post0, readout)

    branches = (rng.uniforms(shots) < p1).astype(int)
    values = np.empty(shots, dtype=float)
    for b in (0, 1):
        mask = branches == b
        count = int(mask.sum())
        if count == 0:
            continue
        if b not in dists:
            raise NumericalError(f"sampled branch P{b} has vanishing probability")
        vals, probs = dists[b]
        picks = rng.choices(probs, count)
        values[mask] = vals[picks].real

    n1 = int(branches.sum())
    n0 = shots - n1
    est, err = combine_branch_estimates(
        values[branches == 1], values[branches == 0], readout.trace_of_o, n
    )
    records = ()
    if collect_records:
        records = tuple(
            RunRecord(shot=i, injection_branch=f"P{branches[i]}", observable_value=float(values[i]))
            for i in range(shots)
        )
    return RunResult(
        estimate=est,
        standard_error=err,
        shots=shots,
        n_p0=n0,
        n_p1=n1,
        p1_exact=p1,
        records=records,
    )
