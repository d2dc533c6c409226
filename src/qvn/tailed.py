"""Tailed quantum circuits: input injection by measurement on the tails of
a program state, observable readout on its heads, contraction, and
topological diagram evaluation.

Wire layout of a program state, all wires qubit-sized: the n heads first,
then their n tails. With this block order the n ebits form one
high-dimensional ebit between the head and tail groups, so a program state
is literally (U ⊗ I)|ω⟩.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import gates
from .errors import (
    DimensionMismatchError,
    EstimationError,
    NumericalError,
    ValidationError,
)
from .kernel import (
    Observable,
    OutcomeTable,
    PureState,
    RngStream,
    apply_to_subsystems,
    wire_outcomes,
)
from .uqt import BellBasis, StoredProgram, bell_measure_pair, bell_probabilities

Endpoint = tuple  # (vertex, "h"|"t", leg)


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
    """Observable supported on a set of heads."""

    observable: Observable
    target_heads: tuple[int, ...]

    def __post_init__(self):
        heads = tuple(int(h) for h in self.target_heads)
        object.__setattr__(self, "target_heads", heads)
        if self.observable.dim != 2 ** len(heads):
            raise DimensionMismatchError(
                f"observable dim {self.observable.dim} != 2^{len(heads)} head wires"
            )


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


def program_state(program: StoredProgram) -> PureState:
    """A stored program's dual state laid out as a 2n-wire circuit state."""
    d = program.d
    n = d.bit_length() - 1
    if 2**n != d:
        raise ValidationError(f"program dim {d} is not a power of two")
    return PureState(program.amplitudes, (2,) * (2 * n))


# ---------------------------------------------------------------------------
# Injection
# ---------------------------------------------------------------------------


def _tail_wires(state: PureState, spec: InjectionSpec):
    """Wires of the target tails of a 2n-wire state: n heads, then n tails."""
    if len(state.subsystem_dims) % 2:
        raise ValidationError(
            f"a state of {len(state.subsystem_dims)} wires has no equal head and tail halves"
        )
    n = len(state.subsystem_dims) // 2
    wires = [n + t for t in spec.target_tails]
    for w in wires:
        if not n <= w < 2 * n:
            raise ValidationError(f"tail wire {w} out of range")
    return wires


class Injection(OutcomeTable):
    """Exact branch table of the heralded injection measurement.

    P1 is read from the sub-tensor that the desired bitstring indexes.
    Branch b's result is (its probability, its post state), made when it is
    drawn and kept, as `OutcomeTable` says, while `keep` admits it; so one
    `inject` builds the sampled branch alone.
    """

    def __init__(self, state: PureState, spec: InjectionSpec, keep=None):
        wires = _tail_wires(state, spec)
        dims = state.subsystem_dims
        tensor = state.tensor()
        idx = [slice(None)] * len(dims)
        for w, bit in zip(wires, spec.bitstring):
            idx[w] = int(bit)
        idx = tuple(idx)
        sub = tensor[idx]
        self.p1 = p1 = float(np.clip((np.abs(sub) ** 2).sum(), 0.0, 1.0))
        p0 = 1.0 - p1

        def branch(b):
            prob = p1 if b else p0
            if prob <= 1e-14:
                raise NumericalError(f"sampled branch P{b} has vanishing probability")
            if b:
                post = np.zeros_like(tensor)
                post[idx] = sub
            else:
                post = tensor.copy()
                post[idx] = 0.0
            return prob, PureState._trusted(post.reshape(-1) / math.sqrt(prob), dims)

        super().__init__([p0, p1], branch, keep, state.dim)


def inject(state: PureState, spec: InjectionSpec, rng: RngStream, num_ebits=None):
    """Injection by the heralded measurement of the target tails.

    Samples the binary outcome of the projector onto the desired bitstring
    from its exact branches, with the single draw an ancilla read-out would
    make. Returns (branch, probability, post state); branch 1 collapses
    the tails onto the desired bitstring. `num_ebits`, if given, must be
    the state's n: callers that name the ebit count keep working.
    """
    if not spec.target_tails:
        raise ValidationError("injection needs at least one target tail")
    if num_ebits is not None and 2 * num_ebits != len(state.subsystem_dims):
        raise ValidationError(
            f"num_ebits={num_ebits} does not fit a state of {len(state.subsystem_dims)} wires"
        )
    branch, (prob, post) = Injection(state, spec).sample(rng)
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
        """The cascade on a state vector, or on every column of a matrix
        with 2^num_qubits rows at once."""
        amp = np.asarray(amplitudes, dtype=complex)
        dims = (2,) * self.num_qubits + (amp.size >> self.num_qubits,)
        for g, targets in self.gate_list:
            amp = apply_to_subsystems(amp, dims, g, targets)
        return amp.reshape(np.shape(amplitudes))

    def apply_to_basis_state(self, bits):
        amp = np.zeros(2**self.num_qubits, dtype=complex)
        amp[int("".join(str(b) for b in bits), 2)] = 1.0
        return self.apply(amp)

    def to_matrix(self):
        if self.num_qubits > 10:
            raise ValidationError("dense cascade matrix only offered for <= 10 qubits")
        return self.apply(np.eye(2**self.num_qubits, dtype=complex))


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


def tail_outcomes(state: PureState, tail_wire, keep=None) -> OutcomeTable:
    """Exact outcome table of a Z measurement on a tail: bit k's result is
    the state collapsed onto it, the wire kept in place."""
    dims = state.subsystem_dims
    probs, collapse = wire_outcomes(state.amplitudes, dims, tail_wire)
    return OutcomeTable(probs, lambda k: PureState(collapse(k), dims), keep, state.dim)


def contract(
    state: PureState,
    wire_a,
    wire_b,
    rng: RngStream | None,
    postselect_trivial=False,
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
    """Diagram vertex: a gate over k qubit heads with k matching tails."""

    gate: np.ndarray
    legs: int

    def __init__(self, gate, legs):
        m = np.asarray(gate, dtype=complex)
        if m.shape != (2**legs,) * 2:
            raise ValidationError(f"vertex gate shape {m.shape} does not fit {legs} qubit legs")
        object.__setattr__(self, "gate", m)
        object.__setattr__(self, "legs", int(legs))

    def tensor(self):
        k = self.legs
        return self.gate.reshape((2,) * (2 * k)) / 2 ** (k / 2.0)


@dataclass(frozen=True, eq=False)
class TopoDiagram:
    """Vertices wired by Bell-segment contractions; value is an overlap.
    Every leg is a qubit."""

    vertices: tuple[TopoVertex, ...]
    segments: tuple[tuple[Endpoint, Endpoint], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "segments", tuple(self.segments))
        seen = set()
        for segment in self.segments:
            for ep in segment:
                self.check_endpoint(ep, seen)

    def check_endpoint(self, ep, seen):
        """Raise unless `ep` names a leg of a vertex and is not in `seen`,
        the endpoints of earlier segments; then add it to `seen`."""
        if len(ep) != 3 or ep[1] not in ("h", "t"):
            raise ValidationError(f"malformed endpoint {ep!r}")
        v, kind, leg = ep
        if not 0 <= v < len(self.vertices):
            raise ValidationError(f"endpoint {ep!r} names a missing vertex")
        if not 0 <= leg < self.vertices[v].legs:
            raise ValidationError(f"endpoint {ep!r} names a missing leg")
        if ep in seen:
            raise ValidationError(f"endpoint {ep!r} used by two segments")
        seen.add(ep)

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


MAX_INTERMEDIATE_ENTRIES = 2**26
# Most legs a diagram file may give one vertex: its tensor has 2^(2·legs)
# entries, which reaches MAX_INTERMEDIATE_ENTRIES at 13 legs.
MAX_VERTEX_LEGS = 13


def _self_loops(labels):
    """Axis pairs (p, q) that share a label, in the order np.trace removes
    them, and the labels left after."""
    labels = list(labels)
    loops = []
    for label in list(labels):
        if labels.count(label) == 2:
            p = labels.index(label)
            q = labels.index(label, p + 1)
            loops.append((p, q))
            del labels[q], labels[p]
    return loops, tuple(labels)


def _check_entries(entries, what):
    if entries > MAX_INTERMEDIATE_ENTRIES:
        raise ValidationError(
            f"diagram contraction needs {entries} {what}; the limit is "
            f"MAX_INTERMEDIATE_ENTRIES = {MAX_INTERMEDIATE_ENTRIES}"
        )


def _contraction_plan(terms, d):
    """Pairwise contraction order for tensors with integer axis labels, on
    labels alone.

    `terms` lists each tensor's labels, every axis of dimension d; a label
    names at most two axes in all. Self-loops are traced out first. Then
    each step greedily joins the two live tensors that share a label and
    give the smallest result, contracting all their shared labels at once;
    only when no live tensors share a label does it take the outer product
    of the two smallest. Results get fresh ids len(terms), len(terms)+1, ...
    Candidate pairs wait in a heap, so planning E labels takes O(E log E).

    Returns (loops, steps, labels): loops[t] are the self-loop axis pairs of
    tensor t, a step is (a, b, axes_a, axes_b) over tensor ids, and labels
    are the final tensor's. Every tensor, and every step's two operands and
    result together, are checked against MAX_INTERMEDIATE_ENTRIES before
    any is made.
    """
    loops, live = [], {}
    for t, labels in enumerate(terms):
        pairs, live[t] = _self_loops(labels)
        loops.append(pairs)
        _check_entries(d ** len(live[t]), "entries in one tensor")
    owners = {}  # label -> ids of the live tensors that carry it
    for t, labels in live.items():
        for label in labels:
            owners.setdefault(label, []).append(t)
    steps = []

    def join(a, b):
        la, lb = live.pop(a), live.pop(b)
        shared = [x for x in la if x in lb]
        labels = tuple(x for x in la if x not in shared) + tuple(x for x in lb if x not in shared)
        # np.tensordot holds both operands while it makes the result
        _check_entries(
            d ** len(la) + d ** len(lb) + d ** len(labels),
            "live entries in one step (both operands and the result)",
        )
        new = len(terms) + len(steps)
        steps.append((a, b, [la.index(x) for x in shared], [lb.index(x) for x in shared]))
        live[new] = labels
        for x in shared:
            del owners[x]
        for x in labels:
            owners[x] = [new if t in (a, b) else t for t in owners[x]]
        return new

    def candidate(a, b):  # result label count first, then the ids
        return len(set(live[a]) ^ set(live[b])), a, b

    # A pair's score depends only on its two tensors, which never change
    # while both are live, so a heap whose stale entries are skipped on pop
    # gives the greedy order.
    heap = [candidate(*ids) for ids in owners.values() if len(ids) == 2]
    heapq.heapify(heap)
    while heap:
        _, a, b = heapq.heappop(heap)
        if a in live and b in live:
            new = join(a, b)
            for x in live[new]:
                if len(owners[x]) == 2:
                    heapq.heappush(heap, candidate(min(owners[x]), new))
    # no two live tensors share a label, and outer products keep it so
    sizes = [(len(labels), t) for t, labels in live.items()]
    heapq.heapify(sizes)
    while len(sizes) > 1:
        (_, a), (_, b) = heapq.heappop(sizes), heapq.heappop(sizes)
        new = join(min(a, b), max(a, b))
        heapq.heappush(sizes, (len(live[new]), new))
    (labels,) = live.values()
    return loops, steps, labels


def eval_topological(diagram: TopoDiagram):
    """Exact value of a diagram as an overlap of dual states with ebits.

    Closed diagrams return a complex amplitude (a single circle with gate
    U gives tr(U)/d); open diagrams return the normalized prepared state,
    its wires in `open_endpoints()` order. The vertex tensors are
    contracted pairwise in the order of `_contraction_plan`; a diagram whose
    plan needs a tensor, or a step whose operands and result together, of
    more than MAX_INTERMEDIATE_ENTRIES entries is a ValidationError raised
    before any contraction.
    """
    if not diagram.vertices:
        raise ValidationError("empty diagram")
    d = 2  # every leg is a qubit
    open_eps = diagram.open_endpoints()
    # one label per segment (shared by its two endpoints) and per open endpoint
    groups = [*diagram.segments, *((ep,) for ep in open_eps)]
    label_of = {ep: label for label, group in enumerate(groups) for ep in group}
    terms = []
    for v, vert in enumerate(diagram.vertices):
        axes = [(v, "h", leg) for leg in range(vert.legs)]
        axes += [(v, "t", leg) for leg in range(vert.legs)]
        terms.append([label_of[ep] for ep in axes])
    loops, steps, labels = _contraction_plan(terms, d)
    tensors = []
    for vert, pairs in zip(diagram.vertices, loops):
        tensor = vert.tensor()
        for p, q in pairs:
            tensor = np.trace(tensor, axis1=p, axis2=q)
        tensors.append(tensor)
    for a, b, axes_a, axes_b in steps:
        tensors.append(np.tensordot(tensors[a], tensors[b], axes=(axes_a, axes_b)))
        tensors[a] = tensors[b] = None
    out = [label_of[ep] for ep in open_eps]
    value = np.transpose(tensors[-1], [labels.index(x) for x in out])
    value = value * d ** (-len(diagram.segments) / 2.0)
    if not open_eps:
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


def readout_outcomes(state: PureState, readout: ReadoutSpec, keep) -> OutcomeTable:
    """Exact outcome table of measuring O on the head wires: outcome k's
    result is O's k-th eigenvalue, kept while the `Retention` `keep` admits
    it."""
    vals, probs = _observable_distribution(state, readout)
    return OutcomeTable(probs, lambda k: float(vals[k].real), keep, 1)


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
    state = program_state(program) if isinstance(program, StoredProgram) else program
    if not isinstance(state, PureState):
        raise ValidationError(f"cannot run object of type {type(program).__name__}")
    n = len(injection.target_tails)
    table = Injection(state, injection)
    branches = (rng.uniforms(shots) < table.p1).astype(int)
    values = np.empty(shots, dtype=float)
    for b in (0, 1):
        mask = branches == b
        count = int(mask.sum())
        if count:
            _, post = table.result(b)
            vals, probs = _observable_distribution(post, readout)
            values[mask] = vals[rng.choices(probs, count)].real

    n1 = int(branches.sum())
    n0 = shots - n1
    est, err = combine_branch_estimates(
        values[branches == 1], values[branches == 0], readout.observable.trace, n
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
        p1_exact=table.p1,
        records=records,
    )
