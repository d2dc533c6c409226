"""The control unit: classical instruction schedules driving composition,
injection, and readout against a memory unit, plus the qubit-controlled
unknown-gate primitive.

Schedules have no document of their own: a run file's schedule block
(`cli.parse_run_file`) holds one instruction per line, in the line grammar
of `qvn.text`, each read by `parse_instruction`:

    compose a=<addr> b=<addr> strategy=<name> dest=<addr>
    inject target=<addr> bits=<bitstring>
    readout target=<addr> obs=<pauli string | custom rows=<d> data=<...>>
    restore addr=<addr> copies=<int>
    sampletail target=<addr> tail=<int>
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from . import gates, tailed, uqt
from .errors import OutOfCopiesError, ValidationError
from .kernel import (
    DEFAULT_TOL,
    DensityOperator,
    KrausChannel,
    Observable,
    OutcomeTable,
    PureState,
    Retention,
    RngStream,
    UnitaryOp,
    partial_trace_matrix,
    shot_streams,
)
from .memory import MAX_COPIES, MAX_QUBITS, MemoryUnit
from .text import Line
from .tailed import InjectionSpec, ReadoutSpec, RunRecord
from .uqt import ByproductStrategy


@dataclass(frozen=True)
class Compose:
    addr1: int
    addr2: int
    strategy: ByproductStrategy
    dest: int


@dataclass(frozen=True)
class Inject:
    target: int
    bits: str = ""


@dataclass(frozen=True, eq=False)
class Readout:
    target: int
    observable: Observable
    label: str = "custom"


@dataclass(frozen=True)
class Restore:
    addr: int
    copies: int


@dataclass(frozen=True)
class SampleTail:
    target: int
    tail: int


# Most shots one schedule may run: `execute` loops over them and keeps one
# record per shot.
MAX_SHOTS = 1_000_000


@dataclass(frozen=True)
class Schedule:
    instructions: tuple
    shots: int = 1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))
        if not 1 <= self.shots <= MAX_SHOTS:
            raise ValidationError(
                f"schedule needs 1 <= shots <= MAX_SHOTS = {MAX_SHOTS}, got {self.shots}"
            )
        if self.seed < 0:
            raise ValidationError(f"schedule needs a seed >= 0, got {self.seed}")
        dests = [i.dest for i in self.instructions if isinstance(i, Compose)]
        if len(dests) != len(set(dests)):
            raise ValidationError("compose destinations must be unique per schedule")
        if sum(1 for i in self.instructions if isinstance(i, Readout)) > 1:
            raise ValidationError("at most one readout per shot path")


@dataclass(frozen=True)
class ExecutionResult:
    estimate: float | None
    standard_error: float | None
    shots: int
    n_p0: int
    n_p1: int
    records: tuple[RunRecord, ...]
    copies_after: dict
    audit_consistent: bool


# Entries (complex numbers) of built outcome results that the tables of one
# `execute` call may keep between shots: 4 MiB, four times the 4^MAX_QUBITS
# entries of one widest program. Past it results are built on every draw.
MAX_RETAINED_ENTRIES = 4 * 4**MAX_QUBITS


class _Tables:
    """The exact outcome tables of one `execute` call.

    Each table is built on the first shot that needs it and then only
    sampled: a composition per (p1, p2, instruction), an injection, readout
    or tail measurement per (state, instruction), and the circuit state of
    each program. Programs and states are keys held weakly, and no table
    refers to them, so a table goes when its inputs go: a schedule that
    composes into its own input slot makes a new program every shot, and
    its tables do not pile up. The results the tables keep for later draws
    share one `Retention` of MAX_RETAINED_ENTRIES, so a schedule whose
    outcomes rarely repeat, such as a wide composition, keeps no more than
    that however many shots it runs.
    """

    def __init__(self):
        self.keep = Retention(MAX_RETAINED_ENTRIES)
        self._states = weakref.WeakKeyDictionary()  # program -> circuit state
        self._compositions = weakref.WeakKeyDictionary()  # p1 -> p2 -> instruction -> table
        self._measurements = weakref.WeakKeyDictionary()  # state -> instruction -> table

    def state(self, program) -> PureState:
        state = self._states.get(program)
        if state is None:
            state = self._states[program] = tailed.program_state(program)
        return state

    def composition(self, p1, p2, ins: Compose) -> uqt.Composition:
        by_p2 = self._compositions.get(p1)
        if by_p2 is None:
            by_p2 = self._compositions[p1] = weakref.WeakKeyDictionary()
        tables = by_p2.setdefault(p2, {})
        table = tables.get(ins)
        if table is None:
            table = tables[ins] = uqt.Composition(p1, p2, ins.strategy, keep=self.keep)
        return table

    def measurement(self, state, ins, build) -> OutcomeTable:
        """The table `build()` makes for `ins` on `state`, made once."""
        tables = self._measurements.setdefault(state, {})
        table = tables.get(ins)
        if table is None:
            table = tables[ins] = build()
        return table


class _ShotState:
    """Working registers of one shot: live states fetched from memory."""

    def __init__(self, mem: MemoryUnit, rng: RngStream, tables: _Tables):
        self.mem = mem
        self.rng = rng
        self.tables = tables
        self.states: dict[int, PureState] = {}
        self.branch = None
        self.injected_tails = 0
        self.bells: list[int] = []
        self.value = None

    def load(self, address) -> PureState:
        if address not in self.states:
            self.states[address] = self.tables.state(self.mem.fetch_consume(address))
        return self.states[address]

    def width(self, address) -> int:
        """Qubit count n of the program `load` gives, read without
        consuming a copy."""
        if address in self.states:
            return len(self.states[address].subsystem_dims) // 2
        return self.mem.peek(address).d.bit_length() - 1


def _injection_table(state: PureState, ins: Inject, keep) -> tailed.Injection:
    n = len(state.subsystem_dims) // 2
    spec = InjectionSpec(tuple(range(n)), ins.bits)
    return tailed.Injection(state, spec, keep=keep)


def _readout_table(state: PureState, ins: Readout, keep) -> OutcomeTable:
    n = len(state.subsystem_dims) // 2
    return tailed.readout_outcomes(state, ReadoutSpec(ins.observable, tuple(range(n))), keep)


def _run_instruction(ins, shot: _ShotState, mem: MemoryUnit):
    tables, rng = shot.tables, shot.rng
    if isinstance(ins, Compose):
        p1 = mem.fetch_consume(ins.addr1)
        p2 = mem.fetch_consume(ins.addr2)
        result, shots_used = tables.composition(p1, p2, ins).sample(rng)
        shot.bells.append(shots_used)
        if ins.dest in mem.slots:
            mem.append_copy(ins.dest, result)
        else:
            mem.store_copies([result], description=result.description, address=ins.dest)
        return
    if isinstance(ins, Inject):
        state = shot.load(ins.target)
        table = tables.measurement(state, ins, lambda: _injection_table(state, ins, tables.keep))
        shot.branch, (_, shot.states[ins.target]) = table.sample(rng)
        shot.injected_tails = len(state.subsystem_dims) // 2
        return
    if isinstance(ins, Readout):
        state = shot.load(ins.target)
        table = tables.measurement(state, ins, lambda: _readout_table(state, ins, tables.keep))
        _, shot.value = table.sample(rng)
        return
    if isinstance(ins, Restore):
        mem.restore(ins.addr, ins.copies)
        return
    if isinstance(ins, SampleTail):
        n = shot.width(ins.target)
        if not 0 <= ins.tail < n:
            raise ValidationError(
                f"sampletail tail={ins.tail} is out of range: the program at address "
                f"{ins.target} has {n} tails (0..{n - 1})"
            )
        state = shot.load(ins.target)
        table = tables.measurement(
            state, ins, lambda: tailed.tail_outcomes(state, n + ins.tail, tables.keep)
        )
        bit, shot.states[ins.target] = table.sample(rng)
        shot.bells.append(bit)
        return
    raise ValidationError(f"unknown instruction {ins!r}")


def execute(mem: MemoryUnit, sched: Schedule) -> ExecutionResult:
    """Run the schedule once per shot, mutating memory, and aggregate.

    Each shot draws from its own stream, that of `RngStream(seed,
    stream_id=shot)` (made by `kernel.shot_streams`), fetches and restores
    copies as the schedule says, and samples each instruction
    from its exact outcome table (see `_Tables`), which this call builds
    once per distinct input. The draws, and so the results, are those of
    running every instruction's one-shot kernel afresh each shot.

    Readout samples are combined by `tailed.combine_branch_estimates`, as
    in `tailed.run_algorithm`: the branch that saw the desired input
    estimates tr(Oρ_f) directly, the complement branch is inverted through
    tr(O) − (2^n − 1)·mean.
    """
    tables = _Tables()
    records = []
    grouped = {"P0": [], "P1": [], "none": []}
    n_tails = 0
    observable = None  # of the readout run, whose trace is taken once, at the end
    for shot_idx, rng in enumerate(shot_streams(sched.seed, sched.shots)):
        shot = _ShotState(mem, rng, tables)
        for idx, ins in enumerate(sched.instructions):
            try:
                _run_instruction(ins, shot, mem)
            except OutOfCopiesError as exc:
                raise OutOfCopiesError(
                    exc.address, f"instruction {idx} ({type(ins).__name__}): {exc}"
                ) from exc
            if isinstance(ins, Readout):
                observable = ins.observable
        branch = "none" if shot.branch is None else f"P{shot.branch}"
        if shot.value is not None:
            grouped[branch].append(shot.value)
            n_tails = max(n_tails, shot.injected_tails)
        records.append(
            RunRecord(
                shot=shot_idx,
                injection_branch=branch,
                observable_value=math.nan if shot.value is None else shot.value,
                bell_outcomes=tuple(shot.bells),
            )
        )
    estimate = stderr = None
    n1 = len(grouped["P1"]) + len(grouped["none"])
    n0 = len(grouped["P0"])
    if observable is not None and (n0 or n1):
        estimate, stderr = tailed.combine_branch_estimates(
            np.array(grouped["P1"] + grouped["none"]),
            np.array(grouped["P0"]),
            observable.trace,
            n_tails,
        )
    copies_after = {addr: len(slot.copies) for addr, slot in mem.slots.items()}
    return ExecutionResult(
        estimate=estimate,
        standard_error=stderr,
        shots=sched.shots,
        n_p0=n0,
        n_p1=n1,
        records=tuple(records),
        copies_after=copies_after,
        audit_consistent=mem.verify_conservation(),
    )


# ---------------------------------------------------------------------------
# Controlled unknown gate
# ---------------------------------------------------------------------------


def controlled_unknown(u: UnitaryOp, eigenstate: PureState, eigenvalue) -> UnitaryOp:
    """CSWAP · (I ⊗ U on the ancilla) · CSWAP on control ⊗ target ⊗ ancilla.

    The declared eigenpair pins the phase gauge of the black box: with the
    ancilla prepared in the eigenstate, the circuit acts on control and
    target as controlled-(U/eigenvalue) exactly.
    """
    d = u.dim
    lam = complex(eigenvalue)
    if abs(abs(lam) - 1.0) > DEFAULT_TOL:
        raise ValidationError(f"eigenvalue {lam} is not a phase")
    if eigenstate.dim != d:
        raise ValidationError(f"eigenstate dim {eigenstate.dim} != gate dim {d}")
    resid = np.linalg.norm(u.matrix @ eigenstate.amplitudes - lam * eigenstate.amplitudes)
    if resid > DEFAULT_TOL * d:
        raise ValidationError(f"declared eigenstate misses by {resid}")
    cs = gates.cswap(d)
    mid = np.kron(np.eye(2 * d, dtype=complex), u.matrix)
    return UnitaryOp(cs @ mid @ cs)


def controlled_unknown_channel(u: UnitaryOp, eigenstate: PureState, eigenvalue) -> KrausChannel:
    """Reduced control-target dynamics with the ancilla in the eigenstate."""
    circuit = controlled_unknown(u, eigenstate, eigenvalue)
    d = u.dim
    phi = eigenstate.amplitudes
    kraus = []
    big = circuit.matrix.reshape(2 * d, d, 2 * d, d)
    embedded = np.einsum("amby,y->amb", big, phi)
    for m in range(d):
        kraus.append(embedded[:, m, :])
    return KrausChannel(kraus, tol=1e-9)


def controlled_unknown_mixed_output(u: UnitaryOp, rho_ct: DensityOperator) -> DensityOperator:
    """Reduced output with a completely mixed ancilla (the damped variant).

    Coherence between the control branches shrinks by tr(U)/d; exposed for
    study of the ancilla-preparation tradeoff, not used by the exact path.
    """
    d = u.dim
    cs = gates.cswap(d)
    circuit = cs @ np.kron(np.eye(2 * d, dtype=complex), u.matrix) @ cs
    full_in = np.kron(rho_ct.matrix, np.eye(d) / d)
    full_out = circuit @ full_in @ circuit.conj().T
    red = partial_trace_matrix(full_out, (2, d, d), [0, 1])
    return DensityOperator(red, (2, d))


def ideal_controlled(u: UnitaryOp, eigenvalue) -> UnitaryOp:
    """The gauge-fixed target: controlled-(U/eigenvalue)."""
    return UnitaryOp(gates.controlled(u.matrix / complex(eigenvalue)))


# ---------------------------------------------------------------------------
# Schedule lines
# ---------------------------------------------------------------------------

_STRATEGY_NAMES = {s.value: s for s in ByproductStrategy}


def parse_instruction(line: Line):
    """The instruction of one schedule line."""
    instruction = _read_instruction(line)
    line.done()
    return instruction


def _read_instruction(line: Line):
    verb = line.verb
    if verb == "compose":
        name = line.str("strategy", "correction_table")
        if name not in _STRATEGY_NAMES:
            raise line.error(f"unknown strategy {name!r}", "strategy")
        return Compose(line.int("a"), line.int("b"), _STRATEGY_NAMES[name], line.int("dest"))
    if verb == "inject":
        bits = line.str("bits", "")
        if any(c not in "01" for c in bits):
            raise line.error(f"bad bitstring {bits!r}", "bits")
        return Inject(line.int("target"), bits)
    if verb == "readout":
        label = line.str("obs")
        if label == "custom":
            rows = line.int("rows", low=1)
            matrix = line.matrix(rows, rows)
            with line.located():
                obs = Observable(matrix)
        else:
            try:
                obs = Observable(gates.pauli_string_matrix(label))
            except ValidationError:
                raise line.error(f"bad observable {label!r}", "obs") from None
        return Readout(line.int("target"), obs, label)
    if verb == "restore":
        return Restore(line.int("addr"), line.int("copies", low=1, high=MAX_COPIES))
    if verb == "sampletail":
        return SampleTail(line.int("target"), line.int("tail"))
    if verb is None:
        raise line.error("instruction line must start with a verb")
    raise line.error(f"unknown instruction verb {verb!r}")
