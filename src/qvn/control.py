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

import weakref
from dataclasses import dataclass

import numpy as np

from . import gates, tailed, uqt
from .errors import NotRestorableError, OutOfCopiesError, QvnError, StreamDerivationError, ValidationError
from .kernel import (
    DEFAULT_TOL,
    KrausChannel,
    Observable,
    OutcomeTable,
    PureState,
    Retention,
    UnitaryOp,
    apply_to_subsystems,
    shot_streams,
    shot_uniforms,
)
from .memory import MAX_COPIES, MAX_QUBITS, MemoryUnit, synthesize
from .text import Line
from .tailed import InjectionSpec, ReadoutSpec
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


# Most shots one schedule may run: `execute` runs each of them and keeps one
# outcome per shot of each instruction.
MAX_SHOTS = 1_000_000
# Most outcome entries one `execute` keeps: one per shot of each instruction
# but restores. A run peaks at 18 to 35 bytes an entry above its start, so
# at most about 280 MB at the limit; the README run file keeps three
# entries a shot, 3,000,000 at MAX_SHOTS.
MAX_OUTCOME_ENTRIES = 8_000_000


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
        entries = self.shots * sum(1 for i in self.instructions if not isinstance(i, Restore))
        if entries > MAX_OUTCOME_ENTRIES:
            raise ValidationError(
                f"schedule would keep {entries} outcome entries ({self.shots} shots of each "
                f"instruction but restores); the limit is MAX_OUTCOME_ENTRIES = {MAX_OUTCOME_ENTRIES}"
            )
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
    # one column per schedule instruction, one entry per shot: a compose's
    # Bell rounds, an inject's branch, a readout's value, a sampletail's
    # bit; () for a restore
    outcomes: tuple[tuple, ...]
    copies_after: dict
    audit_consistent: bool


# Entries (complex numbers) of built measurement results (post states and
# readout values) that the tables of one `execute` call may keep between
# shots: 4·4^MAX_QUBITS, 4 MiB. Past it results are built on every draw.
MAX_RETAINED_ENTRIES = 4 * 4**MAX_QUBITS


class _Tables:
    """The exact outcome tables of one `execute` call.

    Each table is built the first time a shot needs it and then only
    sampled: a composition per (p1, p2, instruction), with its one composed
    program, an injection, readout or tail measurement per (state,
    instruction), and the circuit state of each program. Programs and
    states are keys held weakly, and no table refers to them, so a table
    goes when its inputs go: a schedule that composes into its own input
    slot makes a new program every shot, and its tables do not pile up.
    The post states and values the measurement tables keep for later draws
    share one `Retention` of MAX_RETAINED_ENTRIES, so a schedule whose
    outcomes rarely repeat keeps no more than that however many shots it
    runs.
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
            table = tables[ins] = uqt.Composition(p1, p2, ins.strategy)
        return table

    def measurement(self, state, ins) -> OutcomeTable:
        """The table of the injection, readout or tail measurement `ins` on
        `state`, made once."""
        tables = self._measurements.setdefault(state, {})
        table = tables.get(ins)
        if table is None:
            n = len(state.subsystem_dims) // 2
            if isinstance(ins, Inject):
                table = tailed.Injection(state, InjectionSpec(tuple(range(n)), ins.bits), keep=self.keep)
            elif isinstance(ins, Readout):
                table = tailed.readout_outcomes(state, ReadoutSpec(ins.observable, tuple(range(n))), self.keep)
            else:
                table = tailed.tail_outcomes(state, n + ins.tail, self.keep)
            tables[ins] = table
        return table


def _check_tail(ins: SampleTail, n):
    if not 0 <= ins.tail < n:
        raise ValidationError(
            f"sampletail tail={ins.tail} is out of range: the program at address "
            f"{ins.target} has {n} tails (0..{n - 1})"
        )


def _measured(ins, k, result):
    """(post state of the target, or None for a readout, which leaves it
    unchanged; outcome entry) of measurement `ins` drawing outcome k, whose
    result is given."""
    if isinstance(ins, Inject):
        return result[1], k
    if isinstance(ins, Readout):
        return None, result
    return result, k


def execute(mem: MemoryUnit, sched: Schedule) -> ExecutionResult:
    """Run the schedule once per shot, mutating memory, and aggregate.

    Each shot draws from its own stream, that of `RngStream(seed,
    stream_id=shot)`, fetches and restores copies as the schedule says,
    and samples each instruction from its exact outcome table (see
    `_Tables`), which this call builds once per distinct input. The draws,
    and so the results, are those of running every instruction's one-shot
    kernel afresh each shot.

    A schedule whose outcomes cannot change what a later shot fetches or
    how many doubles it draws (see `_plan`) runs one instruction at a time
    over all shots (`_run_batched`, for which `kernel.shot_uniforms`
    derives, for all shots at once, only the doubles its measurements
    read). Any other schedule, and one that fails, runs shot by shot
    (`_run_shots`, on `kernel.shot_streams`), so errors are raised where
    that loop raises them. Both paths give the same outcome columns and
    leave the same copies. Streams that differ from numpy's
    (`StreamDerivationError`) stop the call before anything is sampled. A
    schedule past MAX_OUTCOME_ENTRIES is refused when it is made.
    """
    plan = _plan(mem, sched)
    run = None
    if plan is not None:
        try:
            run = _run_batched(mem, sched, plan)
        except StreamDerivationError:
            raise  # numpy's streams are not those derived: nothing is sampled
        except QvnError:
            pass  # memory is untouched; the loop raises where its shot fails
    outcomes, n_tails = run or _run_shots(mem, sched)
    return _result(mem, sched, outcomes, n_tails)


def _run_shots(mem: MemoryUnit, sched: Schedule):
    """`execute` one shot at a time: each shot runs every instruction
    against memory on its own stream. Returns (outcome columns, the most
    tails a shot's last injection measured)."""
    tables = _Tables()
    columns = [[] for _ in sched.instructions]
    n_tails = 0
    for rng in shot_streams(sched.seed, sched.shots):
        states = {}  # address -> the shot's live state of the program it fetched
        injected = 0
        for idx, ins in enumerate(sched.instructions):
            column = columns[idx]
            try:
                if isinstance(ins, Compose):
                    p1, p2 = mem.fetch_consume(ins.addr1), mem.fetch_consume(ins.addr2)
                    result, rounds = tables.composition(p1, p2, ins).sample(rng)
                    if ins.dest in mem.slots:
                        mem.append_copy(ins.dest, result)
                    else:
                        mem.store_copies([result], description=result.description, address=ins.dest)
                    column.append(rounds)
                elif isinstance(ins, Restore):
                    mem.restore(ins.addr, ins.copies)
                elif isinstance(ins, (Inject, Readout, SampleTail)):
                    state = states.get(ins.target)
                    if state is None:
                        if isinstance(ins, SampleTail):  # checked before a copy is fetched
                            _check_tail(ins, mem.peek(ins.target).d.bit_length() - 1)
                        state = states[ins.target] = tables.state(mem.fetch_consume(ins.target))
                    elif isinstance(ins, SampleTail):
                        _check_tail(ins, len(state.subsystem_dims) // 2)
                    post, entry = _measured(ins, *tables.measurement(state, ins).sample(rng))
                    if post is not None:
                        states[ins.target] = post
                    if isinstance(ins, Inject):
                        injected = len(state.subsystem_dims) // 2
                    column.append(entry)
                else:
                    raise ValidationError(f"unknown instruction {ins!r}")
            except OutOfCopiesError as exc:
                raise OutOfCopiesError(
                    exc.address, f"instruction {idx} ({type(ins).__name__}): {exc}"
                ) from exc
        n_tails = max(n_tails, injected)
    return [tuple(column) for column in columns], n_tails


def _result(mem: MemoryUnit, sched: Schedule, outcomes, n_tails) -> ExecutionResult:
    """The result of a run whose outcome columns, tuples or arrays, are
    `outcomes`. The readout column is split on the last inject's: the
    values of shots that took P0 estimate through the complement, tr(O) −
    (2^n − 1)·mean with n `n_tails`, the rest (all, when nothing is
    injected) directly, and `tailed.combine_branch_estimates` combines the
    two, as in `tailed.run_algorithm`. A schedule without a readout has no
    estimate."""
    estimate = standard_error = None
    direct = complement = ()
    readouts = [i for i, ins in enumerate(sched.instructions) if isinstance(ins, Readout)]
    if readouts:
        values = np.asarray(outcomes[readouts[0]], dtype=float)
        injects = [i for i, ins in enumerate(sched.instructions) if isinstance(ins, Inject)]
        p0 = np.asarray(outcomes[injects[-1]]) == 0 if injects else np.zeros(values.size, dtype=bool)
        direct, complement = values[~p0], values[p0]
        estimate, standard_error = tailed.combine_branch_estimates(
            direct, complement, sched.instructions[readouts[0]].observable.trace, n_tails
        )
    return ExecutionResult(
        estimate=estimate,
        standard_error=standard_error,
        shots=sched.shots,
        n_p0=len(complement),
        n_p1=len(direct),
        outcomes=tuple(c if isinstance(c, tuple) else tuple(c.tolist()) for c in outcomes),
        copies_after={addr: len(slot.copies) for addr, slot in mem.slots.items()},
        audit_consistent=mem.verify_conservation(),
    )


# ---------------------------------------------------------------------------
# Batched execution
# ---------------------------------------------------------------------------

# The token of a restored copy in `_Flow.put`; any other token is the index
# of the compose instruction whose result the copy is.
_RESTORED = -1


class _Flow:
    """What one shot does to one slot, the same in every shot of a batched
    schedule: `put` holds the tokens of the copies it put in and has not
    fetched, bottom first, `taken` counts the copies it fetched from below
    them, and `peak` is the most copies the slot holds above its count at
    the start of the shot, at any put. `initial` is the slot's list of
    copies before the call, None for a slot that does not exist then."""

    def __init__(self, initial):
        self.initial = initial
        self.put = []
        self.taken = 0
        self.peak = 0

    def push(self, tokens):
        self.put.extend(tokens)
        self.peak = max(self.peak, len(self.put) - self.taken)

    def below(self, shot):
        """Copies below the shot's own when it starts."""
        return len(self.initial or ()) + shot * (len(self.put) - self.taken)


@dataclass(frozen=True)
class _Plan:
    # (instruction index, instruction, source(s), row) of each instruction
    # but restores; a source is ("result", compose index), ("restored",
    # address), ("copy", program) for a copy taken from below the shot's
    # own, or None for a target the shot has loaded; a measurement's row is
    # the index of its double in `reads`, a compose's is None
    steps: tuple
    reads: tuple  # stream positions of the doubles the measurements read
    flows: dict  # address -> _Flow
    restored: frozenset  # addresses of the slots restores copy


def _plan(mem: MemoryUnit, sched: Schedule) -> _Plan | None:
    """The copy flow of a schedule that runs batched, or None.

    Copy counts do not depend on outcomes, so one pass over the schedule on
    tokens finds the copy each fetch takes: one the shot put in itself, a
    compose result or a restored copy, or one it takes from below those.
    Every shot moves copies the same way, so what lies below a shot's own
    copies is the slot's copies before the call less what earlier shots
    took plus what they left.

    A schedule runs batched when every fetch from below a shot's own copies
    takes one and the same program object in every shot, so no shot
    fetches a compose result that another shot left, and no compose repeats
    until success, whose draw count varies by shot. It takes the loop,
    which raises the error, when a shot would run out of copies, fetch from
    a missing slot, pass MAX_COPIES, or restore a slot that has no
    description or that no earlier compose of this call creates. (The
    description of a slot a compose creates is that of its one composed
    program, which `_run_batched` reads when it builds the program.)

    The pass also counts the doubles a shot draws, one per measurement and
    one or, for `symmetric_pair`, two per compose, and notes the stream
    position of each measurement's, the only ones read.
    """
    flows = {}
    steps = []
    reads = []
    loaded = set()
    draws = 0  # doubles a shot has drawn

    def flow(address):
        if address not in flows:
            slot = mem.slots.get(address)
            flows[address] = _Flow(None if slot is None else slot.copies)
        return flows[address]

    def fetch(address):
        f = flow(address)
        if f.put:
            token = f.put.pop()
            return ("restored", address) if token == _RESTORED else ("result", token)
        if f.initial is None or f.taken == len(f.initial):
            return None
        f.taken += 1
        return ("copy", f.initial[-f.taken])

    for idx, ins in enumerate(sched.instructions):
        if isinstance(ins, Compose):
            if ins.strategy is ByproductStrategy.REPEAT_UNTIL_SUCCESS:
                return None
            sources = (fetch(ins.addr1), fetch(ins.addr2))
            if None in sources:
                return None
            steps.append((idx, ins, sources, None))
            draws += 2 if ins.strategy is ByproductStrategy.SYMMETRIC_PAIR else 1
            flow(ins.dest).push([idx])
        elif isinstance(ins, (Inject, Readout, SampleTail)):
            source = None
            if ins.target not in loaded:
                source = fetch(ins.target)
                if source is None:
                    return None
                loaded.add(ins.target)
            steps.append((idx, ins, source, len(reads)))
            reads.append(draws)
            draws += 1
        elif isinstance(ins, Restore):
            # a flow with no copies before the call that outlives the
            # instruction making it is a compose's dest
            if ins.addr not in flows and ins.addr not in mem.slots:
                return None
            f = flow(ins.addr)
            if f.initial is not None and mem.slots[ins.addr].description is None:
                return None
            if ins.copies < 1:
                return None
            f.push([_RESTORED] * ins.copies)
        else:
            return None
    last = sched.shots - 1
    for address, f in flows.items():
        # the copies below a shot's own change linearly over the shots
        if any(f.below(s) < f.taken or f.below(s) + f.peak > MAX_COPIES for s in (0, last)):
            return None
        # the copies later shots take from those an earlier one left
        reached = f.put[len(f.put) - min(f.taken, len(f.put)) :] if last else []
        if any(token != _RESTORED for token in reached):
            return None
        # they and the copies from before the call that the shots take are
        # one program
        initial = f.initial or []
        programs = initial[len(initial) - f.taken - last * max(f.taken - len(f.put), 0) :]
        if reached and f.initial is not None:
            programs.append(mem.slots[address].program)
        if any(p is not programs[-1] for p in programs):
            return None
    return _Plan(
        steps=tuple(steps),
        reads=tuple(reads),
        flows=flows,
        restored=frozenset(ins.addr for ins in sched.instructions if isinstance(ins, Restore)),
    )


def _split(keys, members):
    """(key, the members with that key) for each distinct key in the array
    `keys` of small non-negative ints, one per member: keys ascending,
    members in their order."""
    members = members[keys.argsort(kind="stable")]
    groups, end = [], 0
    for key, count in enumerate(np.bincount(keys).tolist()):
        if count:
            groups.append((key, members[end : end + count]))
            end += count
    return groups


def _run_batched(mem: MemoryUnit, sched: Schedule, plan: _Plan):
    """`execute` one instruction at a time over groups of shots.

    Only the doubles the measurements read are derived, up front, for all
    shots at once: `kernel.shot_uniforms` moves each shot's PCG64 to the
    stream positions in `plan.reads` by jump-ahead. Every shot fetches the
    same programs, so every composition has one program in every shot,
    built before any shot runs, and its Bell doubles, which nothing reads,
    are not derived: they only move the stream. All shots start as one group;
    each other instruction samples its table for a group with one
    `searchsorted` and splits the group by outcome. Groups run depth
    first: an outcome's result is built, every later instruction runs for
    its group, and it is dropped before the next outcome's, so beside what
    the tables keep at most one result per instruction is alive. Memory is
    written once, at the end, with the copies the shot loop leaves;
    anything raised before leaves it as it was. Returns what `_run_shots`
    returns, with each column but a restore's an array.
    """
    shots = sched.shots
    uniforms = shot_uniforms(sched.seed, shots, plan.reads).T  # one row per read
    restored = {}  # address -> the program its restores copy
    for address in plan.restored & mem.slots.keys():
        slot = mem.slots[address]
        restored[address] = slot.program if slot.program is not None else synthesize(slot.description)
    tables = _Tables()
    results = {}  # compose index -> its program
    created = {}  # address -> description of the slot a compose creates

    def source(src):
        kind, key = src
        if kind == "result":
            return results[key]
        return restored[key] if kind == "restored" else key

    for idx, ins, src, _ in plan.steps:
        if isinstance(ins, Compose):
            results[idx] = tables.composition(*(source(s) for s in src), ins).program
            # a slot missing before the call is created by this compose
            # alone, as a schedule's compose destinations are distinct
            if plan.flows[ins.dest].initial is None:
                created[ins.dest] = description = results[idx].description
                # restores of the created slot copy its description's
                # program, made once, as `MemoryUnit.restore` makes it; the
                # loop raises this error at the first restore
                if ins.dest in plan.restored:
                    if description is None:
                        raise NotRestorableError(f"slot {ins.dest} holds no classical description")
                    restored[ins.dest] = synthesize(description)

    # each instruction's entry for each shot: a compose's Bell rounds are 1,
    # a measurement's entries are all written below, a restore keeps none
    columns = [
        () if isinstance(ins, Restore)
        else np.ones(shots, int) if isinstance(ins, Compose)
        else np.empty(shots, float if isinstance(ins, Readout) else int)
        for ins in sched.instructions
    ]
    widths = {}  # inject index -> the tails it measures
    stack = [(0, np.arange(shots), {}, None)]  # a group's live states by address
    while stack:
        i, members, states, drawn = stack.pop()
        if drawn is not None:  # the group's outcome of step i - 1
            table, k = drawn
            idx, ins = plan.steps[i - 1][:2]
            post, entry = _measured(ins, k, table.result(k))
            columns[idx][members] = entry
            if post is not None:
                states = {**states, ins.target: post}
        if i == len(plan.steps):
            continue
        idx, ins, src, row = plan.steps[i]
        if isinstance(ins, Compose):  # one Bell round, whatever it draws
            stack.append((i + 1, members, states, None))
            continue
        if src is None:
            state = states[ins.target]
        else:
            state = tables.state(source(src))
            states = {**states, ins.target: state}
        if isinstance(ins, SampleTail):
            _check_tail(ins, len(state.subsystem_dims) // 2)
        elif isinstance(ins, Inject):
            widths[idx] = len(state.subsystem_dims) // 2
        table = tables.measurement(state, ins)
        # each member's outcome, drawn as `RngStream.draw` draws it
        ks = table.cdf.searchsorted(uniforms[row][members], side="right")
        for k, group in reversed(_split(ks, members)):
            stack.append((i + 1, group, states, (table, k)))

    _commit(mem, plan, shots, restored, results, created)
    # every shot injects the same programs, so its last injection's width
    return columns, widths[max(widths)] if widths else 0


def _commit(mem: MemoryUnit, plan: _Plan, shots, restored, results, created):
    """Write the copies the shot loop leaves. In each slot: the copies from
    before the call that no shot took, then what each shot but the last
    left below the next shot's fetches, then all the last shot left."""
    for address, f in plan.flows.items():
        left, taken = len(f.put), f.taken
        initial = f.initial or []
        below = len(initial) - taken - (shots - 1) * max(taken - left, 0)
        # every shot puts in the same copy under each token
        put = [restored[address] if t == _RESTORED else results[t] for t in f.put]
        final = initial[:below] + put[: max(left - taken, 0)] * (shots - 1) + put
        mem.replace_copies(address, final, program=restored.get(address), description=created.get(address))


# ---------------------------------------------------------------------------
# Controlled unknown gate
# ---------------------------------------------------------------------------


def controlled_unknown_channel(u: UnitaryOp, eigenstate: PureState, eigenvalue) -> KrausChannel:
    """Reduced control-target dynamics of CSWAP · (I ⊗ U on the ancilla) ·
    CSWAP on control ⊗ target ⊗ ancilla, with the ancilla in the eigenstate.

    The declared eigenpair pins the phase gauge of the black box: the
    circuit acts on control and target as controlled-(U/eigenvalue)
    exactly. Under control 0 the swaps do nothing and U acts on the
    ancilla; under control 1 the ancilla wire holds the target while U
    acts. So Kraus operator m, for ancilla outcome m, is the block
    diagonal of those two maps of |t⟩|φ⟩ onto ⟨m| of the ancilla.
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
    inputs = np.einsum("tb,a->tab", np.eye(d), eigenstate.amplitudes)  # |b⟩|φ⟩ as column b
    kraus = np.zeros((d, 2, d, 2, d), dtype=complex)  # [m, control, target, control, b]
    for control, wire in enumerate((1, 0)):
        out = apply_to_subsystems(inputs, (d, d, d), u.matrix, [wire]).reshape(d, d, d)
        kraus[:, control, :, control, :] = out.transpose(1, 0, 2)
    return KrausChannel(list(kraus.reshape(d, 2 * d, 2 * d)), tol=1e-9)


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
