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
from .errors import OutOfCopiesError, QvnError, ValidationError
from .kernel import (
    DEFAULT_TOL,
    SHOT_BLOCK,
    KrausChannel,
    Observable,
    OutcomeTable,
    PureState,
    Retention,
    UnitaryOp,
    apply_to_subsystems,
    shot_uniforms,
)
from .memory import MAX_COPIES, MAX_QUBITS, MemoryUnit, check_live_copies, check_restore, synthesize
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
# but restores. A run peaks at 9 (a compose-only chain) to 31 bytes an entry
# above its start (26 for the README run file; a lone measurement, whose
# per-shot arrays fall on its one entry a shot, reads 48), plus what one
# block of shots keeps (see `_Run.size`; about 5 MB for a chain at n = 4 or
# 6), so at most about 260 MB at the limit; the README run file keeps three
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


@dataclass(frozen=True, eq=False)
class ExecutionResult:
    estimate: float | None
    standard_error: float | None
    shots: int
    n_p0: int
    n_p1: int
    # one array per schedule instruction, one entry per shot: a compose's
    # Bell rounds, an inject's branch and a sampletail's bit as ints, a
    # readout's value as a float; empty for a restore. The estimate comes
    # from these alone: the readout's split on the last inject on its target.
    outcomes: tuple[np.ndarray, ...]
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
    states are keys held weakly, so a table goes when its inputs go. The
    post states and values the measurement tables keep for later draws
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
        `state`, made once; a tail out of range raises each time."""
        tables = self._measurements.setdefault(state, {})
        table = tables.get(ins)
        if table is None:
            n = len(state.subsystem_dims) // 2
            if isinstance(ins, Inject):
                table = tailed.Injection(state, InjectionSpec(tuple(range(n)), ins.bits), keep=self.keep)
            elif isinstance(ins, Readout):
                table = tailed.readout_outcomes(state, ReadoutSpec(ins.observable, tuple(range(n))), self.keep)
            elif 0 <= ins.tail < n:
                table = tailed.tail_outcomes(state, n + ins.tail, self.keep)
            else:
                raise ValidationError(
                    f"sampletail tail={ins.tail} is out of range: the program at address "
                    f"{ins.target} has {n} tails (0..{n - 1})"
                )
            tables[ins] = table
        return table


def execute(mem: MemoryUnit, sched: Schedule) -> ExecutionResult:
    """Run the schedule once per shot, mutating memory, and aggregate.

    Each shot draws from its own stream, that of `RngStream(seed,
    stream_id=shot)`, fetches and restores copies as the schedule says,
    and samples each instruction from its exact outcome table (see
    `_Tables`), which this call builds once per distinct input. The
    outcomes, the copies left and the first error raised are those of
    running every instruction's one-shot kernel afresh, shot after shot.

    Every schedule runs one way, a block of shots at a time (`_Run`), and
    memory is written only when nothing fails. Streams that differ from
    numpy's (`StreamDerivationError`) stop the call before any measurement
    is sampled. A schedule past MAX_OUTCOME_ENTRIES is refused when made.
    """
    run = _Run(mem, sched)
    # a cursor's draw refers to the run, so the entries stay off it and the
    # run, with its tables, goes when the call returns
    reads = tuple(r if isinstance(r, int) else (r[0], run.rounds(r[1])) for r in run.reads)
    repeating = any(isinstance(r, tuple) for r in reads)
    for start in range(0, run.shots, run.size):
        if start > run.stop[0]:
            break
        block = range(start, min(start + run.size, run.shots))
        # a run that repeats until success draws its rounds from what each
        # shot composes; any other derives its doubles first, so that
        # streams that differ from numpy's stop it before any table is built
        if repeating:
            run.evaluate(block)
        uniforms = shot_uniforms(sched.seed, block, reads)
        if not repeating:
            run.evaluate(block)
        run.sample(block, uniforms.T)
        del uniforms  # before the next block's, and the result's columns
    if run.stop[2] is not None:
        raise run.stop[2]
    run.commit()
    return run.result()


# ---------------------------------------------------------------------------
# The copy flow and the run
# ---------------------------------------------------------------------------

# The token of a restored copy in `_Flow.put`; any other token is the index
# of the compose instruction whose result the copy is.
_RESTORED = -1
_REPEAT = ByproductStrategy.REPEAT_UNTIL_SUCCESS


class _Flow:
    """What a shot does to one slot, the same in every shot: `put` holds the
    tokens of the copies it put in and has not fetched, bottom first, and
    `taken` counts those it fetched from below them; `start` copies lie
    below them when it starts, and `peak` is the most it holds above those.
    `initial` is the slot's list of copies before the call, empty for a slot
    the call creates."""

    def __init__(self, slot, start):
        self.initial = [] if slot is None else slot.copies
        self.start = len(self.initial) if start is None else start
        self.put = []
        self.taken = 0
        self.peak = 0

    def push(self, address, tokens):
        self.put.extend(tokens)
        self.peak = max(self.peak, len(self.put) - self.taken)
        if self.start + self.peak > MAX_COPIES:
            check_live_copies(f"slot {address}", self.start + len(self.put) - self.taken)

    def earlier(self, j):
        """The token later shots' j-th fetch from below takes, or None."""
        return self.put[-j] if j <= len(self.put) else None

    def below(self, shot):
        """`start` of shot `shot`, from the first shot's flow."""
        return len(self.initial) + shot * (len(self.put) - self.taken)

    def untaken(self, shots):
        """The copies from before the call that none of the first `shots`
        shots takes, at the bottom of the slot."""
        return max(min(self.start, self.below(shots - 1)) - self.taken, 0)

    def failing(self):
        """The first later shot to find no copy below its own or pass MAX_COPIES."""
        moved = len(self.put) - self.taken
        if moved == 0:
            return math.inf
        return ((self.taken if moved < 0 else MAX_COPIES - self.peak) - self.start) // moved + 1


def _walk(mem: MemoryUnit, sched: Schedule, shot, below):
    """Shot `shot` on tokens, `below` (address -> count, else the count before
    the call) copies lying below its own in each slot when it starts.
    Returns (steps, reads, flows, restores, stop), stopped at the first copy
    that fails with the memory unit's error, as `_Run.stop` holds it. A step
    is (instruction index, instruction, source(s), row), a source (address,
    token, 0) for a copy the shot put in itself, (address, None, j) for the
    j-th it took from below its own, or None for a loaded target. A
    measurement's row indexes its double among `reads`, the `shot_uniforms`
    entries: each measurement's stream position, and (position, step) for a
    repeat-until-success compose, after which positions count afresh."""
    flows = {}
    steps = []
    reads = []
    loaded = set()
    restores = set()
    described = {address: slot.description is not None for address, slot in mem.slots.items()}
    composed = {}  # compose index -> whether the first shot's program has a description
    draws = 0  # doubles drawn since the last repeated compose
    rows = 0  # reads of measurements so far

    def flow(address):
        if address not in described:
            mem.copy_count(address)  # raises SlotNotFoundError
        if address not in flows:
            flows[address] = _Flow(mem.slots.get(address), below.get(address))
        return flows[address]

    def fetch(address):
        f = flow(address)
        if f.put:
            return address, f.put.pop(), 0
        if f.taken == f.start:
            message = f"instruction {idx} ({type(ins).__name__}): {OutOfCopiesError(address)}"
            raise OutOfCopiesError(address, message)
        f.taken += 1
        return address, None, f.taken

    def has_description(src):
        address, token, j = src
        if j:
            return flows[address].initial[-j].description is not None
        return token == _RESTORED or composed[token]

    try:
        for idx, ins in enumerate(sched.instructions):
            at = idx
            if isinstance(ins, Compose):
                sources = (fetch(ins.addr1), fetch(ins.addr2))
                composed[idx] = shot > 0 or all(map(has_description, sources))
                described.setdefault(ins.dest, composed[idx])  # a slot it creates
                steps.append((idx, ins, sources, None))
                if ins.strategy is _REPEAT:
                    reads.append((draws, len(steps) - 1))
                    draws = 0
                else:
                    draws += 2 if ins.strategy is ByproductStrategy.SYMMETRIC_PAIR else 1
                at = idx + 1  # a full destination fails after the composition's draws
                flow(ins.dest).push(ins.dest, [idx])
            elif isinstance(ins, (Inject, Readout, SampleTail)):
                source = None
                if ins.target not in loaded:
                    source = fetch(ins.target)
                    loaded.add(ins.target)
                steps.append((idx, ins, source, rows))
                reads.append(draws)
                draws += 1
                rows += 1
            elif isinstance(ins, Restore):
                f = flow(ins.addr)
                check_restore(ins.addr, ins.copies, described[ins.addr])
                f.push(ins.addr, [_RESTORED] * ins.copies)
                restores.add(ins.addr)
            else:
                raise ValidationError(f"unknown instruction {ins!r}")
    except QvnError as exc:
        return steps, reads, flows, restores, (shot, at, exc)
    return steps, reads, flows, restores, None


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


class _Run:
    """One `execute` call. Copy counts do not depend on outcomes and every
    shot moves copies the same way, so the first shot's walk (`_walk`) gives
    every shot's fetches: below a shot's own copies lie the slot's copies
    before the call less what earlier shots took plus what they left. The
    first later shot to fail in memory follows from that flow, and is
    walked to raise its error.

    `stop` is the first error met, (shot, position, error): that shot runs
    the tables and draws of the instructions before `position` and no later
    shot runs; (shots, 0, None) while none is. A table or draw that fails
    stops its shot at its own instruction, a destination past MAX_COPIES
    just after its compose.

    A run is uniform when each fetch takes one program object in every
    shot: it is one block of shots, whose first shot's programs, built
    alone, stand for all of them (`reps`). Any other run builds and samples
    `size` shots at a time, so what a block's shots make goes before the
    next block's: as many, at most SHOT_BLOCK, as keep about
    MAX_RETAINED_ENTRIES entries at 4·d² a shot (a program, its circuit
    state and tables), with d the largest dimension of the programs the
    first shot takes."""

    def __init__(self, mem: MemoryUnit, sched: Schedule):
        self.mem = mem
        self.sched = sched
        self.steps, self.reads, self.flows, self.restores, stop = _walk(mem, sched, 0, {})
        if stop is None:
            shot = min((f.failing() for f in self.flows.values()), default=math.inf)
            if shot < sched.shots:
                stop = _walk(mem, sched, shot, {address: f.below(shot) for address, f in self.flows.items()})[4]
        self.stop = stop or (sched.shots, 0, None)
        self.shots = min(self.stop[0] + 1, sched.shots)
        uniform = True
        self.kept = {}  # address -> the tokens each shot leaves below later shots' fetches
        for address, f in self.flows.items():
            cut = max(len(f.put) - f.taken, 0)
            if cut:
                self.kept[address] = f.put[:cut]
            if f.taken:
                # the tokens later shots take from the shot before, and the
                # programs the shots take from below their own
                reached = f.put[cut:]
                programs = f.initial[f.untaken(self.shots) :]
                if reached:
                    programs.append(mem.slots[address].program)
                uniform &= all(t == _RESTORED for t in reached) and all(p is programs[0] for p in programs)
        self.reps = self.shots if uniform else 1
        self.size = self.shots
        self.chained = set()
        if not uniform:
            d = max([f.initial[-1].d for f in self.flows.values() if f.initial and f.taken], default=2)
            for address in self.restores & mem.slots.keys():
                d = max(d, 2 ** mem.slots[address].description.n)
            self.size = min(SHOT_BLOCK, max(1, MAX_RETAINED_ENTRIES // (4 * d**2)))
            # the composes that take a program the shot before composed: their
            # compositions stay out of the tables, where each would keep the next
            self.chained = {
                i for i, (_, ins, src, _) in enumerate(self.steps) if isinstance(ins, Compose)
                and any(j and self.flows[a].earlier(j) not in (None, _RESTORED) for a, _, j in src)
            }
        self.restored = {}  # address -> the program its restores copy
        self.created = {}  # address -> the description of a slot a compose creates
        self.left = {address: [] for address in self.flows}  # what the shots leave below later ones
        self.now = {}  # compose index -> the program the shot last built made
        # an entry per shot for each instruction but a restore, written where
        # it is drawn: a compose's Bell rounds, a measurement's outcome
        self.columns = [
            np.empty(0 if isinstance(ins, Restore) else sched.shots, float if isinstance(ins, Readout) else int)
            for ins in sched.instructions
        ]

    def fail(self, shot, position, exc):
        if (shot, position) < self.stop[:2]:
            self.stop = (shot, position, exc)

    def cutoff(self, idx):
        """The shots below this one reach instruction idx's table and draws."""
        return self.stop[0] + (idx < self.stop[1])

    def program(self, src, shot, prev):
        """The program shot `shot` fetches from `src`, given the programs the
        shot before made (`prev`) and those it made so far (`now`)."""
        address, token, j = src
        made = self.now
        if j:  # the j-th copy from below the shot's own
            f = self.flows[address]
            token = f.earlier(j)
            if shot == 0 or token is None:  # a copy from before the call
                return f.initial[f.below(shot) - j]
            made = prev
        return self.restored[address] if token == _RESTORED else made[token]

    def copies(self, address, tokens):
        return [self.restored[address] if t == _RESTORED else self.now[t] for t in tokens]

    def evaluate(self, block):
        """Build what the shots of `block` fetch, shot after shot, as a
        chain's compositions take programs the shot before made; they need
        no draws. A uniform run builds its first shot's alone, which stand
        for every shot of the block. `built` keeps, per step and built
        shot, what sampling reads: the program a measurement fetches, the
        composition a repeated compose draws from. The first block also
        makes the tables and the programs restores copy."""
        if block.start == 0:
            self.tables = _Tables()
            for address in self.restores & self.mem.slots.keys():
                slot = self.mem.slots[address]
                self.restored[address] = slot.program or synthesize(slot.description)
        self.block = block
        self.built = {i: [] for i, step in enumerate(self.steps) if step[2] is not None}
        for shot in block[:: self.reps]:
            prev = self.now
            self.now = {}
            for i, (idx, ins, src, _) in enumerate(self.steps):
                if src is None or shot >= self.cutoff(idx):
                    continue
                if not isinstance(ins, Compose):
                    self.built[i].append(self.program(src, shot, prev))
                    continue
                programs = [self.program(s, shot, prev) for s in src]
                try:
                    if i in self.chained:
                        table = uqt.Composition(*programs, ins.strategy)
                    else:
                        table = self.tables.composition(*programs, ins)
                except QvnError as exc:
                    self.fail(shot, idx, exc)
                    continue
                self.now[idx] = table.program
                if ins.strategy is _REPEAT:
                    self.built[i].append(table)
                if shot == 0 and ins.dest not in self.mem.slots:  # the compose creates the slot
                    self.created[ins.dest] = table.program.description
                    if ins.dest in self.restores:
                        self.restored[ins.dest] = synthesize(table.program.description)
                del table  # before the next shot's is built
            if shot < self.stop[0]:
                for address, tokens in self.kept.items():
                    self.left[address] += self.copies(address, tokens) * self.reps

    def rounds(self, step):
        """The draw of repeat-until-success compose `step` at the stream
        cursor: each shot's Bell rounds, drawn by `uqt._draw_round` where
        its stream stands, from the composition built for it."""
        idx = self.steps[step][0]

        def draw(rng):
            shot = rng.stream_id
            if shot < self.cutoff(idx):
                table = self.built[step][(shot - self.block.start) // self.reps]
                try:
                    self.columns[idx][shot] = uqt._draw_round(table.cdfs[0], table.program.d, True, rng)[1]
                except QvnError as exc:
                    self.fail(shot, idx, exc)

        return draw

    def sample(self, block, uniforms):
        """Sample the measurements of the shots of `block`, once what they
        fetch is built, `uniforms` holding one row of doubles per read and
        one column per shot. The block's shots start as one group; each
        measurement splits a group by the program it loads, samples its
        table for each part with one `searchsorted` and, but for a readout,
        which leaves its target as it was, splits it by outcome. Groups run
        depth first: an outcome's result is built, every later instruction
        runs for its group, and it is dropped before the next outcome's, so
        beside what the tables keep at most one result per instruction is
        alive. A group whose table or result fails stops, its first shot's
        error noted."""
        start = block.start
        # the block's part of each column, indexed by shot - start
        columns = [c[start : block.stop] for c in self.columns] if start else self.columns
        stack = [(0, np.arange(len(block)), {}, None)]  # with a group's states by address
        while stack:
            i, members, states, drawn = stack.pop()
            if drawn is not None:  # the group's outcome of step i - 1
                table, k = drawn
                idx, ins = self.steps[i - 1][:2]
                try:
                    result = table.result(k)
                except QvnError as exc:
                    self.fail(start + int(members[0]), idx, exc)
                    continue
                # an inject's branch or a tail's bit, with the post state
                columns[idx][members] = k
                states = {**states, ins.target: result[1] if isinstance(ins, Inject) else result}
            if i == len(self.steps):
                continue
            idx, ins, src, row = self.steps[i]
            if self.stop[2] is not None and start + members[-1] >= self.cutoff(idx):
                members = members[members < self.cutoff(idx) - start]
                if not members.size:
                    continue
            if isinstance(ins, Compose):  # its program is built, and it draws one round
                if ins.strategy is not _REPEAT:  # or its rounds at the stream cursor
                    columns[idx][members] = 1
                stack.append((i + 1, members, states, None))
                continue
            # the parts of the group that load one state: its target's, or
            # one per program fetched, in the order of their first members
            programs = self.built[i] if src else [None]
            parts = [(programs[0], members)]
            if len(programs) > 1:
                index = {}
                keys = np.array([index.setdefault(programs[m], len(index)) for m in members.tolist()])
                parts = [(list(index)[key], group) for key, group in _split(keys, members)]
            for program, group in parts:
                try:
                    state = states[ins.target] if program is None else self.tables.state(program)
                    table = self.tables.measurement(state, ins)
                except QvnError as exc:
                    self.fail(start + int(group[0]), idx, exc)
                    continue
                # each member's outcome, drawn as `RngStream.draw` draws it
                ks = table.cdf.searchsorted(uniforms[row][group], side="right")
                loaded = states if program is None else {**states, ins.target: state}
                if isinstance(ins, Readout):  # the values drawn; it leaves its target
                    values = np.zeros(table.cdf.size)
                    for k in np.flatnonzero(np.bincount(ks)).tolist():
                        values[k] = table.result(k)
                    columns[idx][group] = values[ks]
                    stack.append((i + 1, group, loaded, None))
                    continue
                for k, outcome in reversed(_split(ks, group)):
                    stack.append((i + 1, outcome, loaded, (table, k)))

    def commit(self):
        """Write, through `MemoryUnit.replace_copies`, the copies running shot
        after shot leaves in each slot: those from before the call that no
        shot took, what each shot left below later shots' fetches, then the
        rest of what the last shot left."""
        for address, f in self.flows.items():
            last = self.copies(address, f.put[len(self.kept.get(address, ())) :])
            final = f.initial[: f.untaken(self.shots)] + self.left[address] + last
            self.mem.replace_copies(address, final, self.restored.get(address), self.created.get(address))

    def result(self) -> ExecutionResult:
        """The result of the run, from its columns. The readout column is
        split on the column of the last inject on the readout's target
        before it: the values of shots that took P0 estimate through the
        complement, tr(O) − (2^n − 1)·mean with n that inject's tails, the
        rest (all, with no such inject) directly, and
        `tailed.combine_branch_estimates` combines the two, as in
        `tailed.run_algorithm`. A schedule without a readout has no
        estimate."""
        instructions = self.sched.instructions
        estimate = standard_error = None
        direct = complement = ()
        for r, readout in enumerate(instructions):
            if isinstance(readout, Readout):
                target = readout.target
                on = [i for i, ins in enumerate(instructions[:r]) if isinstance(ins, Inject) and ins.target == target]
                values = self.columns[r]
                branches = self.columns[on[-1]] if on else np.ones(values.size, int)
                direct, complement = values[branches == 1], values[branches == 0]
                # the inject and the readout measure one state, whose tails the observable spans
                estimate, standard_error = tailed.combine_branch_estimates(
                    direct, complement, readout.observable.trace, readout.observable.dim.bit_length() - 1
                )
        return ExecutionResult(
            estimate=estimate,
            standard_error=standard_error,
            shots=self.sched.shots,
            n_p0=len(complement),
            n_p1=len(direct),
            outcomes=tuple(self.columns),
            copies_after={addr: len(slot.copies) for addr, slot in self.mem.slots.items()},
            audit_consistent=self.mem.verify_conservation(),
        )


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
