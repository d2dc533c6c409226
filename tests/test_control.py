import gc
import json
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import RUS_BOUND_D2, comparable, never_heralded, per_shot_execute, spanning_pure_states
from qvn import control, gates, kernel, tailed, uqt
from qvn.control import (
    Compose,
    Inject,
    Readout,
    Restore,
    SampleTail,
    Schedule,
    controlled_unknown_channel,
    execute,
    ideal_controlled,
)
from qvn.cli import main, parse_run_file
from qvn.errors import (
    NotRestorableError,
    NumericalError,
    OutOfCopiesError,
    ParseError,
    SlotNotFoundError,
    StreamDerivationError,
    ValidationError,
)
from qvn.kernel import (
    DensityOperator,
    Observable,
    PureState,
    RngStream,
    UnitaryOp,
    apply_channel,
    haar_random_unitary,
    partial_trace_matrix,
    trace_distance,
)
from qvn.memory import GateRecord, MemoryUnit, ProgramDescription, synthesize
from qvn.text import format_complex_data
from qvn.uqt import ByproductStrategy, stored_program

DEMO_RUN = Path(__file__).resolve().parent.parent / "bench" / "inputs" / "demo.run"


def fresh_memory(copies=64):
    mem = MemoryUnit()
    a = mem.store(ProgramDescription("H", 1, (GateRecord(0, "H", (0,)),)), copies)
    b = mem.store(ProgramDescription("T", 1, (GateRecord(0, "T", (0,)),)), copies)
    return mem, a, b


def th_schedule(a, b, shots, seed=0):
    return Schedule(
        (
            Compose(a, b, ByproductStrategy.CORRECTION_TABLE, 10),
            Inject(10, "1"),
            Readout(10, Observable(gates.Z), "Z"),
        ),
        shots=shots,
        seed=seed,
    )


class TestScheduleValidation:
    def test_duplicate_dests_rejected(self):
        with pytest.raises(ValidationError):
            Schedule(
                (
                    Compose(0, 1, ByproductStrategy.CORRECTION_TABLE, 5),
                    Compose(0, 1, ByproductStrategy.CORRECTION_TABLE, 5),
                )
            )

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed >= 0, got -5"):
            Schedule((), seed=-5)

    def test_outcome_entries_bounded(self):
        # the README run file fits at MAX_SHOTS; restores keep no entries
        _, _, _, instructions = parse_run_file(DEMO_RUN.read_text())
        assert Schedule(tuple(instructions), shots=control.MAX_SHOTS).shots == control.MAX_SHOTS
        restores = (Restore(0, 1),) * 20
        draws = (Inject(0, "1"),) * 8
        assert Schedule(restores + draws, shots=control.MAX_SHOTS).shots == control.MAX_SHOTS
        with pytest.raises(ValidationError, match="limit is MAX_OUTCOME_ENTRIES = 8000000"):
            Schedule(restores + draws + (Readout(0, Observable(gates.Z), "Z"),), shots=control.MAX_SHOTS)

    def test_two_readouts_rejected(self):
        with pytest.raises(ValidationError):
            Schedule(
                (
                    Readout(0, Observable(gates.Z), "Z"),
                    Readout(0, Observable(gates.X), "X"),
                )
            )


class TestExecute:
    def test_th_demo_estimates_zero(self):
        # <1|(TH)† Z (TH)|1> = 0 by direct 2x2 arithmetic
        mem, a, b = fresh_memory(copies=400)
        result = execute(mem, th_schedule(a, b, shots=400, seed=3))
        assert result.estimate is not None
        assert abs(result.estimate) <= 4 * max(result.standard_error, 1e-12)
        assert result.n_p0 + result.n_p1 == 400
        assert result.audit_consistent

    def test_empty_schedule(self):
        mem, a, b = fresh_memory(2)
        result = execute(mem, Schedule((), shots=3))
        assert result.estimate is None
        assert result.outcomes == ()
        assert mem.copy_count(a) == 2

    def test_out_of_copies_carries_instruction_index(self):
        mem, a, b = fresh_memory(copies=1)
        sched = th_schedule(a, b, shots=2)
        with pytest.raises(OutOfCopiesError) as err:
            execute(mem, sched)
        assert "instruction 0" in str(err.value)

    def test_restore_keeps_schedule_alive(self):
        mem, a, b = fresh_memory(copies=1)
        sched = Schedule(
            (
                Restore(a, 1),
                Restore(b, 1),
                Compose(a, b, ByproductStrategy.CORRECTION_TABLE, 10),
                Inject(10, "1"),
                Readout(10, Observable(gates.Z), "Z"),
            ),
            shots=25,
            seed=1,
        )
        result = execute(mem, sched)
        assert result.shots == 25
        assert result.audit_consistent

    def test_reproducible(self):
        r1 = execute(fresh_memory(100)[0], th_schedule(0, 1, shots=100, seed=9))
        r2 = execute(fresh_memory(100)[0], th_schedule(0, 1, shots=100, seed=9))
        assert r1.estimate == r2.estimate
        assert all(np.array_equal(a, b) for a, b in zip(r1.outcomes, r2.outcomes, strict=True))

    def test_copy_accounting_matches_instruction_counts(self):
        mem, a, b = fresh_memory(copies=10)
        result = execute(mem, th_schedule(a, b, shots=4, seed=0))
        # each shot consumes one H, one T, and the composed copy
        assert result.copies_after[a] == 6
        assert result.copies_after[b] == 6
        assert result.copies_after[10] == 0

    @pytest.mark.parametrize("strategy", list(ByproductStrategy))
    def test_matches_oracle_across_stream_blocks(self, strategy):
        # 600 shots take their streams from three blocks of the derivation
        sched = Schedule(
            (
                Compose(0, 1, strategy, 10),
                Inject(10, "1"),
                Readout(10, Observable(gates.Z), "Z"),
            ),
            shots=600,
            seed=12,
        )
        assert sched.shots > 2 * kernel.SHOT_BLOCK
        got = execute(fresh_memory(600)[0], sched)
        assert comparable(got) == comparable(per_shot_execute(fresh_memory(600)[0], sched))

    def test_stream_drift_stops_before_sampling(self, monkeypatch):
        monkeypatch.setattr(kernel, "_PCG_MULT", kernel._PCG_MULT + 2)
        mem, a, b = fresh_memory(copies=3)
        with pytest.raises(StreamDerivationError):
            execute(mem, th_schedule(a, b, shots=3))
        assert (mem.copy_count(a), mem.copy_count(b)) == (3, 3)

    def test_output_drift_stops_before_sampling(self, monkeypatch):
        # PCG64's output without its rotation: the batched path's doubles
        # differ from numpy's, and the shot loop, which draws from numpy's
        # own generator, does not run in their place
        monkeypatch.setattr(kernel, "_xsl_rr", lambda hi, lo: hi ^ lo)
        tables = []
        monkeypatch.setattr(control, "_Tables", lambda: tables.append(None))
        mem, a, b = fresh_memory(copies=3)
        with pytest.raises(StreamDerivationError, match="shot 0 differ"):
            execute(mem, th_schedule(a, b, shots=3))
        assert tables == []
        assert (mem.copy_count(a), mem.copy_count(b)) == (3, 3)

    def test_unknown_instruction_rejected(self):
        mem, a, _ = fresh_memory(2)
        with pytest.raises(ValidationError, match="unknown instruction 'halt'"):
            execute(mem, Schedule((SampleTail(a, 0), "halt"), shots=2))

    def test_sample_tail_instruction(self):
        mem, a, _ = fresh_memory(4)
        sched = Schedule((SampleTail(a, 0),), shots=4, seed=5)
        result = execute(mem, sched)
        (bits,) = result.outcomes
        assert len(bits) == 4
        assert set(bits) <= {0, 1}


def chain_memory(n):
    """Slot 0: one copy of a Haar program without a description; slot 1:
    one copy of H on every wire."""
    mem = MemoryUnit()
    mem.store_copies([stored_program(haar_random_unitary(2**n, RngStream(5)))], address=0)
    gate_list = tuple(GateRecord(0, "H", (q,)) for q in range(n))
    mem.store(ProgramDescription("H", n, gate_list), 1, address=1)
    return mem


def mixed_memory(copies):
    """Slot 0: copies of H and T in turn, so shots take different programs;
    slot 1: copies of T."""
    mem, _, _ = fresh_memory(copies)
    h, t = mem.slots[0].program, mem.slots[1].program
    mem.replace_copies(0, [h, t] * (copies // 2))
    return mem


# a shot composes slot 0 with slot 1 back into slot 0: a new program every shot
CHAIN = (Restore(1, 1), Compose(0, 1, ByproductStrategy.CORRECTION_TABLE, 0))


class TestOutcomeTables:
    def test_demo_builds_one_program(self, monkeypatch):
        built = []
        counted = uqt.stored_program

        def counting(*args, **kwargs):
            built.append(1)
            return counted(*args, **kwargs)

        mem, a, b = fresh_memory(copies=200)
        monkeypatch.setattr(uqt, "stored_program", counting)
        result = execute(mem, th_schedule(a, b, shots=200, seed=4))
        assert result.n_p0 + result.n_p1 == 200
        assert len(built) == 1  # whichever of the d² = 4 Bell outcomes a shot draws

    def test_readout_diagonalizes_its_observable_once(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting(matrix):
            calls.append(1)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        mem, a, b = fresh_memory(copies=200)
        # its readout tables, one per injection branch, share one eigh
        execute(mem, th_schedule(a, b, shots=200, seed=4))
        assert len(calls) == 1

    def test_chain_matches_oracle(self):
        # slot 1's second copy is injected and read out after the compose
        zx = Readout(1, Observable(np.kron(gates.Z, gates.X)))
        sched = Schedule((Restore(1, 2), CHAIN[1], Inject(1), zx), shots=30, seed=2)
        mem, oracle_mem = chain_memory(2), chain_memory(2)
        assert comparable(execute(mem, sched)) == comparable(per_shot_execute(oracle_mem, sched))
        # the last program of the chain, made on shot 30
        last, oracle_last = mem.peek(0).op.matrix, oracle_mem.peek(0).op.matrix
        assert np.array_equal(last, oracle_last)

    def test_chain_memory_flat(self):
        # 2000 shots at n = 4 each make a program and its table. The tables go
        # with their programs, so the peak stays that of the per-shot oracle
        # plus one table (16 KiB bounds its 2·d² doubles and one composed
        # program), where keeping every table would add tens of MiB. A full
        # collection before each run empties the interpreter's free lists,
        # whose contents tracemalloc would count otherwise.
        sched = Schedule(CHAIN, shots=2000, seed=3)
        peaks = {}
        for executor in (per_shot_execute, execute):
            gc.collect()
            tracemalloc.start()
            try:
                executor(chain_memory(4), sched)
                peaks[executor] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[execute] <= peaks[per_shot_execute] + 16 * 1024

    def test_compose_column_memory(self):
        # a compose-only chain keeps one int entry a shot, and its column
        # leaves the run as the array it was written into, with no list or
        # tuple beside it: 20000 shots at n = 2 peak at 8.8 bytes an entry
        # above the start, where a copy of the column read 24.5
        shots = 20_000
        mem = chain_memory(2)
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = execute(mem, Schedule(CHAIN, shots=shots, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [column.size for column in result.outcomes] == [0, shots]
        assert peak - start <= 12 * shots

    def test_measured_chain_memory_bounded(self):
        # Each shot composes the program the shot before left in slot 0 into
        # slot 7 and injects it, so every shot measures a new program with
        # its own circuit state and injection table. A block of shots keeps
        # about MAX_RETAINED_ENTRIES entries of them, where keeping every
        # shot's would add about 20 KiB a shot (30 MiB here).
        n, shots = 4, 1500
        ct = ByproductStrategy.CORRECTION_TABLE
        sched = Schedule((Restore(1, 2), Compose(0, 1, ct, 7), Compose(0, 1, ct, 0), Inject(7)), shots=shots, seed=3)
        peaks = {}
        for executor in (per_shot_execute, execute):
            mem = chain_memory(n)
            mem.replace_copies(0, [mem.peek(0)] * (shots + 1))
            gc.collect()
            tracemalloc.start()
            try:
                executor(mem, sched)
                peaks[executor] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        kept = control.MAX_RETAINED_ENTRIES * np.dtype(complex).itemsize
        assert peaks[execute] <= peaks[per_shot_execute] + 2 * kept

    def test_run_freed_on_return(self):
        # a repeat-until-success draw refers to the run: the run and its
        # tables go when `execute` returns, not at a later collection
        mem, a, b = fresh_memory(copies=4)
        sched = Schedule((Compose(a, b, ByproductStrategy.REPEAT_UNTIL_SUCCESS, 10), Inject(10)), shots=4)
        gc.collect()
        gc.disable()
        try:
            execute(mem, sched)
            alive = [o for o in gc.get_objects() if isinstance(o, (control._Run, control._Tables))]
        finally:
            gc.enable()
        assert alive == []

    def test_described_chain_cost_flat(self):
        # With both slots described, each shot's program carries the
        # description of H followed by one T per shot so far. Composing
        # descriptions is O(1), so a shot costs the same at 2000 shots as
        # at 250; copying the gate list made it grow with the shot index.
        def run(shots):
            mem = MemoryUnit()
            mem.store(ProgramDescription("H", 1, (GateRecord(0, "H", (0,)),)), 1, address=0)
            mem.store(ProgramDescription("T", 1, (GateRecord(0, "T", (0,)),)), 1, address=1)
            sched = Schedule((Restore(1, 1), Compose(0, 1, ByproductStrategy.CORRECTION_TABLE, 0)), shots=shots, seed=3)
            start = time.perf_counter()
            execute(mem, sched)
            return (time.perf_counter() - start) / shots, mem.peek(0).description

        per_shot_250 = min(run(250)[0] for _ in range(3))
        per_shot_2000, last = min((run(2000) for _ in range(2)), key=lambda r: r[0])
        assert per_shot_2000 <= 2 * per_shot_250
        assert last.name == "H" + ";T" * 2000
        assert [g.time for g in last.gate_list] == list(range(2001))

    def test_wide_fresh_slot_memory_bounded(self):
        # Each shot composes the same two n = 6 programs into a fresh slot and
        # injects the result, which consumes it. Nearly every shot draws a new
        # one of the d² = 4096 Bell outcomes, and every outcome leaves the one
        # composed program; keeping a program, circuit state and injection
        # posts per outcome would add about 250 KiB a shot (38 MiB here). What
        # the tables keep stays within MAX_RETAINED_ENTRIES complex numbers,
        # plus the tables themselves.
        n, shots = 6, 150
        sched = Schedule((Compose(0, 1, ByproductStrategy.CORRECTION_TABLE, 2), Inject(2)), shots=shots, seed=3)
        peaks = {}
        for executor in (per_shot_execute, execute):
            mem = MemoryUnit()
            mem.store_copies([stored_program(haar_random_unitary(2**n, RngStream(5)))] * shots, address=0)
            mem.store(ProgramDescription("H", n, tuple(GateRecord(0, "H", (q,)) for q in range(n))), shots, address=1)
            gc.collect()
            tracemalloc.start()
            try:
                executor(mem, sched)
                peaks[executor] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        kept = control.MAX_RETAINED_ENTRIES * np.dtype(complex).itemsize
        assert peaks[execute] <= peaks[per_shot_execute] + kept + 256 * 1024


def readme_memory(slots):
    """A memory unit holding a run file's slots."""
    mem = MemoryUnit()
    for addr, copies, desc in slots:
        mem.store(desc, copies, address=addr)
    return mem


def copies_of(mem):
    """Each slot's copies, which compare by identity."""
    return {address: list(slot.copies) for address, slot in mem.slots.items()}


class TestPathSelection:
    """Schedules of every shape run one path: they give the outcomes, the
    estimate and the copies that running shot after shot gives, and raise
    its first error with memory as it was."""

    def test_readme_run_file_batches(self):
        shots, seed, slots, instructions = parse_run_file(DEMO_RUN.read_text())
        sched = Schedule(tuple(instructions), shots=shots, seed=seed)
        result = execute(readme_memory(slots), sched)
        assert result.n_p0 + result.n_p1 == shots
        assert comparable(result) == comparable(per_shot_execute(readme_memory(slots), sched))

    @pytest.mark.parametrize("strategy, repeats", [("correction_table", False), ("repeat_until_success", True)])
    def test_outcomes_give_the_estimate(self, strategy, repeats):
        # the README run file, and with a composition that repeats until
        # success: the estimate and the branch counts follow from the
        # outcome columns alone, the readout's split on the injection's
        text = DEMO_RUN.read_text().replace("strategy=correction_table", f"strategy={strategy}")
        shots, seed, slots, instructions = parse_run_file(text)
        result = execute(readme_memory(slots), Schedule(tuple(instructions), shots=shots, seed=seed))
        assert [len(column) for column in result.outcomes] == [0, 0, shots, shots, shots]
        rounds, branch, values = (np.array(column) for column in result.outcomes[2:])
        assert rounds.min() >= 1 and (rounds.max() > 1) == repeats
        direct, complement = values[branch == 1], values[branch == 0]
        trace_of_z = 0.0
        estimate = tailed.combine_branch_estimates(direct, complement, trace_of_z, 1)
        assert estimate == (result.estimate, result.standard_error)
        assert (result.n_p0, result.n_p1) == (complement.size, direct.size)

    def test_readme_run_file_builds_one_injection(self, monkeypatch):
        # every Bell outcome of a corrected composition leaves one program,
        # so one circuit state and one injection table serve all 200 shots,
        # and the shots that keep their composed copy keep that one object
        built = []

        class CountingInjection(tailed.Injection):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(tailed, "Injection", CountingInjection)
        text = DEMO_RUN.read_text()
        kept = text.replace("inject target=2 bits=1\n", "").replace("readout target=2 obs=Z\n", "")
        for run_file in (text, kept):
            shots, seed, slots, instructions = parse_run_file(run_file)
            mem = readme_memory(slots)
            execute(mem, Schedule(tuple(instructions), shots=shots, seed=seed))
        assert shots == 200 and len(built) == 1
        copies = mem.slots[2].copies
        assert len(copies) == 200 and all(c is copies[0] for c in copies)

    def test_readme_run_file_reads_two_of_three_draws(self, monkeypatch):
        # the compose draws the first double of each shot's stream and no
        # one reads it, so the inject's and the readout's alone are derived
        asked = []

        def spy(seed, shots, positions):
            asked.append(positions)
            return kernel.shot_uniforms(seed, shots, positions)

        monkeypatch.setattr(control, "shot_uniforms", spy)
        shots, seed, slots, instructions = parse_run_file(DEMO_RUN.read_text())
        sched = Schedule(tuple(instructions), shots=shots, seed=seed)
        spied = execute(readme_memory(slots), sched)
        assert asked == [(1, 2)]
        assert comparable(spied) == comparable(per_shot_execute(readme_memory(slots), sched))

    def test_restore_of_composed_slot_batches(self):
        # the README run file restoring the slot its compose creates: every
        # shot's restore copies the one program synthesized from the
        # composed program's description, as `MemoryUnit.restore` makes it,
        # and the inject takes that copy
        text = DEMO_RUN.read_text().replace("dest=2\n", "dest=2\nrestore addr=2 copies=1\n")
        shots, seed, slots, instructions = parse_run_file(text)
        assert Restore(2, 1) in instructions
        mem = readme_memory(slots)
        execute(mem, Schedule(tuple(instructions), shots=shots, seed=seed))
        slot = mem.slots[2]
        assert slot.description is not None and slot.program is not None
        assert slot.program.op.matrix.tobytes() == synthesize(slot.description).op.matrix.tobytes()
        assert len(slot.copies) == shots and all(c is not slot.program for c in slot.copies)

    def test_restore_of_undescribed_composed_slot_runs_loop(self):
        # a composition of programs without descriptions has none to restore
        mem = MemoryUnit()
        for address, gate in enumerate((gates.H, gates.T)):
            mem.store_copies([stored_program(gate)] * 2, address=address)
        before = copies_of(mem)
        sched = Schedule((Compose(0, 1, ByproductStrategy.CORRECTION_TABLE, 2), Restore(2, 1)), shots=2)
        with pytest.raises(NotRestorableError, match="slot 2 holds no classical description"):
            execute(mem, sched)
        assert copies_of(mem) == before

    def test_restore_of_missing_slot_runs_loop(self):
        # a restore of a slot that neither memory nor a compose of the call
        # holds
        mem, a, b = fresh_memory(copies=2)
        before = copies_of(mem)
        sched = Schedule((Compose(a, b, ByproductStrategy.CORRECTION_TABLE, 10), Restore(11, 1)), shots=2)
        with pytest.raises(SlotNotFoundError, match="no slot at address 11"):
            execute(mem, sched)
        assert copies_of(mem) == before

    def test_wide_fresh_slot_batches(self):
        # the schedule of test_wide_fresh_slot_memory_bounded
        n, shots = 6, 20
        mem = MemoryUnit()
        mem.store_copies([stored_program(haar_random_unitary(2**n, RngStream(5)))] * shots, address=0)
        mem.store(ProgramDescription("H", n, tuple(GateRecord(0, "H", (q,)) for q in range(n))), shots, address=1)
        execute(mem, Schedule((Compose(0, 1, ByproductStrategy.CORRECTION_TABLE, 2), Inject(2)), shots=shots, seed=3))
        assert mem.copy_count(2) == 0

    @pytest.mark.parametrize(
        "sched, mem",
        [
            (Schedule(CHAIN, shots=5, seed=3), lambda: chain_memory(2)),
            (Schedule((Compose(0, 1, ByproductStrategy.REPEAT_UNTIL_SUCCESS, 10), Inject(10, "1")), shots=5),
             lambda: fresh_memory(5)[0]),
            (Schedule((Compose(0, 1, ByproductStrategy.CORRECTION_TABLE, 10), Inject(10, "1")), shots=4),
             lambda: mixed_memory(4)),
            (Schedule((Inject(0, "1"), Inject(1), Readout(0, Observable(gates.X), "X")), shots=40, seed=3),
             lambda: fresh_memory(40)[0]),
            (Schedule((Inject(0, "1"), Readout(0, Observable(gates.X), "X"), Inject(1)), shots=40, seed=3),
             lambda: fresh_memory(40)[0]),
        ],
        ids=["chain", "repeat_until_success", "mixed_copies", "other_inject_between", "other_inject_after"],
    )
    def test_loop_schedules(self, sched, mem):
        # a chain, repeat-until-success and a slot of mixed copies, whose
        # shots take different programs or draw varying numbers of doubles,
        # and a readout with an inject of another slot beside its own
        ran, oracle = mem(), mem()
        assert comparable(execute(ran, sched)) == comparable(per_shot_execute(oracle, sched))
        assert {a: [c.op.matrix.tobytes() for c in copies] for a, copies in copies_of(ran).items()} == {
            a: [c.op.matrix.tobytes() for c in copies] for a, copies in copies_of(oracle).items()
        }

    @pytest.mark.parametrize("n, shots", [(1, kernel.SHOT_BLOCK + 5), (6, 20)])
    def test_blocks_of_shots_match_oracle(self, n, shots):
        # a chain whose every shot measures a new program, built and sampled
        # a block of shots at a time: SHOT_BLOCK shots at n = 1, 16 at n = 6;
        # its repeat-until-success compose draws at the stream cursor
        sched = Schedule(
            (Restore(1, 2), Compose(0, 1, ByproductStrategy.REPEAT_UNTIL_SUCCESS, 7),
             Compose(0, 1, ByproductStrategy.CORRECTION_TABLE, 0), Inject(7), SampleTail(7, 0)),
            shots=shots,
            seed=5,
        )
        ran, oracle = chain_memory(n), chain_memory(n)
        for mem in (ran, oracle):
            mem.replace_copies(0, [mem.peek(0)] * (shots + 1))
        assert comparable(execute(ran, sched)) == comparable(per_shot_execute(oracle, sched))
        assert [c.op.matrix.tobytes() for c in ran.slots[0].copies] == [
            c.op.matrix.tobytes() for c in oracle.slots[0].copies
        ]

    def test_failing_schedule_leaves_memory_untouched(self):
        # the third shot runs out of copies of slot a, after two shots
        # composed and restored
        mem, a, b = fresh_memory(copies=2)
        before = copies_of(mem)
        sched = Schedule((Restore(b, 1), Compose(a, b, ByproductStrategy.CORRECTION_TABLE, 10)), shots=3)
        with pytest.raises(OutOfCopiesError, match="instruction 1"):
            execute(mem, sched)
        assert copies_of(mem) == before

    def test_table_error_leaves_memory_untouched(self):
        # the tail index is out of range on the first shot, after its restore
        mem, a, _ = fresh_memory(copies=2)
        before = copies_of(mem)
        sched = Schedule((Restore(a, 1), SampleTail(a, 1)), shots=3)
        with pytest.raises(ValidationError, match="tail=1 is out of range"):
            execute(mem, sched)
        assert copies_of(mem) == before

    def test_copy_limit_at_a_later_shot(self):
        # each shot restores just over half of MAX_COPIES and takes one copy,
        # so the second shot's restore passes the limit; the error is the
        # per-shot executor's, and memory is as it was
        sched = Schedule((Restore(0, control.MAX_COPIES // 2 + 1), Inject(0)), shots=3)
        mem, oracle_mem = fresh_memory(copies=1)[0], fresh_memory(copies=1)[0]
        before = copies_of(mem)
        with pytest.raises(ValidationError) as err:
            execute(mem, sched)
        with pytest.raises(ValidationError) as oracle_err:
            per_shot_execute(oracle_mem, sched)
        assert str(err.value) == str(oracle_err.value)
        assert f"slot 0 would hold {control.MAX_COPIES + 2} live copies" in str(err.value)
        assert copies_of(mem) == before

    def test_repeat_until_success_bound_leaves_memory_untouched(self, monkeypatch):
        # no double heralds, so the first shot's composition reaches the
        # 64·d² bound at the stream cursor
        never_heralded(monkeypatch)
        mem, a, b = fresh_memory(copies=3)
        before = copies_of(mem)
        sched = Schedule((Compose(a, b, ByproductStrategy.REPEAT_UNTIL_SUCCESS, 10), Inject(10)), shots=3)
        with pytest.raises(NumericalError, match=re.escape(RUS_BOUND_D2)):
            execute(mem, sched)
        assert copies_of(mem) == before

    def test_full_destination_at_a_later_shot(self):
        # slot 0 is one copy short of MAX_COPIES, so the second shot's
        # compose into it passes the limit after its composition is drawn;
        # the error is the per-shot executor's, and memory is as it was
        sched = Schedule((Compose(1, 1, ByproductStrategy.CORRECTION_TABLE, 0),), shots=3)
        mem, oracle_mem = fresh_memory(copies=4)[0], fresh_memory(copies=4)[0]
        for m in (mem, oracle_mem):
            m.replace_copies(0, [m.peek(0)] * (control.MAX_COPIES - 1))
        before = copies_of(mem)
        with pytest.raises(ValidationError) as err:
            execute(mem, sched)
        with pytest.raises(ValidationError) as oracle_err:
            per_shot_execute(oracle_mem, sched)
        assert str(err.value) == str(oracle_err.value)
        assert f"slot 0 would hold {control.MAX_COPIES + 1} live copies" in str(err.value)
        assert copies_of(mem) == before

    def test_chain_failing_at_a_later_shot_leaves_memory_untouched(self):
        # slot 1 holds two copies, so the third shot of a chain finds it
        # empty; the programs the first two shots composed are not kept
        mem = chain_memory(2)
        mem.restore(1, 1)
        before = copies_of(mem)
        sched = Schedule((CHAIN[1],), shots=3, seed=3)
        with pytest.raises(OutOfCopiesError, match=r"instruction 0 \(Compose\): slot 1 has no copies left"):
            execute(mem, sched)
        assert copies_of(mem) == before


# Slot 0 holds H, injected with |1⟩ and read with X: ⟨1|H X H|1⟩ = −1, and
# the complement branch, H|0⟩ read and inverted, gives −1 too, so the
# estimate is exact; slot 1 holds T.
SPLIT_RUN = """run shots=4000 seed=3
slot addr=0 copies=4000
QVN1 name=H n=1
t=0 g=H q=0
endslot
slot addr=1 copies=4000
QVN1 name=T n=1
t=0 g=T q=0
endslot
schedule
{}
endschedule
"""


class TestReadoutSplit:
    """The readout is split on the last inject on its own target before it;
    an inject of another slot, or one after the readout, does not split it."""

    @pytest.mark.parametrize(
        "schedule",
        [
            "inject target=0 bits=1\ninject target=1\nreadout target=0 obs=X",
            "inject target=0 bits=1\nreadout target=0 obs=X\ninject target=1",
        ],
        ids=["other_inject_between", "other_inject_after"],
    )
    def test_injected_readout_is_exact(self, schedule, tmp_path, capsys):
        result, report = self.run(SPLIT_RUN.format(schedule), tmp_path, capsys)
        assert (result.estimate, result.standard_error) == (-1.0, 0.0)
        assert result.n_p0 > 0 and result.n_p1 > 0

    def test_readout_without_inject_on_its_target_is_direct(self, tmp_path, capsys):
        # X on H's output with its tails maximally mixed: tr(X)/2 = 0, every
        # value taken as read
        text = SPLIT_RUN.format("inject target=1\nreadout target=0 obs=X")
        result, report = self.run(text, tmp_path, capsys)
        assert (result.n_p0, result.n_p1) == (0, 4000)
        assert abs(result.estimate) <= 4 * result.standard_error

    @staticmethod
    def run(text, tmp_path, capsys):
        """The `execute` result of a run file and its `qvn run` report, which
        must agree."""
        shots, seed, slots, instructions = parse_run_file(text)
        result = execute(readme_memory(slots), Schedule(tuple(instructions), shots=shots, seed=seed))
        path = tmp_path / "split.run"
        path.write_text(text)
        assert main(["run", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)["canonical"]
        assert (report["estimate"], report["standard_error"]) == (result.estimate, result.standard_error)
        assert report["branches"] == {"P0": result.n_p0, "P1": result.n_p1}
        return result, report


def controlled_unknown(u: UnitaryOp) -> np.ndarray:
    """The dense 2d²×2d² circuit CSWAP · (I ⊗ U on the ancilla) · CSWAP on
    control ⊗ target ⊗ ancilla."""
    d = u.dim
    swap = np.eye(d * d)[np.arange(d * d).reshape(d, d).T.reshape(-1)]  # |a⟩|b⟩ -> |b⟩|a⟩
    cswap = np.kron(gates.P0, np.eye(d * d)) + np.kron(gates.P1, swap)
    return cswap @ np.kron(np.eye(2 * d, dtype=complex), u.matrix) @ cswap


def controlled_unknown_mixed_output(u: UnitaryOp, rho_ct: DensityOperator) -> DensityOperator:
    """Reduced control-target output of the `controlled_unknown` circuit
    with a completely mixed ancilla (the damped variant), by the dense
    2d³×2d³ circuit: coherence between the control branches shrinks by
    tr(U)/d."""
    d = u.dim
    circuit = controlled_unknown(u)
    full_in = np.kron(rho_ct.matrix, np.eye(d) / d)
    full_out = circuit @ full_in @ circuit.conj().T
    red = partial_trace_matrix(full_out, (2, d, d), [0, 1])
    return DensityOperator(red, (2, d))


class TestControlledUnknown:
    def test_z_with_plus_control(self):
        u = UnitaryOp(gates.Z)
        eig = PureState([1, 0])
        channel = controlled_unknown_channel(u, eig, 1.0)
        plus = np.array([1, 1]) / np.sqrt(2)
        psi = np.kron(plus, np.array([1, 0]))
        rho = DensityOperator(np.outer(psi, psi.conj()))
        out = apply_channel(channel, rho)
        ideal = ideal_controlled(u, 1.0).matrix
        expected = DensityOperator(ideal @ rho.matrix @ ideal.conj().T)
        assert trace_distance(out, expected) < 1e-10

    def test_identity_acts_trivially(self, rng):
        u = UnitaryOp(np.eye(2))
        channel = controlled_unknown_channel(u, PureState([0, 1]), 1.0)
        for vec in spanning_pure_states(4):
            rho = DensityOperator(np.outer(vec, vec.conj()))
            assert trace_distance(apply_channel(channel, rho), rho) < 1e-10

    def test_t_gate_eleven_phase(self):
        u = UnitaryOp(gates.T)
        channel = controlled_unknown_channel(u, PureState([1, 0]), 1.0)
        psi = np.array([0, 0, 0, 1], dtype=complex)  # |11>
        plus = np.ones(4, dtype=complex) / 2
        rho = DensityOperator(np.outer(plus, plus.conj()))
        out = apply_channel(channel, rho)
        ct = ideal_controlled(u, 1.0).matrix
        expected = ct @ rho.matrix @ ct.conj().T
        assert np.abs(out.matrix - expected).max() < 1e-10
        # the |11> column picked up exactly e^{iπ/4}
        assert abs(out.matrix[3, 0] / rho.matrix[3, 0] - np.exp(1j * np.pi / 4)) < 1e-10

    def test_random_diagonal_in_known_basis(self, rng):
        v = haar_random_unitary(3, rng)
        phases = np.exp(1j * rng.uniforms(3) * 2 * np.pi)
        u = UnitaryOp(v.matrix @ np.diag(phases) @ v.matrix.conj().T)
        eig = PureState(v.matrix[:, 0])
        channel = controlled_unknown_channel(u, eig, phases[0])
        ideal = ideal_controlled(u, phases[0]).matrix
        worst = 0.0
        for vec in spanning_pure_states(6):
            rho = DensityOperator(np.outer(vec, vec.conj()))
            out = apply_channel(channel, rho)
            expected = DensityOperator(ideal @ rho.matrix @ ideal.conj().T)
            worst = max(worst, trace_distance(out, expected))
        assert worst < 1e-9

    def test_gauge_fixing(self):
        # declaring eigenvalue -1 for Z with eigenstate |1> pins CU to C(-Z)
        u = UnitaryOp(gates.Z)
        channel = controlled_unknown_channel(u, PureState([0, 1]), -1.0)
        ideal = ideal_controlled(u, -1.0).matrix
        for vec in spanning_pure_states(4):
            rho = DensityOperator(np.outer(vec, vec.conj()))
            out = apply_channel(channel, rho)
            expected = DensityOperator(ideal @ rho.matrix @ ideal.conj().T)
            assert trace_distance(out, expected) < 1e-10

    def test_bad_eigenstate_rejected(self):
        with pytest.raises(ValidationError):
            controlled_unknown_channel(UnitaryOp(gates.Z), PureState(np.array([1, 1]) / np.sqrt(2)), 1.0)

    def test_circuit_is_unitary_and_ancilla_free_form(self):
        circuit = controlled_unknown(UnitaryOp(gates.T))
        assert circuit.shape == (8, 8)
        assert np.abs(circuit.conj().T @ circuit - np.eye(8)).max() < 1e-10

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_kraus_match_dense_circuit(self, d):
        # Kraus operator m is ⟨m| of the ancilla of the circuit on |·⟩|φ⟩
        rng = RngStream(40 + d)
        v = haar_random_unitary(d, rng)
        phases = np.exp(2j * np.pi * rng.uniforms(d))
        u = UnitaryOp(v.matrix @ np.diag(phases) @ v.matrix.conj().T)
        phi = v.matrix[:, 0]
        channel = controlled_unknown_channel(u, PureState(phi), phases[0])
        dense = np.einsum("amby,y->mab", controlled_unknown(u).reshape(2 * d, d, 2 * d, d), phi)
        assert len(channel.kraus_ops) == d
        assert np.abs(np.stack(channel.kraus_ops) - dense).max() < 1e-12

    def test_mixed_ancilla_damps_coherence(self):
        # with the completely mixed ancilla the control coherence picks up
        # the factor tr(U)/d, so Z fully dephases the control
        plus = np.array([1, 1]) / np.sqrt(2)
        psi = np.kron(plus, np.array([1, 0]))
        rho = DensityOperator(np.outer(psi, psi.conj()), (2, 2))
        out = controlled_unknown_mixed_output(UnitaryOp(gates.Z), rho)
        expected = np.kron(np.eye(2) / 2, np.diag([1.0, 0.0]))
        assert np.abs(out.matrix - expected).max() < 1e-10


class TestScheduleText:
    """Schedule lines as a run file's schedule block holds them."""

    def test_custom_observable_round_trip(self):
        obs = Observable((gates.Z + gates.X) / np.sqrt(2))
        data = format_complex_data(obs.matrix)
        (back,) = parse_run_file(schedule_block(f"readout target=0 obs=custom rows=2 data={data}"))[3]
        assert back.label == "custom"
        assert np.array_equal(back.observable.matrix, obs.matrix)

    def test_unknown_verb(self):
        with pytest.raises(ParseError, match="unknown instruction verb 'teleport'"):
            parse_run_file(schedule_block("teleport target=0"))

    def test_bad_strategy_named(self):
        with pytest.raises(ParseError) as err:
            parse_run_file(schedule_block("compose a=0 b=1 strategy=magic dest=2"))
        assert "magic" in str(err.value)


def schedule_block(*instructions):
    return "\n".join(["run shots=1", "schedule", *instructions, "endschedule"]) + "\n"
