import numpy as np
import pytest

from qvn import gates, memory
from qvn.duality import bell_state, choi_of_unitary
from qvn.errors import (
    NotRestorableError,
    OutOfCopiesError,
    ParseError,
    SlotNotFoundError,
    ValidationError,
)
from qvn.kernel import RngStream, UnitaryOp, apply_to_subsystems, haar_random_unitary
from qvn.memory import (
    GateRecord,
    MemoryUnit,
    ProgramDescription,
    deserialize,
    serialize,
    synthesize,
)
from qvn.uqt import ByproductStrategy, compose


def desc_h():
    return ProgramDescription("H", 1, (GateRecord(0, "H", (0,)),))


def desc_th():
    return ProgramDescription(
        "TH", 1, (GateRecord(0, "H", (0,)), GateRecord(1, "T", (0,)))
    )


class TestDescription:
    def test_empty_gate_list_is_identity(self):
        desc = ProgramDescription("id2", 2)
        assert np.abs(desc.unitary() - np.eye(4)).max() < 1e-14

    def test_ordered_product(self):
        # H then T on the same wire: U = T·H by direct 2x2 arithmetic
        assert np.abs(desc_th().unitary() - gates.T @ gates.H).max() < 1e-14

    def test_network_matches_dense_oracle(self):
        desc = ProgramDescription(
            "net",
            2,
            (
                GateRecord(0, "H", (0,)),
                GateRecord(0, "T", (1,)),
                GateRecord(1, "CZ", (0, 1)),
            ),
        )
        dense = gates.CZ @ np.kron(gates.H, gates.T)
        assert np.abs(desc.unitary() - dense).max() < 1e-12

    def test_cx_wire_order(self):
        desc = ProgramDescription("cx", 2, (GateRecord(0, "CX", (1, 0)),))
        # control on wire 1, target on wire 0
        swapped = gates.SWAP @ gates.CX @ gates.SWAP
        assert np.abs(desc.unitary() - swapped).max() < 1e-12

    @pytest.mark.parametrize("tag", sorted(gates.GATE_MATRICES))
    def test_named_gate_is_unitary(self, tag):
        # parsers take the named gates unchecked
        UnitaryOp(gates.GATE_MATRICES[tag])

    def test_time_slots_must_be_nondecreasing(self):
        with pytest.raises(ValidationError):
            ProgramDescription(
                "bad", 1, (GateRecord(1, "H", (0,)), GateRecord(0, "T", (0,)))
            )

    def test_targets_in_range(self):
        with pytest.raises(ValidationError):
            ProgramDescription("bad", 1, (GateRecord(0, "CX", (0, 1)),))

    def test_name_without_spaces(self):
        with pytest.raises(ValidationError):
            ProgramDescription("two words", 1)

    def test_then_concatenates(self):
        combined = desc_h().then(
            ProgramDescription("T", 1, (GateRecord(0, "T", (0,)),))
        )
        assert np.abs(combined.unitary() - gates.T @ gates.H).max() < 1e-14

    def test_deep_chain_flattens_without_recursion(self):
        # a chain composing into its own slot nests one `then` per shot
        t = ProgramDescription("T", 1, (GateRecord(0, "T", (0,)),))
        chain = desc_h()
        for _ in range(5000):
            chain = chain.then(t)
        assert chain.name == "H" + ";T" * 5000
        assert [g.time for g in chain.gate_list] == list(range(5001))
        assert serialize(chain).count("\n") == 5002

    def test_then_keeps_time_slots_ordered(self):
        # a later circuit starting below slot -1 would land before the last gate
        early = ProgramDescription("E", 1, (GateRecord(-2, "X", (0,)),))
        with pytest.raises(ValidationError, match="nondecreasing"):
            desc_h().then(early)
        assert ProgramDescription("I", 1).then(early).gate_list == early.gate_list


class TestSynthesize:
    def test_identity(self):
        prog = synthesize(ProgramDescription("id", 1))
        assert np.abs(prog.unitary() - np.eye(2)).max() < 1e-12

    def test_th_matches_product_choi(self):
        prog = synthesize(desc_th())
        target = choi_of_unitary(gates.T @ gates.H)
        fid = abs(np.vdot(prog.choi.pure_amplitudes, target.pure_amplitudes)) ** 2
        assert fid > 1 - 1e-12

    def test_deterministic(self):
        a = synthesize(desc_th())
        b = synthesize(desc_th())
        fid = abs(np.vdot(a.choi.pure_amplitudes, b.choi.pure_amplitudes)) ** 2
        assert fid > 1 - 1e-12


class TestSerialization:
    def test_header_only_round_trip(self):
        desc = ProgramDescription("id3", 3)
        text = serialize(desc)
        assert text == "QVN1 name=id3 n=3\n"
        assert deserialize(text) == desc

    def test_named_gates_round_trip(self):
        desc = ProgramDescription(
            "mix",
            3,
            (
                GateRecord(0, "H", (0,)),
                GateRecord(1, "Tdg", (1,)),
                GateRecord(2, "CX", (0, 1)),
                GateRecord(3, "CZ", (1, 2)),
                GateRecord(4, "CCX", (0, 1, 2)),
                GateRecord(5, "X", (2,)),
                GateRecord(5, "Z", (0,)),
                GateRecord(6, "T", (1,)),
            ),
        )
        assert deserialize(serialize(desc)) == desc

    def test_custom_matrix_exact_round_trip(self, rng):
        u = haar_random_unitary(4, rng)
        desc = ProgramDescription(
            "custom", 2, (GateRecord(0, "custom", (0, 1), u.matrix),)
        )
        back = deserialize(serialize(desc))
        assert back == desc
        assert np.array_equal(back.gate_list[0].matrix, u.matrix)

    def test_serialize_is_canonical(self):
        text = serialize(desc_th())
        assert serialize(deserialize(text)) == text

    def test_corrupt_gate_tag_named(self):
        text = "QVN1 name=x n=1\nt=0 g=Q q=0\n"
        with pytest.raises(ParseError) as err:
            deserialize(text)
        assert "'Q'" in str(err.value)
        assert err.value.line == 2

    def test_missing_header(self):
        with pytest.raises(ParseError):
            deserialize("t=0 g=H q=0\n")

    def test_bad_number_has_location(self):
        with pytest.raises(ParseError) as err:
            deserialize("QVN1 name=x n=1\nt=zero g=H q=0\n")
        assert err.value.line == 2
        assert err.value.column is not None

    def test_crlf_normalized(self):
        text = "QVN1 name=x n=1\r\nt=0 g=H q=0\r\n"
        assert deserialize(text) == deserialize(text.replace("\r\n", "\n"))


class TestMemoryUnit:
    def test_store_fetch_decrements(self):
        mem = MemoryUnit()
        addr = mem.store(desc_h(), 3)
        assert mem.copy_count(addr) == 3
        mem.fetch_consume(addr)
        assert mem.copy_count(addr) == 2

    def test_distinct_addresses(self):
        mem = MemoryUnit()
        a = mem.store(desc_h(), 1)
        b = mem.store(desc_h(), 1)
        assert a != b

    def test_out_of_copies(self):
        mem = MemoryUnit()
        addr = mem.store(desc_h(), 1)
        mem.fetch_consume(addr)
        with pytest.raises(OutOfCopiesError):
            mem.fetch_consume(addr)

    def test_unknown_address(self):
        with pytest.raises(SlotNotFoundError):
            MemoryUnit().fetch_consume(42)

    def test_restore_after_exhaustion(self):
        mem = MemoryUnit()
        addr = mem.store(desc_th(), 1)
        mem.fetch_consume(addr)
        assert mem.restore(addr, 2) == 2
        restored = mem.fetch_consume(addr)
        target = choi_of_unitary(gates.T @ gates.H)
        fid = abs(np.vdot(restored.choi.pure_amplitudes, target.pure_amplitudes)) ** 2
        assert fid > 1 - 1e-9

    def test_live_copies_bounded(self):
        # both calls fail before a copy list is built or extended
        mem = MemoryUnit()
        with pytest.raises(ValidationError, match="MAX_COPIES = 1048576"):
            mem.store(desc_h(), memory.MAX_COPIES + 1)
        assert mem.slots == {}
        addr = mem.store(desc_h(), 1)
        with pytest.raises(ValidationError, match="1048577 live copies"):
            mem.restore(addr, memory.MAX_COPIES)
        assert mem.copy_count(addr) == 1 and mem.verify_conservation()

    def test_append_copy_bounded(self):
        # a compose into a full slot fails before the list grows
        mem = MemoryUnit()
        addr = mem.store(desc_h(), memory.MAX_COPIES)
        program = mem.peek(addr)
        with pytest.raises(ValidationError, match="1048577 live copies"):
            mem.append_copy(addr, program)
        assert mem.copy_count(addr) == memory.MAX_COPIES and mem.verify_conservation()
        mem.fetch_consume(addr)
        assert mem.append_copy(addr, program) == memory.MAX_COPIES

    def test_restore_preserves_description(self):
        mem = MemoryUnit()
        addr = mem.store(desc_th(), 1)
        before = serialize(mem.slots[addr].description)
        mem.restore(addr, 1)
        assert serialize(mem.slots[addr].description) == before

    def test_descriptionless_slot_not_restorable(self):
        mem = MemoryUnit()
        prog = synthesize(desc_h())
        addr = mem.store_copies([prog], description=None)
        mem.fetch_consume(addr)
        with pytest.raises(NotRestorableError):
            mem.restore(addr, 1)

    def test_conservation_against_audit(self):
        mem = MemoryUnit()
        a = mem.store(desc_h(), 3)
        b = mem.store(desc_th(), 2)
        mem.fetch_consume(a)
        mem.restore(a, 2)
        mem.fetch_consume(b)
        mem.fetch_consume(b)
        assert mem.verify_conservation()
        assert mem.copy_count(a) == 4
        assert mem.copy_count(b) == 0

    @pytest.mark.parametrize("tamper", ["append", "pop"])
    def test_conservation_detects_direct_copy_edits(self, tamper):
        mem = MemoryUnit()
        a = mem.store(desc_h(), 2)
        mem.store_copies([synthesize(desc_th())], description=desc_th())
        mem.fetch_consume(a)
        assert mem.verify_conservation()
        copies = mem.slots[a].copies
        if tamper == "append":
            copies.append(copies[0])
        else:
            copies.pop()
        assert not mem.verify_conservation()

    def test_restore_synthesizes_once_per_slot(self, monkeypatch):
        real = memory.synthesize
        calls = []

        def counting(desc):
            calls.append(desc.name)
            return real(desc)

        monkeypatch.setattr(memory, "synthesize", counting)
        mem = MemoryUnit()
        a = mem.store(desc_h(), 2)
        b = mem.store(desc_th(), 1)
        c = mem.store_copies([real(desc_h())], description=desc_h())
        for _ in range(3):
            mem.fetch_consume(a)
            mem.restore(a, 2)
            mem.fetch_consume(b)
            mem.restore(b, 1)
            mem.fetch_consume(c)
            mem.restore(c, 1)
        assert calls == ["H", "TH", "H"]
        assert (mem.copy_count(a), mem.copy_count(b), mem.copy_count(c)) == (5, 1, 1)
        assert [mem.slots[x].balance for x in (a, b, c)] == [5, 1, 1]
        assert mem.verify_conservation()
        mem.fetch_consume(b)
        with pytest.raises(OutOfCopiesError):
            mem.fetch_consume(b)

    def test_consumed_copy_isolated_from_slot(self):
        mem = MemoryUnit()
        a = mem.store(desc_h(), 2)
        b = mem.store(desc_th(), 1)
        p1 = mem.fetch_consume(a)
        p2 = mem.fetch_consume(b)
        compose(p1, p2, ByproductStrategy.CORRECTION_TABLE, RngStream(0))
        remaining = mem.fetch_consume(a)
        target = choi_of_unitary(gates.H)
        fid = abs(np.vdot(remaining.choi.pure_amplitudes, target.pure_amplitudes)) ** 2
        assert fid > 1 - 1e-12


def gate_network_state(desc):
    """Oracle for `synthesize`: each gate's matrix applied in turn to the
    head wires of the n-ebit state |ω(2ⁿ)⟩, tails untouched."""
    dims = (2,) * (2 * desc.n)
    amp = bell_state(2**desc.n)
    for g in desc.gate_list:
        amp = apply_to_subsystems(amp, dims, g.gate_matrix(), list(g.targets))
    return amp


class TestCircuitBridge:
    def test_description_circuit_matches_program_state(self):
        desc = ProgramDescription(
            "net",
            2,
            (
                GateRecord(0, "H", (0,)),
                GateRecord(0, "T", (1,)),
                GateRecord(1, "CZ", (0, 1)),
            ),
        )
        program = synthesize(desc)
        overlap = abs(np.vdot(gate_network_state(desc), program.choi.pure_amplitudes))
        assert abs(overlap - 1.0) < 1e-12
