"""The quantum memory unit: addressed slots of stored-program copies,
consumption on use, restoration from classical descriptions, and the
QVN1 text format.

A QVN1 program document, in the line grammar of `qvn.text`:

    QVN1 name=<text> n=<1..MAX_QUBITS>
    t=<slot> g=<tag> q=<i[,j[,k]]>
    t=<slot> g=custom q=<...> rows=<d> data=<re,im;re,im;...>

The header alone describes the identity program. Custom matrices are
row-major with full-precision decimal floats, so a round trip is exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import gates
from .errors import (
    NotRestorableError,
    OutOfCopiesError,
    ParseError,
    SlotNotFoundError,
    ValidationError,
)
from .kernel import UnitaryOp, apply_to_subsystems
from .text import format_complex_data, lines
from .uqt import StoredProgram, stored_program

# Wires each named gate acts on: log₂ of its matrix size.
GATE_ARITY = {tag: len(m).bit_length() - 1 for tag, m in gates.GATE_MATRICES.items()}

# Widest stored program a QVN1 document may describe. Synthesis and
# composition keep d×d matrices, d = 2ⁿ, and the Bell measurement of a
# composition never builds the d⁴-amplitude joint state.
MAX_QUBITS = 8

# Most live copies one slot may hold: a slot keeps one list entry per copy,
# and `store`, `restore` and `replace_copies` make that list.
MAX_COPIES = 2**20


@dataclass(frozen=True, eq=False)
class GateRecord:
    """One gate event: tag, target wires, and its time slot."""

    time: int
    tag: str
    targets: tuple[int, ...]
    matrix: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        if len(set(self.targets)) != len(self.targets):
            raise ValidationError(f"gate targets {self.targets} name a wire twice")
        if self.tag == "custom":
            if self.matrix is None:
                raise ValidationError("custom gate record needs a matrix")
            m = np.asarray(self.matrix, dtype=complex)
            if m.shape != (2 ** len(self.targets),) * 2:
                raise ValidationError(
                    f"custom matrix shape {m.shape} does not fit {len(self.targets)} wires"
                )
            UnitaryOp(m)  # must be unitary within tolerance
            object.__setattr__(self, "matrix", m)
        else:
            if self.tag not in GATE_ARITY:
                raise ValidationError(f"unknown gate tag {self.tag!r}")
            if len(self.targets) != GATE_ARITY[self.tag]:
                raise ValidationError(
                    f"gate {self.tag} takes {GATE_ARITY[self.tag]} targets, got {len(self.targets)}"
                )
            if self.matrix is not None:
                raise ValidationError("named gates carry no matrix payload")

    def gate_matrix(self):
        return self.matrix if self.tag == "custom" else gates.GATE_MATRICES[self.tag]

    def __eq__(self, other):
        if not isinstance(other, GateRecord):
            return NotImplemented
        if (self.time, self.tag, self.targets) != (other.time, other.tag, other.targets):
            return False
        if self.matrix is None or other.matrix is None:
            return self.matrix is other.matrix
        return bool(np.array_equal(self.matrix, other.matrix))


@dataclass(frozen=True, eq=False)
class ProgramDescription:
    """Classical description of a program: the gate sequence of a circuit."""

    name: str
    n: int
    gate_list: tuple[GateRecord, ...] = ()

    def __post_init__(self):
        if not self.name or any(c.isspace() for c in self.name):
            raise ValidationError(f"name {self.name!r} must be nonempty without spaces")
        if self.n < 1:
            raise ValidationError("qubit count must be >= 1")
        object.__setattr__(self, "gate_list", tuple(self.gate_list))
        previous = None
        for g in self.gate_list:
            self.check_gate(g, previous)
            previous = g

    def check_gate(self, gate: GateRecord, previous: GateRecord | None):
        """Raise unless `gate` acts within the n wires and, following
        `previous`, keeps the time slots nondecreasing."""
        if any(t < 0 or t >= self.n for t in gate.targets):
            raise ValidationError(f"gate targets {gate.targets} out of range for n={self.n}")
        if previous is not None and gate.time < previous.time:
            raise ValidationError("time slots must be nondecreasing")

    def unitary(self) -> np.ndarray:
        """Ordered product of the gate sequence (first slot acts first):
        each gate acts on its wires of the identity, whose column index
        rides along as one trailing axis."""
        d = 2**self.n
        dims = (2,) * self.n + (d,)
        u = np.eye(d, dtype=complex)
        for g in self.gate_list:
            u = apply_to_subsystems(u, dims, g.gate_matrix(), g.targets)
        return u.reshape(d, d)

    @property
    def start(self) -> int | None:
        """Time slot of the first gate; None without gates."""
        return self.gate_list[0].time if self.gate_list else None

    @property
    def span(self) -> int:
        """Time slots before the first gate of a circuit run after this one."""
        return self.gate_list[-1].time + 1 if self.gate_list else 0

    def then(self, later: "ProgramDescription") -> "ProgramDescription":
        """Description of running this circuit first, then `later`, with
        `later`'s time slots shifted past this one's. Made in O(1); its name
        and gate list are flattened on first read."""
        if later.n != self.n:
            raise ValidationError("cannot concatenate descriptions of different widths")
        # later's first gate lands at its time + span, before this circuit's
        # last slot, span - 1, only if that time is below -1
        if self.start is not None and later.start is not None and later.start < -1:
            raise ValidationError("time slots must be nondecreasing")
        return _Concatenation(self, later)

    def __eq__(self, other):
        if not isinstance(other, ProgramDescription):
            return NotImplemented
        return (
            self.name == other.name
            and self.n == other.n
            and self.gate_list == other.gate_list
        )


class _Concatenation(ProgramDescription):
    """`first.then(later)` of two valid descriptions of one width, which
    needs no checks. A chain of compositions nests these one deep per step,
    so the flattening walks the nesting with a stack, not by recursion, and
    keeps its result in place of the parts."""

    def __init__(self, first: ProgramDescription, later: ProgramDescription):
        object.__setattr__(self, "n", first.n)
        object.__setattr__(self, "_parts", (first, later))
        object.__setattr__(self, "_span", first.span + later.span)
        object.__setattr__(self, "_start", later.start if first.start is None else first.start)

    @property
    def start(self) -> int | None:
        return self._start

    @property
    def span(self) -> int:
        return self._span

    @functools.cached_property
    def name(self) -> str:
        return self._flatten()[0]

    @functools.cached_property
    def gate_list(self) -> tuple[GateRecord, ...]:
        return self._flatten()[1]

    def _flatten(self):
        names, gate_list, offset = [], [], 0
        stack = [self]
        while stack:
            desc = stack.pop()
            if isinstance(desc, _Concatenation) and desc._parts is not None:
                stack.extend(reversed(desc._parts))
                continue
            names.append(desc.name)
            gate_list.extend(g if offset == 0 else replace(g, time=g.time + offset) for g in desc.gate_list)
            offset += desc.span
        flat = ";".join(names), tuple(gate_list)
        self.__dict__.update(name=flat[0], gate_list=flat[1], _parts=None)
        return flat


def synthesize(desc: ProgramDescription) -> StoredProgram:
    """Fresh stored-program copy from a classical description."""
    return stored_program(desc.unitary(), description=desc)


# ---------------------------------------------------------------------------
# QVN1 text format
# ---------------------------------------------------------------------------


def serialize(desc: ProgramDescription) -> str:
    out = [f"QVN1 name={desc.name} n={desc.n}"]
    for g in desc.gate_list:
        line = f"t={g.time} g={g.tag} q={','.join(str(t) for t in g.targets)}"
        if g.tag == "custom":
            d = g.matrix.shape[0]
            line += f" rows={d} data={format_complex_data(g.matrix)}"
        out.append(line)
    return "\n".join(out) + "\n"


def deserialize(text: str) -> ProgramDescription:
    return description_of_lines(lines(text))


def description_of_lines(doc) -> ProgramDescription:
    """Description read from the `Line`s of a QVN1 document; each gate is
    checked as it is read, so an error names the gate's own line."""
    doc = iter(doc)
    head = next(doc, None)
    if head is None:
        raise ParseError("empty document", 1, 1)
    if head.verb != "QVN1":
        raise head.error("document must start with a QVN1 header")
    name, n = head.str("name"), head.int("n", low=1, high=MAX_QUBITS)
    head.done()
    with head.located():
        desc = ProgramDescription(name, n)
    gate_list = []
    for line in doc:
        if line.verb is not None:
            raise line.error(f"stray token {line.verb!r}")
        time, tag, targets = line.int("t"), line.str("g"), line.ints("q")
        matrix = None
        if tag == "custom":
            rows = line.int("rows", low=1)
            matrix = line.matrix(rows, rows)
        elif tag not in GATE_ARITY:
            raise line.error(f"unknown gate tag {tag!r}", "g")
        line.done()
        with line.located():
            gate = GateRecord(time, tag, targets, matrix)
            desc.check_gate(gate, gate_list[-1] if gate_list else None)
        gate_list.append(gate)
    return ProgramDescription(name, n, tuple(gate_list))


# ---------------------------------------------------------------------------
# The memory unit
# ---------------------------------------------------------------------------


def check_live_copies(slot_name, count):
    if count > MAX_COPIES:
        raise ValidationError(
            f"{slot_name} would hold {count} live copies; the limit is MAX_COPIES = {MAX_COPIES}"
        )


def check_restore(address, copies, described):
    """Raise what `MemoryUnit.restore` raises, short of counting copies, for
    `copies` copies of slot `address`, described or not."""
    if copies < 1:
        raise ValidationError("restore needs at least one copy")
    if not described:
        raise NotRestorableError(
            f"slot {address} holds no classical description and cannot be restored"
        )


@dataclass
class MemorySlot:
    """The contents of one address: its description, its live copies, the
    program synthesized from the description, which every restore copies,
    and the balance of copies put in less copies taken out."""

    description: ProgramDescription | None
    copies: list
    program: StoredProgram | None = None
    balance: int = 0


class MemoryUnit:
    """Addressed storage of stored-program copies with per-slot balances.

    Single-writer: all mutations go through this object; the stored copies
    themselves are immutable values. A slot synthesizes its description
    once and holds that one program as each of its copies; consumption is
    counted by the slot, not by the copies.
    """

    def __init__(self):
        self.slots: dict[int, MemorySlot] = {}
        self._next_address = 0

    def _claim_address(self, address=None):
        if address is None:
            address = self._next_address
        if address in self.slots:
            raise ValidationError(f"address {address} already in use")
        self._next_address = max(self._next_address, address + 1)
        return address

    def store(self, desc: ProgramDescription, copies, address=None) -> int:
        """Create a slot holding freshly synthesized copies; returns its address."""
        if copies < 1:
            raise ValidationError("store needs at least one copy")
        check_live_copies("a new slot" if address is None else f"slot {address}", copies)
        address = self._claim_address(address)
        program = synthesize(desc)
        self.slots[address] = MemorySlot(desc, [program] * copies, program, copies)
        return address

    def store_copies(self, programs, description=None, address=None) -> int:
        """Slot from pre-built copies (e.g. composition results)."""
        programs = list(programs)
        address = self._claim_address(address)
        self.slots[address] = MemorySlot(description, programs, balance=len(programs))
        return address

    def replace_copies(self, address, copies, program=None, description=None) -> int:
        """Make `copies`, bottom first, a slot's live copies and count the
        change in its balance, as fetches and puts of that many copies
        would; a missing slot is created with `description`. A given
        `program` becomes the one the slot's restores copy. Returns the new
        total."""
        copies = list(copies)
        check_live_copies(f"slot {address}", len(copies))
        if address not in self.slots:
            self.store_copies([], description, address)
        slot = self.slots[address]
        slot.balance += len(copies) - len(slot.copies)
        slot.copies[:] = copies
        if program is not None:
            slot.program = program
        return len(copies)

    def _slot(self, address) -> MemorySlot:
        if address not in self.slots:
            raise SlotNotFoundError(f"no slot at address {address}")
        return self.slots[address]

    def peek(self, address) -> StoredProgram:
        """The copy `fetch_consume` returns next, left in place; empty
        slots signal a restore is due."""
        slot = self._slot(address)
        if not slot.copies:
            raise OutOfCopiesError(address)
        return slot.copies[-1]

    def fetch_consume(self, address) -> StoredProgram:
        """Remove and return one copy; empty slots signal a restore is due."""
        program = self.peek(address)
        slot = self.slots[address]
        slot.copies.pop()
        slot.balance -= 1
        return program

    def restore(self, address, copies) -> int:
        """Add copies of the program synthesized from the slot's description
        (once per slot); returns the new total."""
        slot = self._slot(address)
        check_restore(address, copies, slot.description is not None)
        check_live_copies(f"slot {address}", len(slot.copies) + copies)
        if slot.program is None:
            slot.program = synthesize(slot.description)
        slot.copies.extend([slot.program] * copies)
        slot.balance += copies
        return len(slot.copies)

    def copy_count(self, address) -> int:
        return len(self._slot(address).copies)

    def verify_conservation(self) -> bool:
        """Every slot holds as many copies as its balance of stores and
        restores less fetches."""
        return all(slot.balance == len(slot.copies) for slot in self.slots.values())
