"""The quantum memory unit: addressed slots of stored-program copies,
consumption on use, restoration from classical descriptions, and the
QVN1 text format.

A QVN1 program document is line oriented:

    QVN1 name=<text> n=<int>
    t=<slot> g=<tag> q=<i[,j[,k]]>
    t=<slot> g=custom q=<...> rows=<d> data=<re,im;re,im;...>

The header alone describes the identity program. Custom matrices are
row-major with full-precision decimal floats, so a round trip is exact.
"""

from __future__ import annotations

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
from .kernel import DEFAULT_TOL, UnitaryOp
from .uqt import StoredProgram, stored_program

GATE_ARITY = {"H": 1, "T": 1, "Tdg": 1, "X": 1, "Z": 1, "CX": 2, "CZ": 2, "CCX": 3}

PROGRAM = "program"


@dataclass(frozen=True, eq=False)
class GateRecord:
    """One gate event: tag, target wires, and its time slot."""

    time: int
    tag: str
    targets: tuple[int, ...]
    matrix: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
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
        last = None
        for g in self.gate_list:
            if any(t < 0 or t >= self.n for t in g.targets):
                raise ValidationError(f"gate targets {g.targets} out of range for n={self.n}")
            if last is not None and g.time < last:
                raise ValidationError("time slots must be nondecreasing")
            last = g.time

    def unitary(self) -> np.ndarray:
        """Ordered product of the gate sequence (first slot acts first)."""
        dims = (2,) * self.n
        u = np.eye(2**self.n, dtype=complex)
        for g in self.gate_list:
            u = gates.embed_operator(g.gate_matrix(), list(g.targets), dims) @ u
        return u

    def then(self, later: "ProgramDescription") -> "ProgramDescription":
        """Description of running this circuit first, then `later`."""
        if later.n != self.n:
            raise ValidationError("cannot concatenate descriptions of different widths")
        offset = (self.gate_list[-1].time + 1) if self.gate_list else 0
        shifted = tuple(replace(g, time=g.time + offset) for g in later.gate_list)
        return ProgramDescription(f"{self.name};{later.name}", self.n, self.gate_list + shifted)

    def __eq__(self, other):
        if not isinstance(other, ProgramDescription):
            return NotImplemented
        return (
            self.name == other.name
            and self.n == other.n
            and self.gate_list == other.gate_list
        )


def synthesize(desc: ProgramDescription, tol=DEFAULT_TOL) -> StoredProgram:
    """Fresh stored-program copy from a classical description."""
    return stored_program(desc.unitary(), description=desc, tol=tol)


# ---------------------------------------------------------------------------
# QVN1 text format
# ---------------------------------------------------------------------------


def format_complex_data(matrix) -> str:
    m = np.asarray(matrix, dtype=complex).reshape(-1)
    return ";".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in m)


def parse_complex_data(text, rows, cols, line_no, col_no):
    entries = text.split(";")
    if len(entries) != rows * cols:
        raise ParseError(
            f"expected {rows * cols} complex entries, got {len(entries)}", line_no, col_no
        )
    out = np.empty(rows * cols, dtype=complex)
    for i, entry in enumerate(entries):
        parts = entry.split(",")
        if len(parts) != 2:
            raise ParseError(f"bad complex entry {entry!r}", line_no, col_no)
        try:
            out[i] = complex(float(parts[0]), float(parts[1]))
        except ValueError:
            raise ParseError(f"bad number in entry {entry!r}", line_no, col_no) from None
    return out.reshape(rows, cols)


def _tokenize(line, line_no):
    tokens = []
    col = 0
    for raw in line.split(" "):
        if raw:
            tokens.append((raw, col + 1))
        col += len(raw) + 1
    out = []
    for raw, col in tokens:
        if "=" not in raw:
            out.append((None, raw, col))
        else:
            key, val = raw.split("=", 1)
            out.append((key, val, col))
    return out


def serialize(desc: ProgramDescription) -> str:
    lines = [f"QVN1 name={desc.name} n={desc.n}"]
    for g in desc.gate_list:
        line = f"t={g.time} g={g.tag} q={','.join(str(t) for t in g.targets)}"
        if g.tag == "custom":
            d = g.matrix.shape[0]
            line += f" rows={d} data={format_complex_data(g.matrix)}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> ProgramDescription:
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    header = None
    records = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        tokens = _tokenize(line, line_no)
        if header is None:
            if not tokens or tokens[0][1] != "QVN1" or tokens[0][0] is not None:
                raise ParseError("document must start with a QVN1 header", line_no, 1)
            fields = {k: (v, c) for k, v, c in tokens[1:]}
            if "name" not in fields or "n" not in fields:
                raise ParseError("header needs name= and n=", line_no, 1)
            try:
                n = int(fields["n"][0])
            except ValueError:
                raise ParseError(f"bad qubit count {fields['n'][0]!r}", line_no, fields["n"][1]) from None
            header = (fields["name"][0], n)
            continue
        records.append(_parse_gate_line(tokens, line_no))
    if header is None:
        raise ParseError("empty document", 1, 1)
    try:
        return ProgramDescription(header[0], header[1], tuple(records))
    except ValidationError as exc:
        raise ParseError(str(exc), 1, 1) from exc


def _parse_gate_line(tokens, line_no):
    fields = {}
    for k, v, c in tokens:
        if k is None:
            raise ParseError(f"stray token {v!r}", line_no, c)
        fields[k] = (v, c)
    for key in ("t", "g", "q"):
        if key not in fields:
            raise ParseError(f"gate line missing {key}=", line_no, 1)
    try:
        time = int(fields["t"][0])
    except ValueError:
        raise ParseError(f"bad time slot {fields['t'][0]!r}", line_no, fields["t"][1]) from None
    tag = fields["g"][0]
    try:
        targets = tuple(int(x) for x in fields["q"][0].split(","))
    except ValueError:
        raise ParseError(f"bad target list {fields['q'][0]!r}", line_no, fields["q"][1]) from None
    if tag == "custom":
        if "rows" not in fields or "data" not in fields:
            raise ParseError("custom gate needs rows= and data=", line_no, 1)
        try:
            rows = int(fields["rows"][0])
        except ValueError:
            raise ParseError(f"bad rows {fields['rows'][0]!r}", line_no, fields["rows"][1]) from None
        matrix = parse_complex_data(fields["data"][0], rows, rows, line_no, fields["data"][1])
        try:
            return GateRecord(time, tag, targets, matrix)
        except ValidationError as exc:
            raise ParseError(str(exc), line_no, 1) from exc
    if tag not in GATE_ARITY:
        raise ParseError(f"unknown gate tag {tag!r}", line_no, fields["g"][1])
    try:
        return GateRecord(time, tag, targets)
    except ValidationError as exc:
        raise ParseError(str(exc), line_no, 1) from exc


# ---------------------------------------------------------------------------
# The memory unit
# ---------------------------------------------------------------------------


@dataclass
class MemorySlot:
    """One address: its description, its live copies, and the program
    synthesized from the description, which every restore copies."""

    address: int
    description: ProgramDescription | None
    copies: list
    kind: str = PROGRAM
    program: StoredProgram | None = None


@dataclass(frozen=True)
class AuditRecord:
    op: str
    address: int
    count: int
    copies_after: int


class MemoryUnit:
    """Addressed storage of program and data copies with an audit log.

    Single-writer: all mutations go through this object; the stored copies
    themselves are immutable values. A slot synthesizes its description
    once and holds that one program as each of its copies; consumption is
    counted by the slot, not by the copies. `tol` feeds the validation of
    every synthesized program.
    """

    def __init__(self, tol=DEFAULT_TOL):
        self.slots: dict[int, MemorySlot] = {}
        self.audit_log: list[AuditRecord] = []
        self.tol = tol
        self._next_address = 0

    def _claim_address(self, address=None):
        if address is None:
            address = self._next_address
        if address in self.slots:
            raise ValidationError(f"address {address} already in use")
        self._next_address = max(self._next_address, address + 1)
        return address

    def store(self, desc: ProgramDescription, copies, kind=PROGRAM, address=None) -> int:
        """Create a slot holding freshly synthesized copies; returns its address."""
        if copies < 1:
            raise ValidationError("store needs at least one copy")
        address = self._claim_address(address)
        program = synthesize(desc, tol=self.tol)
        self.slots[address] = MemorySlot(address, desc, [program] * copies, kind, program)
        self.audit_log.append(AuditRecord("store", address, copies, copies))
        return address

    def store_copies(self, programs, description=None, kind=PROGRAM, address=None) -> int:
        """Slot from pre-built copies (e.g. composition results)."""
        programs = list(programs)
        address = self._claim_address(address)
        self.slots[address] = MemorySlot(address, description, programs, kind)
        self.audit_log.append(AuditRecord("store", address, len(programs), len(programs)))
        return address

    def append_copy(self, address, program) -> int:
        slot = self._slot(address)
        slot.copies.append(program)
        self.audit_log.append(AuditRecord("store", address, 1, len(slot.copies)))
        return len(slot.copies)

    def _slot(self, address) -> MemorySlot:
        if address not in self.slots:
            raise SlotNotFoundError(f"no slot at address {address}")
        return self.slots[address]

    def fetch_consume(self, address) -> StoredProgram:
        """Remove and return one copy; empty slots signal a restore is due."""
        slot = self._slot(address)
        if not slot.copies:
            raise OutOfCopiesError(address)
        program = slot.copies.pop()
        self.audit_log.append(AuditRecord("fetch", address, 1, len(slot.copies)))
        return program

    def restore(self, address, copies) -> int:
        """Add copies of the program synthesized from the slot's description
        (once per slot); returns the new total."""
        if copies < 1:
            raise ValidationError("restore needs at least one copy")
        slot = self._slot(address)
        if slot.description is None:
            raise NotRestorableError(
                f"slot {address} holds no classical description and cannot be restored"
            )
        if slot.program is None:
            slot.program = synthesize(slot.description, tol=self.tol)
        slot.copies.extend([slot.program] * copies)
        self.audit_log.append(AuditRecord("restore", address, copies, len(slot.copies)))
        return len(slot.copies)

    def copy_count(self, address) -> int:
        return len(self._slot(address).copies)

    def verify_conservation(self) -> bool:
        """Audit-log balance: stores + restores − fetches per slot."""
        balance: dict[int, int] = {}
        for rec in self.audit_log:
            delta = rec.count if rec.op in ("store", "restore") else -rec.count
            balance[rec.address] = balance.get(rec.address, 0) + delta
        for address, slot in self.slots.items():
            if balance.get(address, 0) != len(slot.copies):
                return False
        return all(addr in self.slots for addr in balance)
