"""Universal quantum gate teleportation: composing stored programs.

A stored program is the dual state |ω_U⟩ of a unitary. Composition Bell-
measures the head of the first program against the tail of the second;
with this pairing the trivial outcome leaves |ω_{U2·U1}⟩ directly and a
nontrivial outcome k leaves |ω_{U2·σ_k†·U1}⟩, so the byproduct is removed
by the conjugated correction C_k = U2 σ_k U2† on the new head wire.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import gates
from .duality import ChoiState, choi_of_unitary, unvec, vec
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    NumericalError,
    ValidationError,
)
from .kernel import DEFAULT_TOL, PureState, RngStream, UnitaryOp


class ByproductStrategy(enum.Enum):
    REPEAT_UNTIL_SUCCESS = "repeat_until_success"
    CORRECTION_TABLE = "correction_table"
    SYMMETRIC_PAIR = "symmetric_pair"


@dataclass(frozen=True, eq=False)
class BellBasis:
    """Complete orthogonal basis of generalized-Pauli ebit rotations.

    Projector k is onto (σ_k ⊗ I)|ω⟩ with σ_0 = I; `vectors` holds the
    normalized amplitude of each basis state.
    """

    d: int
    paulis: tuple[np.ndarray, ...]
    vectors: np.ndarray

    def __init__(self, paulis):
        paulis = tuple(np.asarray(p, dtype=complex) for p in paulis)
        d = paulis[0].shape[0]
        if len(paulis) != d * d:
            raise ValidationError(f"need d²={d*d} basis unitaries, got {len(paulis)}")
        if np.abs(paulis[0] - np.eye(d)).max() > 1e-12:
            raise ValidationError("basis element 0 must be the identity")
        vectors = np.stack([p.reshape(-1) / math.sqrt(d) for p in paulis])
        gram = vectors.conj() @ vectors.T
        if np.abs(gram - np.eye(d * d)).max() > 1e-10:
            raise ValidationError("basis states are not orthonormal")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "paulis", paulis)
        vectors.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)

    @classmethod
    def weyl(cls, d):
        return _weyl_basis(d)

    @classmethod
    def qubit_product(cls, n):
        return _qubit_basis(n)

    @classmethod
    def for_dim(cls, d):
        """Qubit-product basis when d is a power of two, else Weyl."""
        n = d.bit_length() - 1
        if 2**n == d:
            return _qubit_basis(n)
        return _weyl_basis(d)

    def projectors(self):
        return [np.outer(v, v.conj()) for v in self.vectors]


@functools.lru_cache(maxsize=32)
def _weyl_basis(d):
    return BellBasis(gates.weyl_ops(d))


@functools.lru_cache(maxsize=32)
def _qubit_basis(n):
    return BellBasis(gates.pauli_product_ops(n))


@dataclass(frozen=True, eq=False)
class SymmetricFactors:
    """Pair of symmetric unitaries whose product is the stored gate."""

    s1: UnitaryOp
    s2: UnitaryOp


def symmetric_decompose(u: UnitaryOp, tol=DEFAULT_TOL) -> SymmetricFactors:
    """Split U into symmetric unitary factors S1·S2 = U.

    From U = V D V†: S1 = V D V^t and S2 = V* V† are both symmetric and
    multiply back to U exactly. Symmetric inputs take the fast path (U, I).
    """
    from .kernel import eig_unitary

    m = u.matrix
    if np.abs(m - m.T).max() <= tol:
        return SymmetricFactors(u, UnitaryOp(np.eye(u.dim)))
    vals, v = eig_unitary(u, tol=tol)
    vm = v.matrix
    s1 = vm @ np.diag(vals) @ vm.T
    s2 = vm.conj() @ vm.conj().T
    return SymmetricFactors(UnitaryOp(s1, tol=tol * 10), UnitaryOp(s2, tol=tol * 10))


@dataclass(frozen=True, eq=False)
class StoredProgram:
    """A unitary held as its dual state plus the data composition needs.

    `amplitudes` is the dual state vec(U)/√d of the validated unitary `op`.
    `correction(k)` is C_k = U σ_k U† for one nontrivial basis rotation σ_k,
    the phase-free information equivalent to the adjoint representation of
    U, evaluated for the outcome at hand. The symmetric factors and the Choi
    matrix are derived on first use and kept, so a copy that is only
    teleported or injected never builds them.
    """

    op: UnitaryOp
    basis: BellBasis
    is_symmetric: bool
    description: object | None = None
    tol: float = DEFAULT_TOL

    @property
    def d(self) -> int:
        return self.op.dim

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        amp = vec(self.op.matrix)
        amp.setflags(write=False)
        return amp

    @functools.cached_property
    def choi(self) -> ChoiState:
        return choi_of_unitary(self.op, tol=self.tol)

    def correction(self, k) -> np.ndarray:
        return byproduct_correction(self.op.matrix, self.basis, k)

    @functools.cached_property
    def symmetric_factors(self) -> SymmetricFactors:
        return symmetric_decompose(self.op, tol=self.tol)

    def unitary(self) -> np.ndarray:
        return unvec(self.amplitudes)


def stored_program(
    u,
    basis: BellBasis | None = None,
    description=None,
    tol=DEFAULT_TOL,
) -> StoredProgram:
    """Build a stored program from a unitary."""
    uop = u if isinstance(u, UnitaryOp) else UnitaryOp(u, tol=tol)
    d = uop.dim
    if basis is None:
        basis = BellBasis.for_dim(d)
    if basis.d != d:
        raise DimensionMismatchError(f"basis dim {basis.d} != unitary dim {d}")
    m = uop.matrix
    return StoredProgram(
        op=uop,
        basis=basis,
        is_symmetric=bool(np.abs(m - m.T).max() <= tol),
        description=description,
        tol=tol,
    )


def identity_program(d, basis=None) -> StoredProgram:
    return stored_program(np.eye(d, dtype=complex), basis=basis)


def bell_probabilities(joint: PureState, wire_a, wire_b, basis: BellBasis):
    """Exact outcome distribution of a Bell measurement on a wire pair.

    Returns (probabilities, residual tensors): entry k of the residual list
    is the unnormalized amplitude array over the surviving wires after
    projecting (wire_a, wire_b) onto basis state k.
    """
    dims = joint.subsystem_dims
    d = basis.d
    if dims[wire_a] != d or dims[wire_b] != d:
        raise DimensionMismatchError(
            f"wires carry dims {dims[wire_a]},{dims[wire_b]}; basis needs {d}"
        )
    if wire_a == wire_b:
        raise ValidationError("Bell measurement needs two distinct wires")
    tensor = joint.tensor()
    moved = np.moveaxis(tensor, (wire_a, wire_b), (0, 1)).reshape(d * d, -1)
    residuals = basis.vectors.conj() @ moved
    probs = np.clip((np.abs(residuals) ** 2).sum(axis=1), 0.0, None)
    return probs, residuals


def _surviving_dims(dims, wire_a, wire_b):
    return tuple(dm for i, dm in enumerate(dims) if i not in (wire_a, wire_b))


def bell_measure_pair(joint: PureState, wire_a, wire_b, basis: BellBasis, rng: RngStream):
    """Bell measurement of a wire pair; the measured pair is dropped.

    Returns (outcome k, probability, post state over the remaining wires).
    """
    probs, residuals = bell_probabilities(joint, wire_a, wire_b, basis)
    if probs.sum() <= 0:
        raise NumericalError("all Bell outcomes have vanishing probability")
    k = rng.choice(probs)
    out_dims = _surviving_dims(joint.subsystem_dims, wire_a, wire_b)
    post = PureState(residuals[k] / math.sqrt(probs[k]), out_dims)
    return k, float(probs[k]), post


def outcome_is_trivial(k) -> bool:
    """Binary coarse-graining of the Bell outcome: heralded branch or not."""
    return k == 0


def byproduct_correction(u2, basis: BellBasis, k) -> np.ndarray:
    """C_k = U2 σ_k U2†: removes Bell outcome k's byproduct from the head."""
    return u2 @ basis.paulis[k] @ u2.conj().T


# Repeat-until-success gives up after this many rounds per Bell outcome. For
# unitary programs the trivial outcome has probability 1/d², so a correct run
# exceeds 64·d² rounds with probability (1 - 1/d²)^(64·d²) < e⁻⁶⁴.
MAX_ROUNDS_PER_OUTCOME = 64


def teleport(amp1, amp2, basis: BellBasis, u2, strategy: ByproductStrategy, rng: RngStream):
    """Fuse two dual states by a Bell measurement of head1 against tail2.

    `amp1` and `amp2` are (head, tail) amplitudes of dimension d² each and
    `u2` is the gate the second state carries. Returns (state, rounds), the
    state on the fused (head, tail) pair. Repeat-until-success redraws the
    pair until the trivial outcome, at most 64·d² rounds; every other
    strategy takes one round and applies C_k for the sampled outcome k.
    """
    d = basis.d
    joint = PureState(np.kron(amp1, amp2), (d, d, d, d))
    repeat = strategy is ByproductStrategy.REPEAT_UNTIL_SUCCESS
    max_rounds = MAX_ROUNDS_PER_OUTCOME * d * d if repeat else 1
    for rounds in range(1, max_rounds + 1):
        k, _, post = bell_measure_pair(joint, 0, 3, basis, rng)
        if k == 0 or not repeat:
            break
    else:
        raise NumericalError(
            f"no trivial Bell outcome in {max_rounds} rounds "
            f"(repeat-until-success bound {MAX_ROUNDS_PER_OUTCOME}·d² at d={d})"
        )
    # surviving wires are (t1, h2); swap into (head, tail) order
    mat = post.tensor().transpose(1, 0)
    if k != 0:
        mat = byproduct_correction(u2, basis, k) @ mat
    return PureState(mat.reshape(-1), (d, d)), rounds


def _program_from_state(state: PureState, basis, description, tol) -> StoredProgram:
    u = unvec(state.amplitudes)
    return stored_program(UnitaryOp(u, tol=1e-8), basis=basis, description=description, tol=tol)


def _combined_description(p1: StoredProgram, p2: StoredProgram):
    d1, d2 = p1.description, p2.description
    if d1 is None or d2 is None:
        return None
    combine = getattr(d1, "then", None)  # composed program runs p1's gates first
    return combine(d2) if combine is not None else None


def compose(
    p1: StoredProgram,
    p2: StoredProgram,
    strategy: ByproductStrategy,
    rng: RngStream,
    tol=DEFAULT_TOL,
):
    """Compose two stored programs into the program of U2·U1.

    Returns (result program, shots_used). CorrectionTable and SymmetricPair
    are deterministic single-pass protocols; RepeatUntilSuccess redraws
    fresh copies until the heralded trivial outcome (geometric in d²).
    SymmetricPair teleports through S2 and then S1, with one corrected
    round each.
    """
    if p1.d != p2.d:
        raise DimensionMismatchError(f"program dims differ: {p1.d} vs {p2.d}")
    description = _combined_description(p1, p2)
    if strategy is ByproductStrategy.SYMMETRIC_PAIR:
        amp = p1.amplitudes
        for factor in (p2.symmetric_factors.s2, p2.symmetric_factors.s1):
            state, _ = teleport(amp, vec(factor.matrix), p2.basis, factor.matrix, strategy, rng)
            amp = state.amplitudes
        shots = 1
    elif strategy in (ByproductStrategy.REPEAT_UNTIL_SUCCESS, ByproductStrategy.CORRECTION_TABLE):
        state, shots = teleport(p1.amplitudes, p2.amplitudes, p2.basis, p2.op.matrix, strategy, rng)
    else:
        raise ConfigurationError(f"unknown strategy {strategy!r}")
    return _program_from_state(state, p2.basis, description, tol), shots


def composition_unitary(p2_factors: SymmetricFactors, basis: BellBasis | None = None) -> UnitaryOp:
    """Coherent composition operator U_UQT on (h1, t1, h2, t2, flag).

    Rotates the (h1, t2) pair from the Bell basis into the computational
    basis, marks nontrivial outcomes on a flag qubit, and applies the
    outcome-controlled correction to the new head. Applied to
    |ω_{U1}⟩|ω_{U2}⟩|0⟩ and discarding (h1, t2, flag), the remaining
    (h2, t1) pair holds |ω_{U2·U1}⟩ deterministically.
    """
    u2 = p2_factors.s1.matrix @ p2_factors.s2.matrix
    d = u2.shape[0]
    if basis is None:
        basis = BellBasis.for_dim(d)
    if basis.d != d:
        raise DimensionMismatchError(f"basis dim {basis.d} != factor dim {d}")
    dims = (d, d, d, d, 2)
    total = d**4 * 2
    # W maps Bell state k on (h1, t2) to computational |k⟩
    w_pair = basis.vectors.conj()  # rows: <ω_k|
    w_full = gates.embed_operator(w_pair, [0, 3], dims)
    flag = np.zeros((2 * d * d, 2 * d * d), dtype=complex)
    corr = np.zeros((d**3, d**3), dtype=complex)  # on (h1... pair index ⊗ h2)
    eye_flag = np.eye(2, dtype=complex)
    x_flag = gates.X
    for k in range(d * d):
        ek = np.zeros((d * d, d * d), dtype=complex)
        ek[k, k] = 1.0
        flag += np.kron(ek, eye_flag if k == 0 else x_flag)
        c_k = np.eye(d) if k == 0 else byproduct_correction(u2, basis, k)
        corr += np.kron(ek, c_k)
    # embed: flag touches the measured pair and the flag qubit, corrections
    # touch the pair and the new head h2
    flag_full = gates.embed_operator(flag, [0, 3, 4], dims)
    corr_full = gates.embed_operator(corr, [0, 3, 2], dims)
    mat = corr_full @ flag_full @ w_full
    return UnitaryOp(mat, tol=1e-9)


def apply_composition_unitary(u_uqt: UnitaryOp, p1: StoredProgram, p2: StoredProgram):
    """Run the coherent composition; returns the reduced (h2, t1) state."""
    d = p1.d
    amp = np.kron(np.kron(p1.amplitudes, p2.amplitudes), np.array([1.0, 0.0]))
    out = u_uqt.matrix @ amp
    tensor = out.reshape(d, d, d, d, 2)
    # reduced state on (h2, t1): contract out h1, t2, flag
    moved = np.moveaxis(tensor, (2, 1), (0, 1)).reshape(d * d, -1)
    rho = moved @ moved.conj().T
    from .kernel import DensityOperator

    return DensityOperator(rho, (d, d))
