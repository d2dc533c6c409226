"""Channel-state duality: dual states, vectorization, Kraus extraction,
superchannels, and comb application.

Conventions: the dual state of a channel E is (E ⊗ I) applied to the
normalized maximally entangled state |ω⟩ = Σ|ii⟩/√d. Site A (output,
head) is the left tensor factor, site B (input, tail) the right one; the
factor d dropped by this normalization reappears in `apply_via_choi`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotCptpError, ValidationError
from .kernel import (
    DEFAULT_TOL,
    DensityOperator,
    KrausChannel,
    PureState,
    UnitaryOp,
    apply_to_subsystems,
    partial_trace_matrix,
)

RANK_TOL = 1e-12


def bell_state(d) -> np.ndarray:
    """Amplitudes of |ω⟩ = Σ|ii⟩/√d on H ⊗ H."""
    return np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)


def vec(a) -> np.ndarray:
    """Amplitudes of (A ⊗ I)|ω⟩ for a square operator A."""
    a = np.asarray(a, dtype=complex)
    return a.reshape(-1) / math.sqrt(a.shape[0])


def unvec(v) -> np.ndarray:
    """Inverse of `vec`: the operator whose vectorization is v."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise ValidationError(f"vector of size {v.size} is not an operator image")
    return v.reshape(d, d) * math.sqrt(d)


def _reversed_indices(site_dim, parts) -> np.ndarray:
    """Index i of `parts` equal subsystems maps to the index of its digits
    reversed; the map is its own inverse."""
    dims = (site_dim,) * parts
    return np.arange(site_dim**parts).reshape(dims).transpose(range(parts)[::-1]).reshape(-1)


def reversal_permutation(site_dim, parts) -> np.ndarray:
    """Unitary R that reverses the order of `parts` equal subsystems."""
    total = site_dim**parts
    m = np.zeros((total, total), dtype=complex)
    m[np.arange(total), _reversed_indices(site_dim, parts)] = 1.0
    return m


def vectorize(a, parts=1) -> PureState:
    """Dual state of an operator over one bold tail or n bent per-part tails.

    With ``parts=1`` the state lives on H ⊗ H and pairs the head with a
    single high-dimensional tail, satisfying (A⊗I)|ω⟩ = (I⊗A^t)|ω⟩. With
    ``parts=n`` the tail group is wired in reversed subsystem order (the
    bent-wire convention), so the transposition rule becomes R A^t R for R
    the subsystem-reversal permutation.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"operator must be square, got shape {a.shape}")
    d = a.shape[0]
    norm = np.linalg.norm(a) / math.sqrt(d)
    if norm == 0.0:
        raise ValidationError("cannot vectorize the zero operator")
    if parts == 1:
        return PureState(vec(a) / norm, (d, d))
    s = round(d ** (1.0 / parts))
    if s**parts != d:
        raise ValidationError(f"dimension {d} is not a {parts}-fold power")
    # A R permutes the columns of A by the self-inverse reversal
    amp = a[:, _reversed_indices(s, parts)].reshape(-1) / (math.sqrt(d) * norm)
    return PureState(amp, (d, d))


@dataclass(frozen=True, eq=False)
class ChoiState:
    """Dual state of a channel: unit trace, PSD, maximally mixed tail."""

    d: int
    matrix: np.ndarray
    pure_amplitudes: np.ndarray | None

    def __init__(self, matrix, pure_amplitudes=None):
        m = np.asarray(matrix, dtype=complex)
        dim = m.shape[0]
        d = math.isqrt(dim)
        if d * d != dim or m.shape != (dim, dim):
            raise ValidationError(f"Choi matrix shape {m.shape} is not d²×d²")
        rho = DensityOperator(m, (d, d))
        tail = partial_trace_matrix(rho.matrix, (d, d), [1])
        resid = np.abs(tail - np.eye(d) / d).max()
        if resid > DEFAULT_TOL:
            raise NotCptpError(f"tr_A deviates from I/d by {resid}: not trace preserving")
        if pure_amplitudes is not None:
            pure_amplitudes = np.asarray(pure_amplitudes, dtype=complex).reshape(-1)
            pure_amplitudes.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "matrix", rho.matrix)
        object.__setattr__(self, "pure_amplitudes", pure_amplitudes)

    def density(self) -> DensityOperator:
        return DensityOperator(self.matrix, (self.d, self.d))

    def unitary(self) -> np.ndarray:
        """Recover U from a rank-1 dual state of a unitary channel."""
        if self.pure_amplitudes is not None:
            return unvec(self.pure_amplitudes)
        vals, vecs = np.linalg.eigh(self.matrix)
        if vals[-2] > DEFAULT_TOL * self.d:
            raise ValidationError("Choi state is not rank 1")
        return unvec(vecs[:, -1])


def choi_of_channel(ch: KrausChannel) -> ChoiState:
    """(E ⊗ I)(ω) built by conjugating the ebit with each Kraus operator."""
    if ch.dim_in != ch.dim_out:
        raise ValidationError("dual states are defined for dimension-preserving maps")
    d = ch.dim_in
    acc = np.zeros((d * d, d * d), dtype=complex)
    for k in ch.kraus_ops:
        v = vec(k)
        acc += np.outer(v, v.conj())
    pure = vec(ch.kraus_ops[0]) if len(ch.kraus_ops) == 1 else None
    return ChoiState(acc, pure_amplitudes=pure)


def choi_of_unitary(u) -> ChoiState:
    """Dual state vec(U)vec(U)† of a unitary.

    For a validated `UnitaryOp` the result is a dual state by construction
    (rank 1, trace ‖U‖²/d = 1, tail marginal UᵀŪ/d = I/d), so it is not
    checked again; a raw matrix is validated as a `ChoiState`.
    """
    if not isinstance(u, UnitaryOp):
        v = vec(np.asarray(u, dtype=complex))
        return ChoiState(np.outer(v, v.conj()), pure_amplitudes=v)
    v = vec(u.matrix)
    matrix = np.outer(v, v.conj())
    v.setflags(write=False)
    matrix.setflags(write=False)
    choi = object.__new__(ChoiState)
    object.__setattr__(choi, "d", u.dim)
    object.__setattr__(choi, "matrix", matrix)
    object.__setattr__(choi, "pure_amplitudes", v)
    return choi


def apply_via_choi(choi: ChoiState, rho: DensityOperator) -> DensityOperator:
    """Readout of the channel action: d · tr_B[ω_E (I ⊗ ρ^t)]."""
    d = choi.d
    if rho.dim != d:
        raise DimensionMismatchError(f"state dim {rho.dim} != Choi site dim {d}")
    # out[a, a'] = d Σ_{b,b'} ω_E[(a,b), (a',b')] ρ[b, b']
    out = d * np.tensordot(choi.matrix.reshape(d, d, d, d), rho.matrix, axes=([1, 3], [0, 1]))
    return DensityOperator(out, rho.subsystem_dims)


def kraus_from_choi(choi: ChoiState) -> KrausChannel:
    """Kraus operators from the eigenvalue decomposition of the dual state."""
    d = choi.d
    vals, vecs = np.linalg.eigh(choi.matrix)
    cutoff = RANK_TOL * d
    kraus = [
        math.sqrt(d * lam) * vecs[:, i].reshape(d, d)
        for i, lam in enumerate(vals)
        if lam > cutoff
    ]
    if not kraus:
        raise NotCptpError("Choi state has no spectrum above the rank tolerance")
    return KrausChannel(kraus, tol=1e-9)


@dataclass(frozen=True, eq=False)
class Superchannel:
    """Channel-to-channel map realized by pre/post unitaries and a memory wire."""

    pre_unitary: UnitaryOp
    post_unitary: UnitaryOp
    system_dim: int
    ancilla_dim: int

    def __post_init__(self):
        total = self.system_dim * self.ancilla_dim
        if self.pre_unitary.dim != total or self.post_unitary.dim != total:
            raise DimensionMismatchError(
                f"pre/post unitaries must act on system*ancilla = {total}"
            )


def apply_superchannel(s: Superchannel, ch: KrausChannel) -> KrausChannel:
    """ρ ↦ tr_a V (E ⊗ I_mem)(U (ρ ⊗ |0⟩⟨0|) U†) V† with E on the system wire."""
    d, a = s.system_dim, s.ancilla_dim
    if ch.dim_in != d or ch.dim_out != d:
        raise DimensionMismatchError(f"input channel dim {ch.dim_in} != system dim {d}")
    # the ancilla is the fast index: columns ::a of an operator act on
    # ρ ⊗ |0⟩⟨0|, and rows j::a take ⟨j| of the ancilla, one term of its trace
    pre = s.pre_unitary.matrix[:, ::a]
    wires = (d, a, d)  # system, ancilla, and the input index riding along
    kraus = []
    for k in ch.kraus_ops:
        post = s.post_unitary.matrix @ apply_to_subsystems(pre, wires, k, [0]).reshape(d * a, d)
        kraus.extend(post[j::a] for j in range(a))
    return KrausChannel(kraus)


@dataclass(frozen=True, eq=False)
class Comb:
    """n-comb template: unitary teeth with a memory wire threading n−1 slots.

    Every tooth acts on system ⊗ memory; the memory starts at |0⟩ and is
    traced after the last tooth, while input channels act on the system
    wire between consecutive teeth.
    """

    system_dim: int
    memory_dim: int
    teeth: tuple[UnitaryOp, ...]

    def __init__(self, system_dim, memory_dim, teeth):
        teeth = tuple(teeth)
        if not teeth:
            raise ValidationError("a comb needs at least one tooth")
        total = system_dim * memory_dim
        for t in teeth:
            if t.dim != total:
                raise DimensionMismatchError(
                    f"tooth dim {t.dim} != system*memory = {total}"
                )
        object.__setattr__(self, "system_dim", int(system_dim))
        object.__setattr__(self, "memory_dim", int(memory_dim))
        object.__setattr__(self, "teeth", teeth)

    @property
    def slots(self):
        return len(self.teeth) - 1


def apply_comb(c: Comb, inputs) -> KrausChannel:
    """Thread the input channels through the comb's slots."""
    inputs = list(inputs)
    if len(inputs) != c.slots:
        raise ValidationError(f"comb has {c.slots} slots, got {len(inputs)} inputs")
    d, m = c.system_dim, c.memory_dim
    for ch in inputs:
        if ch.dim_in != d or ch.dim_out != d:
            raise DimensionMismatchError(f"slot channel dim {ch.dim_in} != system dim {d}")
    ops = [c.teeth[0].matrix[:, ::m]]  # memory at |0⟩, as in apply_superchannel
    wires = (d, m, d)  # system, memory, and the input index riding along
    for slot, ch in enumerate(inputs):
        tooth = c.teeth[slot + 1].matrix
        ops = [tooth @ apply_to_subsystems(op, wires, k, [0]).reshape(d * m, d)
               for op in ops for k in ch.kraus_ops]
    return KrausChannel([op[j::m] for op in ops for j in range(m)])
