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

from .duality import ChoiState, choi_of_unitary, unvec, vec
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    NumericalError,
    ValidationError,
)
from .kernel import DEFAULT_TOL, PureState, RngStream, UnitaryOp, checked_cdf, eig_unitary


class ByproductStrategy(enum.Enum):
    REPEAT_UNTIL_SUCCESS = "repeat_until_success"
    CORRECTION_TABLE = "correction_table"
    SYMMETRIC_PAIR = "symmetric_pair"


@dataclass(frozen=True, eq=False)
class BellBasis:
    """Generalized-Pauli Bell basis, held as index tables only.

    Outcome k is the Bell state (σ_k ⊗ I)|ω⟩ with σ_k = X^a Z^b, where
    X^a|j⟩ = |shift[a, j]⟩ and Z^b|j⟩ = chars[b, j]|j⟩, and σ_0 = I. For
    d = 2ⁿ the shift is XOR on n-bit indices with characters (−1)^{b·j},
    and k interleaves the per-qubit digits 2a_q + b_q, qubit 0 most
    significant. Any other d uses the Weyl group: addition mod d, characters
    ω^{bj} with ω = exp(2πi/d), and k = a·d + b. `order[k]` is the flat
    index a·d + b of outcome k. No Pauli matrix is built: σ_k acts as a
    row gather times a phase (the symplectic picture of the Pauli group).
    """

    d: int
    shift: np.ndarray
    chars: np.ndarray
    order: np.ndarray

    def __post_init__(self):
        for table in (self.shift, self.chars, self.order):
            table.setflags(write=False)

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

    def apply(self, k, x, adjoint=False):
        """σ_k·x, or σ_k†·x with `adjoint`, for an array x of d rows."""
        a, b = divmod(int(self.order[k]), self.d)
        # σ_k|j⟩ = phases[j]·|rows[j]⟩
        rows, phases = self.shift[a], self.chars[b].reshape((-1,) + (1,) * (x.ndim - 1))
        if adjoint:
            return phases.conj() * x[rows]
        out = np.empty(x.shape, dtype=complex)
        out[rows] = phases * x
        return out


@functools.lru_cache(maxsize=32)
def _weyl_basis(d):
    j = np.arange(d)
    shift = (j[:, None] + j) % d
    chars = np.exp(2j * math.pi * (np.outer(j, j) % d) / d)
    return BellBasis(d, shift, chars, np.arange(d * d))


@functools.lru_cache(maxsize=32)
def _qubit_basis(n):
    d = 2**n
    j = np.arange(d)
    shift = j[:, None] ^ j
    parity = np.bitwise_count(j[:, None] & j).astype(int) & 1
    chars = (1 - 2 * parity).astype(complex)
    # base-4 digit q of k, counted from the least significant, belongs to
    # qubit n-1-q, which is bit q of a and b
    k = np.arange(d * d)
    a = np.zeros_like(k)
    b = np.zeros_like(k)
    for q in range(n):
        digit = (k >> (2 * q)) & 3
        a |= (digit >> 1) << q
        b |= (digit & 1) << q
    return BellBasis(d, shift, chars, a * d + b)


@dataclass(frozen=True, eq=False)
class SymmetricFactors:
    """Pair of symmetric unitaries whose product is the stored gate."""

    s1: UnitaryOp
    s2: UnitaryOp


def symmetric_decompose(u: UnitaryOp) -> SymmetricFactors:
    """Split U into symmetric unitary factors S1·S2 = U.

    From U = V D V†: S1 = V D V^t and S2 = V* V† are both symmetric and
    multiply back to U exactly. Symmetric inputs take the fast path (U, I).
    """
    m = u.matrix
    if np.abs(m - m.T).max() <= DEFAULT_TOL:
        return SymmetricFactors(u, UnitaryOp(np.eye(u.dim)))
    vals, v = eig_unitary(u)
    vm = v.matrix
    s1 = vm @ np.diag(vals) @ vm.T
    s2 = vm.conj() @ vm.conj().T
    return SymmetricFactors(UnitaryOp(s1, tol=DEFAULT_TOL * 10), UnitaryOp(s2, tol=DEFAULT_TOL * 10))


@dataclass(frozen=True, eq=False)
class StoredProgram:
    """A unitary held as its dual state plus the data composition needs.

    `amplitudes` is the dual state vec(U)/√d of the validated unitary `op`,
    and `basis` the Bell basis a composition measures it in. The symmetric
    factors and the Choi matrix are derived on first use and kept, so a
    copy that is only teleported or injected never builds them.
    """

    op: UnitaryOp
    description: object | None = None

    @property
    def d(self) -> int:
        return self.op.dim

    @property
    def basis(self) -> BellBasis:
        return BellBasis.for_dim(self.d)

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        amp = vec(self.op.matrix)
        amp.setflags(write=False)
        return amp

    @functools.cached_property
    def choi(self) -> ChoiState:
        return choi_of_unitary(self.op)

    @functools.cached_property
    def symmetric_factors(self) -> SymmetricFactors:
        return symmetric_decompose(self.op)

    def unitary(self) -> np.ndarray:
        return unvec(self.amplitudes)


def stored_program(u, description=None) -> StoredProgram:
    """Build a stored program from a unitary, validated at DEFAULT_TOL."""
    uop = u if isinstance(u, UnitaryOp) else UnitaryOp(u)
    return StoredProgram(op=uop, description=description)


def bell_probabilities(joint: PureState, wire_a, wire_b, basis: BellBasis):
    """Exact outcome distribution of a Bell measurement on a wire pair.

    Returns (probabilities, residual tensors): entry k of the residual list
    is the unnormalized amplitude array over the surviving wires after
    projecting (wire_a, wire_b) onto basis state k. With the pair first,
    residual k is Σ_j χ̄_b(j)·T[s_a(j), j]/√d: one gather along the shift
    for every a, then one character transform over j.
    """
    dims = joint.subsystem_dims
    d = basis.d
    if dims[wire_a] != d or dims[wire_b] != d:
        raise DimensionMismatchError(
            f"wires carry dims {dims[wire_a]},{dims[wire_b]}; basis needs {d}"
        )
    if wire_a == wire_b:
        raise ValidationError("Bell measurement needs two distinct wires")
    tensor = np.moveaxis(joint.tensor(), (wire_a, wire_b), (0, 1)).reshape(d, d, -1)
    gathered = tensor[basis.shift, np.arange(d)]  # [a, j, rest] = T[s_a(j), j, rest]
    residuals = (basis.chars.conj() @ gathered).reshape(d * d, -1)[basis.order]
    residuals /= math.sqrt(d)
    probs = np.maximum((np.abs(residuals) ** 2).sum(axis=1), 0.0)
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


def byproduct_correction(u2, basis: BellBasis, k) -> np.ndarray:
    """C_k = U2 σ_k U2†: removes Bell outcome k's byproduct from the head."""
    return u2 @ basis.apply(k, u2.conj().T)


def fusion_probabilities(m1, m2, basis: BellBasis) -> np.ndarray:
    """All d² outcome probabilities of the Bell measurement in `teleport`.

    For dual states M1 = unvec(amp1)/√d and M2 = unvec(amp2)/√d,
    p_k = tr(σ̄_k A σ_kᵀ B)/d with A = M2ᵀM̄2 and B = M̄1M1ᵀ. For
    σ_k = X^a Z^b the trace is Σ_g χ_b(g)·F_a(g) over the group difference
    g, where F_a(g) = Σ_j A[j, s_g(j)]·B[s_g(s_a(j)), s_a(j)] is a
    correlation over j for each g. Both sums are character transforms, so
    all d² probabilities take six d×d products: O(d³) time, O(d²) memory.
    `Composition` takes p_k = 1/d², their value for unitaries' dual states.
    """
    d = basis.d
    chi = basis.chars
    cols = np.arange(d)
    x = (m2.T @ m2.conj())[cols, basis.shift]  # x[g, j] = A[j, s_g(j)]
    y = (m1.conj() @ m1.T)[basis.shift, cols]  # y[g, j] = B[s_g(j), j]
    corr = ((x @ chi.conj()) * (y @ chi)) @ chi.conj()  # d·F_a(g) at [g, a]
    probs = (chi @ corr).real.T.reshape(-1)[basis.order] / (d * d)
    return np.maximum(probs, 0.0)


# Repeat-until-success gives up after this many rounds per Bell outcome. For
# unitary programs the trivial outcome has probability 1/d², so a correct run
# exceeds 64·d² rounds with probability (1 - 1/d²)^(64·d²) < e⁻⁶⁴.
MAX_ROUNDS_PER_OUTCOME = 64


def _checked_norm(amp1, amp2):
    """The norm of the joint state amp1 ⊗ amp2, which must be 1 within DEFAULT_TOL."""
    norm = math.sqrt(np.vdot(amp1, amp1).real * np.vdot(amp2, amp2).real)
    if abs(norm - 1.0) > DEFAULT_TOL:
        raise ValidationError(f"joint state norm {norm} differs from 1 beyond {DEFAULT_TOL}")
    return norm


@functools.lru_cache(maxsize=32)
def _uniform_cdf(d, repeat):
    """The cdf of 1/d² for each outcome, or with `repeat` of (1/d², 1 − 1/d²)."""
    return checked_cdf([1 / d**2, 1 - 1 / d**2] if repeat else np.full(d * d, 1 / d**2))


def _draw_round(cdf, d, repeat, rng: RngStream):
    """(outcome k, rounds drawn) of one teleportation: one draw from `cdf`,
    or with `repeat` draws until the trivial outcome, at most 64·d².

    Repeat-until-success takes its doubles in blocks of d², the mean round
    count of a unitary composition (`RngStream.uniforms`), ends on the first
    u < cdf[0], the test by which `RngStream.draw` gives k = 0, and rewinds
    the stream over the doubles of the block after it. A block divides the
    bound, so the rounds, the stream position after them and the bound's
    error are those of one `draw` per round.
    """
    if not repeat:
        return rng.draw(cdf), 1
    max_rounds = MAX_ROUNDS_PER_OUTCOME * d * d
    block = d * d
    for drawn in range(0, max_rounds, block):
        u = rng.uniforms(block)
        hit = int(np.argmax(u < cdf[0]))
        if u[hit] < cdf[0]:
            rng.rewind(block - hit - 1)
            return 0, drawn + hit + 1
    raise NumericalError(
        f"no trivial Bell outcome in {max_rounds} rounds "
        f"(repeat-until-success bound {MAX_ROUNDS_PER_OUTCOME}·d² at d={d})"
    )


def teleport(amp1, amp2, basis: BellBasis, u2, strategy: ByproductStrategy, rng: RngStream):
    """Fuse two dual states by a Bell measurement of head1 against tail2.

    `amp1` and `amp2` are (head, tail) amplitudes of dimension d² each and
    `u2` is the gate the second state carries. Returns (state, rounds), the
    state on the fused (head, tail) pair. Repeat-until-success redraws the
    pair until the trivial outcome, at most 64·d² rounds; every round sees
    fresh copies of the same states, so all rounds draw from one
    probability vector, computed once by `fusion_probabilities`, or from
    its coarse-grained pair (p_0, 1 − p_0). Every other strategy takes one
    round and applies C_k for the sampled outcome k. Rounds are drawn by
    `_draw_round`. The joint state is never built.

    The correction stays per outcome here because a state that is not a
    unitary's dual state, such as an encoded program's, can leave a
    different corrected state for each k.
    """
    repeat = strategy is ByproductStrategy.REPEAT_UNTIL_SUCCESS
    d = basis.d
    m1 = np.asarray(amp1, dtype=complex).reshape(d, d)
    m2 = np.asarray(amp2, dtype=complex).reshape(d, d)
    _checked_norm(m1, m2)
    probs = fusion_probabilities(m1, m2, basis)
    cdf = checked_cdf([probs[0], probs.sum() - probs[0]] if repeat else probs)
    k, rounds = _draw_round(cdf, d, repeat, rng)
    # the residual on (t1, h2) is M1ᵀσ̄_kM2ᵀ/√d; its transpose is in (head, tail) order
    mat = m2 @ basis.apply(k, m1, adjoint=True) / math.sqrt(d * probs[k])
    if k != 0:
        mat = byproduct_correction(u2, basis, k) @ mat
    return PureState(mat.reshape(-1), (d, d)), rounds


def _combined_description(p1: StoredProgram, p2: StoredProgram):
    d1, d2 = p1.description, p2.description
    if d1 is None or d2 is None:
        return None
    combine = getattr(d1, "then", None)  # composed program runs p1's gates first
    return combine(d2) if combine is not None else None


class Composition:
    """`compose(p1, p2, strategy, ·)` built once and sampled often.

    Outcome k of a teleportation round leaves U2σ_k†U1, and C_k turns it
    into U2U1 whatever k is; repeat-until-success ends on k = 0. So the
    composition has one result, `program`: the trivial outcome's fused
    state, through S2 and then S1 for `symmetric_pair`, built here. A round
    fuses two unitaries' dual states, so every outcome has probability
    1/d² and the record says nothing of the programs: a round keeps the
    uniform cdf (`cdfs`) and builds M2·M1·√d over the joint norm it checks,
    with no `fusion_probabilities`. `sample` draws one double per round, or
    for repeat-until-success one per try until the trivial outcome, as the
    per-outcome protocol does (`_draw_round`). It holds no input program.
    """

    def __init__(self, p1: StoredProgram, p2: StoredProgram, strategy: ByproductStrategy):
        if p1.d != p2.d:
            raise DimensionMismatchError(f"program dims differ: {p1.d} vs {p2.d}")
        if strategy is ByproductStrategy.SYMMETRIC_PAIR:
            factors = [vec(f.matrix) for f in (p2.symmetric_factors.s2, p2.symmetric_factors.s1)]
        elif strategy in (ByproductStrategy.REPEAT_UNTIL_SUCCESS, ByproductStrategy.CORRECTION_TABLE):
            factors = [p2.amplitudes]
        else:
            raise ConfigurationError(f"unknown strategy {strategy!r}")
        self._repeat = strategy is ByproductStrategy.REPEAT_UNTIL_SUCCESS
        d = p1.d
        self.cdfs = [_uniform_cdf(d, self._repeat)] * len(factors)
        amp1 = p1.amplitudes
        for amp2 in factors:
            norm = _checked_norm(amp1, amp2)
            # outcome 0 (σ_0 = I) leaves M2·M1/√d at probability norm²/d²
            amp1 = (amp2.reshape(d, d) @ amp1.reshape(d, d) * (math.sqrt(d) / norm)).reshape(-1)
        self.program = stored_program(UnitaryOp(unvec(amp1), tol=1e-8), _combined_description(p1, p2))

    def sample(self, rng: RngStream):
        """(`program`, Bell rounds of its last teleportation)."""
        for cdf in self.cdfs:
            _, rounds = _draw_round(cdf, self.program.d, self._repeat, rng)
        return self.program, rounds


def compose(
    p1: StoredProgram,
    p2: StoredProgram,
    strategy: ByproductStrategy,
    rng: RngStream,
):
    """Compose two stored programs into the program of U2·U1.

    Returns (result program, shots_used). CorrectionTable and SymmetricPair
    are deterministic single-pass protocols; RepeatUntilSuccess redraws
    fresh copies until the heralded trivial outcome (geometric in d²).
    SymmetricPair teleports through S2 and then S1, with one corrected
    round each.
    """
    return Composition(p1, p2, strategy).sample(rng)
