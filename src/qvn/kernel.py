"""Dense complex linear algebra and exact quantum-state semantics.

States, unitaries, channels, and projective measurement over explicit
numpy arrays. Subsystem ordering is big-endian: the leftmost factor of a
tensor product owns the most significant digits of a composite index,
matching ``numpy.kron``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    NumericalError,
    ValidationError,
)

DEFAULT_TOL = 1e-10


def _as_matrix(a, name="matrix"):
    """Coerce to a 2-d complex array with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} contains non-finite entries")
    return m


def _freeze(a):
    arr = np.array(a, dtype=complex)
    arr.setflags(write=False)
    return arr


def _check_subsystems(dim, subsystem_dims):
    dims = tuple(int(d) for d in subsystem_dims)
    if any(d < 1 for d in dims):
        raise ValidationError(f"subsystem dims must be positive, got {dims}")
    if math.prod(dims) != dim:
        raise ValidationError(
            f"product of subsystem dims {dims} does not equal dimension {dim}"
        )
    return dims


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector with a declared tensor factorization."""

    amplitudes: np.ndarray
    subsystem_dims: tuple[int, ...]

    def __init__(self, amplitudes, subsystem_dims=None, tol=DEFAULT_TOL):
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(vec)):
            raise ValidationError("amplitudes contain non-finite entries")
        if subsystem_dims is None:
            subsystem_dims = (vec.size,)
        dims = _check_subsystems(vec.size, subsystem_dims)
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > tol:
            raise ValidationError(f"state norm {norm} differs from 1 beyond {tol}")
        object.__setattr__(self, "amplitudes", _freeze(vec))
        object.__setattr__(self, "subsystem_dims", dims)

    @classmethod
    def _trusted(cls, amplitudes, subsystem_dims):
        """State from a complex vector that qvn computed from validated
        inputs and normalized itself, without re-checking it; the caller
        owns `amplitudes` and gives up writing to it."""
        state = object.__new__(cls)
        amplitudes.setflags(write=False)
        object.__setattr__(state, "amplitudes", amplitudes)
        object.__setattr__(state, "subsystem_dims", tuple(subsystem_dims))
        return state

    @property
    def dim(self):
        return self.amplitudes.size

    def tensor(self):
        """Amplitudes reshaped with one axis per subsystem."""
        return self.amplitudes.reshape(self.subsystem_dims)

    def density(self):
        rho = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityOperator(rho, self.subsystem_dims)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace operator."""

    matrix: np.ndarray
    subsystem_dims: tuple[int, ...]

    def __init__(self, matrix, subsystem_dims=None, tol=DEFAULT_TOL):
        m = _as_matrix(matrix, "density matrix")
        if m.shape[0] != m.shape[1]:
            raise ValidationError(f"density matrix must be square, got {m.shape}")
        if subsystem_dims is None:
            subsystem_dims = (m.shape[0],)
        dims = _check_subsystems(m.shape[0], subsystem_dims)
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.conj().T).max() > tol * scale:
            raise ValidationError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > tol * m.shape[0]:
            raise ValidationError(f"trace {tr} differs from 1 beyond tolerance")
        lo = float(np.linalg.eigvalsh(m).min())
        if lo < -tol * scale * m.shape[0]:
            raise ValidationError(f"density matrix has negative eigenvalue {lo}")
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "subsystem_dims", dims)

    @property
    def dim(self):
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class UnitaryOp:
    """Unitary matrix, validated U†U = I within tolerance."""

    matrix: np.ndarray

    def __init__(self, matrix, tol=DEFAULT_TOL):
        m = _as_matrix(matrix, "unitary")
        if m.shape[0] != m.shape[1]:
            raise ValidationError(f"unitary must be square, got {m.shape}")
        resid = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
        if resid > tol * m.shape[0]:
            raise ValidationError(f"U†U deviates from identity by {resid}")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self):
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian operator whose expectation carries a computation's output."""

    matrix: np.ndarray

    def __init__(self, matrix, tol=DEFAULT_TOL):
        m = _as_matrix(matrix, "observable")
        if m.shape[0] != m.shape[1]:
            raise ValidationError(f"observable must be square, got {m.shape}")
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.conj().T).max() > tol * scale:
            raise ValidationError("observable is not Hermitian within tolerance")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def trace(self):
        return float(np.trace(self.matrix).real)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Trace-preserving channel in Kraus form, Σ K†K = I."""

    kraus_ops: tuple[np.ndarray, ...]
    dim_in: int
    dim_out: int

    def __init__(self, kraus_ops, tol=DEFAULT_TOL):
        ops = tuple(_as_matrix(k, "Kraus operator") for k in kraus_ops)
        if not ops:
            raise ValidationError("channel needs at least one Kraus operator")
        rows, cols = ops[0].shape
        if any(k.shape != (rows, cols) for k in ops):
            raise ValidationError("Kraus operators have inconsistent shapes")
        acc = sum(k.conj().T @ k for k in ops)
        resid = np.abs(acc - np.eye(cols)).max()
        if resid > tol * cols:
            raise ValidationError(f"Σ K†K deviates from identity by {resid}")
        object.__setattr__(self, "kraus_ops", tuple(_freeze(k) for k in ops))
        object.__setattr__(self, "dim_in", cols)
        object.__setattr__(self, "dim_out", rows)

    @property
    def rank(self):
        return len(self.kraus_ops)


# `Generator.choice` accepts p whose sum is within √eps of 1
_CHOICE_ATOL = math.sqrt(np.finfo(float).eps)


def checked_cdf(probabilities):
    """The cdf `Generator.choice(p.size, p=p / total)` draws from, with the
    same checks: a `RngStream.draw` on it samples as `RngStream.choice(p)`.
    """
    p = np.asarray(probabilities, dtype=float)
    total = p.sum()
    if total <= 0:
        raise NumericalError("all probabilities vanish")
    p = p / total
    cdf = p.cumsum()
    # the minimum is NaN, so fails the test, if any entry is not finite
    if p.ndim != 1 or not p.min() >= 0.0 or abs(cdf[-1] - 1.0) > _CHOICE_ATOL:
        raise NumericalError(
            "probabilities must be a finite, non-negative vector that sums to 1"
        )
    cdf /= cdf[-1]
    cdf.setflags(write=False)
    return cdf


class Retention:
    """Entries (complex numbers) that the outcome tables sharing it may
    still keep in built results. Spent entries are not returned, so the
    tables of one run never keep more than the count it starts with."""

    def __init__(self, entries):
        self.left = entries

    def take(self, entries) -> bool:
        """Spend `entries` if that many are left; False, spending none, if not."""
        if entries > self.left:
            return False
        self.left -= entries
        return True


class OutcomeTable:
    """Exact distribution of one measurement, made once and sampled often.

    Holds the `checked_cdf` of the outcome probabilities, kept whatever
    happens, and makes the result of outcome k with `result(k)`. A result
    of `entries` entries is kept for later draws of the same k only while
    `keep`, a `Retention`, admits it; past that, and with no `keep`, it is
    made afresh on every draw. Sampling from the table draws as
    `RngStream.choice(probabilities)` does.
    """

    def __init__(self, probabilities, result, keep: Retention | None = None, entries=0):
        self.cdf = checked_cdf(probabilities)
        self._make = result
        self._keep = keep
        self._entries = entries
        self._results = {}

    def result(self, k):
        if k in self._results:
            return self._results[k]
        value = self._make(k)
        if self._keep is not None and self._keep.take(self._entries):
            self._results[k] = value
        return value

    def sample(self, rng: "RngStream"):
        """(outcome k, its result) for one draw from `rng`."""
        k = rng.draw(self.cdf)
        return k, self.result(k)


@dataclass(frozen=True)
class RngStream:
    """Seeded random stream; identical (seed, stream_id) replays outcomes.

    Independent stream_ids give statistically independent streams, which is
    the contract parallel shot execution relies on.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        object.__setattr__(self, "_gen", np.random.Generator(np.random.PCG64(seq)))

    def random(self):
        return float(self._gen.random())

    def uniforms(self, size):
        return self._gen.random(size)

    def draw(self, cdf):
        """Index sampled from a `checked_cdf`, on one double from the stream."""
        return int(cdf.searchsorted(self._gen.random(), side="right"))

    def choice(self, probabilities):
        """Sample an index from an explicit probability vector.

        Draws exactly as `Generator.choice(p.size, p=p / total)`: the same
        cdf, the same one double from the stream and the same checks, so
        seeded results are unchanged, without its per-call overhead.
        """
        return self.draw(checked_cdf(probabilities))

    def choices(self, probabilities, size):
        p = np.asarray(probabilities, dtype=float)
        total = p.sum()
        if total <= 0:
            raise NumericalError("all probabilities vanish")
        return self._gen.choice(p.size, size=size, p=p / total)

    def normal(self, shape):
        return self._gen.normal(size=shape)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def kron(a, b):
    """Kronecker product; left factor is the most significant subsystem."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_all(ops):
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Reduced density operator over the kept subsystems, in original order."""
    keep = sorted(set(int(i) for i in keep))
    dims = rho.subsystem_dims
    n = len(dims)
    if not keep:
        raise ValidationError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValidationError(f"subsystem index out of range for {n} factors")
    out = partial_trace_matrix(rho.matrix, dims, keep)
    return DensityOperator(out, tuple(dims[i] for i in keep))


def partial_trace_matrix(matrix, dims, keep):
    """partial_trace on a raw matrix; no DensityOperator validation."""
    dims = tuple(dims)
    n = len(dims)
    keep = sorted(set(keep))
    traced = [i for i in range(n) if i not in keep]
    tensor = np.asarray(matrix, dtype=complex).reshape(dims + dims)
    for count, i in enumerate(traced):
        axis = i - sum(1 for j in traced[:count] if j < i)
        ndim_half = tensor.ndim // 2
        tensor = np.trace(tensor, axis1=axis, axis2=axis + ndim_half)
        # np.trace moves the remaining axes forward; row/col halves stay aligned
    kept_dim = math.prod(dims[i] for i in keep) if keep else 1
    return tensor.reshape(kept_dim, kept_dim)


def apply_channel(ch: KrausChannel, rho: DensityOperator) -> DensityOperator:
    """Kraus-form action Σ K ρ K†."""
    if ch.dim_in != rho.dim:
        raise DimensionMismatchError(
            f"channel input dim {ch.dim_in} != state dim {rho.dim}"
        )
    out = np.zeros((ch.dim_out, ch.dim_out), dtype=complex)
    for k in ch.kraus_ops:
        out += k @ rho.matrix @ k.conj().T
    dims = rho.subsystem_dims if ch.dim_out == rho.dim else (ch.dim_out,)
    return DensityOperator(out, dims)


def purity(rho: DensityOperator) -> float:
    """tr(ρ²); equals 1 only for pure states."""
    return float(np.trace(rho.matrix @ rho.matrix).real)


def _validate_projectors(projectors, dim, tol):
    total = np.zeros((dim, dim), dtype=complex)
    for p in projectors:
        m = _as_matrix(p, "projector")
        if m.shape != (dim, dim):
            raise DimensionMismatchError(
                f"projector shape {m.shape} does not match dimension {dim}"
            )
        if np.abs(m - m.conj().T).max() > tol * dim:
            raise ValidationError("projector is not Hermitian within tolerance")
        if np.abs(m @ m - m).max() > tol * dim:
            raise ValidationError("projector is not idempotent within tolerance")
        total += m
    if np.abs(total - np.eye(dim)).max() > tol * dim:
        raise ValidationError("projector set does not sum to the identity")


def measure(state, projectors, rng: RngStream, tol=DEFAULT_TOL):
    """Projective measurement.

    Samples outcome k with probability tr(P_k ρ) and returns
    (outcome index, its exact probability, post-measurement state).
    """
    projs = [np.asarray(p, dtype=complex) for p in projectors]
    if isinstance(state, PureState):
        dim = state.dim
        _validate_projectors(projs, dim, tol)
        probs = np.array(
            [np.vdot(state.amplitudes, p @ state.amplitudes).real for p in projs]
        )
        probs = np.clip(probs, 0.0, None)
        if probs.sum() < tol:
            raise NumericalError("all outcome probabilities below tolerance")
        k = rng.choice(probs)
        post_vec = projs[k] @ state.amplitudes
        post = PureState(post_vec / np.linalg.norm(post_vec), state.subsystem_dims)
        return k, float(probs[k]), post
    if isinstance(state, DensityOperator):
        dim = state.dim
        _validate_projectors(projs, dim, tol)
        probs = np.array([np.trace(p @ state.matrix).real for p in projs])
        probs = np.clip(probs, 0.0, None)
        if probs.sum() < tol:
            raise NumericalError("all outcome probabilities below tolerance")
        k = rng.choice(probs)
        post_m = projs[k] @ state.matrix @ projs[k]
        post = DensityOperator(post_m / np.trace(post_m).real, state.subsystem_dims)
        return k, float(probs[k]), post
    raise ValidationError(f"cannot measure object of type {type(state).__name__}")


def eig_unitary(u: UnitaryOp, tol=DEFAULT_TOL):
    """Diagonalize a unitary as U = V D V† with V genuinely unitary.

    Uses the complex Schur form, which for normal matrices is diagonal and
    returns an orthonormal eigenbasis even in degenerate subspaces.
    """
    t, v = scipy.linalg.schur(u.matrix, output="complex")
    off = np.abs(t - np.diag(np.diag(t))).max() if t.shape[0] > 1 else 0.0
    if off > tol * u.dim * 10:
        raise NumericalError(f"Schur form not diagonal (off-diagonal {off})")
    eigvals = np.diag(t).copy()
    eigvals /= np.abs(eigvals)  # snap onto the unit circle
    recon = np.abs(v @ np.diag(eigvals) @ v.conj().T - u.matrix).max()
    if recon > tol * u.dim * 10:
        raise NumericalError(f"eigendecomposition residual {recon}")
    return eigvals, UnitaryOp(v, tol=tol)


def expectation(obs: Observable, rho: DensityOperator) -> float:
    """tr(Oρ); the vanishing imaginary residue is discarded."""
    if obs.dim != rho.dim:
        raise DimensionMismatchError(f"observable dim {obs.dim} != state dim {rho.dim}")
    return float(np.trace(obs.matrix @ rho.matrix).real)


# ---------------------------------------------------------------------------
# Tensor helpers shared by the circuit layers
# ---------------------------------------------------------------------------


def apply_to_subsystems(amplitudes, dims, op, targets):
    """Apply a square operator to the listed subsystem axes of a state vector."""
    dims = tuple(dims)
    targets = list(targets)
    op = np.asarray(op, dtype=complex)
    d_t = math.prod(dims[t] for t in targets)
    if op.shape != (d_t, d_t):
        raise DimensionMismatchError(
            f"operator shape {op.shape} does not match target dims (total {d_t})"
        )
    tensor = np.asarray(amplitudes, dtype=complex).reshape(dims)
    rest = [i for i in range(len(dims)) if i not in targets]
    perm = targets + rest
    tensor = tensor.transpose(perm).reshape(d_t, -1)
    tensor = op @ tensor
    shaped = tensor.reshape([dims[i] for i in perm])
    inv = np.argsort(perm)
    return shaped.transpose(inv).reshape(-1)


def wire_outcomes(amplitudes, dims, wire):
    """Exact outcome distribution of a computational-basis measurement on
    one subsystem: (probabilities, collapse), where `collapse(k)` gives the
    amplitudes collapsed onto outcome k, the measured wire kept in place."""
    dims = tuple(dims)
    tensor = np.asarray(amplitudes, dtype=complex).reshape(dims)
    moved = np.moveaxis(tensor, wire, 0).reshape(dims[wire], -1)
    probs = np.clip((np.abs(moved) ** 2).sum(axis=1), 0.0, None)
    if probs.sum() <= 0:
        raise NumericalError("state has vanished; no outcome possible")

    def collapse(k):
        collapsed = np.zeros_like(moved)
        collapsed[k] = moved[k] / math.sqrt(probs[k])
        rest = [dims[i] for i in range(len(dims)) if i != wire]
        return np.moveaxis(collapsed.reshape([dims[wire]] + rest), 0, wire).reshape(-1)

    return probs, collapse


def measure_wire_computational(amplitudes, dims, wire, rng: RngStream):
    """Computational-basis measurement on one subsystem.

    Returns (outcome, probability, collapsed amplitudes). The measured wire
    is kept in place, collapsed onto the outcome basis state.
    """
    probs, collapse = wire_outcomes(amplitudes, dims, wire)
    k = rng.choice(probs)
    return k, float(probs[k]), collapse(k)


def haar_random_unitary(dim, rng: RngStream) -> UnitaryOp:
    """Haar-uniform unitary from QR of a complex Gaussian matrix."""
    z = (rng.normal((dim, dim)) + 1j * rng.normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return UnitaryOp(q * phases)


def random_cptp_channel(dim, rank, rng: RngStream) -> KrausChannel:
    """Random channel from a Haar isometry into dim*rank dimensions."""
    z = (rng.normal((dim * rank, dim)) + 1j * rng.normal((dim * rank, dim))) / math.sqrt(2.0)
    q, _ = np.linalg.qr(z)
    kraus = [q[i * dim : (i + 1) * dim, :] for i in range(rank)]
    return KrausChannel(kraus)


def random_density(dim, rng: RngStream, rank=None) -> DensityOperator:
    rank = rank or dim
    z = (rng.normal((dim, rank)) + 1j * rng.normal((dim, rank))) / math.sqrt(2.0)
    m = z @ z.conj().T
    return DensityOperator(m / np.trace(m).real)


def random_pure_state(dim, rng: RngStream, subsystem_dims=None) -> PureState:
    v = rng.normal((dim,)) + 1j * rng.normal((dim,))
    return PureState(v / np.linalg.norm(v), subsystem_dims)


def trace_distance(a, b) -> float:
    """Half the nuclear norm of the difference; accepts raw matrices."""
    am = a.matrix if hasattr(a, "matrix") else np.asarray(a, dtype=complex)
    bm = b.matrix if hasattr(b, "matrix") else np.asarray(b, dtype=complex)
    return float(0.5 * np.linalg.norm(am - bm, ord="nuc"))


def state_fidelity(a: PureState, b: PureState) -> float:
    """|⟨a|b⟩|²; global phase drops out."""
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
