"""Dense complex linear algebra and exact quantum-state semantics.

States, unitaries, channels, exact outcome tables and seeded sampling
over explicit numpy arrays. Subsystem ordering is big-endian: the leftmost factor of a
tensor product owns the most significant digits of a composite index,
matching ``numpy.kron``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    NumericalError,
    StreamDerivationError,
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

    def __init__(self, amplitudes, subsystem_dims=None):
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(vec)):
            raise ValidationError("amplitudes contain non-finite entries")
        if subsystem_dims is None:
            subsystem_dims = (vec.size,)
        dims = _check_subsystems(vec.size, subsystem_dims)
        norm = float(np.linalg.norm(vec))
        if abs(norm - 1.0) > DEFAULT_TOL:
            raise ValidationError(f"state norm {norm} differs from 1 beyond {DEFAULT_TOL}")
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

    def __init__(self, matrix, subsystem_dims=None):
        m = _as_matrix(matrix, "density matrix")
        if m.shape[0] != m.shape[1]:
            raise ValidationError(f"density matrix must be square, got {m.shape}")
        if subsystem_dims is None:
            subsystem_dims = (m.shape[0],)
        dims = _check_subsystems(m.shape[0], subsystem_dims)
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.conj().T).max() > DEFAULT_TOL * scale:
            raise ValidationError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > DEFAULT_TOL * m.shape[0]:
            raise ValidationError(f"trace {tr} differs from 1 beyond tolerance")
        lo = float(np.linalg.eigvalsh(m).min())
        if lo < -DEFAULT_TOL * scale * m.shape[0]:
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

    def __init__(self, matrix):
        m = _as_matrix(matrix, "observable")
        if m.shape[0] != m.shape[1]:
            raise ValidationError(f"observable must be square, got {m.shape}")
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.conj().T).max() > DEFAULT_TOL * scale:
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

    Distinct stream_ids give statistically independent streams: each shot
    of `control.execute` draws from its own.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        object.__setattr__(self, "_gen", np.random.Generator(np.random.PCG64(seq)))

    @classmethod
    def _over(cls, seed, stream_id, generator):
        """Stream (seed, stream_id) drawing from `generator`, which the
        caller has seeded as `__post_init__` would."""
        stream = object.__new__(cls)
        object.__setattr__(stream, "seed", seed)
        object.__setattr__(stream, "stream_id", stream_id)
        object.__setattr__(stream, "_gen", generator)
        return stream

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
        """`size` indices sampled from an explicit probability vector.

        Draws exactly as `Generator.choice(p.size, size, p=p / total)`: the
        `checked_cdf` searched on `size` doubles from the stream.
        """
        return checked_cdf(probabilities).searchsorted(self._gen.random(size), side="right")

    def normal(self, shape):
        return self._gen.normal(size=shape)


# numpy's seeding of `PCG64(SeedSequence(seed, spawn_key=(shot,)))`: the
# SeedSequence hash (numpy/random/bit_generator.pyx, after O'Neill's
# seed_seq_fe) of the seed's 32-bit words, zero-padded to the pool size, then
# the shot word, and PCG64's srandom step (O'Neill, "PCG", HMC-CS-2014-0905).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1

# Shots whose seeds `shot_streams` derives in one vectorized pass: the
# pass keeps four uint64 words per shot, 8 KiB a block.
SHOT_BLOCK = 256


def _hashmix(value, hash_const):
    """SeedSequence's hashmix of a uint32 (a Python int or a uint32 array):
    (mixed value, next hash constant)."""
    hash_const_next = hash_const * _MULT_A & _MASK32
    value = (value ^ hash_const) * hash_const_next & _MASK32
    return value ^ (value >> 16), hash_const_next


def _mix(x, y):
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ (result >> 16)


def _seed_pool(seed):
    """SeedSequence pool of `seed` with every entropy word mixed in but the
    spawn key, which comes last, and the hash constant that word starts at."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    words = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    return pool, hash_const


def _block_seeds(pool, hash_const, shots):
    """PCG64 seed words (initstate high, low, initseq high, low) of the
    shot ids in the uint32 array `shots`, one uint64 row per shot."""
    pool = list(pool)
    for dst in range(_POOL_SIZE):
        value, hash_const = _hashmix(shots, hash_const)
        pool[dst] = _mix(pool[dst], value)
    # generate_state(4, uint64): 8 words cycling over the pool, paired low first
    seeds = np.empty((shots.size, 4), dtype=np.uint64)
    hash_const = _INIT_B
    for i in range(8):
        hash_const_next = hash_const * _MULT_B & _MASK32
        value = (pool[i % _POOL_SIZE] ^ hash_const) * hash_const_next
        value ^= value >> 16
        hash_const = hash_const_next
        if i % 2:
            seeds[:, i // 2] |= value.astype(np.uint64) << np.uint64(32)
        else:
            seeds[:, i // 2] = value
    return seeds


def _pcg64_state(seed_words):
    """(state, inc) of PCG64 seeded from one row of `_block_seeds`."""
    high, low, seq_high, seq_low = seed_words.tolist()
    inc = ((seq_high << 64 | seq_low) << 1 | 1) & _MASK128
    state = ((inc + (high << 64 | low)) * _PCG_MULT + inc) & _MASK128
    return state, inc


def shot_streams(seed, shots):
    """For each shot s in range(shots), in order, an `RngStream` whose draws
    equal those of `RngStream(seed, stream_id=s)` bit for bit.

    Only the spawn-key word of the SeedSequence differs between shots, so
    the seed's own words are mixed once per call, the rest of the hash runs
    vectorized over blocks of SHOT_BLOCK shots, and each shot re-seeds one
    PCG64 in place. The streams share that generator: draw from each only
    before taking the next. Before the first is given, shot 0's derived
    state is checked against numpy's seeding, and a mismatch raises
    `StreamDerivationError`.
    """
    if shots > 2**32:
        raise ValidationError(f"shot ids must fit one 32-bit word, got {shots} shots")
    pool, hash_const = _seed_pool(seed)
    bit_generator = np.random.PCG64()
    generator = np.random.Generator(bit_generator)
    expected = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))).state["state"]
    for first in range(0, shots, SHOT_BLOCK):
        block = np.arange(first, min(first + SHOT_BLOCK, shots), dtype=np.uint32)
        seeds = _block_seeds(pool, hash_const, block)
        if first == 0 and _pcg64_state(seeds[0]) != (expected["state"], expected["inc"]):
            raise StreamDerivationError(
                f"the derived PCG64 state of seed {seed}, shot 0 differs from numpy's seeding"
            )
        for row, shot in enumerate(range(first, first + block.size)):
            state, inc = _pcg64_state(seeds[row])
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield RngStream._over(seed, shot, generator)


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
    order = keep + traced
    kept_dim = math.prod(dims[i] for i in keep)
    traced_dim = math.prod(dims[i] for i in traced)
    tensor = np.asarray(matrix, dtype=complex).reshape(dims + dims)
    tensor = tensor.transpose(order + [n + i for i in order])
    return np.trace(tensor.reshape(kept_dim, traced_dim, kept_dim, traced_dim), axis1=1, axis2=3)


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


def eig_unitary(u: UnitaryOp):
    """Diagonalize a unitary as U = V D V† with V genuinely unitary.

    Orthonormalizes numpy's eigenvectors with one QR. Eigenspaces of a
    normal matrix are orthogonal, so Gram–Schmidt mixes each column only
    with earlier columns of its own eigenspace, which also makes a
    degenerate eigenspace orthonormal.
    """
    _, vecs = np.linalg.eig(u.matrix)
    v, _ = np.linalg.qr(vecs)
    t = v.conj().T @ u.matrix @ v
    off = np.abs(t - np.diag(np.diag(t))).max() if t.shape[0] > 1 else 0.0
    if off > DEFAULT_TOL * u.dim * 10:
        raise NumericalError(f"V†UV not diagonal (off-diagonal {off})")
    eigvals = np.diag(t).copy()
    eigvals /= np.abs(eigvals)  # snap onto the unit circle
    recon = np.abs(v @ np.diag(eigvals) @ v.conj().T - u.matrix).max()
    if recon > DEFAULT_TOL * u.dim * 10:
        raise NumericalError(f"eigendecomposition residual {recon}")
    return eigvals, UnitaryOp(v)


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


def random_density(dim, rng: RngStream) -> DensityOperator:
    z = (rng.normal((dim, dim)) + 1j * rng.normal((dim, dim))) / math.sqrt(2.0)
    m = z @ z.conj().T
    return DensityOperator(m / np.trace(m).real)


def random_pure_state(dim, rng: RngStream) -> PureState:
    v = rng.normal((dim,)) + 1j * rng.normal((dim,))
    return PureState(v / np.linalg.norm(v))


def trace_distance(a, b) -> float:
    """Half the nuclear norm of the difference; accepts raw matrices."""
    am = a.matrix if hasattr(a, "matrix") else np.asarray(a, dtype=complex)
    bm = b.matrix if hasattr(b, "matrix") else np.asarray(b, dtype=complex)
    return float(0.5 * np.linalg.norm(am - bm, ord="nuc"))


def state_fidelity(a: PureState, b: PureState) -> float:
    """|⟨a|b⟩|²; global phase drops out."""
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
