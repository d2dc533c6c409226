"""Dense complex linear algebra and exact quantum-state semantics.

States, unitaries, channels, exact outcome tables and seeded sampling
over explicit numpy arrays. Subsystem ordering is big-endian: the leftmost factor of a
tensor product owns the most significant digits of a composite index,
matching ``numpy.kron``.
"""

from __future__ import annotations

import functools
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
    if not np.isfinite(m).all():
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
        if not np.isfinite(vec).all():
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


def unitarity_residuals(stack):
    """max |U†U − I| of each matrix U in a (k, n, n) stack, as k floats;
    NaN or inf, without a warning, where U†U overflows. I is subtracted
    from the diagonal of the fresh product in place."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = stack.conj().mT @ stack
        gram.reshape(len(stack), -1)[:, :: stack.shape[1] + 1] -= 1
        return np.abs(gram).max(axis=(1, 2))


@dataclass(frozen=True, eq=False)
class UnitaryOp:
    """Unitary matrix, validated U†U = I within tolerance."""

    matrix: np.ndarray

    def __init__(self, matrix, tol=DEFAULT_TOL):
        m = _as_matrix(matrix, "unitary")
        if m.shape[0] != m.shape[1]:
            raise ValidationError(f"unitary must be square, got {m.shape}")
        (resid,) = unitarity_residuals(m[np.newaxis])
        if not resid <= tol * m.shape[0]:  # a NaN residual fails too
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

    @functools.cached_property
    def eigh(self):
        """(eigenvalues, eigenvectors) of the matrix by `np.linalg.eigh`,
        computed on first use and read-only."""
        vals, vecs = np.linalg.eigh(self.matrix)
        vals.setflags(write=False)
        vecs.setflags(write=False)
        return vals, vecs


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

    def rewind(self, doubles):
        """Step the stream back over its last `doubles` doubles. PCG64's
        jump-ahead is modular in its 128-bit state (O'Neill, "PCG",
        HMC-CS-2014-0905), so advancing 2¹²⁸ − m steps undoes m of them."""
        self._gen.bit_generator.advance((1 << 128) - int(doubles))

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
_MASK32, _MASK64 = 2**32 - 1, 2**64 - 1

# Shots whose streams one vectorized pass derives, and entries whose states
# one product derives: the seeding peaks at about 18 words of 8 bytes a shot
# (36 KiB a block), the product at about 10 a shot and entry (640 KiB).
SHOT_BLOCK = 256
ENTRY_BLOCK = 32


def _seed_pool(seed):
    """SeedSequence pool of `seed` with every entropy word mixed in but the
    spawn key, which comes last, and the hash constant that word starts at.
    The pool is numpy's `SeedSequence(seed).pool`: a seed of fewer words
    than the pool hashes zeros in their place, as the spawn key's padding
    does. Each hash of a word advances the constant by one factor _MULT_A:
    one per pool word, one per ordered pair of them, four per later word."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    words = max(-(-seed.bit_length() // 32), 1)
    hashes = _POOL_SIZE**2 + _POOL_SIZE * max(words - _POOL_SIZE, 0)
    return np.random.SeedSequence(seed).pool, _INIT_A * pow(_MULT_A, hashes, 2**32) & _MASK32


def _block_seeds(pool, hash_const, shots):
    """PCG64 seed words (initstate high, low, initseq high, low) of the
    shot ids in the uint32 array `shots`: one uint64 row each, one entry
    per shot."""
    # the shot word is mixed into each pool word in turn, at successive
    # hash constants: SeedSequence's hashmix and mix of all four at once, in
    # uint32 arithmetic, which wraps mod 2**32 without a mask
    consts = [hash_const * _MULT_A**i & _MASK32 for i in range(_POOL_SIZE + 1)]
    consts = np.array(consts, dtype=np.uint32)[:, None]
    mixed = (shots ^ consts[:-1]) * consts[1:]
    mixed ^= mixed >> 16
    mixed *= _MIX_MULT_R
    mixed = (pool * _MIX_MULT_L)[:, None] - mixed
    mixed ^= mixed >> 16
    # generate_state(4, uint64): 8 words cycling over the pool, paired low first
    consts = np.array([_INIT_B * _MULT_B**i & _MASK32 for i in range(9)], dtype=np.uint32)
    words = mixed ^ consts[:-1].reshape(2, _POOL_SIZE, 1)
    del mixed
    words *= consts[1:].reshape(2, _POOL_SIZE, 1)
    words ^= words >> 16
    words = words.reshape(4, 2, -1)
    seeds = words[:, 1].astype(np.uint64)
    seeds <<= 32
    seeds |= words[:, 0]
    return seeds


# PCG64 over shots, on uint64 arrays with one entry per shot: a 128-bit
# value is two arrays, its high and low halves ("limbs"). Arrays wrap
# silently where numpy scalars warn, so no step works on a scalar.


def _times(hi, lo, mult_hi, mult_lo):
    """(hi, lo)·mult mod 2**128 on limbs that broadcast, as (high, low). The
    high half of lo·mult_lo is summed from 32-bit halves."""
    lo_hi, lo_lo = lo >> 32, lo & _MASK32
    low_32, high_32 = mult_lo & _MASK32, mult_lo >> 32
    # (lo·mult_lo) >> 64, the middle products' carries in `mid` and `cross`
    mid = lo_lo * low_32
    mid >>= 32
    mid += lo_hi * low_32
    cross = lo_lo * high_32
    cross += mid & _MASK32
    high = lo_hi * high_32
    mid >>= 32
    high += mid
    cross >>= 32
    high += cross
    high += hi * mult_lo
    high += lo * mult_hi
    return high, lo * mult_lo


def _plus(hi, lo, add_hi, add_lo):
    """(hi, lo) + add mod 2**128 on limbs, written into hi and lo."""
    lo += add_lo
    hi += add_hi
    hi += lo < add_lo
    return hi, lo


def _affine(rows, mult):
    """a_e·state + c_e·inc mod 2**128 of every shot for each entry e, as
    (high, low) arrays of one row per entry: `rows` holds (state, inc) ×
    (high, low) × shot and `mult` (a, c) × (high, low) × entry, both uint64.
    One product of the stacked rows (state, inc) by (a_e, c_e), one sum."""
    high, low = _times(rows[:, 0, None], rows[:, 1, None], mult[:, 0, :, None], mult[:, 1, :, None])
    return _plus(high[0], low[0], high[1], low[1])


def _xsl_rr(hi, lo):
    """PCG64's output of a state (XSL-RR 128/64): its halves xored, rotated
    right by its top 6 bits."""
    folded, rot = hi ^ lo, hi >> 58
    return (folded >> rot) | (folded << ((64 - rot) & 63))


def _start_limbs(pool, hash_const, shots):
    """What PCG64's srandom seeds each shot id in the uint32 array `shots`
    from, given its `_block_seeds` words, as limbs: one uint64 array of rows
    initstate high, initstate low, inc high, inc low, with inc = 2·initseq
    + 1 mod 2**128. srandom steps the zero state to inc, adds initstate and
    steps again, so it seeds the state MULT·initstate + (MULT + 1)·inc."""
    limbs = _block_seeds(pool, hash_const, shots)
    carry = limbs[3] >> 63
    limbs[2:] <<= 1
    limbs[2] |= carry
    limbs[3] |= 1
    return limbs


def _pcg64_state(state, inc):
    """PCG64's `state` dict of a (state, inc) of Python ints."""
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


def _check_state(seed, reference, state, inc, when):
    """Raise unless `reference`, numpy's generator of shot 0, stands at (state, inc)."""
    if reference.bit_generator.state["state"] != {"state": state, "inc": inc}:
        raise StreamDerivationError(
            f"the derived PCG64 state of seed {seed}, shot 0 differs from numpy's {when}"
        )


def _each(draw, seed, first, hi, lo, inc):
    """The states (hi, lo) `draw(stream)` leaves on each shot's stream in
    turn from shot `first`, its (state, inc limbs) set into one reused PCG64
    and read back, so it draws as `RngStream(seed, stream_id=shot)`."""
    generator = np.random.Generator(np.random.PCG64(0))
    states = []
    for shot, (h, l, inc_h, inc_l) in enumerate(zip(hi.tolist(), lo.tolist(), *inc.tolist()), first):
        generator.bit_generator.state = _pcg64_state(h << 64 | l, inc_h << 64 | inc_l)
        draw(RngStream._over(seed, shot, generator))
        states.append(generator.bit_generator.state["state"]["state"])
    return np.array([s >> 64 for s in states], np.uint64), np.array([s & _MASK64 for s in states], np.uint64)


def shot_uniforms(seed, shots, positions):
    """A (shots, m) array whose row s holds the doubles of `RngStream(seed,
    stream_id=s)` at the m int entries of `positions`, sorted, distinct draw
    positions (0 is its first draw), bit for bit; `shots` is a count, for
    shot ids 0 to shots − 1, or a range of shot ids with step 1, whose
    first shot takes row 0. An entry may instead be a pair (p, draw), the
    stream cursor: once p more doubles are drawn, `draw(stream)` is called
    on each shot's stream in turn (`_each`), and may draw any number of
    them; positions after it count from where it leaves each stream.

    PCG64 is an LCG on 128-bit states, so k steps of it are one affine map
    of the state and inc (F. B. Brown, "Random Number Generation with
    Arbitrary Strides", Trans. Am. Nucl. Soc. 71, 202, 1994): MULT**k·state
    + Σ_{i < k} MULT**i·inc mod 2**128. Between two cursors every entry's
    state is such a map of where the part starts, srandom's inputs
    (`_start_limbs`) or a cursor's states, so a block of SHOT_BLOCK shots
    derives the states of ENTRY_BLOCK entries at once (`_affine`), whatever
    their gaps, and makes no draw that is not read. Each double is the
    XSL-RR output's top 53 bits times 2**-53, as `Generator.random` makes
    it. The seed's own words are hashed once, by numpy's `SeedSequence`.

    Shot 0 is checked against numpy's own generator for it
    (`StreamDerivationError`): its seeded state first, then the doubles
    read before each cursor and the state handed to its `draw`, before the
    draw is made. With no entry, shot 0 alone is derived, for its check,
    and none when the shots start later. The array is the transpose of a
    C-ordered one, so one position's doubles over all shots are contiguous.
    """
    if isinstance(shots, int):
        shots = range(shots)
    if shots.stop > 2**32:
        raise ValidationError(f"shot ids must fit one 32-bit word, got {shots.stop} shots")
    mult, mask = _PCG_MULT, 2**128 - 1
    # the entries cut after each cursor: each part's maps from where it
    # starts, (a, c) × (high, low) × entry, its read positions and its
    # cursor, (position, draw), or None
    parts, maps, reads = [], [], []
    a, c, steps = mult, mult + 1, 0  # srandom's, from (initstate, inc)
    for entry in positions:
        position, draw = entry if isinstance(entry, tuple) else (entry, None)
        for _ in range(position + (draw is None) - steps):
            a, c = a * mult & mask, (c * mult + 1) & mask
        steps = position + (draw is None)
        maps.append((a >> 64, a & _MASK64, c >> 64, c & _MASK64))
        if draw is None:
            reads.append(position)
        else:
            parts.append((np.array(maps, np.uint64).T.reshape(2, 2, -1), reads, entry))
            maps, reads, a, c, steps = [], [], 1, 0, 0
    parts.append((np.array(maps, np.uint64).T.reshape(2, 2, -1), reads, None))
    out = np.empty((sum(len(reads) for _, reads, _ in parts), len(shots)))
    pool, hash_const = _seed_pool(seed)
    derived = shots.stop if parts[0][0].size else min(shots.stop, 1)
    for first in range(shots.start, derived, SHOT_BLOCK):
        ids = np.arange(first, min(first + SHOT_BLOCK, derived), dtype=np.uint32)
        limbs = _start_limbs(pool, hash_const, ids)
        rows = limbs.reshape(2, 2, -1)  # (state, inc) × (high, low) × shot, initstate first
        block = out[:, first - shots.start : first - shots.start + ids.size]
        if first == 0:
            init_0, inc_0 = (h << 64 | l for h, l in limbs[:, 0].reshape(2, 2).tolist())
            reference = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))))
            _check_state(seed, reference, (mult * init_0 + (mult + 1) * inc_0) & mask, inc_0, "seeding")
        row = 0
        for mults, reads, cursor in parts:
            for k in range(0, mults.shape[2], ENTRY_BLOCK):
                hi, lo = _affine(rows, mults[..., k : k + ENTRY_BLOCK])
                n = min(len(reads) - k, ENTRY_BLOCK)
                np.multiply(_xsl_rr(hi[:n], lo[:n]) >> 11, 2.0**-53, out=block[row + k : row + k + n])
            row += len(reads)
            if first == 0 and mults.size:
                numpy_doubles = reference.random(cursor[0] if cursor else reads[-1] + 1)
                if block[row - len(reads) : row, 0].tolist() != numpy_doubles[reads].tolist():
                    raise StreamDerivationError(
                        f"the doubles derived for seed {seed}, shot 0 differ from numpy's PCG64 output"
                    )
            if cursor is None:
                continue
            if first == 0:
                state_0 = hi[-1, 0].item() << 64 | lo[-1, 0].item()
                _check_state(seed, reference, state_0, inc_0, f"after {cursor[0]} draws")
            rows[0] = _each(cursor[1], seed, first, hi[-1], lo[-1], limbs[2:])
            if first == 0:
                reference.bit_generator.state = _pcg64_state(rows[0, 0, 0].item() << 64 | rows[0, 1, 0].item(), inc_0)
    return out.T


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def kron_all(ops):
    """Kronecker product of the operators in order; the leftmost factor is
    the most significant subsystem."""
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
    probs = np.maximum((np.abs(moved) ** 2).sum(axis=1), 0.0)
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
