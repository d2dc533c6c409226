import math

import numpy as np
import pytest

from qvn import gates, kernel
from qvn.control import MAX_SHOTS
from qvn.errors import NumericalError, StreamDerivationError, ValidationError
from qvn.kernel import (
    DensityOperator,
    KrausChannel,
    Observable,
    PureState,
    RngStream,
    UnitaryOp,
    apply_channel,
    eig_unitary,
    expectation,
    haar_random_unitary,
    kron_all,
    measure_wire_computational,
    partial_trace,
    purity,
    random_cptp_channel,
    random_density,
    random_pure_state,
    unitarity_residuals,
)


class TestTypes:
    def test_pure_state_normalization_enforced(self):
        with pytest.raises(ValidationError):
            PureState([1.0, 1.0])

    def test_pure_state_subsystem_product(self):
        with pytest.raises(ValidationError):
            PureState([1, 0, 0, 0], (2, 3))

    def test_density_negative_eigenvalue_rejected(self):
        m = np.diag([1.5, -0.5])
        with pytest.raises(ValidationError):
            DensityOperator(m)

    def test_density_trace_one(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.eye(2))

    def test_unitary_validation(self):
        with pytest.raises(ValidationError):
            UnitaryOp([[1, 0], [0, 2]])

    def test_kraus_trace_preserving(self):
        with pytest.raises(ValidationError):
            KrausChannel([gates.P0])

    def test_observable_hermitian(self):
        with pytest.raises(ValidationError):
            Observable([[0, 1], [0, 0]])

    def test_values_frozen(self):
        psi = PureState([1, 0])
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestUnitarityResiduals:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_stack_equals_2d_expression(self, n):
        rng = RngStream(n)
        gen = np.random.default_rng(n)
        gaussian = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        unitaries = [haar_random_unitary(n, rng).matrix for _ in range(3)]
        stack = np.stack([*unitaries, np.diag(np.arange(1.0, n + 1)), gaussian])
        expected = [np.abs(m.conj().T @ m - np.eye(n)).max() for m in stack]
        assert unitarity_residuals(stack).tobytes() == np.array(expected).tobytes()

    def test_failing_members_found_at_their_positions(self):
        rng = RngStream(2)
        stack = np.stack([haar_random_unitary(2, rng).matrix for _ in range(6)])
        stack[1] *= 1 + 1e-9
        stack[4] = np.diag([3.0, 1.0])
        failing = np.flatnonzero(unitarity_residuals(stack) > kernel.DEFAULT_TOL * 2)
        assert failing.tolist() == [1, 4]

    def test_unitary_op_error_text(self):
        with pytest.raises(ValidationError, match=r"^U†U deviates from identity by 8\.0$"):
            UnitaryOp(np.diag([3.0, 1.0]))
        m = haar_random_unitary(4, RngStream(3)).matrix * (1 + 1e-9)
        resid = np.abs(m.conj().T @ m - np.eye(4)).max()
        with pytest.raises(ValidationError) as info:
            UnitaryOp(m)
        assert str(info.value) == f"U†U deviates from identity by {resid}"

    def test_overflowing_gate_fails(self):
        # U†U overflows to a NaN residual, which no threshold passes
        with pytest.raises(ValidationError, match=r"^U†U deviates from identity by nan$"):
            UnitaryOp([[1e300 + 1e300j, 0], [0, 1]])


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron_all([np.eye(2), np.eye(2)]), np.eye(4))

    def test_xx_on_00(self):
        v00 = np.array([1, 0, 0, 0], dtype=complex)
        assert np.allclose(kron_all([gates.X, gates.X]) @ v00, [0, 0, 0, 1])

    def test_h_on_first_qubit(self):
        # direct 4-dim arithmetic: H⊗I |00> = (|00> + |10>)/sqrt(2)
        v00 = np.array([1, 0, 0, 0], dtype=complex)
        expected = np.array([1, 0, 1, 0], dtype=complex) / math.sqrt(2)
        assert np.abs(kron_all([gates.H, np.eye(2)]) @ v00 - expected).max() < 1e-15


class TestPartialTrace:
    def test_bell_marginal_maximally_mixed(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        rho = DensityOperator(np.outer(bell, bell.conj()), (2, 2))
        for keep in ([0], [1]):
            red = partial_trace(rho, keep)
            assert np.abs(red.matrix - np.eye(2) / 2).max() < 1e-12

    def test_product_state(self, rng):
        a = random_density(2, rng)
        b = random_density(3, rng)
        joint = DensityOperator(np.kron(a.matrix, b.matrix), (2, 3))
        assert np.abs(partial_trace(joint, [0]).matrix - a.matrix).max() < 1e-12
        assert np.abs(partial_trace(joint, [1]).matrix - b.matrix).max() < 1e-12

    def test_keep_everything_is_identity(self, rng):
        rho = random_density(6, rng)
        rho = DensityOperator(rho.matrix, (2, 3))
        assert np.abs(partial_trace(rho, [0, 1]).matrix - rho.matrix).max() < 1e-14

    def test_three_factor_middle(self, rng):
        parts = [random_density(2, rng).matrix for _ in range(3)]
        joint = DensityOperator(
            np.kron(np.kron(parts[0], parts[1]), parts[2]), (2, 2, 2)
        )
        assert np.abs(partial_trace(joint, [1]).matrix - parts[1]).max() < 1e-12

    def test_choi_tail_marginal_is_average_output(self, rng):
        # amplitude-damping style channel: both marginals computed two ways
        g = 0.3
        k0 = np.array([[1, 0], [0, math.sqrt(1 - g)]], dtype=complex)
        k1 = np.array([[0, math.sqrt(g)], [0, 0]], dtype=complex)
        ch = KrausChannel([k0, k1])
        bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        omega = np.outer(bell, bell.conj())
        choi = sum(
            np.kron(k, np.eye(2)) @ omega @ np.kron(k, np.eye(2)).conj().T
            for k in ch.kraus_ops
        )
        rho = DensityOperator(choi, (2, 2))
        e_of_identity = sum(k @ k.conj().T for k in ch.kraus_ops)
        assert np.abs(partial_trace(rho, [0]).matrix - e_of_identity / 2).max() < 1e-12
        assert np.abs(partial_trace(rho, [1]).matrix - np.eye(2) / 2).max() < 1e-12

    def test_invalid_index(self, rng):
        rho = random_density(4, rng)
        with pytest.raises(ValidationError):
            partial_trace(rho, [3])


class TestApplyChannel:
    def test_identity_channel(self, rng):
        ch = KrausChannel([np.eye(2)])
        rho = random_density(2, rng)
        assert np.abs(apply_channel(ch, rho).matrix - rho.matrix).max() < 1e-14

    def test_full_dephasing_on_plus(self):
        ch = KrausChannel([gates.P0, gates.P1])
        plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
        rho = DensityOperator(np.outer(plus, plus))
        assert np.abs(apply_channel(ch, rho).matrix - np.eye(2) / 2).max() < 1e-12

    def test_unitary_channel(self, rng):
        u = haar_random_unitary(3, rng)
        ch = KrausChannel([u.matrix])
        rho = random_density(3, rng)
        expected = u.matrix @ rho.matrix @ u.matrix.conj().T
        assert np.abs(apply_channel(ch, rho).matrix - expected).max() < 1e-12

    def test_random_cptp_preserves_trace_and_positivity(self, rng):
        for d in (2, 3, 4):
            ch = random_cptp_channel(d, 3, rng)
            rho = random_density(d, rng)
            out = apply_channel(ch, rho)  # constructor revalidates
            assert abs(np.trace(out.matrix) - 1) < 1e-10
            assert np.linalg.eigvalsh(out.matrix).min() > -1e-10


class TestPurity:
    def test_pure(self):
        rho = DensityOperator(np.diag([1.0, 0.0]))
        assert abs(purity(rho) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert abs(purity(DensityOperator(np.eye(2) / 2)) - 0.5) < 1e-12
        assert abs(purity(DensityOperator(np.eye(4) / 4)) - 0.25) < 1e-12

    def test_bounds_and_rank_one(self, rng):
        for _ in range(20):
            mixed = random_density(4, rng)
            assert purity(mixed) <= 1 + 1e-12
            assert purity(mixed) < 1 - 1e-12  # full-rank states are not pure
            psi = random_pure_state(4, rng)
            assert abs(purity(psi.density()) - 1.0) < 1e-12


class TestMeasure:
    def test_deterministic_outcome(self, rng):
        k, p, post = measure_wire_computational([1, 0], (2,), 0, rng)
        assert k == 0 and abs(p - 1.0) < 1e-12
        assert np.abs(post - [1, 0]).max() < 1e-12

    def test_plus_state_is_unbiased(self):
        plus = np.array([1, 1]) / math.sqrt(2)
        counts = [0, 0]
        n = 10_000
        rng = RngStream(7)
        for _ in range(n):
            k, p, _ = measure_wire_computational(plus, (2,), 0, rng)
            assert abs(p - 0.5) < 1e-12
            counts[k] += 1
        assert abs(counts[0] / n - 0.5) < 4 / math.sqrt(n)

    def test_bell_basis_uniform_on_product_of_mixed(self):
        # h1 and t2 of two stored programs reduce to I/2 ⊗ I/2; every Bell
        # outcome probability is exactly 1/d² = 1/4, both for the dense
        # projectors and for the index-only basis on a purification
        from conftest import dense_bell_vectors
        from qvn.duality import bell_state
        from qvn.uqt import BellBasis, bell_probabilities

        rho = DensityOperator(np.eye(4) / 4, (2, 2))
        probs = [np.real(v.conj() @ rho.matrix @ v) for v in dense_bell_vectors(2)]
        assert np.abs(np.array(probs) - 0.25).max() < 1e-12
        pair = PureState(np.kron(bell_state(2), bell_state(2)), (2, 2, 2, 2))
        probs, _ = bell_probabilities(pair, 0, 2, BellBasis.for_dim(2))
        assert np.abs(probs - 0.25).max() < 1e-12

    def test_frequencies_match_probabilities(self, rng):
        # wire 1 of a random two-qubit state, which is entangled with wire 0
        psi = random_pure_state(4, rng)
        exact = (np.abs(psi.amplitudes.reshape(2, 2)) ** 2).sum(axis=0)
        n = 20_000
        counts = np.zeros(2)
        sampler = RngStream(99)
        for _ in range(n):
            k, p, post = measure_wire_computational(psi.amplitudes, (2, 2), 1, sampler)
            counts[k] += 1
        assert abs(p - exact[k]) < 1e-12
        assert abs(np.linalg.norm(post.reshape(2, 2)[:, k]) - 1.0) < 1e-12
        assert np.abs(counts / n - exact).max() < 4 / math.sqrt(n)


class TestEigUnitary:
    def test_pauli_z(self):
        vals, v = eig_unitary(UnitaryOp(gates.Z))
        assert sorted(np.round(vals.real, 12)) == [-1.0, 1.0]

    def test_hadamard_spectrum(self):
        # characteristic polynomial of H: λ² − tr(H)λ + det(H) = λ² − 1
        vals, _ = eig_unitary(UnitaryOp(gates.H))
        assert sorted(np.round(vals.real, 10)) == [-1.0, 1.0]
        assert np.abs(vals.imag).max() < 1e-12

    def test_identity(self):
        vals, v = eig_unitary(UnitaryOp(np.eye(3)))
        assert np.abs(vals - 1.0).max() < 1e-12

    def test_reconstruction_random(self, rng):
        for d in (2, 3, 4, 8, 16):
            u = haar_random_unitary(d, rng)
            vals, v = eig_unitary(u)
            recon = v.matrix @ np.diag(vals) @ v.matrix.conj().T
            assert np.abs(recon - u.matrix).max() < 1e-10
            assert np.abs(np.abs(vals) - 1.0).max() < 1e-12

    def test_degenerate_spectrum_gives_unitary_basis(self, rng):
        # Paulis have doubly-degenerate-free spectrum but X⊗X has ±1 twice
        cases = [np.kron(gates.X, gates.X)]
        # exact degeneracies of multiplicity 2 and d/2 in Haar eigenvectors
        for d in (4, 8, 16, 64):
            for mult in (2, d // 2):
                phases = np.exp(2j * math.pi * rng.uniforms(d))
                phases[:mult] = phases[0]
                cases.append(with_spectrum(phases, rng))
        # a near-degenerate pair
        for gap in (1e-9, 1e-12, 1e-16):
            phases = np.exp(2j * math.pi * rng.uniforms(8))
            phases[1] = phases[0] * np.exp(1j * gap)
            cases.append(with_spectrum(phases, rng))
        # cyclic shifts, whose spectra are the d-th roots of unity
        cases += [np.roll(np.eye(d), 1, axis=0) for d in (2, 3, 8, 64)]
        cases += [gates.CX @ np.kron(a, b) for a, b in
                  [(gates.I2, gates.I2), (gates.H, gates.I2), (gates.X, gates.X), (gates.H, gates.T)]]
        for m in cases:
            vals, v = eig_unitary(UnitaryOp(m))
            d = len(m)
            assert np.abs(v.matrix.conj().T @ v.matrix - np.eye(d)).max() < 1e-12
            recon = v.matrix @ np.diag(vals) @ v.matrix.conj().T
            assert np.abs(recon - m).max() < 1e-10


def with_spectrum(phases, rng):
    """The unitary V diag(phases) V† for a Haar-random V."""
    v = haar_random_unitary(len(phases), rng).matrix
    return (v * phases) @ v.conj().T


class TestExpectation:
    def test_z_on_zero(self):
        rho = DensityOperator(np.diag([1.0, 0.0]))
        assert abs(expectation(Observable(gates.Z), rho) - 1.0) < 1e-12

    def test_z_on_mixed(self):
        rho = DensityOperator(np.eye(2) / 2)
        assert abs(expectation(Observable(gates.Z), rho)) < 1e-12

    def test_x_on_plus(self):
        plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
        rho = DensityOperator(np.outer(plus, plus))
        assert abs(expectation(Observable(gates.X), rho) - 1.0) < 1e-12


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(5, 3)
        b = RngStream(5, 3)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_streams_differ(self):
        a = RngStream(5, 0)
        b = RngStream(5, 1)
        assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]

    def test_choice_rejects_vanishing(self):
        with pytest.raises(NumericalError):
            RngStream(1).choice([0.0, 0.0])

    @pytest.mark.parametrize("bad", [[0.5, -0.1, 0.6], [np.nan, 1.0], [[0.5, 0.5]]])
    def test_choice_rejects_what_generator_choice_rejects(self, bad):
        with pytest.raises(NumericalError):
            RngStream(1).choice(bad)

    @pytest.mark.parametrize("bad", [[0.5, -0.1, 0.6], [np.nan, 1.0]])
    def test_choices_raise_numerical_error(self, bad):
        # Generator.choice raises a ValueError here
        with pytest.raises(NumericalError):
            RngStream(1).choices(bad, 3)

    def test_choice_draws_as_generator_choice(self):
        # same index and same next draw as Generator.choice on a twin stream,
        # over 20,000 distributions of size 1-4096 with zero entries; every
        # eighth one is also drawn 2-64 times at once by `choices`
        meta = np.random.default_rng(2024)
        ours, twin = RngStream(11, 4), RngStream(11, 4)
        for i in range(20_000):
            size = int(meta.integers(1, 4097 if i % 4 == 0 else 17))
            p = meta.random(size) * meta.uniform(0.1, 10.0)
            p[meta.random(size) < 0.3] = 0.0
            if not p.any():
                p[meta.integers(size)] = 1.0
            expected = int(twin._gen.choice(size, p=p / p.sum()))
            assert ours.choice(p) == expected
            if i % 8 == 0:
                draws = int(meta.integers(2, 65))
                expected = twin._gen.choice(size, draws, p=p / p.sum())
                assert np.array_equal(ours.choices(p, draws), expected)
            assert ours.random() == twin.random()


def numpy_pcg64_state(seed, shot):
    state = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(shot,))).state["state"]
    return state["state"], state["inc"]


def seed_sequence_pool(seed):
    """SeedSequence's entropy mixing of `seed`'s 32-bit words on Python
    ints, after numpy/random/bit_generator.pyx: the pool and the hash
    constant the next word would start at."""
    mask = 2**32 - 1
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & mask
        value = value * hash_const & mask
        return value ^ (value >> 16)

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & mask
        return result ^ (result >> 16)

    words = [(seed >> shift) & mask for shift in range(0, max(seed.bit_length(), 1), 32)]
    pool = [hashmix(word) for word in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool, hash_const


class TestShotStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**127 + 3, 3**90])
    def test_block_derivation_reaches_max_shot(self, seed):
        # the shot ids a Schedule may have, first and last, across block edges,
        # seeded by srandom's map of their start limbs
        shots = np.array([0, 1, kernel.SHOT_BLOCK - 1, kernel.SHOT_BLOCK, MAX_SHOTS - 1], dtype=np.uint32)
        pool, hash_const = kernel._seed_pool(seed)
        init_hi, init_lo, inc_hi, inc_lo = (limb.tolist() for limb in kernel._start_limbs(pool, hash_const, shots))
        mult = kernel._PCG_MULT
        for i, shot in enumerate(shots.tolist()):
            init, inc = init_hi[i] << 64 | init_lo[i], inc_hi[i] << 64 | inc_lo[i]
            state = (mult * init + (mult + 1) * inc) % 2**128
            assert (state, inc) == numpy_pcg64_state(seed, shot)

    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**128, 3**90])
    def test_seed_pool_is_seed_sequences(self, seed):
        # seeds of 1, 2, 3, 4 and 5 words: numpy's own pool, and the hash
        # constant the entropy mixing ends at, against the mixing on ints
        pool, hash_const = kernel._seed_pool(seed)
        assert (pool.tolist(), hash_const) == seed_sequence_pool(seed)
        assert pool.tolist() == np.random.SeedSequence(seed).pool.tolist()

    @pytest.mark.parametrize("seed", [3, 2**128 - 1])
    @pytest.mark.parametrize("cursor", [False, True])
    def test_far_gapped_positions(self, seed, cursor):
        # reads with gaps of 0, 3 and 996 draws, then 34 more reads, past one
        # stacked product of ENTRY_BLOCK entries; with a cursor between, the
        # reads after it count from where each shot's draw leaves its stream
        def draw(stream):
            stream.uniforms(stream.stream_id % 3)

        head, tail = (0, 3, 4, 1000), tuple(range(0, 68, 2))
        positions = head + ((1001, draw),) + tail if cursor else head + tuple(p + 1001 for p in tail)
        assert len(tail) > kernel.ENTRY_BLOCK
        shots = kernel.SHOT_BLOCK + 3
        uniforms = kernel.shot_uniforms(seed, shots, positions)
        for shot in (0, 1, kernel.SHOT_BLOCK - 1, kernel.SHOT_BLOCK, shots - 1):
            stream = RngStream(seed, stream_id=shot)
            expected = stream.uniforms(1001)[list(head)]
            if cursor:
                draw(stream)
            later = stream.uniforms(tail[-1] + 1)[list(tail)]
            assert uniforms[shot].tobytes() == np.concatenate([expected, later]).tobytes()

    def test_cursor_hands_out_each_streams_state(self):
        # a draw that takes shot % 3 doubles, then one read: each shot's
        # stream comes labelled, in order across a block edge, where two draws
        # leave it, and the read is the double after its draws
        seen = []

        def draw(stream):
            seen.append((stream.stream_id, stream._gen.bit_generator.state))
            stream.uniforms(stream.stream_id % 3)

        shots = kernel.SHOT_BLOCK + 2
        uniforms = kernel.shot_uniforms(9, shots, ((2, draw), 0))
        assert [shot for shot, _ in seen] == list(range(shots))
        for shot, state in seen:
            oracle = RngStream(9, stream_id=shot)
            oracle.uniforms(2)
            assert state == oracle._gen.bit_generator.state
            oracle.uniforms(shot % 3)
            assert uniforms[shot].tolist() == [oracle.random()]

    def test_range_of_shots_takes_their_rows(self):
        # shots 250..262 alone, across a block edge, with a cursor: the rows
        # of the whole derivation, and the cursor sees those shots alone
        seen = []

        def draw(stream):
            seen.append(stream.stream_id)
            stream.uniforms(stream.stream_id % 3)

        shots = range(kernel.SHOT_BLOCK - 6, kernel.SHOT_BLOCK + 7)
        part = kernel.shot_uniforms(9, shots, (1, (2, draw), 0))
        assert seen == list(shots)
        whole = kernel.shot_uniforms(9, shots.stop, (1, (2, draw), 0))
        assert part.tobytes() == whole[shots.start :].tobytes()

    def test_drift_guard_raises_before_the_first_stream(self, monkeypatch):
        # a derivation that no longer matches numpy's seeding hands out no
        # stream
        monkeypatch.setattr(kernel, "_PCG_MULT", kernel._PCG_MULT + 2)
        handed = []
        with pytest.raises(StreamDerivationError, match="shot 0 differs from numpy's seeding"):
            kernel.shot_uniforms(7, 3, ((0, handed.append),))
        assert handed == []

    def test_cursor_state_drift_guard(self, monkeypatch):
        # a jump-ahead that misses by one bit: srandom's state still matches
        # numpy's seeding, shot 0's state before the draw does not
        affine = kernel._affine

        def off_by_one(*args):
            hi, lo = affine(*args)
            return hi, lo ^ np.uint64(1)

        monkeypatch.setattr(kernel, "_affine", off_by_one)
        handed = []
        with pytest.raises(StreamDerivationError, match="shot 0 differs from numpy's after 2 draws"):
            kernel.shot_uniforms(7, 3, ((2, handed.append),))
        assert handed == []

    @pytest.mark.parametrize("seed, shots", [(-1, 1), (0, 2**32 + 1)])
    def test_rejects_seed_or_shots_out_of_range(self, seed, shots):
        with pytest.raises(ValidationError):
            kernel.shot_uniforms(seed, shots, ())

    @pytest.mark.parametrize("seed", [0, 2**32, 3**90])
    @pytest.mark.parametrize("draws", [0, 1, 4])
    def test_uniforms_are_each_streams_first_doubles(self, seed, draws):
        shots = kernel.SHOT_BLOCK + 3
        uniforms = kernel.shot_uniforms(seed, shots, tuple(range(draws)))
        assert uniforms.shape == (shots, draws)
        for shot in (0, 1, kernel.SHOT_BLOCK - 1, kernel.SHOT_BLOCK, shots - 1):
            stream = RngStream(seed, stream_id=shot)
            assert uniforms[shot].tolist() == [stream.random() for _ in range(draws)]

    def test_uniforms_drift_guard(self, monkeypatch):
        # no positions, and positions that skip draw 0: srandom's state is
        # checked whatever is read
        monkeypatch.setattr(kernel, "_PCG_MULT", kernel._PCG_MULT + 2)
        for positions in ((), (1, 2), (3,)):
            with pytest.raises(StreamDerivationError, match="shot 0 differs from numpy"):
                kernel.shot_uniforms(7, 3, positions)

    def test_uniforms_output_drift_guard(self, monkeypatch):
        # PCG64's output without its rotation: every state still matches
        # numpy's seeding, shot 0's doubles do not, whichever are read
        monkeypatch.setattr(kernel, "_xsl_rr", lambda hi, lo: hi ^ lo)
        for positions in ((0, 1), (1, 2), (2, 5)):
            with pytest.raises(StreamDerivationError, match="shot 0 differ from numpy's PCG64 output"):
                kernel.shot_uniforms(7, 3, positions)
