import math
import tracemalloc

import numpy as np
import pytest

from qvn import gates
from qvn.duality import ChoiState, bell_state, choi_of_unitary
from qvn.errors import NumericalError, ValidationError
from qvn.kernel import (
    DensityOperator,
    PureState,
    RngStream,
    UnitaryOp,
    apply_to_subsystems,
    haar_random_unitary,
    state_fidelity,
)
from qvn.memory import GateRecord, ProgramDescription, synthesize
from qvn.uqt import (
    MAX_ROUNDS_PER_OUTCOME,
    BellBasis,
    ByproductStrategy,
    SymmetricFactors,
    bell_measure_pair,
    bell_probabilities,
    compose,
    stored_program,
    symmetric_decompose,
    teleport,
)

from conftest import dense_bell_vectors, dense_paulis, dense_teleport


def identity_program(d):
    return stored_program(np.eye(d, dtype=complex))


def basis_paulis(basis):
    """σ_k of an index-only basis, rebuilt densely by acting on I."""
    eye = np.eye(basis.d, dtype=complex)
    return [basis.apply(k, eye) for k in range(basis.d**2)]


def program_pair_state(p1, p2):
    d = p1.d
    return PureState(
        np.kron(p1.choi.pure_amplitudes, p2.choi.pure_amplitudes), (d, d, d, d)
    )


def teleported_oracle(u1, u2, sigma, d):
    """Dense 4-wire oracle for the post-measurement state on (h2, t1).

    Projects |ω_{U1}⟩|ω_{U2}⟩ onto the Bell state of σ on (h1, t2) with
    raw kron arithmetic, then reads off the surviving amplitudes.
    """
    psi = np.kron(
        np.kron(u1, np.eye(d)) @ bell_state(d),
        np.kron(u2, np.eye(d)) @ bell_state(d),
    ).reshape(d, d, d, d)
    bell_sigma = (np.kron(sigma, np.eye(d)) @ bell_state(d)).reshape(d, d)
    post = np.einsum("ab,aijb->ji", bell_sigma.conj(), psi)  # axes (h2, t1)
    return post.reshape(-1)


class TestBellBasis:
    def test_weyl_orthonormal(self):
        for d in (2, 3, 4):
            paulis = basis_paulis(BellBasis.weyl(d))
            vectors = np.stack([p.reshape(-1) / math.sqrt(d) for p in paulis])
            gram = vectors.conj() @ vectors.T
            assert np.abs(gram - np.eye(d * d)).max() < 1e-12

    def test_projectors_complete(self):
        basis = BellBasis.qubit_product(2)
        vectors = [p.reshape(-1) / 2 for p in basis_paulis(basis)]
        total = sum(np.outer(v, v.conj()) for v in vectors)
        assert np.abs(total - np.eye(16)).max() < 1e-12

    def test_first_element_is_identity(self):
        for basis in (BellBasis.weyl(3), BellBasis.qubit_product(2)):
            assert np.abs(basis_paulis(basis)[0] - np.eye(basis.d)).max() < 1e-14

    def test_for_dim_picks_qubit_structure(self):
        assert BellBasis.for_dim(4).d == 4
        assert BellBasis.for_dim(3).d == 3

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_apply_matches_dense_paulis(self, d, rng):
        basis = BellBasis.for_dim(d)
        x = rng.normal((d, 3)) + 1j * rng.normal((d, 3))
        for k, sigma in enumerate(dense_paulis(d)):
            assert np.abs(basis.apply(k, x) - sigma @ x).max() < 1e-14
            assert np.abs(basis.apply(k, x, adjoint=True) - sigma.conj().T @ x).max() < 1e-14

    def test_tables_stay_quadratic_at_n8(self):
        basis = BellBasis.for_dim(256)
        assert basis.shift.shape == basis.chars.shape == (256, 256)
        assert basis.order.shape == (256**2,)
        # one base-4 digit per qubit: k = 1, 2, 3 are Z, X, XZ on the last
        # qubit and k = 4 is Z on the qubit before it
        assert list(basis.order[:5]) == [0, 1, 256, 257, 2]


class TestSymmetricDecompose:
    def test_symmetric_fast_path(self):
        f = symmetric_decompose(UnitaryOp(gates.CZ))
        assert np.abs(f.s1.matrix - gates.CZ).max() < 1e-12
        assert np.abs(f.s2.matrix - np.eye(4)).max() < 1e-12

    def test_antisymmetric_y(self):
        f = symmetric_decompose(UnitaryOp(gates.Y))
        for s in (f.s1, f.s2):
            assert np.abs(s.matrix - s.matrix.T).max() < 1e-10
        assert np.abs(f.s1.matrix @ f.s2.matrix - gates.Y).max() < 1e-9

    def test_random_unitaries(self, rng):
        for d in (2, 3, 4, 8):
            for _ in range(25):
                u = haar_random_unitary(d, rng)
                f = symmetric_decompose(u)
                assert np.abs(f.s1.matrix - f.s1.matrix.T).max() < 1e-10
                assert np.abs(f.s2.matrix - f.s2.matrix.T).max() < 1e-10
                assert np.abs(f.s1.matrix @ f.s2.matrix - u.matrix).max() < 1e-9


class TestStoredProgram:
    def test_correction_table_identity(self, rng):
        for n in (1, 2):
            p = stored_program(haar_random_unitary(2**n, rng))
            u = p.unitary()
            for k, sigma in enumerate(dense_paulis(p.d)):
                assert np.abs(p.correction(k) @ u @ sigma.conj().T - u).max() < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_derived_choi_validates_and_matches_amplitudes(self, n, rng):
        def custom(name):
            u = haar_random_unitary(2**n, rng).matrix
            gate = GateRecord(0, "custom", tuple(range(n)), u)
            return ProgramDescription(name, n, (gate,))

        p1, p2 = synthesize(custom("a")), synthesize(custom("b"))
        programs = [p1, p2]
        for strategy in ByproductStrategy:
            programs.append(compose(p1, p2, strategy, rng)[0])
        for p in programs:
            assert "choi" not in vars(p)  # derived on first use only
            choi = p.choi
            assert isinstance(choi, ChoiState)
            ChoiState(choi.matrix)  # PSD, unit trace, maximally mixed tail
            assert np.abs(choi.pure_amplitudes - p.amplitudes).max() <= 1e-15
            assert np.abs(choi.matrix - np.outer(p.amplitudes, p.amplitudes.conj())).max() <= 1e-15


class TestBellMeasurePair:
    def test_uniform_outcomes_on_program_pair(self, rng):
        for d in (2, 3):
            p1 = stored_program(haar_random_unitary(d, rng))
            p2 = stored_program(haar_random_unitary(d, rng))
            probs, _ = bell_probabilities(
                program_pair_state(p1, p2), 0, 3, p1.basis
            )
            assert np.abs(probs - 1.0 / d**2).max() < 1e-12

    def test_trivial_outcome_composes(self, rng):
        u1 = haar_random_unitary(2, rng)
        u2 = haar_random_unitary(2, rng)
        p1, p2 = stored_program(u1), stored_program(u2)
        joint = program_pair_state(p1, p2)
        expected = teleported_oracle(u1.matrix, u2.matrix, np.eye(2), 2)
        probs, residuals = bell_probabilities(joint, 0, 3, p2.basis)
        # residual axes are (t1, h2); the oracle reports (h2, t1)
        got = residuals[0].reshape(2, 2).T.reshape(-1)
        got = got / np.linalg.norm(got)
        target = expected / np.linalg.norm(expected)
        assert abs(abs(np.vdot(got, target)) - 1.0) < 1e-12

    def test_byproduct_between_factors(self, rng):
        # outcome k leaves |ω_{U2 σ_k† U1}⟩ up to phase, for every k
        for d in (2, 4):
            u1 = haar_random_unitary(d, rng)
            u2 = haar_random_unitary(d, rng)
            p2 = stored_program(u2)
            joint = program_pair_state(stored_program(u1), p2)
            probs, residuals = bell_probabilities(joint, 0, 3, p2.basis)
            for k, sigma in enumerate(dense_paulis(d)):
                target = np.kron(
                    u2.matrix @ sigma.conj().T @ u1.matrix, np.eye(d)
                ) @ bell_state(d)
                # residual axes are (t1, h2); fold to (h2, t1)
                got = residuals[k].reshape(d, d).T.reshape(-1)
                got = got / np.linalg.norm(got)
                fid = abs(np.vdot(got, target)) ** 2
                assert fid > 1 - 1e-12

    def test_sampling_returns_post_state(self, rng):
        p1 = identity_program(2)
        p2 = identity_program(2)
        k, prob, post = bell_measure_pair(
            program_pair_state(p1, p2), 0, 3, p2.basis, rng
        )
        assert abs(prob - 0.25) < 1e-12
        assert post.subsystem_dims == (2, 2)
        assert 0 <= k < 4


class TestCompose:
    def test_identity_pair_all_strategies(self):
        for strategy in ByproductStrategy:
            p1, p2 = identity_program(2), identity_program(2)
            result, _ = compose(p1, p2, strategy, RngStream(1))
            fid = state_fidelity(
                PureState(result.choi.pure_amplitudes, (2, 2)),
                PureState(bell_state(2), (2, 2)),
            )
            assert fid > 1 - 1e-12

    def test_h_then_t(self):
        p1 = stored_program(gates.H)
        p2 = stored_program(gates.T)
        target = choi_of_unitary(gates.T @ gates.H)
        for strategy in ByproductStrategy:
            result, _ = compose(p1, p2, strategy, RngStream(3))
            fid = abs(np.vdot(result.choi.pure_amplitudes, target.pure_amplitudes)) ** 2
            assert fid > 1 - 1e-10

    def test_random_su4_all_strategies(self, rng):
        for _ in range(5):
            u1 = haar_random_unitary(4, rng)
            u2 = haar_random_unitary(4, rng)
            target = choi_of_unitary(u2.matrix @ u1.matrix)
            for strategy in ByproductStrategy:
                result, _ = compose(
                    stored_program(u1), stored_program(u2), strategy, rng
                )
                fid = abs(
                    np.vdot(result.choi.pure_amplitudes, target.pure_amplitudes)
                ) ** 2
                assert fid > 1 - 1e-10

    def test_correction_table_deterministic(self, rng):
        u1 = haar_random_unitary(2, rng)
        u2 = haar_random_unitary(2, rng)
        outs = []
        for seed in range(100):
            result, shots = compose(
                stored_program(u1),
                stored_program(u2),
                ByproductStrategy.CORRECTION_TABLE,
                RngStream(seed),
            )
            assert shots == 1
            outs.append(result.choi.pure_amplitudes)
        for other in outs[1:]:
            assert abs(np.vdot(outs[0], other)) ** 2 > 1 - 1e-10

    def test_rus_trials_geometric(self):
        rng = RngStream(17)
        trials = []
        p1 = stored_program(gates.H)
        p2 = stored_program(gates.T)
        for _ in range(2000):
            _, shots = compose(p1, p2, ByproductStrategy.REPEAT_UNTIL_SUCCESS, rng)
            trials.append(shots)
        mean = np.mean(trials)
        p = 1.0 / 4.0
        sigma_mean = math.sqrt((1 - p) / p**2) / math.sqrt(len(trials))
        assert abs(mean - 4.0) < 3 * sigma_mean

    def test_rus_bounded(self, monkeypatch):
        draws = []

        def nontrivial(self, cdf):
            draws.append(1)
            return 1

        monkeypatch.setattr(RngStream, "draw", nontrivial)
        p1, p2 = stored_program(gates.H), stored_program(gates.T)
        with pytest.raises(NumericalError, match="64·d²"):
            compose(p1, p2, ByproductStrategy.REPEAT_UNTIL_SUCCESS, RngStream(0))
        assert len(draws) == MAX_ROUNDS_PER_OUTCOME * 2**2

    def test_associativity(self, rng):
        ua = haar_random_unitary(2, rng)
        ub = haar_random_unitary(2, rng)
        uc = haar_random_unitary(2, rng)
        target = choi_of_unitary(uc.matrix @ ub.matrix @ ua.matrix)
        strat = ByproductStrategy.CORRECTION_TABLE
        left, _ = compose(
            compose(stored_program(ua), stored_program(ub), strat, rng)[0],
            stored_program(uc),
            strat,
            rng,
        )
        right, _ = compose(
            stored_program(ua),
            compose(stored_program(ub), stored_program(uc), strat, rng)[0],
            strat,
            rng,
        )
        for result in (left, right):
            fid = abs(np.vdot(result.choi.pure_amplitudes, target.pure_amplitudes)) ** 2
            assert fid > 1 - 1e-9


def composition_unitary(p2_factors: SymmetricFactors) -> UnitaryOp:
    """Dense coherent composition operator U_UQT on (h1, t1, h2, t2, flag),
    of dimension 2d⁴; the oracle for deterministic composition.

    Rotates the (h1, t2) pair from the Bell basis into the computational
    basis, marks nontrivial outcomes on a flag qubit, and applies the
    outcome-controlled correction to the new head. Applied to
    |ω_{U1}⟩|ω_{U2}⟩|0⟩ and discarding (h1, t2, flag), the remaining
    (h2, t1) pair holds |ω_{U2·U1}⟩ deterministically.
    """
    u2 = p2_factors.s1.matrix @ p2_factors.s2.matrix
    d = u2.shape[0]
    total = 2 * d**4
    flag = np.zeros((2 * d * d, 2 * d * d), dtype=complex)
    corr = np.zeros((d**3, d**3), dtype=complex)
    for k, sigma in enumerate(dense_paulis(d)):
        ek = np.zeros((d * d, d * d), dtype=complex)
        ek[k, k] = 1.0
        flag += np.kron(ek, np.eye(2) if k == 0 else gates.X)
        corr += np.kron(ek, u2 @ sigma @ u2.conj().T)
    # the rotation and the flag touch the measured pair (and the flag
    # qubit), corrections touch the pair and the new head h2; each acts on
    # the identity, whose column index rides along as a trailing axis
    dims = (d, d, d, d, 2, total)
    u = np.eye(total, dtype=complex)
    for op, targets in ((dense_bell_vectors(d).conj(), [0, 3]), (flag, [0, 3, 4]), (corr, [0, 3, 2])):
        u = apply_to_subsystems(u, dims, op, targets)
    return UnitaryOp(u.reshape(total, total), tol=1e-9)


def apply_composition_unitary(u_uqt: UnitaryOp, p1, p2) -> DensityOperator:
    """Run the coherent composition; returns the reduced (h2, t1) state."""
    d = p1.d
    amp = np.kron(np.kron(p1.amplitudes, p2.amplitudes), np.array([1.0, 0.0]))
    tensor = (u_uqt.matrix @ amp).reshape(d, d, d, d, 2)
    # reduced state on (h2, t1): contract out h1, t2, flag
    moved = np.moveaxis(tensor, (2, 1), (0, 1)).reshape(d * d, -1)
    return DensityOperator(moved @ moved.conj().T, (d, d))


class TestCompositionUnitary:
    def test_unitarity(self, rng):
        f = symmetric_decompose(haar_random_unitary(2, rng))
        op = composition_unitary(f)
        assert np.abs(op.matrix.conj().T @ op.matrix - np.eye(op.dim)).max() < 1e-10

    def test_identity_factors_swap_placement(self, rng):
        u1 = haar_random_unitary(2, rng)
        f = symmetric_decompose(UnitaryOp(np.eye(2)))
        op = composition_unitary(f)
        red = apply_composition_unitary(op, stored_program(u1), identity_program(2))
        target = choi_of_unitary(u1).pure_amplitudes
        expected = np.outer(target, target.conj())
        assert np.abs(red.matrix - expected).max() < 1e-9

    def test_cz_with_two_qubit_program(self, rng):
        u1 = np.kron(gates.H, np.eye(2))
        p1 = stored_program(u1)
        p2 = stored_program(gates.CZ)
        op = composition_unitary(p2.symmetric_factors)
        red = apply_composition_unitary(op, p1, p2)
        target = choi_of_unitary(gates.CZ @ u1).pure_amplitudes
        diff = red.matrix - np.outer(target, target.conj())
        trace_dist = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
        assert trace_dist < 1e-9

    def test_deterministic_for_random_pair(self, rng):
        u1 = haar_random_unitary(2, rng)
        u2 = haar_random_unitary(2, rng)
        p1, p2 = stored_program(u1), stored_program(u2)
        op = composition_unitary(p2.symmetric_factors)
        red = apply_composition_unitary(op, p1, p2)
        target = choi_of_unitary(u2.matrix @ u1.matrix).pure_amplitudes
        fid = float(np.real(target.conj() @ red.matrix @ target))
        assert fid > 1 - 1e-10


class RecordingRng(RngStream):
    """An RngStream that keeps every index it draws."""

    def draw(self, cdf):
        k = super().draw(cdf)
        self.__dict__.setdefault("draws", []).append(k)
        return k


class TestTeleport:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_dense_oracle(self, n):
        d = 2**n
        for seed in range(4):
            u1 = haar_random_unitary(d, RngStream(seed, 1)).matrix
            u2 = haar_random_unitary(d, RngStream(seed, 2)).matrix
            amp1, amp2 = u1.reshape(-1) / math.sqrt(d), u2.reshape(-1) / math.sqrt(d)
            for strategy in ByproductStrategy:
                rng, oracle_rng = RecordingRng(seed), RecordingRng(seed)
                state, rounds = teleport(amp1, amp2, BellBasis.for_dim(d), u2, strategy, rng)
                amp, oracle_rounds, k = dense_teleport(amp1, amp2, u2, strategy, oracle_rng)
                # repeat-until-success draws only whether the round heralded k = 0
                assert [x == 0 for x in rng.draws] == [x == 0 for x in oracle_rng.draws]
                assert rounds == oracle_rounds == len(rng.draws)
                if strategy is not ByproductStrategy.REPEAT_UNTIL_SUCCESS:
                    assert rng.draws == oracle_rng.draws == [k]
                assert np.abs(state.amplitudes - amp).max() <= 1e-10

    def test_rejects_unnormalized_states(self):
        amp = np.eye(2, dtype=complex).reshape(-1)  # norm √2
        with pytest.raises(ValidationError, match="norm"):
            teleport(amp, amp / math.sqrt(2), BellBasis.for_dim(2), np.eye(2),
                     ByproductStrategy.CORRECTION_TABLE, RngStream(0))

    def test_compose_n7_peak_memory(self, rng):
        # one d⁴ array alone would be 2²⁸ amplitudes, 4.3 GB
        d = 2**7
        p1 = stored_program(haar_random_unitary(d, rng))
        p2 = stored_program(haar_random_unitary(d, rng))
        tracemalloc.start()
        try:
            result, shots = compose(p1, p2, ByproductStrategy.CORRECTION_TABLE, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        target = p2.op.matrix @ p1.op.matrix
        assert abs(np.trace(target.conj().T @ result.op.matrix)) / d >= 1 - 1e-10
