import math

import numpy as np
import pytest

from qvn import gates
from qvn.duality import ChoiState, bell_state, choi_of_unitary
from qvn.errors import ConfigurationError
from qvn.kernel import (
    PureState,
    RngStream,
    UnitaryOp,
    haar_random_unitary,
    state_fidelity,
)
from qvn.memory import GateRecord, ProgramDescription, synthesize
from qvn.uqt import (
    BellBasis,
    ByproductStrategy,
    apply_composition_unitary,
    bell_measure_pair,
    bell_probabilities,
    compose,
    composition_unitary,
    identity_program,
    outcome_is_trivial,
    stored_program,
    symmetric_decompose,
)


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
            basis = BellBasis.weyl(d)
            gram = basis.vectors.conj() @ basis.vectors.T
            assert np.abs(gram - np.eye(d * d)).max() < 1e-12

    def test_projectors_complete(self):
        basis = BellBasis.qubit_product(2)
        total = sum(basis.projectors())
        assert np.abs(total - np.eye(16)).max() < 1e-12

    def test_first_element_is_identity(self):
        for basis in (BellBasis.weyl(3), BellBasis.qubit_product(2)):
            assert np.abs(basis.paulis[0] - np.eye(basis.d)).max() < 1e-14

    def test_for_dim_picks_qubit_structure(self):
        assert BellBasis.for_dim(4).d == 4
        assert BellBasis.for_dim(3).d == 3


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
        p = stored_program(haar_random_unitary(2, rng))
        u = p.unitary()
        for sigma, c in zip(p.basis.paulis[1:], p.correction_table):
            assert np.abs(c @ u @ sigma.conj().T - u).max() < 1e-10

    def test_symmetric_flag(self):
        assert stored_program(gates.CZ).is_symmetric
        assert not stored_program(gates.Y).is_symmetric

    def test_dim_mismatch_basis(self):
        with pytest.raises(Exception):
            stored_program(gates.H, basis=BellBasis.weyl(3))

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
            for k, sigma in enumerate(p2.basis.paulis):
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
        assert outcome_is_trivial(k) == (k == 0)


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

    def test_missing_factors_raises(self, rng):
        p1 = stored_program(gates.H)
        p2 = stored_program(gates.T, with_factors=False)
        with pytest.raises(ConfigurationError):
            compose(p1, p2, ByproductStrategy.SYMMETRIC_PAIR, rng)

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
