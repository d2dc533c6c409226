import math

import numpy as np
import pytest

from qvn import gates
from qvn.duality import bell_state
from qvn.errors import (
    ConfigurationError,
    KlConditionError,
    NumericalError,
    ParseError,
    ValidationError,
)
from qvn.kernel import (
    DensityOperator,
    RngStream,
    apply_channel,
    partial_trace_matrix,
    random_pure_state,
)
from qvn.qec import (
    Code,
    bit_flip_code,
    build_recovery,
    check_detection,
    check_kl,
    decode_program,
    error_channel,
    logical_compose,
    logical_ebit,
    logical_program,
    parse_code,
    pauli_site_operator,
    phase_flip_code,
    serialize_code,
)
from qvn.uqt import MAX_ROUNDS_PER_OUTCOME, ByproductStrategy, compose, stored_program


def x_errors():
    return [pauli_site_operator(t, 3) for t in ("I", "X0", "X1", "X2")]


def encode_state(code, psi):
    enc = code.isometry @ psi
    return DensityOperator(np.outer(enc, enc.conj()))


class TestCode:
    def test_isometry_validated(self):
        with pytest.raises(ValidationError):
            Code(3, 1, np.ones((8, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_isometry_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            Code(1, 1, [[bad, 0], [0, 1]])

    def test_projector_idempotent(self):
        p = bit_flip_code().projector
        assert np.abs(p @ p - p).max() < 1e-12
        assert np.abs(p - p.conj().T).max() < 1e-12

    def test_pauli_site_operator_tokens(self):
        x0 = pauli_site_operator("X0", 2)
        assert np.abs(x0 - np.kron(gates.X, np.eye(2))).max() < 1e-14
        xz = pauli_site_operator("X0Z1", 2)
        assert np.abs(xz - np.kron(gates.X, gates.Z)).max() < 1e-14
        with pytest.raises(ValidationError):
            pauli_site_operator("Q3", 2)


class TestCheckKl:
    def test_repetition_code_x_errors(self):
        res = check_kl(bit_flip_code(), x_errors())
        assert res.satisfied
        assert res.max_residual < 1e-12
        off_diag = res.c - np.diag(np.diag(res.c))
        assert np.abs(off_diag).max() < 1e-12

    def test_z_error_violates(self):
        res = check_kl(bit_flip_code(), x_errors() + [pauli_site_operator("Z0", 3)])
        assert not res.satisfied
        assert res.max_residual >= 0.1

    def test_trivial_code(self):
        code = Code(1, 1, np.eye(2))
        res = check_kl(code, [np.eye(2)])
        assert res.satisfied
        assert abs(res.c[0, 0] - 1.0) < 1e-12

    def test_linear_kraus_span_property(self, rng):
        # random recombinations A_i = Σ_j m_ij E_j stay correctable
        code = bit_flip_code()
        errors = x_errors()
        m = rng.normal((4, 4)) + 1j * rng.normal((4, 4))
        recombined = [
            sum(m[i, j] * errors[j] for j in range(4)) for i in range(4)
        ]
        res = check_kl(code, recombined)
        assert res.max_residual < 1e-9


class TestDetection:
    def test_x1_detected(self):
        res = check_detection(bit_flip_code(), [pauli_site_operator("X0", 3)])
        assert res.satisfied
        assert abs(res.coefficients[0]) < 1e-12

    def test_identity_coefficient_one(self):
        res = check_detection(bit_flip_code(), [np.eye(8)])
        assert res.satisfied
        assert abs(res.coefficients[0] - 1.0) < 1e-12

    def test_z_violates(self):
        res = check_detection(bit_flip_code(), [pauli_site_operator("Z0", 3)])
        assert not res.satisfied

    def test_kl_implies_detection(self, rng):
        code = bit_flip_code()
        errors = x_errors()
        assert check_kl(code, errors).satisfied
        assert check_detection(code, errors).satisfied


class TestRecovery:
    def test_restores_codewords(self):
        code = bit_flip_code()
        rec = build_recovery(code, x_errors())
        noise = error_channel(x_errors())
        for b in range(2):
            psi = np.eye(2)[:, b].astype(complex)
            rho = encode_state(code, psi)
            out = apply_channel(rec.channel, apply_channel(noise, rho))
            fid = float(np.real(np.trace(out.matrix @ rho.matrix)))
            assert fid > 1 - 1e-10

    def test_unitary_error_commuting_with_projector(self):
        code = bit_flip_code()
        u = pauli_site_operator("X0X1X2", 3)  # logical X commutes with P
        rec = build_recovery(code, [u])
        assert rec.n_correction == 1
        psi = np.array([0.6, 0.8], dtype=complex)
        rho = encode_state(code, psi)
        noisy = DensityOperator(u @ rho.matrix @ u.conj().T)
        out = apply_channel(rec.channel, noisy)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-10

    def test_random_logical_states(self, rng):
        code = bit_flip_code()
        rec = build_recovery(code, x_errors())
        noise = error_channel(x_errors(), [0.4, 0.3, 0.2, 0.1])
        for _ in range(20):
            psi = random_pure_state(2, rng)
            rho = encode_state(code, psi.amplitudes)
            out = apply_channel(rec.channel, apply_channel(noise, rho))
            fid = float(np.real(np.trace(out.matrix @ rho.matrix)))
            assert fid > 1 - 1e-10

    def test_noise_then_recovery_is_identity_on_code_space(self, rng):
        code = bit_flip_code()
        rec = build_recovery(code, x_errors())
        noise = error_channel(x_errors())
        for basis_state in (np.eye(2)[:, 0], np.eye(2)[:, 1], np.array([1, 1]) / math.sqrt(2)):
            rho = encode_state(code, basis_state.astype(complex))
            out = apply_channel(rec.channel, apply_channel(noise, rho))
            diff = out.matrix - rho.matrix
            assert 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum() < 1e-9

    def test_violated_condition_raises_with_residual(self):
        with pytest.raises(KlConditionError) as err:
            build_recovery(bit_flip_code(), [np.eye(8), pauli_site_operator("Z0", 3)])
        assert err.value.residual >= 0.1

    def test_phase_flip_dual(self, rng):
        code = phase_flip_code()
        z_errors = [pauli_site_operator(t, 3) for t in ("I", "Z0", "Z1", "Z2")]
        rec = build_recovery(code, z_errors)
        noise = error_channel(z_errors)
        psi = random_pure_state(2, rng)
        rho = encode_state(code, psi.amplitudes)
        out = apply_channel(rec.channel, apply_channel(noise, rho))
        assert float(np.real(np.trace(out.matrix @ rho.matrix))) > 1 - 1e-10


class TestLogicalEbit:
    def test_trivial_code(self):
        code = Code(1, 1, np.eye(2))
        state = logical_ebit(code)
        assert np.abs(state.amplitudes - bell_state(2)).max() < 1e-14

    def test_repetition_form(self):
        state = logical_ebit(bit_flip_code())
        expected = np.zeros(64, dtype=complex)
        expected[0] = 1 / math.sqrt(2)  # |000>|000>
        expected[63] = 1 / math.sqrt(2)  # |111>|111>
        assert np.abs(state.amplitudes - expected).max() < 1e-14

    def test_marginals_are_projector(self):
        for code in (bit_flip_code(), phase_flip_code()):
            state = logical_ebit(code)
            rho = np.outer(state.amplitudes, state.amplitudes.conj())
            dims = (code.physical_dim, code.physical_dim)
            for keep in ([0], [1]):
                red = partial_trace_matrix(rho, dims, keep)
                assert np.abs(red - code.projector / code.logical_dim).max() < 1e-10

    def test_logical_x_program_state(self):
        code = bit_flip_code()
        xl = pauli_site_operator("X0X1X2", 3)
        lp = logical_program(code, xl)
        # encoded Bell pair with flipped correlation
        expected = np.zeros(64, dtype=complex)
        expected[0b111000] = 1 / math.sqrt(2)
        expected[0b000111] = 1 / math.sqrt(2)
        assert abs(abs(np.vdot(lp.state.amplitudes, expected)) - 1.0) < 1e-12


class TestLogicalCompose:
    def test_trivial_code_reduces_to_uqt(self, rng):
        code = Code(1, 1, np.eye(2))
        p1 = logical_program(code, gates.H)
        p2 = logical_program(code, gates.T)
        result, shots = logical_compose(
            p1, p2, ByproductStrategy.CORRECTION_TABLE, rng
        )
        assert shots == 1
        decoded = decode_program(result)
        target = gates.T @ gates.H
        phase = np.trace(target.conj().T @ decoded) / 2
        phase /= abs(phase)
        assert np.abs(decoded - phase * target).max() < 1e-9

    def test_xl_twice_is_identity(self, rng):
        code = bit_flip_code()
        xl = pauli_site_operator("X0X1X2", 3)
        p = logical_program(code, xl)
        result, _ = logical_compose(p, p, ByproductStrategy.CORRECTION_TABLE, rng)
        decoded = decode_program(result)
        phase = decoded[0, 0] / abs(decoded[0, 0])
        assert np.abs(decoded - phase * np.eye(2)).max() < 1e-9

    def test_xl_then_zl(self, rng):
        code = bit_flip_code()
        xl = pauli_site_operator("X0X1X2", 3)
        zl = pauli_site_operator("Z0Z1Z2", 3)
        result, _ = logical_compose(
            logical_program(code, xl),
            logical_program(code, zl),
            ByproductStrategy.CORRECTION_TABLE,
            rng,
        )
        decoded = decode_program(result)
        target = gates.Z @ gates.X
        idx = np.unravel_index(np.abs(decoded).argmax(), decoded.shape)
        phase = decoded[idx] / target[idx]
        assert abs(abs(phase) - 1.0) < 1e-9
        assert np.abs(decoded - phase * target).max() < 1e-9

    def test_rus_strategy(self, rng):
        code = bit_flip_code()
        xl = pauli_site_operator("X0X1X2", 3)
        p = logical_program(code, xl)
        result, shots = logical_compose(
            p, p, ByproductStrategy.REPEAT_UNTIL_SUCCESS, rng
        )
        assert shots >= 1
        decoded = decode_program(result)
        phase = decoded[0, 0] / abs(decoded[0, 0])
        assert np.abs(decoded - phase * np.eye(2)).max() < 1e-9

    @pytest.mark.parametrize(
        "strategy", [ByproductStrategy.REPEAT_UNTIL_SUCCESS, ByproductStrategy.CORRECTION_TABLE]
    )
    def test_trivial_code_matches_uqt_compose(self, strategy):
        code = Code(1, 1, np.eye(2))
        lp1, lp2 = logical_program(code, gates.H), logical_program(code, gates.T)
        p1, p2 = stored_program(gates.H), stored_program(gates.T)
        for seed in range(20):
            logical, logical_shots = logical_compose(lp1, lp2, strategy, RngStream(seed))
            bare, bare_shots = compose(p1, p2, strategy, RngStream(seed))
            assert logical_shots == bare_shots
            assert np.abs(logical.state.amplitudes - bare.amplitudes).max() < 1e-15

    def test_rus_bounded(self, monkeypatch):
        draws = []

        def nontrivial(self, cdf):
            draws.append(1)
            return 1

        monkeypatch.setattr(RngStream, "draw", nontrivial)
        p = logical_program(Code(1, 1, np.eye(2)), gates.T)
        with pytest.raises(NumericalError, match="64·d²"):
            logical_compose(p, p, ByproductStrategy.REPEAT_UNTIL_SUCCESS, RngStream(0))
        assert len(draws) == MAX_ROUNDS_PER_OUTCOME * 2**2

    def test_asymmetric_gate_rejected(self, rng):
        code = Code(1, 1, np.eye(2))
        p1 = logical_program(code, gates.H)
        p2 = logical_program(code, gates.Y)  # Y^t = -Y
        with pytest.raises(ConfigurationError):
            logical_compose(p1, p2, ByproductStrategy.CORRECTION_TABLE, rng)

    def test_nearly_symmetric_gate_judged_at_compose_tol(self, rng):
        # a rotation by 5e-9 rad is symmetric only to 1e-8, past the default
        # 1e-10; logical_compose's own tol decides
        code = Code(1, 1, np.eye(2))
        c, s = math.cos(5e-9), math.sin(5e-9)
        p1 = logical_program(code, gates.Z)
        p2 = logical_program(code, np.array([[c, -s], [s, c]]))
        with pytest.raises(ConfigurationError):
            logical_compose(p1, p2, ByproductStrategy.CORRECTION_TABLE, rng)
        out, _ = logical_compose(p1, p2, ByproductStrategy.CORRECTION_TABLE, rng, tol=1e-7)
        assert np.abs(out.gate - p2.gate @ gates.Z).max() < 1e-15

    def test_non_logical_gate_rejected(self):
        code = bit_flip_code()
        with pytest.raises(ValidationError):
            logical_program(code, pauli_site_operator("X0", 3))


class TestCodeDocuments:
    def test_round_trip(self):
        code = bit_flip_code()
        text = serialize_code(code)
        back = parse_code(text)
        assert back.n == code.n and back.k == code.k
        assert np.array_equal(back.isometry, code.isometry)
        assert back.name == code.name

    def test_missing_isometry(self):
        with pytest.raises(ParseError):
            parse_code("QVN1 name=x n=3 k=1\n")

    def test_bad_isometry_rejected(self):
        text = (
            "QVN1 name=x n=1 k=1\n"
            "isometry rows=2 cols=2 data=1.0,0.0;0.0,0.0;0.0,0.0;0.0,0.0\n"
        )
        with pytest.raises(ParseError):
            parse_code(text)
