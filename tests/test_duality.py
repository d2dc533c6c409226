import math

import numpy as np
import pytest

from conftest import kraus_action, matrix_units
from qvn import gates
from qvn.duality import (
    ChoiState,
    Comb,
    Superchannel,
    apply_comb,
    apply_superchannel,
    apply_via_choi,
    bell_state,
    choi_of_channel,
    choi_of_unitary,
    kraus_from_choi,
    unvec,
    vec,
    vectorize,
)
from qvn.errors import NotCptpError, ValidationError
from qvn.kernel import (
    DensityOperator,
    KrausChannel,
    UnitaryOp,
    apply_channel,
    haar_random_unitary,
    partial_trace_matrix,
    random_cptp_channel,
    random_density,
)


def bell_density(d):
    w = bell_state(d)
    return np.outer(w, w.conj())


class TestChoiConstruction:
    def test_identity_channel_gives_ebit(self):
        choi = choi_of_channel(KrausChannel([np.eye(2)]))
        assert np.abs(choi.matrix - bell_density(2)).max() < 1e-14

    def test_unitary_choi_is_vectorization(self):
        choi = choi_of_channel(KrausChannel([gates.X]))
        expected = np.kron(gates.X, np.eye(2)) @ bell_state(2)
        assert np.abs(choi.pure_amplitudes - expected).max() < 1e-14

    def test_full_dephasing(self):
        # oracle: apply the Kraus set to ω entrywise
        ch = KrausChannel([gates.P0, gates.P1])
        choi = choi_of_channel(ch)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.abs(choi.matrix - expected).max() < 1e-14

    def test_marginals(self, rng):
        for d in (2, 3, 4):
            ch = random_cptp_channel(d, 3, rng)
            choi = choi_of_channel(ch)
            head = partial_trace_matrix(choi.matrix, (d, d), [0])
            tail = partial_trace_matrix(choi.matrix, (d, d), [1])
            e_id = sum(k @ k.conj().T for k in ch.kraus_ops)
            assert np.abs(tail - np.eye(d) / d).max() < 1e-10
            assert np.abs(head - e_id / d).max() < 1e-10

    def test_non_tp_rejected(self):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 0] = 1.0  # |00><00| has tail marginal |0><0|, not I/2
        with pytest.raises(NotCptpError):
            ChoiState(bad)


class TestApplyViaChoi:
    def test_identity(self, rng):
        choi = choi_of_channel(KrausChannel([np.eye(3)]))
        rho = random_density(3, rng)
        assert np.abs(apply_via_choi(choi, rho).matrix - rho.matrix).max() < 1e-12

    def test_x_unitary(self):
        choi = choi_of_unitary(gates.X)
        rho = DensityOperator(np.diag([1.0, 0.0]))
        assert np.abs(apply_via_choi(choi, rho).matrix - np.diag([0.0, 1.0])).max() < 1e-12

    def test_matches_kraus_application(self, rng):
        for d in (2, 3, 4):
            ch = random_cptp_channel(d, 2, rng)
            choi = choi_of_channel(ch)
            rho = random_density(d, rng)
            direct = kraus_action(ch.kraus_ops, rho.matrix)
            assert np.abs(apply_via_choi(choi, rho).matrix - direct).max() < 1e-10


class TestKrausFromChoi:
    def test_identity(self):
        ch = kraus_from_choi(choi_of_channel(KrausChannel([np.eye(2)])))
        assert ch.rank == 1
        k = ch.kraus_ops[0]
        phase = k[0, 0] / abs(k[0, 0])
        assert np.abs(k / phase - np.eye(2)).max() < 1e-10

    def test_unitary_rank_one(self, rng):
        u = haar_random_unitary(3, rng)
        ch = kraus_from_choi(choi_of_unitary(u))
        assert ch.rank == 1

    def test_bell_diagonal_mixture(self):
        # equal mixture of identity and X rotations of the ebit: the two
        # Kraus operators must span {I, X} and define the same channel
        choi_m = 0.5 * bell_density(2) + 0.5 * np.outer(
            vec(gates.X), vec(gates.X).conj()
        )
        ch = kraus_from_choi(ChoiState(choi_m))
        assert ch.rank == 2
        basis = [np.eye(2, dtype=complex) / math.sqrt(2), gates.X / math.sqrt(2)]
        for k in ch.kraus_ops:
            coeffs = [np.trace(b.conj().T @ k) / np.trace(b.conj().T @ b) for b in basis]
            recon = sum(c * b for c, b in zip(coeffs, basis))
            assert np.abs(recon - k).max() < 1e-10

    def test_round_trip_on_matrix_units(self, rng):
        for d in (2, 3, 4):
            ch = random_cptp_channel(d, 3, rng)
            back = kraus_from_choi(choi_of_channel(ch))
            for unit in matrix_units(d):
                a = kraus_action(ch.kraus_ops, unit)
                b = kraus_action(back.kraus_ops, unit)
                assert np.abs(a - b).max() < 1e-9


class TestVectorize:
    def test_identity_gives_ebit(self):
        assert np.abs(vectorize(np.eye(2)).amplitudes - bell_state(2)).max() < 1e-14

    def test_transpose_identity_symmetric(self):
        w = bell_state(2)
        lhs = np.kron(gates.Z, np.eye(2)) @ w
        rhs = np.kron(np.eye(2), gates.Z.T) @ w
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_transpose_identity_random(self, rng):
        for d in (2, 3, 8):
            a = rng.normal((d, d)) + 1j * rng.normal((d, d))
            w = bell_state(d)
            lhs = np.kron(a, np.eye(d)) @ w
            rhs = np.kron(np.eye(d), a.T) @ w
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_bent_two_part_identity_uses_swap(self, rng):
        # (A ⊗ I)|ω⟩^{⊗2} = (I ⊗ R A^t R)|ω⟩^{⊗2} with R = SWAP in the
        # bent-wire pairing; explicit 16-dimensional check
        a = haar_random_unitary(4, rng).matrix
        base = vectorize(np.eye(4), parts=2).amplitudes
        r = gates.SWAP
        lhs = np.kron(a, np.eye(4)) @ base
        rhs = np.kron(np.eye(4), r @ a.T @ r) @ base
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_unvec_inverts_vec(self, rng):
        a = rng.normal((3, 3)) + 1j * rng.normal((3, 3))
        assert np.abs(unvec(vec(a)) - a).max() < 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            vectorize(np.ones((2, 3)))


class TestSuperchannel:
    def test_identity_superchannel(self, rng):
        s = Superchannel(UnitaryOp(np.eye(2)), UnitaryOp(np.eye(2)), 2, 1)
        ch = random_cptp_channel(2, 2, rng)
        out = apply_superchannel(s, ch)
        rho = random_density(2, rng)
        assert np.abs(
            apply_channel(out, rho).matrix - kraus_action(ch.kraus_ops, rho.matrix)
        ).max() < 1e-10

    def test_post_processing_unitary(self, rng):
        w = haar_random_unitary(2, rng)
        g = haar_random_unitary(2, rng)
        s = Superchannel(UnitaryOp(np.eye(2)), w, 2, 1)
        out = apply_superchannel(s, KrausChannel([g.matrix]))
        target = w.matrix @ g.matrix
        rho = random_density(2, rng)
        expected = target @ rho.matrix @ target.conj().T
        assert np.abs(apply_channel(out, rho).matrix - expected).max() < 1e-10

    def test_identity_input_is_circuit(self, rng):
        # with the identity channel in the slot the superchannel reduces to
        # the dense circuit tr_a V U (ρ ⊗ |0><0|) U† V†
        d, a = 2, 3
        u = haar_random_unitary(d * a, rng)
        v = haar_random_unitary(d * a, rng)
        s = Superchannel(u, v, d, a)
        out = apply_superchannel(s, KrausChannel([np.eye(d)]))
        rho = random_density(d, rng)
        big = np.kron(rho.matrix, np.diag([1.0] + [0.0] * (a - 1)))
        circuit = v.matrix @ u.matrix
        expected = partial_trace_matrix(
            circuit @ big @ circuit.conj().T, (d, a), [0]
        )
        assert np.abs(apply_channel(out, rho).matrix - expected).max() < 1e-10

    def test_output_is_cptp(self, rng):
        for _ in range(5):
            s = Superchannel(
                haar_random_unitary(6, rng), haar_random_unitary(6, rng), 3, 2
            )
            ch = random_cptp_channel(3, 2, rng)
            apply_superchannel(s, ch)  # KrausChannel constructor validates TP

    def test_bent_route_agrees(self, rng):
        s = Superchannel(
            haar_random_unitary(4, rng), haar_random_unitary(4, rng), 2, 2
        )
        ch = random_cptp_channel(2, 2, rng)
        choi = choi_of_channel(ch)
        out = apply_superchannel(s, ch)
        for _ in range(5):
            rho = random_density(2, rng)
            a = apply_channel(out, rho).matrix
            b = superchannel_bent_action(s, choi, rho).matrix
            assert np.abs(a - b).max() < 1e-9


class TestSuperchannelChoi:
    def test_identity(self, rng):
        s = Superchannel(UnitaryOp(np.eye(2)), UnitaryOp(np.eye(2)), 2, 1)
        ch = random_cptp_channel(2, 2, rng)
        choi = choi_of_channel(ch)
        out = choi_of_channel(apply_superchannel(s, kraus_from_choi(choi)))
        assert np.abs(out.matrix - choi.matrix).max() < 1e-9

    def test_pauli_conjugation(self):
        pre, post = gates.X, gates.Z
        s = Superchannel(UnitaryOp(pre), UnitaryOp(post), 2, 1)
        choi = choi_of_unitary(gates.H)
        out = choi_of_channel(apply_superchannel(s, kraus_from_choi(choi)))
        expected = choi_of_unitary(post @ gates.H @ pre)
        assert np.abs(out.matrix - expected.matrix).max() < 1e-9

    def test_dual_path_agreement(self, rng):
        s = Superchannel(
            haar_random_unitary(4, rng), haar_random_unitary(4, rng), 2, 2
        )
        ch = random_cptp_channel(2, 3, rng)
        choi_in = choi_of_channel(ch)
        out_choi = choi_of_channel(apply_superchannel(s, kraus_from_choi(choi_in)))
        # oracle: Choi assembled entry by entry from the bent-wire action
        units = matrix_units(2)
        assembled = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                rho_ij = units[i * 2 + j]
                out_ij = _bent_on_matrix(s, choi_in, rho_ij)
                assembled += np.kron(out_ij, rho_ij) / 2
        assert np.abs(out_choi.matrix - assembled).max() < 1e-9


def superchannel_bent_action(s, choi, rho):
    """Bent-wire evaluation, the dual route to `apply_superchannel`.

    The input wire of the stored dual state is connected by a partial
    transpose on the system wire: (E ⊗ I)(χ) = d tr_S[(ω_E ⊗ I)(I ⊗ χ^{T_S})]
    for a joint state χ of system and memory.
    """
    d, a = s.system_dim, s.ancilla_dim
    embed = np.kron(np.eye(d), np.eye(a)[:, :1])  # ρ ↦ ρ ⊗ |0⟩⟨0|
    pre = s.pre_unitary.matrix @ embed
    chi = pre @ rho.matrix @ pre.conj().T
    # partial transpose on the system factor of chi (dims d, a)
    chi_t = chi.reshape(d, a, d, a).transpose(2, 1, 0, 3).reshape(d * a, d * a)
    big = np.kron(choi.matrix, np.eye(a)) @ np.kron(np.eye(d), chi_t)
    bent = d * partial_trace_matrix(big, (d, d, a), [0, 2])
    out = s.post_unitary.matrix @ bent @ s.post_unitary.matrix.conj().T
    return DensityOperator(partial_trace_matrix(out, (d, a), [0]))


def _bent_on_matrix(s, choi, mat):
    """Extend the bent-wire action to arbitrary matrices by linearity."""
    herm = (mat + mat.conj().T) / 2
    skew = (mat - mat.conj().T) / (2j)
    outs = []
    for part in (herm, skew):
        vals, vecs = np.linalg.eigh(part)
        acc = np.zeros_like(mat)
        for lam, v in zip(vals, vecs.T):
            if abs(lam) < 1e-14:
                continue
            rho = DensityOperator(np.outer(v, v.conj()))
            acc = acc + lam * superchannel_bent_action(s, choi, rho).matrix
        outs.append(acc)
    return outs[0] + 1j * outs[1]


class TestComb:
    def test_two_teeth_identity_slot(self, rng):
        u = haar_random_unitary(2, rng)
        v = haar_random_unitary(2, rng)
        comb = Comb(2, 1, (u, v))
        out = apply_comb(comb, [KrausChannel([np.eye(2)])])
        rho = random_density(2, rng)
        target = v.matrix @ u.matrix
        assert np.abs(
            apply_channel(out, rho).matrix - target @ rho.matrix @ target.conj().T
        ).max() < 1e-10

    def test_two_comb_equals_superchannel(self, rng):
        d, m = 2, 2
        u = haar_random_unitary(d * m, rng)
        v = haar_random_unitary(d * m, rng)
        comb = Comb(d, m, (u, v))
        sup = Superchannel(u, v, d, m)
        ch = random_cptp_channel(d, 2, rng)
        out_comb = apply_comb(comb, [ch])
        out_sup = apply_superchannel(sup, ch)
        for unit in matrix_units(d):
            a = kraus_action(out_comb.kraus_ops, unit)
            b = kraus_action(out_sup.kraus_ops, unit)
            assert np.abs(a - b).max() < 1e-10

    def test_unitary_inputs_dense_oracle(self, rng):
        d, m = 2, 2
        teeth = [haar_random_unitary(d * m, rng) for _ in range(3)]
        slots = [haar_random_unitary(d, rng) for _ in range(2)]
        comb = Comb(d, m, teeth)
        out = apply_comb(comb, [KrausChannel([g.matrix]) for g in slots])
        # dense oracle: full circuit on system ⊗ memory, memory traced
        circuit = (
            teeth[2].matrix
            @ np.kron(slots[1].matrix, np.eye(m))
            @ teeth[1].matrix
            @ np.kron(slots[0].matrix, np.eye(m))
            @ teeth[0].matrix
        )
        rho = random_density(d, rng)
        big = np.kron(rho.matrix, np.diag([1.0] + [0.0] * (m - 1)))
        expected = partial_trace_matrix(circuit @ big @ circuit.conj().T, (d, m), [0])
        assert np.abs(apply_channel(out, rho).matrix - expected).max() < 1e-10

    def test_slot_count_checked(self, rng):
        comb = Comb(2, 1, (haar_random_unitary(2, rng),))
        with pytest.raises(ValidationError):
            apply_comb(comb, [KrausChannel([np.eye(2)])])
