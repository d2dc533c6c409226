import math

import numpy as np
import pytest

from conftest import einsum_oracle
from qvn import gates, tailed
from qvn.duality import bell_state, choi_of_unitary
from qvn.errors import ValidationError
from qvn.kernel import (
    Observable,
    PureState,
    RngStream,
    apply_to_subsystems,
    haar_random_unitary,
    measure_wire_computational,
)
from qvn.tailed import (
    Injection,
    InjectionSpec,
    ReadoutSpec,
    TopoDiagram,
    TopoVertex,
    contract,
    eval_topological,
    inject,
    program_state,
    run_algorithm,
    tail_outcomes,
    toffoli_cascade,
)
from qvn.uqt import ByproductStrategy, compose, stored_program

MONOLITHIC = "monolithic"
CASCADE = "cascade"


def inject_by_ancilla(state, spec, rng, num_ebits, mode):
    """Circuit oracle for `inject`: the ancilla-mediated measurement.

    Conjugates zero positions by X, copies the AND of the target tails onto
    a read ancilla (one n-fold Toffoli, or a Toffoli cascade over n−1
    ancillas), measures it in Z, uncomputes and drops the ancillas.
    """
    wires = [num_ebits + t for t in spec.target_tails]
    n = len(wires)
    dims = list(state.subsystem_dims)
    amp = state.amplitudes
    flip = [w for w, bit in zip(wires, spec.bitstring) if bit == "0"]
    for w in flip:
        amp = apply_to_subsystems(amp, dims, gates.X, [w])
    n_anc = 1 if (n == 1 or mode == MONOLITHIC) else n - 1
    zero = np.zeros(2**n_anc, dtype=complex)
    zero[0] = 1.0
    amp = np.kron(amp, zero)
    full_dims = tuple(dims) + (2,) * n_anc
    anc = [len(dims) + j for j in range(n_anc)]
    if n == 1:
        compute = [(gates.CX, [wires[0], anc[0]])]
    elif mode == MONOLITHIC:
        compute = [(gates.nfold_toffoli(n), wires + [anc[0]])]
    else:
        compute = [(gates.CCX, [wires[0], wires[1], anc[0]])]
        for j in range(1, n - 1):
            compute.append((gates.CCX, [anc[j - 1], wires[j + 1], anc[j]]))
    read_wire = anc[-1]
    for g, targets in compute:
        amp = apply_to_subsystems(amp, full_dims, g, targets)
    branch, prob, amp = measure_wire_computational(amp, full_dims, read_wire, rng)
    for g, targets in reversed(compute[:-1]):
        amp = apply_to_subsystems(amp, full_dims, g, targets)
    tensor = amp.reshape(full_dims)
    for w in reversed(anc):
        tensor = np.take(tensor, branch if w == read_wire else 0, axis=w)
    amp = tensor.reshape(-1)
    for w in flip:
        amp = apply_to_subsystems(amp, dims, gates.X, [w])
    return branch, float(prob), PureState(amp, tuple(dims))


class TestInjection:
    def test_single_tail_probability_half(self, rng):
        state = program_state(stored_program(gates.H))
        table = Injection(state, InjectionSpec((0,)))
        assert abs(table.p1 - 0.5) < 1e-12
        # P1 branch holds H|1> = |-> on the head
        head = table.result(1)[1].tensor()[:, 1]
        minus = np.array([1, -1]) / math.sqrt(2)
        assert abs(abs(np.vdot(head, minus)) - 1.0) < 1e-12

    def test_exact_probability_two_to_minus_n(self):
        for n in (1, 2, 3, 4):
            u = np.eye(2**n, dtype=complex)
            state = program_state(stored_program(u))
            p1 = Injection(state, InjectionSpec(tuple(range(n)))).p1
            assert abs(p1 - 2.0**-n) < 1e-12

    def test_bitstring_frame_equivalence(self, rng):
        # injecting |10⟩ has the same branch probability as all-ones and
        # collapses the tails onto |10⟩
        u = haar_random_unitary(4, rng)
        state = program_state(stored_program(u))
        table = Injection(state, InjectionSpec((0, 1), "10"))
        assert abs(table.p1 - 0.25) < 1e-12
        tensor = table.result(1)[1].tensor()
        mass = np.linalg.norm(tensor[:, :, 1, 0])
        assert abs(mass - 1.0) < 1e-12
        head = tensor[:, :, 1, 0].reshape(-1)
        expected = u.matrix @ np.eye(4)[:, 2]
        assert abs(abs(np.vdot(head, expected)) - 1.0) < 1e-12

    def test_inject_measurement_matches_exact_branches(self, rng):
        # inject samples the exact branches; the ancilla circuit must agree
        # on the branch drawn from the same seed, its probability and state
        for n in (1, 2, 3, 4):
            state = program_state(stored_program(haar_random_unitary(2**n, rng)))
            bits = "10" * n
            spec = InjectionSpec(tuple(range(n)), bits[:n])
            for mode in (MONOLITHIC, CASCADE):
                for seed in range(8):
                    branch, prob, post = inject(state, spec, RngStream(seed))
                    ref = inject_by_ancilla(state, spec, RngStream(seed), n, mode)
                    assert branch == ref[0]
                    assert abs(prob - ref[1]) < 1e-10
                    assert abs(abs(np.vdot(post.amplitudes, ref[2].amplitudes)) - 1) < 1e-10

    def test_modes_agree_for_three_tails(self, rng):
        u = haar_random_unitary(8, rng)
        state = program_state(stored_program(u))
        spec = InjectionSpec((0, 1, 2))
        outs = {
            mode: inject_by_ancilla(state, spec, RngStream(5), 3, mode)
            for mode in (MONOLITHIC, CASCADE)
        }
        outs["inject"] = inject(state, spec, RngStream(5))
        for mode in (MONOLITHIC, CASCADE):
            assert outs[mode][0] == outs["inject"][0]
            assert abs(outs[mode][1] - outs["inject"][1]) < 1e-10
            overlap = abs(np.vdot(outs[mode][2].amplitudes, outs["inject"][2].amplitudes))
            assert abs(overlap - 1.0) < 1e-10

    def test_branch_frequencies(self):
        state = program_state(stored_program(np.eye(4)))
        spec = InjectionSpec((0, 1))
        n = 10_000
        rng = RngStream(123)
        hits = 0
        for _ in range(n):
            branch, _, _ = inject(state, spec, rng)
            hits += branch
        p = 0.25
        assert abs(hits / n - p) < 4 * math.sqrt(p * (1 - p) / n)

    def test_odd_wire_count_rejected(self):
        # a program state has n heads and n tails; three wires have no halves
        state = PureState(np.kron(bell_state(2), [1, 0]), (2, 2, 2))
        with pytest.raises(ValidationError, match="3 wires"):
            Injection(state, InjectionSpec((0,)))

    def test_named_ebit_count_must_fit(self):
        state = program_state(stored_program(np.eye(4)))
        spec = InjectionSpec((0, 1))
        named = inject(state, spec, RngStream(3), num_ebits=2)
        plain = inject(state, spec, RngStream(3))
        assert named[:2] == plain[:2]
        with pytest.raises(ValidationError, match="num_ebits=1"):
            inject(state, spec, RngStream(3), num_ebits=1)


class TestToffoliCascade:
    def test_n2_equals_single_toffoli(self):
        cascade = toffoli_cascade(2)
        mono = gates.nfold_toffoli(2)
        _assert_cascade_matches(cascade, mono, 2)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_monolithic(self, n):
        _assert_cascade_matches(toffoli_cascade(n), gates.nfold_toffoli(n), n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_to_matrix_columns_are_basis_images(self, n):
        cascade = toffoli_cascade(n)
        m = cascade.to_matrix()
        for j in range(2 ** (2 * n)):
            bits = [int(b) for b in format(j, f"0{2 * n}b")]
            assert np.array_equal(m[:, j], cascade.apply_to_basis_state(bits))

    def test_needs_two_controls(self):
        with pytest.raises(ValidationError):
            toffoli_cascade(1)


def _assert_cascade_matches(cascade, mono, n):
    """Exhaustive basis check with ancillas in and out at |0⟩."""
    for basis_index in range(2 ** (n + 1)):
        bits = [(basis_index >> (n - i)) & 1 for i in range(n + 1)]
        full = bits[:n] + [0] * (n - 1) + [bits[n]]
        out = cascade.apply_to_basis_state(full)
        expected_col = mono[:, basis_index]
        k = int(np.argmax(np.abs(expected_col)))
        ebits = [(k >> (n - i)) & 1 for i in range(n + 1)]
        expected_full = ebits[:n] + [0] * (n - 1) + [ebits[n]]
        idx = int("".join(str(b) for b in expected_full), 2)
        assert abs(out[idx] - 1.0) < 1e-12
        out[idx] = 0.0
        assert np.abs(out).max() < 1e-12


class TestSampleTail:
    def test_ebit_unbiased(self):
        state = PureState(bell_state(2), (2, 2))
        rng = RngStream(9)
        counts = [0, 0]
        n = 10_000
        for _ in range(n):
            bit, _ = tail_outcomes(state, 1).sample(rng)
            counts[bit] += 1
        assert abs(counts[0] / n - 0.5) < 4 * math.sqrt(0.25 / n)

    def test_collapse_injects_basis_state(self):
        state = program_state(stored_program(gates.H))
        rng = RngStream(2)
        bit, post = tail_outcomes(state, 1).sample(rng)
        head = post.tensor()[:, bit]
        expected = gates.H @ np.eye(2)[:, bit]
        assert abs(abs(np.vdot(head, expected)) - 1.0) < 1e-12


class TestContract:
    def test_chain_composes_program(self, rng):
        # postselected head-tail contraction chain of m programs equals the
        # ordered product
        m = 4
        us = [haar_random_unitary(2, rng) for _ in range(m)]
        state = program_state(stored_program(us[0]))
        for u in us[1:]:
            joint = PureState(
                np.kron(state.amplitudes, stored_program(u).choi.pure_amplitudes),
                (2,) * 4,
            )
            k, prob, post = contract(joint, 0, 3, None, postselect_trivial=True)
            assert k == 0 and prob > 0
            mat = post.tensor().transpose(1, 0)
            state = PureState(mat.reshape(-1), (2, 2))
        product = np.linalg.multi_dot([u.matrix for u in reversed(us)])
        target = choi_of_unitary(product).pure_amplitudes
        assert abs(np.vdot(state.amplitudes, target)) ** 2 > 1 - 1e-9

    def test_self_loop_value_is_one_for_ebit(self):
        state = PureState(bell_state(2), (2, 2))
        # contracting the ebit against itself leaves the scalar branch
        k, prob, post = contract(state, 0, 1, None, postselect_trivial=True)
        assert post is None or post.dim == 1
        assert abs(prob - 1.0) < 1e-12  # circle value tr(I)/d = 1

    def test_byproduct_distribution_uniform(self, rng):
        p1 = stored_program(haar_random_unitary(2, rng))
        p2 = stored_program(haar_random_unitary(2, rng))
        joint = PureState(
            np.kron(p1.choi.pure_amplitudes, p2.choi.pure_amplitudes), (2,) * 4
        )
        counts = np.zeros(4)
        sampler = RngStream(31)
        for _ in range(4000):
            k, prob, _ = contract(joint, 0, 3, sampler)
            assert abs(prob - 0.25) < 1e-12
            counts[k] += 1
        assert np.abs(counts / 4000 - 0.25).max() < 4 * math.sqrt(0.25 * 0.75 / 4000)

    def test_zero_amplitude_postselection_flagged(self):
        # |01> component only: trivial Bell outcome has zero amplitude
        amp = np.zeros(4, dtype=complex)
        amp[1] = 1.0
        k, prob, post = contract(PureState(amp, (2, 2)), 0, 1, None, postselect_trivial=True)
        assert prob == 0.0 and post is None


class TestTopological:
    def test_circle_values(self):
        for gate, expected in (
            (np.eye(2), 1.0),
            (gates.Z, 0.0),
            (gates.T, np.trace(gates.T) / 2),
        ):
            diagram = TopoDiagram(
                (TopoVertex(gate, 1),), (((0, "h", 0), (0, "t", 0)),)
            )
            assert abs(eval_topological(diagram) - expected) < 1e-12

    def test_disjoint_circles_multiply(self, rng):
        u = haar_random_unitary(2, rng).matrix
        v = haar_random_unitary(2, rng).matrix
        two = TopoDiagram(
            (TopoVertex(u, 1), TopoVertex(v, 1)),
            (((0, "h", 0), (0, "t", 0)), ((1, "h", 0), (1, "t", 0))),
        )
        value = eval_topological(two)
        expected = (np.trace(u) / 2) * (np.trace(v) / 2)
        assert abs(value - expected) < 1e-12

    def test_two_vertex_link_against_brute_force(self, rng):
        a = haar_random_unitary(4, rng).matrix
        b = haar_random_unitary(4, rng).matrix
        segments = (
            ((0, "h", 0), (1, "t", 0)),
            ((0, "h", 1), (1, "t", 1)),
            ((1, "h", 0), (0, "t", 0)),
            ((1, "h", 1), (0, "t", 1)),
        )
        diagram = TopoDiagram((TopoVertex(a, 2), TopoVertex(b, 2)), segments)
        value = eval_topological(diagram)
        assert abs(value - _link_oracle(a, b)) < 1e-10

    def test_open_diagram_returns_state(self, rng):
        u = haar_random_unitary(2, rng).matrix
        diagram = TopoDiagram((TopoVertex(u, 1),), ())
        state = eval_topological(diagram)
        expected = np.kron(u, np.eye(2)) @ bell_state(2)
        assert abs(abs(np.vdot(state.amplitudes, expected)) - 1.0) < 1e-12

    @pytest.mark.parametrize("kind", ["T", "haar"])
    def test_200_vertex_ring_matches_trace(self, rng, kind):
        m = 200
        gate_list = [
            gates.T if kind == "T" else haar_random_unitary(2, rng).matrix for _ in range(m)
        ]
        vertices = tuple(TopoVertex(g, 1) for g in gate_list)
        # vertex v's head feeds vertex v+1's tail: the value is tr(U_{m-1} ... U_0) / 2^m
        segments = tuple(((v, "h", 0), ((v + 1) % m, "t", 0)) for v in range(m))
        product = np.eye(2, dtype=complex)
        for g in gate_list:
            product = g @ product
        expected = np.trace(product) / 2**m
        value = eval_topological(TopoDiagram(vertices, segments))
        assert abs(value - expected) <= 1e-10 * abs(expected)

    def test_ring_matches_einsum_oracle(self, rng):
        m = 12
        vertices = tuple(TopoVertex(haar_random_unitary(2, rng).matrix, 1) for _ in range(m))
        segments = tuple(((v, "h", 0), ((v + 1) % m, "t", 0)) for v in range(m))
        diagram = TopoDiagram(vertices, segments)
        assert abs(eval_topological(diagram) - einsum_oracle(diagram)) < 1e-14

    def test_size_bound_checked_before_contraction(self, monkeypatch):
        # 14 open 1-leg vertices prepare a state of 2^28 > 2^26 amplitudes
        def no_contraction(*args, **kwargs):
            raise AssertionError("contracted before the size check")

        monkeypatch.setattr(np, "tensordot", no_contraction)
        diagram = TopoDiagram(tuple(TopoVertex(gates.T, 1) for _ in range(14)), ())
        with pytest.raises(ValidationError, match="MAX_INTERMEDIATE_ENTRIES = 67108864"):
            eval_topological(diagram)
        assert tailed.MAX_INTERMEDIATE_ENTRIES == 2**26

    def test_malformed_endpoint_rejected(self):
        with pytest.raises(ValidationError):
            TopoDiagram((TopoVertex(np.eye(2), 1),), (((0, "h", 0), (0, "x", 0)),))

    def test_double_use_rejected(self):
        with pytest.raises(ValidationError):
            TopoDiagram(
                (TopoVertex(np.eye(4), 2),),
                (((0, "h", 0), (0, "t", 0)), ((0, "h", 0), (0, "t", 1))),
            )


def _link_oracle(a, b):
    """Brute-force overlap for the two-vertex link, built from raw krons.

    Vertex state axes (h0, h1, t0, t1); the full 8-wire product state is
    contracted against Bell pairs segment by segment with explicit index
    loops.
    """
    d = 2
    va = (np.kron(a, np.eye(4)) @ bell_state(4)).reshape(d, d, d, d)
    vb = (np.kron(b, np.eye(4)) @ bell_state(4)).reshape(d, d, d, d)
    total = 0.0 + 0.0j
    inv_sqrt_d = 1.0 / math.sqrt(d)
    for h00 in range(d):
        for h01 in range(d):
            for t00 in range(d):
                for t01 in range(d):
                    for h10 in range(d):
                        for h11 in range(d):
                            for t10 in range(d):
                                for t11 in range(d):
                                    # segments force equality across pairs
                                    if (
                                        h00 == t10
                                        and h01 == t11
                                        and h10 == t00
                                        and h11 == t01
                                    ):
                                        total += (
                                            va[h00, h01, t00, t01]
                                            * vb[h10, h11, t10, t11]
                                            * inv_sqrt_d**4
                                        )
    return total


def tour_case():
    """The README's library tour: |1> into the composed T·H, Z read out."""
    p_th, _ = compose(
        stored_program(gates.H), stored_program(gates.T), ByproductStrategy.CORRECTION_TABLE,
        RngStream(7),
    )
    return p_th, ReadoutSpec(Observable(gates.Z), (0,)), InjectionSpec((0,)), RngStream(7)


def su4_case(seed):
    """Acceptance criterion 08's SU4 case: Z⊗Z after a Haar 4×4 on |11>."""
    u4 = haar_random_unitary(4, RngStream(808))
    readout = ReadoutSpec(Observable(np.kron(gates.Z, gates.Z)), (0, 1))
    return stored_program(u4), readout, InjectionSpec((0, 1)), RngStream(seed, 882)


class TestRunAlgorithm:
    # (estimate, standard_error, n_p0, n_p1) of 10,000 shots, as drawn when
    # readouts were sampled through numpy's Generator.choice
    @pytest.mark.parametrize(
        "case, pinned",
        [
            (tour_case, (-0.011400019660648427, 0.010000346335658803, 5050, 4950)),
            (lambda: su4_case(0), (0.09155470434706799, 0.017251943030258864, 7491, 2509)),
            (lambda: su4_case(57), (0.08166462843697046, 0.017275589311466954, 7495, 2505)),
        ],
        ids=["tour", "su4-seed0", "su4-seed57"],
    )
    def test_seeded_results_pinned(self, case, pinned):
        program, readout, injection, rng = case()
        r = run_algorithm(program, readout, injection, 10_000, rng)
        assert (r.estimate, r.standard_error, r.n_p0, r.n_p1) == pinned
        # the heralded branch of n injected tails has probability 2⁻ⁿ
        assert abs(r.p1_exact - 2.0 ** -len(injection.target_tails)) < 1e-12

    def test_other_program_types_rejected(self):
        # a stored program or its circuit state runs; a bare matrix does not
        readout = ReadoutSpec(Observable(gates.Z), (0,))
        with pytest.raises(ValidationError, match="cannot run object of type ndarray"):
            run_algorithm(np.eye(2), readout, InjectionSpec((0,)), 10, RngStream(0))

    def test_identity_program_z_on_one(self):
        result = run_algorithm(
            stored_program(np.eye(2)),
            ReadoutSpec(Observable(gates.Z), (0,)),
            InjectionSpec((0,)),
            10_000,
            RngStream(4),
        )
        assert abs(result.estimate - (-1.0)) <= max(4 * result.standard_error, 1e-12)

    def test_hadamard_program(self):
        result = run_algorithm(
            stored_program(gates.H),
            ReadoutSpec(Observable(gates.Z), (0,)),
            InjectionSpec((0,)),
            10_000,
            RngStream(8),
        )
        assert abs(result.estimate - 0.0) <= 4 * result.standard_error

    def test_two_qubit_xx(self):
        result = run_algorithm(
            stored_program(np.kron(gates.X, gates.X)),
            ReadoutSpec(Observable(np.kron(gates.Z, gates.Z)), (0, 1)),
            InjectionSpec((0, 1)),
            10_000,
            RngStream(15),
        )
        # X⊗X |11> = |00>; <00|Z⊗Z|00> = +1
        assert abs(result.estimate - 1.0) <= max(4 * result.standard_error, 1e-12)

    def test_estimate_converges(self, rng):
        u = haar_random_unitary(4, rng)
        obs = Observable(np.kron(gates.Z, gates.Z))
        psi_f = u.matrix @ np.eye(4)[:, 3]
        exact = float(np.real(psi_f.conj() @ obs.matrix @ psi_f))
        hits = 0
        reps = 40
        for seed in range(reps):
            result = run_algorithm(
                stored_program(u),
                ReadoutSpec(obs, (0, 1)),
                InjectionSpec((0, 1)),
                10_000,
                RngStream(seed, 77),
            )
            if abs(result.estimate - exact) <= 4 * max(result.standard_error, 1e-15):
                hits += 1
        assert hits >= 0.95 * reps

    def test_records_collected(self):
        result = run_algorithm(
            stored_program(gates.H),
            ReadoutSpec(Observable(gates.Z), (0,)),
            InjectionSpec((0,)),
            32,
            RngStream(1),
            collect_records=True,
        )
        assert len(result.records) == 32
        assert {r.injection_branch for r in result.records} <= {"P0", "P1"}
