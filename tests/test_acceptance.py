"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Tolerances are pinned here, not configurable.
"""

import json
import math
import time

import numpy as np

from conftest import basis_image, kraus_action, matrix_units, nfold_toffoli, spanning_pure_states
from qvn import gates
from qvn.cli import main as cli_main
from qvn.control import controlled_unknown_channel, ideal_controlled
from qvn.duality import (
    Comb,
    Superchannel,
    apply_comb,
    apply_superchannel,
    apply_via_choi,
    bell_state,
    choi_of_channel,
    choi_of_unitary,
    kraus_from_choi,
)
from qvn.kernel import (
    DensityOperator,
    KrausChannel,
    Observable,
    PureState,
    Retention,
    RngStream,
    UnitaryOp,
    apply_channel,
    haar_random_unitary,
    partial_trace_matrix,
    random_cptp_channel,
    random_density,
    trace_distance,
)
from qvn.qec import (
    bit_flip_code,
    build_recovery,
    check_kl,
    error_channel,
    logical_ebit,
    pauli_site_operator,
    phase_flip_code,
)
from qvn.tailed import (
    Injection,
    InjectionSpec,
    ReadoutSpec,
    TopoDiagram,
    TopoVertex,
    eval_topological,
    program_state,
    run_algorithm,
    toffoli_cascade,
)
from qvn.uqt import (
    ByproductStrategy,
    bell_probabilities,
    compose,
    stored_program,
    symmetric_decompose,
)


def report(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status} {description}{suffix}")
    assert passed, f"criterion {number}: {description}{suffix}"


def test_criterion_01_duality_round_trip():
    start = time.monotonic()
    worst = 0.0
    for d in (2, 3, 4):
        rng = RngStream(101, d)
        for _ in range(50):
            ch = random_cptp_channel(d, min(d, 3), rng)
            back = kraus_from_choi(choi_of_channel(ch))
            for unit in matrix_units(d):
                a = kraus_action(ch.kraus_ops, unit)
                b = kraus_action(back.kraus_ops, unit)
                worst = max(worst, trace_distance(a, b))
    elapsed = time.monotonic() - start
    report(
        1,
        "Kraus-from-Choi round trip on 50 channels per d in {2,3,4}",
        worst <= 1e-9 and elapsed < 10.0,
        f"max trace distance {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_readout_formula():
    rng = RngStream(202)
    worst = 0.0
    for d in (2, 3, 4):
        for _ in range(20):
            ch = random_cptp_channel(d, 2, rng)
            choi = choi_of_channel(ch)
            rho = random_density(d, rng)
            direct = kraus_action(ch.kraus_ops, rho.matrix)
            worst = max(worst, np.abs(apply_via_choi(choi, rho).matrix - direct).max())
    rho = random_density(3, rng)
    ident = choi_of_channel(KrausChannel([np.eye(3)]))
    exact = np.abs(apply_via_choi(ident, rho).matrix - rho.matrix).max()
    report(
        2,
        "dual-state readout equals Kraus action; identity is exact",
        worst <= 1e-10 and exact <= 1e-12,
        f"random error {worst:.2e}, identity error {exact:.2e}",
    )


def test_criterion_03_choi_marginals():
    rng = RngStream(303)
    worst = 0.0
    chois = []
    for d in (2, 3, 4):
        chois.append((choi_of_channel(random_cptp_channel(d, 3, rng)), None))
        u = haar_random_unitary(d, rng)
        chois.append((choi_of_unitary(u), KrausChannel([u.matrix])))
    chois.append((choi_of_channel(KrausChannel([gates.P0, gates.P1])), None))
    for choi, _ in chois:
        d = choi.d
        tail = partial_trace_matrix(choi.matrix, (d, d), [1])
        worst = max(worst, np.abs(tail - np.eye(d) / d).max())
    # head marginal against the average output E(I)/d
    for d in (2, 3, 4):
        ch = random_cptp_channel(d, 2, rng)
        choi = choi_of_channel(ch)
        head = partial_trace_matrix(choi.matrix, (d, d), [0])
        e_id = sum(k @ k.conj().T for k in ch.kraus_ops)
        worst = max(worst, np.abs(head - e_id / d).max())
    report(3, "Choi marginals I/d and E(I)/d", worst <= 1e-10, f"max dev {worst:.2e}")


def test_criterion_04_composition_correctness():
    start = time.monotonic()
    worst_fid_gap = 0.0
    single_pass = True
    cases = [(2, 100, 404), (4, 25, 405)]
    for d, count, seed in cases:
        rng = RngStream(seed)
        for _ in range(count):
            u1 = haar_random_unitary(d, rng)
            u2 = haar_random_unitary(d, rng)
            target = choi_of_unitary(u2.matrix @ u1.matrix).pure_amplitudes
            for strategy in ByproductStrategy:
                result, used = compose(
                    stored_program(u1), stored_program(u2), strategy, rng
                )
                fid = abs(np.vdot(result.choi.pure_amplitudes, target)) ** 2
                worst_fid_gap = max(worst_fid_gap, 1 - fid)
                if strategy is not ByproductStrategy.REPEAT_UNTIL_SUCCESS:
                    single_pass = single_pass and used == 1
    # determinism of the single-pass strategies across seeds
    u1 = haar_random_unitary(2, RngStream(406))
    u2 = haar_random_unitary(2, RngStream(407))
    for strategy in (ByproductStrategy.CORRECTION_TABLE, ByproductStrategy.SYMMETRIC_PAIR):
        outs = []
        for seed in range(20):
            result, used = compose(
                stored_program(u1), stored_program(u2), strategy, RngStream(seed)
            )
            single_pass = single_pass and used == 1
            outs.append(result.choi.pure_amplitudes)
        for other in outs[1:]:
            worst_fid_gap = max(worst_fid_gap, 1 - abs(np.vdot(outs[0], other)) ** 2)
    # repeat-until-success trial statistics, d = 2
    rng = RngStream(408)
    p1 = stored_program(gates.H)
    p2 = stored_program(gates.T)
    trials = [
        compose(p1, p2, ByproductStrategy.REPEAT_UNTIL_SUCCESS, rng)[1]
        for _ in range(2000)
    ]
    p = 0.25
    sigma_mean = math.sqrt((1 - p) / p**2) / math.sqrt(len(trials))
    mean_ok = abs(np.mean(trials) - 4.0) <= 3 * sigma_mean
    elapsed = time.monotonic() - start
    report(
        4,
        "composition: three strategies exact, single-pass deterministic, RUS geometric",
        worst_fid_gap <= 1e-10 and single_pass and mean_ok and elapsed < 60.0,
        f"fid gap {worst_fid_gap:.2e}, RUS mean {np.mean(trials):.3f}, {elapsed:.1f}s",
    )


def test_criterion_05_bell_statistics():
    worst = 0.0
    for d in (2, 3, 4):
        rng = RngStream(505, d)
        p1 = stored_program(haar_random_unitary(d, rng))
        p2 = stored_program(haar_random_unitary(d, rng))
        joint = PureState(
            np.kron(p1.choi.pure_amplitudes, p2.choi.pure_amplitudes), (d,) * 4
        )
        probs, _ = bell_probabilities(joint, 0, 3, p2.basis)
        worst = max(worst, np.abs(probs - 1.0 / d**2).max())
    report(
        5,
        "composition measurement outcomes exactly uniform",
        worst <= 1e-12,
        f"max |p - 1/d²| = {worst:.2e}",
    )


def test_criterion_06_symmetric_decomposition():
    rng = RngStream(606)
    worst_sym = 0.0
    worst_prod = 0.0
    for d in (2, 3, 4, 8):
        for _ in range(25):
            u = haar_random_unitary(d, rng)
            f = symmetric_decompose(u)
            for s in (f.s1, f.s2):
                worst_sym = max(worst_sym, np.abs(s.matrix - s.matrix.T).max())
            worst_prod = max(
                worst_prod, np.abs(f.s1.matrix @ f.s2.matrix - u.matrix).max()
            )
    report(
        6,
        "symmetric factor pairs for 100 random unitaries",
        worst_sym <= 1e-10 and worst_prod <= 1e-9,
        f"symmetry {worst_sym:.2e}, product {worst_prod:.2e}",
    )


def test_criterion_07_injection_probability():
    shots = 100_000
    all_ok = True
    details = []
    for n in (1, 2, 3, 4):
        state = program_state(stored_program(np.eye(2**n)))
        # one table, both branches kept; each draw is the one `inject` makes
        table = Injection(state, InjectionSpec(tuple(range(n))), keep=Retention(2 * state.dim))
        exact_ok = abs(table.p1 - 2.0**-n) <= 1e-12
        rng = RngStream(707, n)
        hits = 0
        for _ in range(shots):
            branch, _ = table.sample(rng)
            hits += branch
        p = 2.0**-n
        sigma = math.sqrt(p * (1 - p) / shots)
        freq_ok = abs(hits / shots - p) <= 4 * sigma
        all_ok = all_ok and exact_ok and freq_ok
        details.append(f"n={n}: {hits / shots:.5f} vs {p:.5f}")
    report(7, "injection branch probability 2^-n", all_ok, "; ".join(details))


def test_criterion_08_algorithmic_readout():
    start = time.monotonic()
    rng_u = RngStream(808)
    u4 = haar_random_unitary(4, rng_u)
    obs_zz = Observable(np.kron(gates.Z, gates.Z))
    psi_f = u4.matrix @ np.eye(4)[:, 3]
    cases = [
        ("H", stored_program(gates.H), Observable(gates.Z), 1, 0.0),
        ("TH", stored_program(gates.T @ gates.H), Observable(gates.Z), 1, 0.0),
        (
            "SU4",
            stored_program(u4),
            obs_zz,
            2,
            float(np.real(psi_f.conj() @ obs_zz.matrix @ psi_f)),
        ),
    ]
    all_ok = True
    details = []
    for name, program, obs, n, exact in cases:
        hits = 0
        reps = 100
        for seed in range(reps):
            result = run_algorithm(
                program,
                ReadoutSpec(obs, tuple(range(n))),
                InjectionSpec(tuple(range(n))),
                10_000,
                RngStream(seed, 880 + n),
            )
            if abs(result.estimate - exact) <= 4 * max(result.standard_error, 1e-15):
                hits += 1
        all_ok = all_ok and hits >= 95
        details.append(f"{name}: {hits}/100")
    elapsed = time.monotonic() - start
    all_ok = all_ok and elapsed < 120.0
    report(8, "estimates within 4 standard errors", all_ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_09_toffoli_cascade():
    worst = 0.0
    for n in range(2, 7):
        cascade = toffoli_cascade(n)
        mono = nfold_toffoli(n)
        for basis_index in range(2 ** (n + 1)):
            bits = [(basis_index >> (n - i)) & 1 for i in range(n + 1)]
            full = bits[:n] + [0] * (n - 1) + [bits[n]]
            out = basis_image(cascade, full)
            expected_col = mono[:, basis_index]
            k = int(np.argmax(np.abs(expected_col)))
            ebits = [(k >> (n - i)) & 1 for i in range(n + 1)]
            idx = int(
                "".join(str(b) for b in ebits[:n] + [0] * (n - 1) + [ebits[n]]), 2
            )
            worst = max(worst, abs(out[idx] - 1.0))
            out = out.copy()
            out[idx] = 0.0
            worst = max(worst, float(np.abs(out).max()))
    report(
        9,
        "Toffoli cascade equals the monolithic gate for n <= 6",
        worst <= 1e-12,
        f"max entry deviation {worst:.2e}",
    )


def test_criterion_10_controlled_unknown():
    rng = RngStream(1010)
    worst = 0.0
    cases = [
        (UnitaryOp(gates.Z), PureState([1, 0]), 1.0),
        (UnitaryOp(gates.T), PureState([1, 0]), 1.0),
    ]
    v = haar_random_unitary(2, rng)
    phases = np.exp(2j * np.pi * rng.uniforms(2))
    u_diag = UnitaryOp(v.matrix @ np.diag(phases) @ v.matrix.conj().T)
    cases.append((u_diag, PureState(v.matrix[:, 0]), complex(phases[0])))
    for u, eigenstate, lam in cases:
        channel = controlled_unknown_channel(u, eigenstate, lam)
        ideal = ideal_controlled(u, lam).matrix
        for vec in spanning_pure_states(2 * u.dim):
            rho = DensityOperator(np.outer(vec, vec.conj()))
            out = apply_channel(channel, rho)
            expected = DensityOperator(ideal @ rho.matrix @ ideal.conj().T)
            worst = max(worst, trace_distance(out, expected))
    report(
        10,
        "CSWAP-realized controlled-U matches the ideal gate",
        worst <= 1e-9,
        f"max trace distance {worst:.2e}",
    )


def test_criterion_11_comb_equivalence():
    rng = RngStream(1111)
    d, m = 2, 2
    u = haar_random_unitary(d * m, rng)
    v = haar_random_unitary(d * m, rng)
    ch = random_cptp_channel(d, 2, rng)
    out_comb = apply_comb(Comb(d, m, (u, v)), [ch])
    out_sup = apply_superchannel(Superchannel(u, v, d, m), ch)
    worst = 0.0
    for unit in matrix_units(d):
        a = kraus_action(out_comb.kraus_ops, unit)
        b = kraus_action(out_sup.kraus_ops, unit)
        worst = max(worst, np.abs(a - b).max())
    two_comb_ok = worst <= 1e-10

    teeth = [haar_random_unitary(2, rng) for _ in range(3)]
    slots = [haar_random_unitary(2, rng) for _ in range(2)]
    dense = (
        teeth[2].matrix
        @ slots[1].matrix
        @ teeth[1].matrix
        @ slots[0].matrix
        @ teeth[0].matrix
    )
    target = choi_of_unitary(dense).pure_amplitudes
    chain = stored_program(teeth[0])
    strat = ByproductStrategy.CORRECTION_TABLE
    for gate in (slots[0], teeth[1], slots[1], teeth[2]):
        chain, _ = compose(chain, stored_program(gate), strat, rng)
    fid_uqt = abs(np.vdot(chain.choi.pure_amplitudes, target)) ** 2
    comb_out = apply_comb(
        Comb(2, 1, teeth), [KrausChannel([g.matrix]) for g in slots]
    )
    comb_choi = choi_of_channel(comb_out)
    fid_comb = float(np.real(target.conj() @ comb_choi.matrix @ target))
    report(
        11,
        "2-comb equals superchannel; 3-tooth comb realized by composition",
        two_comb_ok and fid_uqt >= 1 - 1e-9 and fid_comb >= 1 - 1e-9,
        f"2-comb dev {worst:.2e}, uqt fid gap {1 - fid_uqt:.2e}, comb fid gap {1 - fid_comb:.2e}",
    )


def test_criterion_12_qec_condition():
    code = bit_flip_code()
    x_errors = [pauli_site_operator(t, 3) for t in ("I", "X0", "X1", "X2")]
    kl = check_kl(code, x_errors)
    kl_ok = kl.satisfied and kl.max_residual <= 1e-12
    recovery = build_recovery(code, x_errors)
    noise = error_channel(x_errors)
    rng = RngStream(1212)
    worst_fid = 1.0
    for _ in range(25):
        amps = rng.normal((2,)) + 1j * rng.normal((2,))
        amps = amps / np.linalg.norm(amps)
        enc = code.isometry @ amps
        rho = DensityOperator(np.outer(enc, enc.conj()))
        out = apply_channel(recovery.channel, apply_channel(noise, rho))
        worst_fid = min(worst_fid, float(np.real(enc.conj() @ out.matrix @ enc)))
    z_kl = check_kl(code, x_errors + [pauli_site_operator("Z0", 3)])
    z_ok = (not z_kl.satisfied) and z_kl.max_residual >= 0.1
    report(
        12,
        "repetition code: X errors correctable, Z errors violate the condition",
        kl_ok and worst_fid >= 1 - 1e-10 and z_ok,
        f"KL residual {kl.max_residual:.2e}, min fidelity {worst_fid:.12f}, Z residual {z_kl.max_residual:.2f}",
    )


def test_criterion_13_logical_ebit():
    worst = 0.0
    for code in (bit_flip_code(), phase_flip_code()):
        state = logical_ebit(code)
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
        dims = (code.physical_dim, code.physical_dim)
        for keep in ([0], [1]):
            red = partial_trace_matrix(rho, dims, keep)
            worst = max(worst, np.abs(red - code.projector / code.logical_dim).max())
    report(
        13,
        "logical ebit marginals equal P/2^k",
        worst <= 1e-10,
        f"max dev {worst:.2e}",
    )


def test_criterion_14_topological_evaluation():
    rng = RngStream(1414)
    u_rand = haar_random_unitary(2, rng).matrix
    worst = 0.0
    for gate in (np.eye(2), gates.Z, gates.T, u_rand):
        diagram = TopoDiagram((TopoVertex(gate, 1),), (((0, "h", 0), (0, "t", 0)),))
        worst = max(worst, abs(eval_topological(diagram) - np.trace(gate) / 2))
    v_rand = haar_random_unitary(2, rng).matrix
    two = TopoDiagram(
        (TopoVertex(u_rand, 1), TopoVertex(v_rand, 1)),
        (((0, "h", 0), (0, "t", 0)), ((1, "h", 0), (1, "t", 0))),
    )
    product_dev = abs(
        eval_topological(two) - (np.trace(u_rand) / 2) * (np.trace(v_rand) / 2)
    )
    a = haar_random_unitary(4, rng).matrix
    b = haar_random_unitary(4, rng).matrix
    link = TopoDiagram(
        (TopoVertex(a, 2), TopoVertex(b, 2)),
        (
            ((0, "h", 0), (1, "t", 0)),
            ((0, "h", 1), (1, "t", 1)),
            ((1, "h", 0), (0, "t", 0)),
            ((1, "h", 1), (0, "t", 1)),
        ),
    )
    link_dev = abs(eval_topological(link) - _link_oracle(a, b))
    report(
        14,
        "circles evaluate to tr(U)/d, disjoint circles multiply, link matches oracle",
        worst <= 1e-12 and product_dev <= 1e-12 and link_dev <= 1e-10,
        f"circle {worst:.2e}, product {product_dev:.2e}, link {link_dev:.2e}",
    )


def _link_oracle(a, b):
    d = 2
    va = (np.kron(a, np.eye(4)) @ bell_state(4)).reshape(d, d, d, d)
    vb = (np.kron(b, np.eye(4)) @ bell_state(4)).reshape(d, d, d, d)
    total = 0.0 + 0.0j
    scale = (1.0 / math.sqrt(d)) ** 4
    for idx_a in np.ndindex(d, d, d, d):
        h00, h01, t00, t01 = idx_a
        for h10 in range(d):
            for h11 in range(d):
                total += (
                    va[h00, h01, t00, t01]
                    * vb[h10, h11, h00, h01]
                    * (h10 == t00)
                    * (h11 == t01)
                    * scale
                )
    return total


RUN_DOC = """run shots=60 seed=4
slot addr=0 copies=1
QVN1 name=H n=1
t=0 g=H q=0
endslot
slot addr=1 copies=1
QVN1 name=T n=1
t=0 g=T q=0
endslot
schedule
restore addr=0 copies=1
restore addr=1 copies=1
compose a=0 b=1 strategy=correction_table dest=2
inject target=2 bits=1
readout target=2 obs=Z
endschedule
"""


def test_criterion_15_cli_determinism(tmp_path, capsys):
    from qvn.qec import serialize_code

    (tmp_path / "demo.run").write_text(RUN_DOC)
    (tmp_path / "h.qvn").write_text("QVN1 name=H n=1\nt=0 g=H q=0\n")
    (tmp_path / "t.qvn").write_text("QVN1 name=T n=1\nt=0 g=T q=0\n")
    (tmp_path / "circle.topo").write_text(
        "QVN1 name=c\nvertex legs=1 g=T\nsegment a=0.h0 b=0.t0\n"
    )
    (tmp_path / "code.code").write_text(serialize_code(bit_flip_code()))
    commands = [
        ["run", str(tmp_path / "demo.run"), "--seed", "9"],
        ["compose", str(tmp_path / "h.qvn"), str(tmp_path / "t.qvn"), "--seed", "2",
         "--repeats", "5"],
        ["qec-check", str(tmp_path / "code.code"), "--errors", "I,X0,X1,X2",
         "--recovery", "--seed", "1"],
        ["topo-eval", str(tmp_path / "circle.topo")],
    ]
    all_ok = True
    for argv in commands:
        outputs = []
        for _ in range(2):
            code = cli_main(argv)
            captured = capsys.readouterr()
            assert code == 0
            outputs.append(
                json.dumps(json.loads(captured.out)["canonical"], sort_keys=True)
            )
        all_ok = all_ok and outputs[0] == outputs[1]
    report(15, "CLI canonical output is seed-deterministic", all_ok)
