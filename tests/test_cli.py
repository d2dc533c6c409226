import json

import numpy as np
import pytest

from qvn.cli import main

H_DOC = "QVN1 name=H n=1\nt=0 g=H q=0\n"
T_DOC = "QVN1 name=T n=1\nt=0 g=T q=0\n"

RUN_DOC = """run shots=120 seed=11
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

CODE_DOC_HEADER = "QVN1 name=bitflip3 n=3 k=1 distance=1\n"

CIRCLE_T = """QVN1 name=circleT
vertex legs=1 g=T
segment a=0.h0 b=0.t0
"""


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def canonical(stdout):
    return json.loads(stdout)["canonical"]


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "h.qvn").write_text(H_DOC)
    (tmp_path / "t.qvn").write_text(T_DOC)
    (tmp_path / "demo.run").write_text(RUN_DOC)
    (tmp_path / "circle.topo").write_text(CIRCLE_T)
    from qvn.qec import bit_flip_code, serialize_code

    (tmp_path / "bitflip.code").write_text(serialize_code(bit_flip_code()))
    return tmp_path


class TestRun:
    def test_th_demo_estimate_near_zero(self, workdir, capsys):
        code, out, _ = run_cli(["run", str(workdir / "demo.run")], capsys)
        assert code == 0
        c = canonical(out)
        assert abs(c["estimate"]) <= 4 * max(c["standard_error"], 1e-12)
        assert c["branches"]["P0"] + c["branches"]["P1"] == 120
        assert c["audit_consistent"] is True

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(["run", "no_such.run"], capsys)
        assert code == 2
        assert err.startswith("error[E_IO]")

    def test_seed_repetition_identical_canonical(self, workdir, capsys):
        _, out1, _ = run_cli(["run", str(workdir / "demo.run"), "--seed", "5"], capsys)
        _, out2, _ = run_cli(["run", str(workdir / "demo.run"), "--seed", "5"], capsys)
        c1 = json.dumps(canonical(out1), sort_keys=True)
        c2 = json.dumps(canonical(out2), sort_keys=True)
        assert c1 == c2

    def test_parse_error_single_line(self, workdir, capsys):
        bad = workdir / "bad.run"
        bad.write_text("run shots=1\nschedule\nbogus foo=1\nendschedule\n")
        code, _, err = run_cli(["run", str(bad)], capsys)
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith("error[E_PARSE]")

    @pytest.mark.parametrize(
        "header, col",
        [
            ("run shots=abc seed=1", 5),
            ("run shots=3 seed=x1", 13),
            ("slot addr=zero copies=1", 6),
            ("slot addr=0 copies=2.5", 13),
        ],
    )
    def test_bad_integer_field_located(self, workdir, capsys, header, col):
        lines = RUN_DOC.split("\n")
        if header.startswith("run"):
            lines[0] = header
            line_no = 1
        else:
            lines[1] = header
            line_no = 2
        bad = workdir / "bad_int.run"
        bad.write_text("\n".join(lines))
        code, _, err = run_cli(["run", str(bad)], capsys)
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith("error[E_PARSE]")
        assert f"(line {line_no}, col {col})" in err
        assert "Traceback" not in err


class TestCompose:
    def test_fidelity_report(self, workdir, capsys):
        code, out, _ = run_cli(
            ["compose", str(workdir / "h.qvn"), str(workdir / "t.qvn"), "--repeats", "4"],
            capsys,
        )
        assert code == 0
        c = canonical(out)
        for name, entry in c["strategies"].items():
            assert entry["min_fidelity"] > 1 - 1e-10
        assert c["strategies"]["correction_table"]["mean_trials"] == 1.0

    def test_zero_repeats_rejected(self, workdir, capsys):
        code, out, err = run_cli(
            ["compose", str(workdir / "h.qvn"), str(workdir / "t.qvn"), "--repeats", "0"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error[E_VALIDATION]")
        assert "--repeats must be >= 1" in err

    def test_width_mismatch_rejected(self, workdir, capsys):
        (workdir / "cx.qvn").write_text("QVN1 name=CX n=2\nt=0 g=CX q=0,1\n")
        code, out, err = run_cli(
            ["compose", str(workdir / "h.qvn"), str(workdir / "cx.qvn")], capsys
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error[E_VALIDATION]")
        assert "1 and 2 qubits" in err
        assert "Traceback" not in err

    def test_identity_pair(self, workdir, capsys):
        (workdir / "id.qvn").write_text("QVN1 name=id n=1\n")
        code, out, _ = run_cli(
            ["compose", str(workdir / "id.qvn"), str(workdir / "id.qvn")], capsys
        )
        assert code == 0
        for entry in canonical(out)["strategies"].values():
            assert entry["min_fidelity"] > 1 - 1e-12

    def test_rus_mean_trials_reported(self, workdir, capsys):
        code, out, _ = run_cli(
            [
                "compose",
                str(workdir / "h.qvn"),
                str(workdir / "t.qvn"),
                "--strategy",
                "repeat_until_success",
                "--repeats",
                "200",
                "--seed",
                "3",
            ],
            capsys,
        )
        assert code == 0
        mean = canonical(out)["strategies"]["repeat_until_success"]["mean_trials"]
        assert 3.0 < mean < 5.2  # geometric with mean d² = 4


class TestQecCheck:
    def test_repetition_code_x_errors(self, workdir, capsys):
        code, out, _ = run_cli(
            [
                "qec-check",
                str(workdir / "bitflip.code"),
                "--errors",
                "I,X0,X1,X2",
                "--recovery",
            ],
            capsys,
        )
        assert code == 0
        c = canonical(out)
        assert c["kl"]["satisfied"] is True
        assert c["kl"]["max_residual"] < 1e-12
        assert c["recovery"]["min_state_fidelity"] > 1 - 1e-10

    def test_z_errors_fail(self, workdir, capsys):
        code, out, _ = run_cli(
            ["qec-check", str(workdir / "bitflip.code"), "--errors", "I,Z0"], capsys
        )
        assert code == 0
        assert canonical(out)["kl"]["satisfied"] is False

    def test_bad_error_token(self, workdir, capsys):
        code, _, err = run_cli(
            ["qec-check", str(workdir / "bitflip.code"), "--errors", "W9"], capsys
        )
        assert code == 2
        assert err.startswith("error[E_VALIDATION]")


class TestTopoEval:
    def test_circle_t_amplitude(self, workdir, capsys):
        code, out, _ = run_cli(["topo-eval", str(workdir / "circle.topo")], capsys)
        assert code == 0
        amp = canonical(out)["amplitude"]
        expected = np.trace(np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]])) / 2
        assert abs(float(amp["re"]) - expected.real) < 1e-14
        assert abs(float(amp["im"]) - expected.imag) < 1e-14
        # printed with at least 12 significant digits
        assert len(amp["re"].split("e")[0].replace(".", "").lstrip("-")) >= 12

    def test_malformed_segment_names_it(self, workdir, capsys):
        bad = workdir / "bad.topo"
        bad.write_text("QVN1 name=bad\nvertex legs=1 g=T\nsegment a=0.h0 b=0.q9\n")
        code, _, err = run_cli(["topo-eval", str(bad)], capsys)
        assert code == 2
        assert "0.q9" in err

    def test_determinism(self, workdir, capsys):
        _, out1, _ = run_cli(["topo-eval", str(workdir / "circle.topo")], capsys)
        _, out2, _ = run_cli(["topo-eval", str(workdir / "circle.topo")], capsys)
        assert json.dumps(canonical(out1), sort_keys=True) == json.dumps(
            canonical(out2), sort_keys=True
        )

    def test_out_file(self, workdir, capsys):
        target = workdir / "report.json"
        code, out, _ = run_cli(
            ["topo-eval", str(workdir / "circle.topo"), "--out", str(target)], capsys
        )
        assert code == 0
        assert json.loads(target.read_text())["canonical"]["closed"] is True

    @pytest.mark.parametrize(
        "vertex",
        [
            "vertex g=H legs=x",
            "vertex g=custom data=1,0,0,1",
            "vertex g=custom rows=2",
        ],
    )
    def test_bad_vertex_fields_parse_error(self, workdir, capsys, vertex):
        bad = workdir / "bad.topo"
        bad.write_text(f"QVN1 name=bad\n{vertex}\nsegment a=0.h0 b=0.t0\n")
        code, out, err = run_cli(["topo-eval", str(bad)], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error[E_PARSE]")
        assert "(line 2," in err
        assert "Traceback" not in err

    def test_label_limit_named(self, workdir, capsys):
        m = 53
        lines = ["QVN1 name=ring"] + ["vertex g=T"] * m
        lines += [f"segment a={v}.h0 b={(v + 1) % m}.t0" for v in range(m)]
        ring = workdir / "ring.topo"
        ring.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["topo-eval", str(ring)], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error[E_VALIDATION]")
        assert "53 einsum labels" in err and "52" in err
