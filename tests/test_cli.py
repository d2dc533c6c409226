import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qvn import control, gates
from qvn.cli import main
from qvn.kernel import RngStream, haar_random_unitary
from qvn.text import format_complex_data

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


DEMO_RUN = Path(__file__).resolve().parent.parent / "bench" / "inputs" / "demo.run"

# SHA-256 of the canonical report (JSON with sorted keys) of `qvn run` on
# bench/inputs/demo.run under each strategy, taken from the per-shot executor
# that outcome tables replaced: seeded output must not move.
RUN_DIGESTS = {
    "correction_table": {
        0: "57215f7de1b8ee2b3634eaf3edc583e4487763d27c2ab6a634671f164d70f641",
        1: "62ba908c72aa1d62ecc95b43b7e152bdc705131a72c0c78f53afc6597f44c661",
        7: "5bdeee7c946603b6f05fe6081ad44c7b76b478041c7ed27bd041fde6732d5bbf",
        42: "aa998c7ac533460af3418537c6d501ae47462dc52c8ca199b96d1fa531cd0f02",
    },
    "repeat_until_success": {
        0: "4533c4c5148fb9dc52aec3eca8f2f1e6c35773bacefa6864dda31fbd5499db1c",
        1: "f5ec24a93452a337e33db4e3e93d561e722593e324247d37df1a4dae134b3060",
        7: "c19a4acaea6850ce68f7bda18cf14d38b1ad0cdc9787c138a3f7aa042235b155",
        42: "478272d3643bd4286921206b0155203a840695617bfaa6c3ea7f1317a05d1d27",
    },
    "symmetric_pair": {
        0: "98475abdeb87f7e4fb7068f8ac367903a801e9baa3eaa13011893e5723697e17",
        1: "b4f15a79a0433a5327f1db5d1133ef5be186b26b0526de59bd2359afd06b167e",
        7: "9f906c6ce5a7f754266a9572492d26406a6a1fa6ba446f497bce35112493070a",
        42: "7bb0af1cd631296b59fef11f6aba25d9f3d2c899cef21745523d2bee3c243046",
    },
}


@pytest.mark.parametrize("strategy", sorted(RUN_DIGESTS))
def test_seeded_run_report_pinned(tmp_path, capsys, strategy):
    demo = DEMO_RUN.read_text().replace("strategy=correction_table", f"strategy={strategy}")
    path = tmp_path / "demo.run"
    path.write_text(demo)
    for seed, digest in RUN_DIGESTS[strategy].items():
        code, out, _ = run_cli(["run", str(path), "--seed", str(seed)], capsys)
        assert code == 0
        blob = json.dumps(canonical(out), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest, (strategy, seed)


# The same digest for runs that take more than one block of shot streams
# or a seed of more than four 32-bit words, taken from the executor that
# made one RngStream(seed, stream_id=shot) per shot.
BLOCK_RUN_DIGESTS = [
    # many draws per shot, 700 shots: three blocks
    ("repeat_until_success", ["--shots", "700", "--seed", "3"],
     "d113877b23740545e27e9619ea70a8821bc55a26d8be0c4c1029db792377f469"),
    # 3**90 > 2**128: five seed words, mixed past the pool without padding
    ("correction_table", ["--seed", str(3**90)],
     "b8600d7e176c7d94af303862d4682ca9003495bc1ca1a478cc9ccad657c234c2"),
    ("symmetric_pair", ["--seed", str(2**32)],
     "464cb4ae7dcd1295a3203be04313d976b1a29c6f13b192a2a29fc8365fc122f6"),
    ("correction_table", ["--seed", str(2**32 - 1)],
     "89ab73d6b2300f9240c5fe68b1a378123308f4c1fa20769a2b7675ac8c8d7a8d"),
]


@pytest.mark.parametrize("strategy, argv, digest", BLOCK_RUN_DIGESTS)
def test_seeded_run_report_pinned_across_blocks(tmp_path, capsys, strategy, argv, digest):
    demo = DEMO_RUN.read_text().replace("strategy=correction_table", f"strategy={strategy}")
    path = tmp_path / "demo.run"
    path.write_text(demo)
    code, out, _ = run_cli(["run", str(path), *argv], capsys)
    assert code == 0
    blob = json.dumps(canonical(out), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


# SHA-256 of the canonical reports (JSON with sorted keys, one per line) of
# bench/inputs/demo.run at the run_demo benchmark's seeds (s·1000 + p)·100000
# + r, over its parts p = 0-3: Z at 200 shots with r in (0, 1, 57, 999), as
# its ops run, and X and Y at 500 shots (two SHOT_BLOCKs) with r = 0, as its
# final check runs. Taken from the per-shot executor. Seed 730200200057
# (s = 7302, p = 2, r = 57) reads -0.340 ± 0.0668, 5.09 sample standard
# errors from the exact 0.
BENCH_SEED_DIGESTS = [
    ("Z", 1, "4030d6f536dde68df3938fd8bfbeff3e2fded61a388d7cdde39c33288ebd3d32"),
    ("X", 1, "e96e5a4bf85d6715d1020e586ef8dc4b90b009e6ea9c69bdbcdc274c7c0c0a3d"),
    ("Y", 1, "1c15e2ba25ca4d3986b7caa04cda8365c96e11074736dd18c68a9224e87cc9e4"),
    ("Z", 11, "e40974447131847d3ea2238de0740f6ef30af063c1520120f707782f827ab2c1"),
    ("X", 11, "cd43e73f57e6f805c6369d6d85107f2eb7ca7c82db3b8fc143882499930e9b0b"),
    ("Y", 11, "aeab059d313b8a5a2dbc81d68d8addc9ecd441805440c4cdba72bd0053bd4a23"),
    ("Z", 7302, "8252aaa46fcf45af1affe18c8e47585eaaeae026ded498cc5178f4237db83272"),
    ("X", 7302, "6a5a0d01eb11c85f7e144384748a834fdf2d712791417c5818741bec29d46a8e"),
    ("Y", 7302, "80068146a2f25d0dc08e9020eaffa135d3cda8aa62941c925f1ef6f18f3fe47f"),
    ("Z", 13001, "69b55bc76b1a86b880e16f9eab9e84f96a198fced21320a9dde11e6e06625a86"),
    ("X", 13001, "b6f43fca5edf78106675d4ff4430d4aed09f24bd17db181fc59191fd261d09a9"),
    ("Y", 13001, "5b68d4de1b5c6ff98d60d4f7353d827f3b3c65e47912e18a6fd99a824dba4610"),
]


@pytest.mark.parametrize("obs, s, digest", BENCH_SEED_DIGESTS)
def test_bench_seed_reports_pinned(tmp_path, capsys, obs, s, digest):
    shots, runs = (200, (0, 1, 57, 999)) if obs == "Z" else (500, (0,))
    demo = DEMO_RUN.read_text().replace("shots=200", f"shots={shots}").replace("obs=Z", f"obs={obs}")
    path = tmp_path / "demo.run"
    path.write_text(demo)
    reports = []
    for part in range(4):
        for r in runs:
            seed = (s * 1000 + part) * 100_000 + r
            code, out, _ = run_cli(["run", str(path), "--seed", str(seed)], capsys)
            assert code == 0
            reports.append(json.dumps(canonical(out), sort_keys=True))
    assert hashlib.sha256("\n".join(reports).encode()).hexdigest() == digest


class TestNegativeSeed:
    """A SeedSequence takes no negative entropy: a negative seed is one
    error line and exit 2, not a numpy ValueError traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "demo.run", "--seed", "-1"],
            ["compose", "h.qvn", "t.qvn", "--seed", "-1"],
            ["qec-check", "bitflip.code", "--errors", "I,X0", "--recovery", "--seed", "-1"],
        ],
        ids=["run", "compose", "qec-check"],
    )
    def test_flag(self, workdir, capsys, argv):
        argv = [str(workdir / a) if (workdir / a).exists() else a for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err == "error[E_VALIDATION] --seed must be >= 0, got -1\n"

    def test_run_file_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.run"
        bad.write_text(RUN_DOC.replace("run shots=120 seed=11", "run shots=120 seed=-5", 1))
        code, out, err = run_cli(["run", str(bad)], capsys)
        assert code == 2 and out == ""
        assert err == "error[E_PARSE] seed=-5 is below 0 (line 1, col 15)\n"


class TestUsageErrors:
    """A malformed command line is one error[E_USAGE] line and exit 2, not
    argparse's usage block and SystemExit."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "demo.run", "--shots", "abc"],
             "qvn run: argument --shots: invalid int value: 'abc'"),
            (["bogus"], "qvn: argument command: invalid choice: 'bogus'"),
            (["run"], "qvn run: the following arguments are required: file"),
            (["run", "demo.run", "--tolerance", "1"], "qvn: unrecognized arguments: --tolerance 1"),
        ],
        ids=["bad-int", "unknown-subcommand", "missing-positional", "unknown-flag"],
    )
    def test_one_line(self, workdir, capsys, argv, message):
        argv = [str(workdir / a) if (workdir / a).exists() else a for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error[E_USAGE] {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["--version"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        out = capsys.readouterr()
        assert out.out and out.err == ""


def source_env():
    """Environment in which `python -m qvn` imports this checkout's src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_python_m_qvn(workdir):
    # a source checkout runs the CLI as `python -m qvn` with src/ on the path
    env = source_env()
    base = [sys.executable, "-m", "qvn", "run", str(workdir / "demo.run")]
    ok = subprocess.run(base + ["--shots", "3"], capture_output=True, text=True, env=env, timeout=120)
    assert ok.returncode == 0 and canonical(ok.stdout)["shots"] == 3
    bad = subprocess.run(base + ["--seed", "-1"], capture_output=True, text=True, env=env, timeout=120)
    assert bad.returncode == 2 and bad.stderr.startswith("error[E_VALIDATION]")


class TestReportWrite:
    """A report that cannot be written is one E_IO line and exit 1."""

    def test_closed_stdout(self, workdir):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qvn", "run", str(workdir / "demo.run"), "--shots", "3"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=source_env(), timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == "error[E_IO] stdout was closed before the report was written\n"

    def test_unwritable_out(self, workdir, capsys):
        target = workdir / "missing" / "r.json"
        code, out, err = run_cli(["run", str(workdir / "demo.run"), "--out", str(target)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error[E_IO] cannot write the report:") and err.count("\n") == 1
        assert str(target) in err


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


def wide_program(name, n, shift):
    """A QVN1 document on n qubits: H on every wire, a CX chain, T gates."""
    lines = [f"QVN1 name={name} n={n}"]
    lines += [f"t=0 g=H q={q}" for q in range(n)]
    lines += [f"t={1 + q} g=CX q={q},{q + 1}" for q in range(n - 1)]
    lines += [f"t={n} g=T q={q}" for q in range(shift % 2, n, 2)]
    return "\n".join(lines) + "\n"


class TestWideCompose:
    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("strategy", ["correction_table", "symmetric_pair"])
    def test_exact_at_width(self, tmp_path, capsys, n, strategy):
        (tmp_path / "a.qvn").write_text(wide_program("A", n, 0))
        (tmp_path / "b.qvn").write_text(wide_program("B", n, 1))
        code, out, err = run_cli(
            ["compose", str(tmp_path / "a.qvn"), str(tmp_path / "b.qvn"),
             "--strategy", strategy, "--repeats", "2"],
            capsys,
        )
        assert code == 0 and err == ""
        assert canonical(out)["strategies"][strategy]["min_fidelity"] >= 1 - 1e-10

    def test_fidelity_never_exceeds_one(self, tmp_path, capsys):
        # the fidelity of two unit vectors is at most 1; of the vectors as
        # composed, two n = 8 programs of H, T and CX gates read 1 + 6e-15
        # under symmetric_pair, and Haar programs up to 1 + 4e-16 at n = 2-4
        docs = []
        for name, gen in (("A", np.random.default_rng(4)), ("B", np.random.default_rng(5))):
            doc = [f"QVN1 name={name} n=8"]
            for t in range(24):
                wires = gen.choice(8, 2, replace=False) if t % 3 == 2 else [gen.integers(8)]
                doc.append(f"t={t} g={('H', 'T', 'CX')[t % 3]} q={','.join(map(str, wires))}")
            docs.append("\n".join(doc) + "\n")
        pairs = [tuple(docs)]
        for n in (1, 2, 3, 4):
            for seed in range(4):
                pairs.append(tuple(
                    f"QVN1 name=U{k} n={n}\nt=0 g=custom q={','.join(map(str, range(n)))} rows={2**n} "
                    f"data={format_complex_data(haar_random_unitary(2**n, RngStream(seed, k)).matrix)}\n"
                    for k in (1, 2)
                ))
        for doc_a, doc_b in pairs:
            (tmp_path / "a.qvn").write_text(doc_a)
            (tmp_path / "b.qvn").write_text(doc_b)
            code, out, _ = run_cli(
                ["compose", str(tmp_path / "a.qvn"), str(tmp_path / "b.qvn"), "--repeats", "20"], capsys
            )
            assert code == 0
            for entry in canonical(out)["strategies"].values():
                assert 1 - 1e-12 <= entry["min_fidelity"] <= 1.0

    def test_width_past_limit_located(self, tmp_path, capsys):
        (tmp_path / "w.qvn").write_text(wide_program("W", 9, 0))
        code, out, err = run_cli(["compose", str(tmp_path / "w.qvn"), str(tmp_path / "w.qvn")], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error[E_PARSE]")
        assert "n=9 exceeds the limit 8 (line 1, col 13)" in err


class TestCountBounds:
    """Every integer that sizes a loop or a list has a named upper bound,
    checked before anything is allocated."""

    @pytest.mark.parametrize(
        "change, fault",
        [
            (("run shots=120 seed=11", "run shots=1000001 seed=11"),
             "shots=1000001 exceeds the limit 1000000 (line 1, col 5)"),
            (("slot addr=0 copies=1", "slot addr=0 copies=1048577"),
             "copies=1048577 exceeds the limit 1048576 (line 2, col 13)"),
            (("restore addr=0 copies=1", "restore addr=0 copies=1048577"),
             "copies=1048577 exceeds the limit 1048576 (line 11, col 16)"),
            (("restore addr=0 copies=1", "restore addr=0 copies=0"),
             "copies=0 is below 1 (line 11, col 16)"),
        ],
    )
    def test_run_file_fields(self, tmp_path, capsys, change, fault):
        bad = tmp_path / "bad.run"
        bad.write_text(RUN_DOC.replace(*change, 1))
        code, out, err = run_cli(["run", str(bad)], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error[E_PARSE]") and fault in err

    def test_compose_into_full_slot(self, tmp_path, capsys):
        # slot 2 already holds MAX_COPIES copies when the compose adds one
        full = RUN_DOC.replace(
            "endslot\nschedule",
            "endslot\nslot addr=2 copies=1048576\nQVN1 name=I n=1\nendslot\nschedule",
            1,
        )
        bad = tmp_path / "full.run"
        bad.write_text(full)
        code, out, err = run_cli(["run", str(bad)], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error[E_VALIDATION]")
        assert "slot 2 would hold 1048577 live copies; the limit is MAX_COPIES = 1048576" in err

    @pytest.mark.parametrize("shots, injects", [(1_000_000, 8), (200_000, 40), (8000, 1000)])
    def test_outcome_entries(self, tmp_path, capsys, shots, injects):
        # one inject line past the limit at three sizes: the schedule is
        # refused once parsed, before any shot runs
        lines = "\n".join(["inject target=0 bits=1"] * injects)
        text = (f"run shots={shots}\nslot addr=0 copies=1\nQVN1 name=H n=1\nt=0 g=H q=0\nendslot\n"
                f"schedule\nrestore addr=0 copies=1\n{lines}\nreadout target=0 obs=Z\nendschedule\n")
        entries = shots * (injects + 1)
        assert entries > control.MAX_OUTCOME_ENTRIES >= entries - shots
        bad = tmp_path / "big.run"
        bad.write_text(text)
        code, out, err = run_cli(["run", str(bad)], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error[E_VALIDATION]")
        assert f"keep {entries} outcome entries" in err
        assert "the limit is MAX_OUTCOME_ENTRIES = 8000000" in err

    @pytest.mark.parametrize(
        "argv, fault",
        [
            (["run", "demo.run", "--shots", "1000001"], "shots <= MAX_SHOTS = 1000000, got 1000001"),
            (["run", "demo.run", "--shots", "0"], "shots <= MAX_SHOTS = 1000000, got 0"),
            (["compose", "h.qvn", "t.qvn", "--repeats", "10001"],
             "--repeats 10001 exceeds the limit MAX_REPEATS = 10000"),
            (["qec-check", "bitflip.code", "--errors", "I", "--recovery", "--repeats", "10001"],
             "--repeats 10001 exceeds the limit MAX_REPEATS = 10000"),
            (["qec-check", "bitflip.code", "--errors", "I", "--repeats", "-1"],
             "--repeats must be >= 1"),
        ],
    )
    def test_flags(self, workdir, capsys, argv, fault):
        argv = [str(workdir / a) if (workdir / a).exists() else a for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error[E_VALIDATION]") and fault in err


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


def _haar_ring_doc():
    m = 20
    rng = RngStream(19)
    lines = [
        f"vertex g=custom rows=2 data={format_complex_data(haar_random_unitary(2, rng).matrix)}"
        for _ in range(m)
    ]
    lines += [f"segment a={v}.h0 b={(v + 1) % m}.t0" for v in range(m)]
    return "\n".join(lines) + "\n"


def _t_ring_doc():
    m = 53
    lines = ["QVN1 name=ring"] + ["vertex g=T"] * m
    lines += [f"segment a={v}.h0 b={(v + 1) % m}.t0" for v in range(m)]
    return "\n".join(lines) + "\n"


def _open_loop_doc():
    gate = haar_random_unitary(4, RngStream(5)).matrix
    return (
        f"vertex g=custom legs=2 rows=4 data={format_complex_data(gate)}\n"
        "vertex g=T\n"
        "segment a=0.h1 b=0.t0\n"  # a self-loop
        "segment a=0.h0 b=1.t0\n"
    )


def _circle_beside_open_doc():
    # the closed circle contracts to a scalar, whose outer product with the
    # open vertex is a step with a one-entry operand
    rng = RngStream(0)
    return "".join(
        f"vertex g=custom rows=2 data={format_complex_data(haar_random_unitary(2, rng).matrix)}\n"
        for _ in range(2)
    ) + "segment a=0.h0 b=0.t0\n"


TOPO_DOCS = {
    "haar_ring20": _haar_ring_doc,
    "t_ring53": _t_ring_doc,
    "open_loop": _open_loop_doc,
    "circle_beside_open": _circle_beside_open_doc,
}

# SHA-256 of the canonical `qvn topo-eval` report (JSON with sorted keys) of
# each document above, taken from the np.tensordot contraction that one
# np.dot per step replaced: reports must not move.
TOPO_DIGESTS = {
    "haar_ring20": "37178052ee290cc09f4be3f16c34c7da7388104ab2bef7299c1a758a61bbd9ec",
    "t_ring53": "b702955680a0e73a65415b8369096983cd15066f12782d0c7df29a0e57b8d33e",
    "open_loop": "ea58cc3fdfcd445d87524a1382252edc17e86c66169a5c01e1f4714ebc9eca6b",
    "circle_beside_open": "eb06fc227f99a244c1e5338c973c24d0e2f4919413512fe0dfb7d70b6645e220",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "demo.run"],
        ["compose", "h.qvn", "t.qvn"],
        ["qec-check", "bitflip.code", "--errors", "I,X0", "--recovery"],
        ["topo-eval", "circle.topo"],
        ["topo-eval", "open.topo"],
    ],
    ids=["run", "compose", "qec-check-recovery", "topo-eval-closed", "topo-eval-open"],
)
def test_report_layout(workdir, capsys, monkeypatch, argv):
    # the pinned digests re-serialize the canonical object, so this pins the
    # printed text: two-space indents, sorted keys and one closing newline,
    # on stdout and in an --out file alike
    monkeypatch.chdir(workdir)
    (workdir / "open.topo").write_text(_open_loop_doc())
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert run_cli([*argv, "--out", "report.json"], capsys)[0] == 0
    written = (workdir / "report.json").read_text()
    assert written == json.dumps(json.loads(written), indent=2, sort_keys=True) + "\n"


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

    def test_53_segment_ring_evaluates(self, workdir, capsys):
        # past the 52 labels a single-pass einsum could name
        m = 53
        ring = workdir / "ring.topo"
        ring.write_text(_t_ring_doc())
        code, out, err = run_cli(["topo-eval", str(ring)], capsys)
        assert code == 0 and err == ""
        amp = canonical(out)["amplitude"]
        value = complex(float(amp["re"]), float(amp["im"]))
        expected = np.trace(np.linalg.matrix_power(gates.T, m)) / 2**m
        assert abs(value - expected) <= 1e-10 * abs(expected)

    def test_size_bound_named(self, workdir, capsys):
        # a closed diagram, so no report limit applies: 40 CCX vertices with
        # their 240 endpoints paired at random; the contraction plan has a
        # step whose operands and result hold 67436544 entries
        gen = np.random.default_rng(7)
        endpoints = [f"{v}.{kind}{leg}" for v in range(40) for kind in "ht" for leg in range(3)]
        order = gen.permutation(len(endpoints))
        lines = ["QVN1 name=dense"] + ["vertex g=CCX legs=3"] * 40
        lines += [
            f"segment a={endpoints[order[i]]} b={endpoints[order[i + 1]]}"
            for i in range(0, len(order), 2)
        ]
        diagram = workdir / "dense.topo"
        diagram.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["topo-eval", str(diagram)], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error[E_VALIDATION]")
        assert "MAX_INTERMEDIATE_ENTRIES = 67108864" in err and "67436544" in err

    def test_live_entries_bound_named(self, workdir, capsys):
        # 30 CCX vertices paired as above: no planned tensor passes 2^26
        # entries, but one step holds 84148224 (1.25 GiB) with its operands
        gen = np.random.default_rng(7)
        endpoints = [f"{v}.{kind}{leg}" for v in range(30) for kind in "ht" for leg in range(3)]
        order = gen.permutation(len(endpoints))
        lines = ["QVN1 name=dense"] + ["vertex g=CCX legs=3"] * 30
        lines += [
            f"segment a={endpoints[order[i]]} b={endpoints[order[i + 1]]}"
            for i in range(0, len(order), 2)
        ]
        diagram = workdir / "dense30.topo"
        diagram.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["topo-eval", str(diagram)], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error[E_VALIDATION]")
        assert "84148224 live entries" in err and "MAX_INTERMEDIATE_ENTRIES = 67108864" in err

    def test_report_bound_named(self, workdir, capsys):
        # 9 unconnected T vertices leave 18 open endpoints, 2^18 amplitudes
        diagram = workdir / "open9.topo"
        diagram.write_text("QVN1 name=open9\n" + "vertex g=T\n" * 9)
        code, out, err = run_cli(["topo-eval", str(diagram)], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error[E_VALIDATION]")
        assert "MAX_REPORT_AMPLITUDES = 65536" in err and "262144" in err

    def test_report_at_bound_prints_state(self, workdir, capsys):
        diagram = workdir / "open8.topo"
        diagram.write_text("QVN1 name=open8\n" + "vertex g=T\n" * 8)
        code, out, err = run_cli(["topo-eval", str(diagram)], capsys)
        assert code == 0 and err == ""
        state = np.array(canonical(out)["state"])
        assert state.shape == (2**16, 2)
        assert abs((state**2).sum() - 1.0) <= 1e-10

    @pytest.mark.parametrize(
        "segment, line, col, fault",
        [
            ("segment a=0.h0 b=1.h0", 5, 9, "used by two segments"),
            ("segment a=1.h0 b=3.t0", 5, 16, "missing vertex"),
            ("segment a=1.h2 b=1.t0", 5, 9, "missing leg"),
        ],
    )
    def test_bad_segment_located(self, workdir, capsys, segment, line, col, fault):
        bad = workdir / "bad.topo"
        bad.write_text(
            "QVN1 name=bad\nvertex g=T\nvertex g=H\nsegment a=0.h0 b=1.t0\n" + segment + "\n"
        )
        code, out, err = run_cli(["topo-eval", str(bad)], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error[E_PARSE]")
        assert fault in err
        assert f"(line {line}, col {col})" in err
        assert "Traceback" not in err

    # A custom vertex that fails its unitarity check is reported before any
    # fault further down the file, whatever its kind or gate size.
    BAD_2X2 = "vertex g=custom rows=2 data=2,0;0,0;0,0;1,0"

    @pytest.mark.parametrize(
        "text, where",
        [
            (f"{BAD_2X2}\nvertex g=T\nvertex g=H b=bogus\n", "by 3.0 (line 1, col 1)"),
            (f"{BAD_2X2}\nvertex g=custom legs=2 rows=2 data=1,0;0,0;0,0;1,0\n",
             "by 3.0 (line 1, col 1)"),
            (f"{BAD_2X2}\nvertex g=custom rows=2 data=nan,0;0,0;0,0;1,0\n",
             "by 3.0 (line 1, col 1)"),
            ("vertex g=custom rows=2 data=0,0;1,0;1,0;0,0\n"
             f"vertex g=custom legs=2 rows=4 data={format_complex_data(np.diag([2, 1, 1, 1]))}\n"
             f"vertex g=custom rows=2 data={format_complex_data(np.diag([3, 1]))}\n",
             "by 3.0 (line 2, col 1)"),
            (f"{BAD_2X2}\nsegment a=0.h0 b=0.t0\nsegment a=0.h0 b=0.t0\n",
             "by 3.0 (line 1, col 1)"),
        ],
        ids=["line_error", "shape_error", "nan_entry", "across_sizes", "reused_endpoint"],
    )
    def test_custom_vertex_fault_comes_first(self, workdir, capsys, text, where):
        bad = workdir / "bad.topo"
        bad.write_text(text)
        code, out, err = run_cli(["topo-eval", str(bad)], capsys)
        assert code == 2 and out == ""
        assert err == f"error[E_PARSE] U†U deviates from identity {where}\n"

    @pytest.mark.parametrize("name", sorted(TOPO_DIGESTS))
    def test_topo_report_pinned(self, workdir, capsys, name):
        path = workdir / f"{name}.topo"
        path.write_text(TOPO_DOCS[name]())
        code, out, err = run_cli(["topo-eval", str(path)], capsys)
        assert code == 0 and err == ""
        blob = json.dumps(canonical(out), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == TOPO_DIGESTS[name]


class TestParserReuse:
    def test_consecutive_calls_independent(self, workdir, capsys):
        run_out, topo_out = workdir / "run.json", workdir / "topo.json"
        assert main(["run", str(workdir / "demo.run"), "--seed", "3", "--out", str(run_out)]) == 0
        assert main(["topo-eval", str(workdir / "circle.topo"), "--out", str(topo_out)]) == 0
        assert capsys.readouterr().out == ""
        run_report = json.loads(run_out.read_text())["canonical"]
        topo_report = json.loads(topo_out.read_text())["canonical"]
        assert run_report["command"] == "run" and run_report["seed"] == 3
        assert run_report["shots"] == 120
        assert topo_report["command"] == "topo-eval" and topo_report["closed"] is True
        # a third call without --out or --seed sees neither earlier value
        code, out, _ = run_cli(["run", str(workdir / "demo.run")], capsys)
        assert code == 0 and canonical(out)["seed"] == 11


class TestSampleTailRange:
    @pytest.mark.parametrize("tail", [5, -3])
    def test_tail_outside_program_rejected(self, workdir, capsys, tail):
        bad = workdir / "tail.run"
        bad.write_text(
            RUN_DOC.replace("readout target=2 obs=Z", f"sampletail target=2 tail={tail}")
        )
        code, out, err = run_cli(["run", str(bad)], capsys)
        assert code != 0
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error[E_VALIDATION]")
        assert f"tail={tail}" in err and "has 1 tails" in err
        assert "Traceback" not in err


class TestLocatedFaults:
    """Malformed input ends in one `error[E_PARSE]` line at the line and
    column of the fault, never in a traceback."""

    COMMANDS = {
        "qvn": lambda p: ["compose", p, p],
        "topo": lambda p: ["topo-eval", p],
        "code": lambda p: ["qec-check", p, "--errors", "I"],
        "run": lambda p: ["run", p],
    }

    @pytest.mark.parametrize(
        "kind, text, line, col",
        [
            # rows= and cols= must be >= 1
            pytest.param(
                "qvn", "QVN1 name=C n=1\nt=0 g=custom q=0 rows=-1 data=1,0\n",
                2, 18, id="qvn1-rows",
            ),
            pytest.param(
                "topo", "vertex g=custom rows=-1 data=1,0\nsegment a=0.h0 b=0.t0\n",
                1, 17, id="topo-rows",
            ),
            pytest.param(
                "code", "QVN1 name=c n=1 k=0\nisometry rows=-1 cols=1 data=1,0\n",
                2, 10, id="code-rows",
            ),
            pytest.param(
                "code", "QVN1 name=c n=1 k=0\nisometry rows=2 cols=0 data=1,0\n",
                2, 17, id="code-cols",
            ),
            pytest.param(
                "run", "schedule\nreadout target=0 obs=custom rows=-1 data=1,0\nendschedule\n",
                2, 29, id="schedule-rows",
            ),
            # a bare token after the first
            pytest.param("run", "run shots=5 seed=1 garbage\n", 1, 20, id="run-stray"),
            pytest.param("qvn", "QVN1 name=C n=1 junk\n", 1, 17, id="qvn1-header-stray"),
            pytest.param(
                "topo", "vertex g=T legs=1 extra\nsegment a=0.h0 b=0.t0\n",
                1, 19, id="vertex-stray",
            ),
            pytest.param(
                "code", "QVN1 name=c n=1 k=0 junk\nisometry rows=2 cols=1 data=1,0;0,0\n",
                1, 21, id="code-header-stray",
            ),
            # a key given twice
            pytest.param(
                "run", "schedule\nrestore addr=0 copies=1 copies=2\nendschedule\n",
                2, 25, id="duplicate-key",
            ),
            # QVN1 gates are checked at their own line
            pytest.param(
                "qvn", "QVN1 name=C n=2\n\nt=0 g=H q=0\nt=1 g=CX q=0,2\n",
                4, 1, id="qvn1-target-range",
            ),
            pytest.param(
                "qvn", "QVN1 name=C n=2\nt=1 g=H q=0\nt=0 g=H q=1\n",
                3, 1, id="qvn1-time-order",
            ),
            pytest.param("qvn", "QVN1 name=C n=2\nt=0 g=CX q=1,1\n", 2, 1, id="qvn1-repeated-target"),
            # a field given once per document is not given twice
            pytest.param("run", "run shots=5 seed=1\nrun shots=7 seed=2\n", 2, 1, id="run-twice"),
            pytest.param(
                "run",
                "slot addr=0\nQVN1 name=H n=1\nendslot\nslot addr=0\nQVN1 name=X n=1\nendslot\n",
                4, 6, id="run-slot-address-twice",
            ),
            pytest.param(
                "code",
                "QVN1 name=c n=1 k=0\nisometry rows=2 cols=1 data=1,0;0,0\n"
                "isometry rows=2 cols=1 data=0,0;1,0\n",
                3, 1, id="code-isometry-twice",
            ),
            # a slot's QVN1 document keeps the run file's line numbers
            pytest.param(
                "run", "run shots=5\nslot addr=0\nQVN1 name=H n=1\nt=0 g=Q q=0\nendslot\n",
                4, 5, id="run-slot-tag",
            ),
            # a stored program is at most MAX_QUBITS wide
            pytest.param("qvn", "QVN1 name=W n=40\n", 1, 13, id="qvn1-width-limit"),
            # header fields that size data yet to be read: 1 <= legs <= 13,
            # a code's n <= 10 and k <= 10
            pytest.param("topo", "vertex g=H legs=0\nsegment a=0.h0 b=0.t0\n", 1, 12,
                         id="vertex-legs-zero"),
            pytest.param("topo", "vertex g=H legs=-3\n", 1, 12, id="vertex-legs-negative"),
            pytest.param("topo", "vertex g=H legs=10000000\n", 1, 12, id="vertex-legs-limit"),
            pytest.param(
                "code", "QVN1 name=c n=11 k=1\nisometry rows=2 cols=1 data=1,0;0,0\n",
                1, 13, id="code-n-limit",
            ),
            pytest.param(
                "code", "QVN1 name=c n=1 k=11\nisometry rows=2 cols=1 data=1,0;0,0\n",
                1, 17, id="code-k-limit",
            ),
            # a code's distance is at least 1
            pytest.param(
                "code", "QVN1 name=c n=1 k=0 distance=-3\nisometry rows=2 cols=1 data=1,0;0,0\n",
                1, 21, id="code-distance-below-one",
            ),
            # a matrix entry that is not finite, in each format's data=
            pytest.param(
                "qvn", "QVN1 name=C n=1\nt=0 g=custom q=0 rows=2 data=nan,0;0,0;0,0;1,0\n",
                2, 25, id="qvn1-data-nan",
            ),
            pytest.param(
                "topo", "vertex g=custom rows=2 data=1,0;0,0;0,0;inf,0\nsegment a=0.h0 b=0.t0\n",
                1, 24, id="topo-data-inf",
            ),
            pytest.param(
                "code", "QVN1 name=c n=1 k=1\nisometry rows=2 cols=2 data=nan,0;0,0;0,0;1,0\n",
                2, 24, id="code-data-nan",
            ),
            pytest.param(
                "code", "QVN1 name=c n=1 k=0\nisometry rows=2 cols=1 data=1,0;0,-inf\n",
                2, 24, id="code-data-inf",
            ),
            pytest.param(
                "run", "schedule\nreadout target=0 obs=custom rows=2 data=1,0;0,0;0,0;1,nan\n"
                "endschedule\n",
                2, 36, id="schedule-data-nan",
            ),
            # a 3-part entry beside a 1-part one: the part count is right,
            # but read in pairs the data would be the identity
            pytest.param(
                "qvn", "QVN1 name=C n=1\nt=0 g=custom q=0 rows=2 data=1,0,0;0;0,0;1,0\n",
                2, 25, id="qvn1-data-misaligned",
            ),
            pytest.param(
                "topo", "vertex g=custom rows=2 data=1,0,0;0;0,0;1,0\nsegment a=0.h0 b=0.t0\n",
                1, 24, id="topo-data-misaligned",
            ),
            pytest.param(
                "code", "QVN1 name=c n=1 k=1\nisometry rows=2 cols=2 data=1,0,0;0;0,0;1,0\n",
                2, 24, id="code-data-misaligned",
            ),
            pytest.param(
                "run", "schedule\nreadout target=0 obs=custom rows=2 data=1,0,0;0;0,0;1,0\n"
                "endschedule\n",
                2, 36, id="schedule-data-misaligned",
            ),
            # rows far beyond the data given: an entry-count error, whatever rows asks for
            pytest.param(
                "qvn", "QVN1 name=C n=1\nt=0 g=custom q=0 rows=100000 data=1,0\n",
                2, 30, id="qvn1-data-rows-huge",
            ),
            pytest.param(
                "topo", "vertex g=custom rows=100000 data=1,0\nsegment a=0.h0 b=0.t0\n",
                1, 29, id="topo-data-rows-huge",
            ),
            pytest.param(
                "code", "QVN1 name=c n=1 k=1\nisometry rows=100000 cols=100000 data=1,0\n",
                2, 34, id="code-data-rows-huge",
            ),
            pytest.param(
                "run", "schedule\nreadout target=0 obs=custom rows=100000 data=1,0\nendschedule\n",
                2, 41, id="schedule-data-rows-huge",
            ),
            # bytes that are not UTF-8
            pytest.param("qvn", b"QVN1 name=H n=1\nt=0 g=H q=0 \xff\xfe\n", 2, 13, id="not-utf8"),
            # a key the line's reader does not take, in each format and in schedule lines
            pytest.param("qvn", "QVN1 name=H n=1 extra=1\n", 1, 17, id="qvn1-header-unknown-key"),
            pytest.param(
                "qvn", "QVN1 name=H n=1\nt=0 g=H q=0 rows=9\n", 2, 13, id="qvn1-gate-unknown-key"
            ),
            pytest.param(
                "code", "QVN1 name=c n=1 k=0 bogus=1\nisometry rows=2 cols=1 data=1,0;0,0\n",
                1, 21, id="code-header-unknown-key",
            ),
            pytest.param(
                "code", "QVN1 name=c n=1 k=0\nisometry rows=2 cols=1 data=1,0;0,0 k=1\n",
                2, 37, id="code-isometry-unknown-key",
            ),
            pytest.param(
                "run", "schedule\nreadout target=2 obs=Z bogus=1\nendschedule\n",
                2, 24, id="schedule-unknown-key",
            ),
            pytest.param(
                "run", "slot addr=0 copeis=3\nQVN1 name=H n=1\nt=0 g=H q=0\nendslot\n",
                1, 13, id="run-slot-misspelled-key",
            ),
            pytest.param(
                "run", "slot addr=0 kind=program\nQVN1 name=H n=1\nendslot\n",
                1, 13, id="run-slot-kind",
            ),
            pytest.param("run", "run shots=5 seed=1 bogus=1\n", 1, 20, id="run-unknown-key"),
            pytest.param("run", "schedule x=1\nendschedule\n", 1, 10, id="run-schedule-key"),
            pytest.param(
                "run", "schedule\nendschedule x=1\n", 2, 13, id="run-endschedule-key"
            ),
            pytest.param(
                "run", "slot addr=0\nQVN1 name=H n=1\nendslot x=1\n", 3, 9, id="run-endslot-key"
            ),
            pytest.param(
                "topo", "QVN1 name=c extra=1\nvertex g=T\nsegment a=0.h0 b=0.t0\n",
                1, 13, id="topo-header-unknown-key",
            ),
            pytest.param(
                "topo", "vertex g=T rows=2\nsegment a=0.h0 b=0.t0\n", 1, 12,
                id="topo-vertex-unknown-key",
            ),
            pytest.param(
                "topo", "vertex g=T\nsegment a=0.h0 b=0.t0 c=0.h0\n", 2, 23,
                id="topo-segment-unknown-key",
            ),
            # an endpoint number of more digits than `int` reads
            pytest.param(
                "topo", f"vertex g=T\nsegment a={'9' * 5000}.h0 b=0.t0\n", 2, 9,
                id="topo-endpoint-vertex-oversized",
            ),
            pytest.param(
                "topo", f"vertex g=T\nsegment a=0.h0 b=0.t{'9' * 5000}\n", 2, 16,
                id="topo-endpoint-leg-oversized",
            ),
        ],
    )
    def test_one_located_error(self, tmp_path, capsys, kind, text, line, col):
        path = tmp_path / f"bad.{kind}"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        code, out, err = run_cli(self.COMMANDS[kind](str(path)), capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error[E_PARSE]")
        assert f"(line {line}, col {col})" in err
        assert "Traceback" not in err
