import json
import math
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from qreuse import bench, pipeline, qasm
from qreuse.cli import main
from qreuse.ir import Gate


@pytest.fixture
def runner():
    return CliRunner()


def write_qpe(path, n=4):
    path.write_text(qasm.emit(bench.gen_qpe(n, 2 * math.pi * 3 / 8)), encoding="utf-8")


def documented_report_keys() -> list[str]:
    """The report keys README lists, in order, without the optional ones."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listing = re.search(r"Reports are JSON documents\s*\((.*?)\)", readme, re.DOTALL)[1]
    return re.findall(r"`(\w+)`", listing.split("optional")[0])


class TestGen:
    def test_qpe_roundtrips(self, runner, tmp_path):
        out = tmp_path / "qpe.qasm"
        result = runner.invoke(main, ["gen", "qpe", "--n", "4", "--out", str(out)])
        assert result.exit_code == 0, result.output
        circuit = qasm.parse(out.read_text(encoding="utf-8"))
        assert circuit.n_qubits == 4

    def test_random_deterministic(self, runner, tmp_path):
        a, b = tmp_path / "a.qasm", tmp_path / "b.qasm"
        args = ["gen", "random", "--n", "20", "--depth", "2", "--seed", "7"]
        assert runner.invoke(main, args + ["--out", str(a)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(b)]).exit_code == 0
        assert a.read_text() == b.read_text()

    def test_qft_roundtrips(self, runner, tmp_path):
        out = tmp_path / "qft.qasm"
        result = runner.invoke(main, ["gen", "qft", "--n", "4", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert qasm.parse(out.read_text(encoding="utf-8")) == bench.gen_qft(4)

    def test_single_p_variant(self, runner, tmp_path):
        out = tmp_path / "qpep.qasm"
        result = runner.invoke(main, ["gen", "qpe", "--n", "4", "--single-p", "--out", str(out)])
        assert result.exit_code == 0
        assert qasm.parse(out.read_text()).n_clbits == 4

    def test_bad_params(self, runner):
        result = runner.invoke(main, ["gen", "qpe", "--n", "1"])
        assert result.exit_code == 1

    @pytest.mark.parametrize("theta", ["nan", "inf", "1e308"])
    def test_non_finite_angle_is_a_parse_error(self, runner, tmp_path, theta):
        # 1e308 is finite, but its doubled powers overflow to inf.
        out = tmp_path / "qpe.qasm"
        result = runner.invoke(main, ["gen", "qpe", "--n", "3", "--theta", theta, "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("error: ") and "finite" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("prob", ["nan", "-3", "2"])
    def test_two_qubit_prob_outside_unit_interval_is_rejected(self, runner, tmp_path, prob):
        out = tmp_path / "random.qasm"
        args = ["gen", "random", "--n", "4", "--two-qubit-prob", prob, "--out", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert result.output.startswith("error: ") and "two_qubit_prob" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_vqe_reps_below_one_is_rejected(self, runner, tmp_path, reps):
        out = tmp_path / "vqe.qasm"
        result = runner.invoke(main, ["gen", "vqe", "--n", "4", "--reps", reps, "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("error: ") and "reps" in result.output
        assert not out.exists()

    def test_register_above_the_limit_is_rejected(self, runner, tmp_path):
        # A file qasm.parse would reject is never written.
        out = tmp_path / "big.qasm"
        n = str(qasm.MAX_REGISTER + 1)
        result = runner.invoke(main, ["gen", "random", "--n", n, "--depth", "1", "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("error: ") and str(qasm.MAX_REGISTER) in result.output
        assert not out.exists()


class TestOptimize:
    def test_report_and_reduction(self, runner, tmp_path):
        src, dst, rep = tmp_path / "in.qasm", tmp_path / "out.qasm", tmp_path / "rep.json"
        write_qpe(src)
        result = runner.invoke(
            main,
            ["optimize", str(src), "--mode", "proposed", "-o", str(dst), "--report", str(rep)],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(rep.read_text())
        assert doc["schema_version"] == 1
        assert doc["n_original"] == 4 and doc["n_reused"] == 2
        assert doc["mode"] == "proposed"
        assert qasm.parse(dst.read_text()).n_qubits == 2

    def test_verify_flag_passes(self, runner, tmp_path):
        src = tmp_path / "in.qasm"
        write_qpe(src)
        result = runner.invoke(main, ["optimize", str(src), "--verify", "-o", "-"])
        assert result.exit_code == 0, result.output

    def test_verified_cx_example(self, runner, tmp_path):
        src, rep = tmp_path / "pair.qasm", tmp_path / "rep.json"
        src.write_text(
            "qubit[2] q;\nbit[2] c;\nh q[0];\ncx q[0], q[1];\n"
            "c[0] = measure q[0];\nc[1] = measure q[1];\n"
        )
        result = runner.invoke(
            main, ["optimize", str(src), "--verify", "-o", "-", "--report", str(rep)]
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(rep.read_text())
        assert list(doc) == documented_report_keys() + ["equivalence"]
        assert doc["equivalence"]["equivalent"] is True
        assert doc["n_reused"] == 1

    def test_empty_circuit_identity(self, runner, tmp_path):
        src = tmp_path / "empty.qasm"
        src.write_text("qubit[0] q;\nbit[0] c;\n")
        result = runner.invoke(main, ["optimize", str(src), "-o", "-"])
        assert result.exit_code == 0
        assert "qubit[0] q;" in result.output

    def test_parse_error_exit_code(self, runner, tmp_path):
        src = tmp_path / "broken.qasm"
        src.write_text("qubit[2] q;\nbit[1] c;\nwobble q[0];\n")
        assert runner.invoke(main, ["optimize", str(src)]).exit_code == 1

    def test_missing_file_is_io_error(self, runner, tmp_path):
        assert runner.invoke(main, ["optimize", str(tmp_path / "nope.qasm")]).exit_code == 3

    def test_output_in_a_missing_directory_is_io_error(self, runner, tmp_path):
        src = tmp_path / "in.qasm"
        write_qpe(src)
        result = runner.invoke(main, ["optimize", str(src), "-o", str(tmp_path / "nowhere" / "out.qasm")])
        assert result.exit_code == 3, result.output
        assert "cannot write" in result.output

    def test_verify_mismatch_exits_2_and_still_writes(self, runner, tmp_path, monkeypatch):
        # An optimize that drops the first gate gives an output that differs.
        optimize = pipeline.optimize

        def drop_first_gate(circuit, mode="proposed"):
            out, report = optimize(circuit, mode)
            instrs = list(out.instructions)
            del instrs[next(i for i, instr in enumerate(instrs) if isinstance(instr, Gate))]
            return out.with_instructions(instrs), report

        monkeypatch.setattr(pipeline, "optimize", drop_first_gate)
        src, dst, rep = tmp_path / "in.qasm", tmp_path / "out.qasm", tmp_path / "rep.json"
        write_qpe(src)
        result = runner.invoke(main, ["optimize", str(src), "--verify", "-o", str(dst), "--report", str(rep)])
        assert result.exit_code == 2, result.output
        assert "equivalence FAILED" in result.output
        assert json.loads(rep.read_text())["equivalence"]["equivalent"] is False
        assert qasm.parse(dst.read_text()).n_qubits == 2

    def test_verify_beyond_oracle_cap_is_unverifiable(self, runner, tmp_path):
        # A valid 13-qubit input is one past the exact simulator's cap.
        src = tmp_path / "qpe13.qasm"
        write_qpe(src, n=13)
        result = runner.invoke(main, ["optimize", str(src), "--verify", "-o", str(tmp_path / "out.qasm")])
        assert result.exit_code == 4, result.output
        assert "verification impossible" in result.output


# Inputs at the edges of the file format, each with what the one error line
# must name: the line where the input has one.
HOSTILE = {
    "separator in a comment": ("qubit[1] q; // note\u2028more\nbit[1] c;\nh q[5];\n".encode(), "(line 3)"),
    "over-long index": (f"qubit[1] q;\nbit[1] c;\nx q[{'9' * 5000}];\n".encode(), "(line 3, col 1)"),
    "not UTF-8": (b"qubit[1] q;\nbit[1] c;\n\xff q[0];\n", "not UTF-8 (byte 22)"),
    "fullwidth digit": ("qubit[\uff12] q;\nbit[1] c;\n".encode(), "(line 1, col 1)"),
    "NUL byte": (b"qubit[1] q;\nbit[1] c;\nh q[0];\x00\n", "(line 3)"),
    "empty file": (b"", "missing qubit[...] q; or bit[...] c; declaration"),
}


@pytest.mark.parametrize("data,names", HOSTILE.values(), ids=HOSTILE.keys())
def test_hostile_input_fails_with_one_error_line(runner, tmp_path, data, names):
    src = tmp_path / "in.qasm"
    src.write_bytes(data)
    result = runner.invoke(main, ["optimize", str(src), "-o", str(tmp_path / "out.qasm")])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [result.output.rstrip("\n")]
    assert result.output.startswith(f"error: {src}: ") and names in result.output


@pytest.mark.parametrize("command", ["optimize", "verify"])
def test_non_utf8_file_is_a_parse_error(runner, tmp_path, command):
    # Decoding used to escape as a UnicodeDecodeError traceback.
    bad, good = tmp_path / "bad.qasm", tmp_path / "good.qasm"
    data = b"qubit[1] q;\nbit[1] c;\nh q[0]; // caf\xe9\n"  # Latin-1, not UTF-8
    bad.write_bytes(data)
    write_qpe(good)
    args = [str(bad)] if command == "optimize" else [str(good), str(bad)]
    result = runner.invoke(main, [command, *args])
    assert result.exit_code == 1, result.output
    assert result.output == f"error: {bad}: not UTF-8 (byte {data.index(0xE9)})\n"


@pytest.mark.parametrize("end", ["\r", "\r\n"])
def test_cr_line_ends_read_as_newlines(runner, tmp_path, end):
    # The comment stops at the line end; the measurement after it is kept.
    text = "qubit[1] q;\nbit[1] c;\nx q[0]; // flip\nc[0] = measure q[0];\n"
    lf, other = tmp_path / "lf.qasm", tmp_path / "other.qasm"
    lf.write_text(text)
    other.write_bytes(text.replace("\n", end).encode())
    outputs = [runner.invoke(main, ["optimize", str(path), "-o", "-"]) for path in (lf, other)]
    assert [r.exit_code for r in outputs] == [0, 0], outputs[1].output
    assert outputs[0].output == outputs[1].output and "measure" in outputs[1].output


class TestVerify:
    def test_equivalent_pair(self, runner, tmp_path):
        a, b = tmp_path / "a.qasm", tmp_path / "b.qasm"
        write_qpe(a)
        circuit = qasm.parse(a.read_text())
        from qreuse.pipeline import optimize as run_pipeline

        out, _ = run_pipeline(circuit)
        b.write_text(qasm.emit(out))
        result = runner.invoke(main, ["verify", str(a), str(b)])
        assert result.exit_code == 0, result.output

    def test_mismatch_exit_code(self, runner, tmp_path):
        a, b = tmp_path / "a.qasm", tmp_path / "b.qasm"
        a.write_text("qubit[1] q;\nbit[1] c;\nx q[0];\nc[0] = measure q[0];\n")
        b.write_text("qubit[1] q;\nbit[1] c;\nc[0] = measure q[0];\n")
        assert runner.invoke(main, ["verify", str(a), str(b)]).exit_code == 2

    def test_different_classical_registers_are_a_parse_error(self, runner, tmp_path):
        a, b = tmp_path / "a.qasm", tmp_path / "b.qasm"
        a.write_text("qubit[1] q;\nbit[1] c;\nc[0] = measure q[0];\n")
        b.write_text("qubit[1] q;\nbit[2] c;\nc[0] = measure q[0];\n")
        result = runner.invoke(main, ["verify", str(a), str(b)])
        assert result.exit_code == 1, result.output
        assert result.output == "error: circuits declare different classical registers\n"

    def test_beyond_oracle_cap_is_unverifiable(self, runner, tmp_path):
        a = tmp_path / "qpe13.qasm"
        write_qpe(a, n=13)
        assert runner.invoke(main, ["verify", str(a), str(a)]).exit_code == 4


@pytest.mark.parametrize("tol", ["nan", "-1", "-1e-12"])
@pytest.mark.parametrize("command", ["verify", "optimize"])
def test_bad_tol_is_rejected_before_reading(runner, tmp_path, command, tol):
    # The input does not exist: the option must fail first, with exit 1.
    missing = str(tmp_path / "missing.qasm")
    args = ["verify", missing, missing] if command == "verify" else ["optimize", "--verify", missing]
    result = runner.invoke(main, [*args, "--tol", tol])
    assert result.exit_code == 1, result.output
    assert result.output.startswith("error: --tol")


@pytest.mark.parametrize("command", ["verify", "optimize"])
def test_zero_tol_accepts_an_identical_pair(runner, tmp_path, command):
    a = tmp_path / "a.qasm"
    a.write_text("qubit[1] q;\nbit[1] c;\nx q[0];\nc[0] = measure q[0];\n")
    args = ["verify", str(a), str(a)] if command == "verify" else ["optimize", "--verify", str(a)]
    result = runner.invoke(main, [*args, "--tol", "0"])
    assert result.exit_code == 0, result.output


class TestBench:
    def test_qft_sweep_reports(self, runner, tmp_path):
        out = tmp_path / "sweep"
        result = runner.invoke(
            main,
            ["bench", "--family", "qft", "--sizes", "4,6,50", "--modes", "proposed", "--out-dir", str(out)],
        )
        assert result.exit_code == 0, result.output
        docs = [json.loads(p.read_text()) for p in sorted(out.glob("qft*.json"))]
        assert {d["input"] for d in docs} == {"qft4", "qft6", "qft50"}
        assert all(d["n_reused"] == 1 for d in docs)
        aggregate = json.loads((out / "aggregate.json").read_text())
        assert aggregate["schema_version"] == 1
        assert len(aggregate["aggregate"]) == 3

    def test_instance_documents_have_the_documented_keys(self, runner, tmp_path):
        out = tmp_path / "sweep"
        result = runner.invoke(main, ["bench", "--family", "qpe", "--sizes", "4", "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        paths = sorted(out.glob("qpe4-*.json"))
        assert [p.name for p in paths] == ["qpe4-baseline.json", "qpe4-proposed.json"]
        for p in paths:
            assert list(json.loads(p.read_text())) == documented_report_keys()

    def test_unknown_mode_is_a_parse_error(self, runner, tmp_path):
        out = tmp_path / "modes"
        args = ["bench", "--family", "qft", "--sizes", "4", "--modes", "proposed,bogus", "--out-dir", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert result.output == "error: unknown mode 'bogus'\n"
        assert not out.exists()

    def test_vqe_strategies_column(self, runner, tmp_path):
        out = tmp_path / "vqe"
        result = runner.invoke(
            main,
            ["bench", "--family", "vqe", "--sizes", "8", "--modes", "proposed", "--out-dir", str(out)],
        )
        assert result.exit_code == 0, result.output
        by_strategy = {}
        for p in out.glob("vqe-*.json"):
            doc = json.loads(p.read_text())
            by_strategy[doc["input"]] = doc["n_reused"]
        assert by_strategy == {
            "vqe-circular8": 2,
            "vqe-pairwise8": 2,
            "vqe-linear8": 1,
            "vqe-reverse-linear8": 2,
            "vqe-full8": 1,
        }

    def test_random_family_with_seeds(self, runner, tmp_path):
        out = tmp_path / "rand"
        result = runner.invoke(
            main,
            [
                "bench", "--family", "random", "--shapes", "10x2", "--seeds", "1,2",
                "--modes", "proposed,baseline", "--out-dir", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        aggregate = json.loads((out / "aggregate.json").read_text())
        rows = {(r["instance"], r["mode"]): r for r in aggregate["aggregate"]}
        assert ("random-n10-d2", "proposed") in rows
        assert rows[("random-n10-d2", "proposed")]["runs"] == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["--family", "random", "--shapes", "20"],
            ["--family", "qft", "--sizes", "a,b"],
            ["--family", "qft", "--sizes", "0"],
            ["--family", "vqe", "--strategies", "bogus"],
            ["--family", "qpe", "--theta", "nan"],
        ],
        ids=["shape-without-depth", "non-integer-size", "zero-size", "unknown-strategy", "nan-theta"],
    )
    def test_malformed_option_is_a_parse_error(self, runner, tmp_path, args):
        out = tmp_path / "bad"
        result = runner.invoke(main, ["bench", *args, "--out-dir", str(out)])
        assert result.exit_code == 1, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--family", "random", "--shapes", f"10x1,{qasm.MAX_REGISTER + 1}x1"],
            ["--family", "vqe", "--strategies", "linear", "--sizes", f"4,{qasm.MAX_REGISTER + 1}"],
        ],
        ids=["shape", "size"],
    )
    def test_register_above_the_limit_is_rejected(self, runner, tmp_path, monkeypatch, args):
        # Every entry is checked before any circuit is generated.
        for name in ("gen_random", "gen_vqe"):
            monkeypatch.setattr(bench, name, lambda *a, **k: pytest.fail("generated a circuit"))
        out = tmp_path / "big"
        result = runner.invoke(main, ["bench", *args, "--modes", "proposed", "--out-dir", str(out)])
        assert result.exit_code == 1, result.output
        assert result.output.startswith("error: ") and str(qasm.MAX_REGISTER) in result.output
        assert not out.exists()

    def test_out_dir_naming_a_file_is_an_io_error(self, runner, tmp_path):
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        result = runner.invoke(
            main, ["bench", "--family", "qft", "--sizes", "4", "--modes", "proposed", "--out-dir", str(out)]
        )
        assert result.exit_code == 3, result.output
        assert result.output.startswith("error: cannot write ")
