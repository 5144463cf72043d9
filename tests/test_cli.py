import subprocess
import sys
from fractions import Fraction

import pytest

from ordfair import (
    detect_structure,
    read_allocation,
    read_instance,
    read_report,
    top_k_set,
    write_instance,
)
from ordfair import shares
from ordfair.cli import EXIT_CONFIG, EXIT_NOT_CERTIFIED, main
from ordfair.shares import mms_exact

from helpers import EX51, I_A, I_B

EX51_ALLOC_TEXT = "agents 3\nbundles\n0: 4\n1: 0 1 2\n2: 3\npool\n"


def run_cli(argv):
    return main(argv)


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


class TestGenerate:
    def test_deterministic_files(self, workdir, capsys):
        args = ["generate", "--family", "ordered", "--n", "3", "--m", "8", "--seed", "7"]
        a, b = workdir / "a.txt", workdir / "b.txt"
        assert run_cli(args + ["--out", str(a)]) == 0
        first = capsys.readouterr().out
        assert run_cli(args + ["--out", str(b)]) == 0
        second = capsys.readouterr().out
        assert a.read_bytes() == b.read_bytes()
        assert first == second
        assert "ordered true" in first

    def test_top_n_structure_printed(self, workdir, capsys):
        out = workdir / "i.txt"
        code = run_cli(
            ["generate", "--family", "top_n", "--n", "3", "--m", "8", "--out", str(out)]
        )
        assert code == 0
        inst = read_instance(out.read_text())
        assert top_k_set(inst, 3) is not None
        order = detect_structure(inst)
        expected = [f"ordered {str(order is not None).lower()}"]
        if order is not None:
            expected.append("order_witness " + " ".join(map(str, order)))
        assert capsys.readouterr().out.splitlines() == expected

    def test_invalid_dimensions_exit_code(self, workdir, capsys):
        code = run_cli(["generate", "--family", "general", "--n", "1", "--m", "0"])
        assert code == 1


class TestSolve:
    def test_a1_on_ordered_instance(self, workdir, capsys):
        inst_file = workdir / "ia.txt"
        inst_file.write_text(write_instance(I_A))
        alloc_file = workdir / "alloc.txt"
        report_file = workdir / "report.txt"
        trace_file = workdir / "trace.txt"
        code = run_cli(
            [
                "solve", str(inst_file), "--algorithm", "a1",
                "--out", str(alloc_file), "--report", str(report_file),
                "--trace", str(trace_file),
            ]
        )
        capsys.readouterr()
        assert code == 0
        alloc = read_allocation(alloc_file.read_text())
        assert alloc.is_complete(I_A.m)
        rep = read_report(report_file.read_text())
        assert rep.efx and rep.mms_ok(3)
        assert "singleton_claim" in trace_file.read_text()

    def test_a1_rejects_unordered(self, workdir, capsys):
        inst_file = workdir / "ib.txt"
        inst_file.write_text(write_instance(I_B))
        code = run_cli(["solve", str(inst_file), "--algorithm", "a1"])
        capsys.readouterr()
        assert code == 2

    def test_a2_on_top_n_instance(self, workdir, capsys):
        inst_file = workdir / "ib.txt"
        inst_file.write_text(write_instance(I_B))
        code = run_cli(["solve", str(inst_file), "--algorithm", "a2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ef1 true" in out
        assert "ok=true" in out

    def test_malformed_count_is_parse_error(self, workdir, capsys):
        inst_file = workdir / "bad.txt"
        inst_file.write_text("n x\nm 2\nvaluations\n1 1\n")
        code = run_cli(["solve", str(inst_file), "--algorithm", "a1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_ex51_allocation_files(self, workdir, capsys):
        inst_file = workdir / "ex51.txt"
        inst_file.write_text(write_instance(EX51))
        alloc_file = workdir / "alloc.txt"
        alloc_file.write_text(EX51_ALLOC_TEXT)
        code = run_cli(
            ["verify", str(inst_file), str(alloc_file), "--d", "3",
             "--require", "complete,mms"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "efx false" in out
        assert "efx_witness 0 1" in out

        code = run_cli(
            ["verify", str(inst_file), str(alloc_file), "--require", "efx"]
        )
        capsys.readouterr()
        assert code == 3

    def test_malformed_bundle_is_parse_error(self, workdir, capsys):
        inst_file = workdir / "ex51.txt"
        inst_file.write_text(write_instance(EX51))
        for text in ("agents 3\nbundles\n0: a\n1: 0 1 2\n2: 3\npool\n",
                     "agents 3\nbundles\nx: 4\n1: 0 1 2\n2: 3\npool\n",
                     "agents 3\nbundles\n0: 4\n1: 0 1 2\n2: 3\npool b\n"):
            alloc_file = workdir / "alloc.txt"
            alloc_file.write_text(text)
            code = run_cli(["verify", str(inst_file), str(alloc_file)])
            assert code == 1
            assert "error:" in capsys.readouterr().err


    def test_good_listed_twice_is_config_error(self, workdir, capsys):
        inst_file = workdir / "ex51.txt"
        inst_file.write_text(write_instance(EX51))
        alloc_file = workdir / "alloc.txt"
        alloc_file.write_text("agents 3\nbundles\n0: 4 4\n1: 0 1 2\n2: 3\npool\n")
        code = run_cli(["verify", str(inst_file), str(alloc_file)])
        assert code == EXIT_CONFIG
        assert "listed twice" in capsys.readouterr().err


class TestMms:
    def test_value_and_witness_file(self, workdir, capsys):
        inst_file = workdir / "ex51.txt"
        inst_file.write_text(write_instance(EX51))
        out_file = workdir / "mms.txt"
        code = run_cli(
            ["mms", str(inst_file), "--agent", "2", "--d", "3", "--out", str(out_file)]
        )
        capsys.readouterr()
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("value 2\nagent 2\nd 3\n")
        witness = read_allocation(text.split("d 3\n", 1)[1])
        assert min(EX51.value(2, b) for b in witness.bundles) == 2

    def test_oracle_flag_agrees(self, workdir, capsys):
        inst_file = workdir / "ia.txt"
        inst_file.write_text(write_instance(I_A))
        for flag in ([], ["--oracle"]):
            code = run_cli(
                ["mms", str(inst_file), "--agent", "0", "--d", "3", *flag]
            )
            out = capsys.readouterr().out
            assert code == 0
            assert out.startswith("value 3\n")

    def test_oracle_past_its_limit_is_config_error(self, workdir, capsys):
        inst_file = workdir / "wide.txt"
        inst_file.write_text("n 1\nm 14\nvaluations\n" + " ".join(["1"] * 14) + "\n")
        code = run_cli(["mms", str(inst_file), "--agent", "0", "--d", "3", "--oracle"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "error: 14 goods exceed the oracle limit" in err


class TestNormalize:
    def test_scale_output_is_normalized(self, workdir, capsys):
        inst_file = workdir / "ex51.txt"
        inst_file.write_text(write_instance(EX51))
        out_file = workdir / "norm.txt"
        code = run_cli(
            ["normalize", str(inst_file), "--d", "3", "--out", str(out_file)]
        )
        capsys.readouterr()
        assert code == 0
        out = read_instance(out_file.read_text())
        for i in out.agents:
            assert mms_exact(out, i, 3).value == 1

    def test_order_method_on_ordered_instance(self, workdir, capsys):
        inst_file = workdir / "ones.txt"
        inst_file.write_text("n 1\nm 5\nvaluations\n1 1 1 1 1\n")
        code = run_cli(
            ["normalize", str(inst_file), "--d", "3", "--method", "order"]
        )
        out = capsys.readouterr().out
        assert code == 0
        parsed = read_instance(out)
        assert sum(parsed.values[0]) == 3

    def test_zero_share_is_config_error(self, workdir, capsys):
        inst_file = workdir / "z.txt"
        inst_file.write_text("n 1\nm 2\nvaluations\n1 0\n")
        code = run_cli(["normalize", str(inst_file), "--d", "2"])
        capsys.readouterr()
        assert code == 1


class TestExperiment:
    def test_small_run_and_determinism(self, workdir, capsys):
        args = [
            "experiment", "--family", "ordered", "--n-range", "2:3",
            "--m-range", "4:7", "--count", "2", "--seed", "11",
            "--algorithms", "a1,a3", "--oracle-limit", "6",
        ]
        out1, out2 = workdir / "r1.csv", workdir / "r2.csv"
        assert run_cli(args + ["--out", str(out1)]) == 0
        first = capsys.readouterr().out
        assert run_cli(args + ["--out", str(out2)]) == 0
        second = capsys.readouterr().out
        assert out1.read_bytes() == out2.read_bytes()
        assert first == second
        assert "violations=0" in first
        assert "oracle_mismatches=0" in first

    def test_row_reproduces_single_solve(self, workdir, capsys):
        # A row's seed regenerates the same instance and verdict standalone.
        args = [
            "experiment", "--family", "top_n", "--n-range", "2:2",
            "--m-range", "5:5", "--count", "1", "--seed", "3",
            "--algorithms", "a2",
        ]
        assert run_cli(args) == 0
        out = capsys.readouterr().out
        row = [ln for ln in out.splitlines() if ln and ln[0].isdigit()][0]
        seed = int(row.split(",")[0])
        from ordfair import GeneratorConfig, generate, solve_complete

        inst = generate(GeneratorConfig("top_n", 2, 5, 20, seed))
        result = solve_complete(inst, "a2")
        assert result.certified == ("certified" in row)

    def test_oracle_checks_each_algorithms_thresholds(self, workdir, capsys, monkeypatch):
        """Thresholds set wrong at a3's divisor only (4 * ceil(4/3) = 8, a1's
        is 6) still certify, since the verifier takes them too; the oracle
        cross-check of a3's solves is what fails the run."""
        real = shares.thresholds

        def wrong_at_8(inst, d):
            return [Fraction(0)] * inst.n if d == 8 else real(inst, d)

        monkeypatch.setattr(shares, "thresholds", wrong_at_8)
        args = [
            "experiment", "--family", "ordered", "--n-range", "4:4",
            "--m-range", "8:9", "--count", "1", "--algorithms", "a1,a3",
            "--oracle-limit", "9",
        ]
        assert run_cli(args) == EXIT_NOT_CERTIFIED
        out = capsys.readouterr().out
        mismatches = [ln for ln in out.splitlines() if ",mms-oracle," in ln]
        assert mismatches and all(",mismatch:a3:agent" in ln for ln in mismatches)
        assert "summary algorithm=a3 run=2 certified=2 violations=0" in out

    def test_console_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ordfair.cli", "generate", "--family",
             "general", "--n", "2", "--m", "3", "--seed", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0


class TestUsageErrors:
    def test_missing_required_option_is_config_error(self, workdir, capsys):
        inst_file = workdir / "ia.txt"
        inst_file.write_text(write_instance(I_A))
        with pytest.raises(SystemExit) as exc:
            run_cli(["solve", str(inst_file)])
        assert exc.value.code == EXIT_CONFIG
        assert "the following arguments are required: --algorithm" in capsys.readouterr().err

    def test_bad_option_values_are_config_errors(self, capsys):
        for argv in (
            [],
            ["frobnicate"],
            ["solve", "x.txt", "--algorithm", "a9"],
            ["experiment", "--family", "ordered", "--n-range", "a:b", "--m-range", "2"],
        ):
            with pytest.raises(SystemExit) as exc:
                run_cli(argv)
            assert exc.value.code == EXIT_CONFIG, argv
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["solve", "--help"]):
            with pytest.raises(SystemExit) as exc:
                run_cli(argv)
            assert exc.value.code == 0
        assert "--algorithm" in capsys.readouterr().out
