import argparse
import hashlib
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
from ordfair.cli import (
    EXIT_CONFIG,
    EXIT_NOT_CERTIFIED,
    MAX_EXPERIMENT_CONFIGS,
    _experiment_cells,
    main,
)
from ordfair.model import MAX_VALUE
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

    @pytest.mark.parametrize("value", ["1e5000", "1" * 5000], ids=["exponent", "digits"])
    def test_oversized_literal_is_one_line_parse_error(self, workdir, capsys, value):
        """An exponent once parsed to a value too long to print, so the
        solve ran and its report ended in a traceback; a long run of digits
        gave a message as long as the literal."""
        inst_file = workdir / "huge.txt"
        inst_file.write_text(f"n 1\nm 2\nvaluations\n{value} 1\n")
        code = run_cli(["solve", str(inst_file), "--algorithm", "a1"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and len(captured.err) < 110
        assert "Traceback" not in captured.err


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

    def test_repeated_divisors_report_digest(self, workdir, capsys):
        """``--d 3 --d 2 --d 3`` reports d=2 then d=3, once each, on rational
        rows; the stdout bytes are pinned."""
        inst_file = workdir / "inst.txt"
        inst_file.write_text(
            "n 3\nm 6\nvaluations\n7/3 2 3 1/6 5/2 3/4\n3/4 2/3 1 1/9 5/6 1/3\n"
            "13/2 6 15/2 1/5 7 5/2\n"
        )
        alloc_file = workdir / "alloc.txt"
        alloc_file.write_text("agents 3\nbundles\n0: 0 3\n1: 1 4 5\n2: 2\npool\n")
        argv = ["verify", str(inst_file), str(alloc_file), "--d", "3", "--d", "2", "--d", "3"]
        assert run_cli(argv + ["--require", "complete"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == (
            "494be4be133fed9ba1f7b69e0beaebdd7fc74375a9814b413ec06cb1adf46713"
        )

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

    def test_mms_required_without_divisor_is_config_error(self, workdir, capsys):
        """Agent 0 gets nothing of two goods both agents value.  With no
        ``--d`` there is no MMS verdict to read, so requiring ``mms``, as the
        default ``--require`` does, is an error that names ``--d``, not a
        pass; given ``--d 2`` the allocation fails."""
        inst_file = workdir / "inst.txt"
        inst_file.write_text("n 2\nm 2\nvaluations\n1 1\n1 1\n")
        alloc_file = workdir / "alloc.txt"
        alloc_file.write_text("agents 2\nbundles\n0:\n1: 0 1\npool\n")
        args = ["verify", str(inst_file), str(alloc_file)]
        for require in ([], ["--require", "mms"]):
            assert run_cli(args + require) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--d" in captured.err
        assert run_cli(args + ["--require", "mms", "--d", "2"]) == EXIT_NOT_CERTIFIED
        assert "mms d=2 ok=false witness=0" in capsys.readouterr().out

    def test_dummy_agents_line_is_rejected_not_obeyed(self, workdir, capsys):
        """Three agents with rows ``3 3 3 3``, agent 2 given nothing, fail
        MMS at d = 3; a ``dummy_agents`` line naming agent 2 does not excuse
        it but makes the instance file an error."""
        plain = "n 3\nm 4\nvaluations\n3 3 3 3\n3 3 3 3\n3 3 3 3\n"
        inst_file = workdir / "inst.txt"
        alloc_file = workdir / "alloc.txt"
        alloc_file.write_text("agents 3\nbundles\n0: 0 1\n1: 2 3\n2:\npool\n")
        args = ["verify", str(inst_file), str(alloc_file), "--d", "3", "--require", "mms"]
        inst_file.write_text(plain)
        assert run_cli(args) == EXIT_NOT_CERTIFIED
        assert "mms d=3 ok=false witness=2" in capsys.readouterr().out
        inst_file.write_text(plain + "dummy_agents 2:0\n")
        assert run_cli(args) == EXIT_CONFIG
        assert "unknown instance field 'dummy_agents'" in capsys.readouterr().err


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


    @pytest.mark.parametrize("d", ["3", "100000000000"])
    def test_divisor_past_the_goods_is_config_error(self, workdir, capsys, d):
        """Every share past d = m is 0, and the witness would still have d
        bundles, so ``--d`` is capped at max(m, 1) before any share work."""
        inst_file = workdir / "two.txt"
        inst_file.write_text("n 1\nm 2\nvaluations\n1 1\n")
        for command in (["mms", "--agent", "0"], ["normalize"]):
            code = run_cli([command[0], str(inst_file), *command[1:], "--d", d])
            err = capsys.readouterr().err
            assert code == EXIT_CONFIG
            assert err.startswith("error: --d must be at most max(m, 1) = 2:")
            assert len(err.splitlines()) == 1

    def test_share_too_long_to_print_is_one_line_error(self, workdir, capsys):
        """Each value's denominator has 2,501 digits, within the reader's
        limit, but the share sums them past the limit for printing; that
        once ended in a ValueError traceback."""
        zeros = "0" * 2499
        inst_file = workdir / "long.txt"
        inst_file.write_text(f"n 2\nm 2\nvaluations\n1/7{zeros}1 1/3{zeros}1\n1 1\n")
        code = run_cli(["mms", str(inst_file), "--agent", "0", "--d", "1"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and "digit limit" in captured.err
        assert "Traceback" not in captured.err


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

    @pytest.mark.parametrize(
        "grid, code, digest",
        [
            (
                ["--family", "ordered", "--n-range", "2:3", "--m-range", "4:8",
                 "--count", "2", "--seed", "5", "--algorithms", "a1,a3",
                 "--oracle-limit", "7"],
                0,
                "361d44a381a3cf11a9aaa5b13a17b18bb787be0dcccea3115dbacf7037c64a4e",
            ),
            (
                ["--family", "general", "--n-range", "2:3", "--m-range", "2:5",
                 "--algorithms", "a1,a2,a3", "--oracle-limit", "5"],
                EXIT_NOT_CERTIFIED,
                "f337ef1868f2b4718b16e8ee210d8d04ffc55710cc42d5b676ac35b3b04b5aea",
            ),
            (
                ["--family", "top_n", "--n-range", "1:5", "--m-range", "1:5",
                 "--count", "3", "--algorithms", "a2", "--max-value", "3",
                 "--oracle-limit", "5"],
                0,
                "e122391feb84df71e43b32418835af23db4b19075428ba52c7f0fbbf87c70d30",
            ),
        ],
        ids=["acceptance-10", "general-errors", "top_n-smallest"],
    )
    def test_out_file_digest(self, workdir, capsys, grid, code, digest):
        """The ``--out`` bytes and exit code of three recorded grids: the
        acceptance [10] run, a general grid whose a1/a3 rows are
        ``error:StructuralMismatchError`` (exit 3), and the smallest top-n
        shapes with oracle rows.  A change to how the rows and summary are
        built must leave them unchanged."""
        out = workdir / "rows.csv"
        assert run_cli(["experiment", *grid, "--out", str(out)]) == code
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_grid_ends_at_its_last_cell(self):
        # A top-n grid has no cell with n above m, so an n range far past
        # the m range ends at its last cell instead of running through it.
        grid = argparse.Namespace(family="top_n", n_range=(1, 10**12), m_range=(3, 4))
        cells = [(1, 3), (1, 4), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)]
        assert list(_experiment_cells(grid)) == cells
        grid.family = "ordered"
        grid.m_range = (0, 0)
        assert list(_experiment_cells(grid)) == []

    @pytest.mark.parametrize(
        "ranges",
        [
            ["--family", "ordered", "--n-range", "2:2", "--m-range", "3:2"],
            ["--family", "ordered", "--n-range", "2:2", "--m-range", "0:0"],
            ["--family", "top_n", "--n-range", "5:6", "--m-range", "3:4"],
            ["--family", "ordered", "--n-range", "2:2", "--m-range", "3:3", "--count", "0"],
        ],
        ids=["m-range-reversed", "m-range-no-goods", "top-n-n-above-m", "count-0"],
    )
    def test_grid_with_no_config_is_config_error(self, workdir, capsys, ranges):
        # A grid whose every cell lacks a good once exited 0 with an empty
        # report, where a reversed range is refused.
        out = workdir / "exp.csv"
        code = run_cli(["experiment", *ranges, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err == "error: empty experiment ranges\n"
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["mms", "x.txt", "--agent", "0", "--d", "{}"],
            ["generate", "--family", "ordered", "--n", "{}", "--m", "3"],
            ["experiment", "--family", "ordered", "--n-range", "1:{}", "--m-range", "2"],
        ],
        ids=["mms-d", "generate-n", "experiment-n-range"],
    )
    def test_long_integer_flag_echoes_a_prefix(self, capsys, argv):
        """A 5,000-digit flag value once came back whole in the usage error.
        The experiment usage text alone is about 300 bytes, so the bound is
        on the error line, and on the whole message at twice that."""
        with pytest.raises(SystemExit) as exc:
            run_cli([arg.format("1" * 5000) for arg in argv])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_CONFIG
        assert len(err.splitlines()[-1].encode()) < 300
        assert len(err.encode()) < 600
        assert "digit limit" in err and "1" * 25 not in err

    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["solve", "--help"]):
            with pytest.raises(SystemExit) as exc:
                run_cli(argv)
            assert exc.value.code == 0
        assert "--algorithm" in capsys.readouterr().out


class TestSizeLimits:
    """Inputs whose size only a header or a flag states, each run as its own
    process under a 2 GB address-space limit (``ulimit -v 2000000``) and a
    timeout.  The 25-byte file once ended in a traceback from inside the
    solve, and ``generate --n 10**9`` ran on past 20 s.  ``experiment``
    once solved every config below the caps before it reached one past
    them, and an ``--oracle-limit`` of 30 let the oracle enumerate the set
    partitions of 30 goods; both ran on past the timeout, as did a
    ``--count`` of 10**11 inside the check of each config.  A 4,000-digit
    ``--max-value`` ended ``generate`` in a ``MemoryError`` traceback."""

    @staticmethod
    def _limit_memory():
        limit = 2_000_000 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "{header}", "--algorithm", "a1"], "may have at most"),
            (
                ["generate", "--family", "ordered", "--n", str(10**9), "--m", "3"],
                "may have at most",
            ),
            (
                ["experiment", "--family", "ordered", "--n-range", "1:30000", "--m-range", "3:3"],
                "may have at most 20000 agents",
            ),
            (
                ["experiment", "--family", "top_n", "--n-range", "2:3",
                 "--m-range", "400000:500000", "--count", "1"],
                "may have at most 1000000 values",
            ),
            (
                ["experiment", "--family", "ordered", "--n-range", "2:2", "--m-range", "30:30",
                 "--count", "1", "--oracle-limit", "30"],
                "--oracle-limit must be at most 12",
            ),
            (
                ["experiment", "--family", "ordered", "--n-range", "2:2", "--m-range", "3:3",
                 "--count", str(10**11)],
                f"may have at most {MAX_EXPERIMENT_CONFIGS} configs",
            ),
            (
                ["generate", "--family", "general", "--n", "1000", "--m", "1000",
                 "--max-value", "9" * 4000],
                f"max_value must be at most {MAX_VALUE}",
            ),
            (
                ["experiment", "--family", "general", "--n-range", "2:2", "--m-range", "3:3",
                 "--count", "1", "--max-value", str(MAX_VALUE + 1)],
                f"max_value must be at most {MAX_VALUE}",
            ),
        ],
        ids=[
            "oversized-header", "generate-n-1e9", "experiment-n-range",
            "experiment-m-range", "experiment-oracle-limit", "experiment-count",
            "generate-max-value", "experiment-max-value",
        ],
    )
    def test_exits_one_with_one_line(self, workdir, argv, message):
        header = workdir / "many_agents.txt"
        header.write_text("n 3000000\nm 0\nvaluations\n")
        paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        proc = subprocess.run(
            [sys.executable, "-m", "ordfair.cli", *(a.format(header=header) for a in argv)],
            capture_output=True,
            text=True,
            env=env,
            timeout=30,
            preexec_fn=self._limit_memory,
        )
        assert proc.returncode == EXIT_CONFIG, proc.stderr[-500:]
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert message in proc.stderr
