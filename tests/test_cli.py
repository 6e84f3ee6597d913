"""Command-line surface: compile, infer, sample, reproduce."""

import argparse
import json
import subprocess
import sys

import pytest

from osdd import cli
from osdd.cli import build_parser, main
from osdd.diagram_io import parse_osdd
from osdd.engine import EvalSession
from osdd.errors import SolverLimitError
from osdd.programs import BIRTHDAY, PALINDROME, birthday_source

from conftest import fresh_env


@pytest.fixture()
def program_files(tmp_path):
    pal = tmp_path / "palindrome.psm"
    pal.write_text(PALINDROME)
    bd = tmp_path / "birthday.psm"
    bd.write_text(BIRTHDAY)
    toy = tmp_path / "toy_birthday.psm"
    toy.write_text(birthday_source(days=4))
    return {"palindrome": pal, "birthday": bd, "toy": toy, "dir": tmp_path}


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompile:
    def test_collision_file_round_trips(self, program_files, capsys, birthday_program):
        out = program_files["dir"] / "b3.osdd"
        dot = program_files["dir"] / "b3.dot"
        code, stdout, _ = run_cli(
            capsys,
            "compile",
            "--program", program_files["birthday"],
            "--query", "same_birthday(3)",
            "--out", out,
            "--dot", dot,
        )
        assert code == 0
        stats = json.loads(stdout.strip().splitlines()[-1])
        assert stats["node_count"] == 3
        reparsed = parse_osdd(
            out.read_text(), lambda ref: birthday_program.switch_spec(ref).domain
        )
        assert reparsed is EvalSession(birthday_program).query("same_birthday(3)")
        dot_text = dot.read_text()
        assert "msw(b,1," in dot_text.replace(" ", "").replace('"', "")

    def test_palindrome_evidence_node_count(self, program_files, capsys):
        out = program_files["dir"] / "e6.osdd"
        code, stdout, _ = run_cli(
            capsys,
            "compile",
            "--program", program_files["palindrome"],
            "--query", "evidence(6)",
            "--out", out,
        )
        assert code == 0
        assert json.loads(stdout.strip().splitlines()[-1])["node_count"] == 6

    def test_empty_derivation_writes_zero(self, program_files, capsys, tmp_path):
        src = tmp_path / "dead.psm"
        src.write_text(
            "q :- msw(s, 1, X), X = a, X = b.\n"
            "values(s, [a, b]).\nset_sw(s, uniform).\n"
        )
        out = tmp_path / "dead.osdd"
        code, stdout, _ = run_cli(
            capsys, "compile", "--program", src, "--query", "q", "--out", out
        )
        assert code == 0
        assert out.read_text().strip() == "0"

    def test_missing_program_is_a_user_error(self, capsys, tmp_path):
        missing = tmp_path / "nope.psm"
        code, _, stderr = run_cli(
            capsys, "compile", "--program", missing, "--query", "q"
        )
        assert code == 1
        assert stderr.strip() == (
            f"error: cannot read {missing}: No such file or directory"
        )

    def test_binary_program_is_a_user_error(self, capsys, tmp_path):
        binary = tmp_path / "binary.psm"
        binary.write_bytes(b"q.\n\xd0\x00\xff\n")
        code, _, stderr = run_cli(
            capsys, "compile", "--program", binary, "--query", "q"
        )
        assert code == 1
        assert stderr.startswith(f"error: cannot read {binary}: not UTF-8 text")

    def test_unwritable_out_is_a_user_error(self, program_files, capsys, tmp_path):
        out = tmp_path / "no_such_dir" / "x.osdd"
        code, _, stderr = run_cli(
            capsys,
            "compile",
            "--program", program_files["birthday"],
            "--query", "same_birthday(2)",
            "--out", out,
        )
        assert code == 1
        assert stderr.strip() == (
            f"error: cannot write {out}: No such file or directory"
        )


class TestInfer:
    def test_palindrome_exact(self, program_files, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "infer",
            "--program", program_files["palindrome"],
            "--query", "evidence(6)",
            "--rational",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["probability"] == 0.125
        assert report["probability_exact"] == "1/8"

    def test_birthday_measurable(self, program_files, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "infer",
            "--program", program_files["birthday"],
            "--query", "same_birthday(3)",
            "--mode", "exact-measurable",
            "--rational",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["probability_exact"] == "1093/133225"
        assert report["measurable"] is True

    def test_dead_query_reports_zero(self, program_files, capsys, tmp_path):
        src = tmp_path / "dead.psm"
        src.write_text(
            "q :- msw(s, 1, X), X = a, X = b.\n"
            "values(s, [a, b]).\nset_sw(s, uniform).\n"
        )
        code, stdout, _ = run_cli(
            capsys, "infer", "--program", src, "--query", "q"
        )
        assert code == 0
        assert json.loads(stdout)["probability"] == 0.0

    def test_conditional_query(self, program_files, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "infer",
            "--program", program_files["palindrome"],
            "--query", "query(8, 2)",
            "--evidence", "evidence(8)",
            "--rational",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["probability_exact"] == "1/4"

    def test_conditional_report_describes_the_joint(self, program_files, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "infer",
            "--program", program_files["palindrome"],
            "--query", "query(8, 2)",
            "--evidence", "evidence(8)",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["probability"] == 0.25
        assert report["node_count"] == 20
        assert report["max_free_vars"] == 4
        assert report["measurable"] is False

    def test_oracle_mode_cross_checks(self, program_files, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "infer",
            "--program", program_files["toy"],
            "--query", "same_birthday(2)",
            "--mode", "oracle",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["abs_difference"] <= 1e-12

    def test_oracle_mode_honours_evidence(self, program_files, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "infer",
            "--program", program_files["palindrome"],
            "--query", "query(4, 2)",
            "--evidence", "evidence(4)",
            "--mode", "oracle",
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["probability"] == 0.5
        assert report["oracle"] == 0.5
        assert report["abs_difference"] == 0

    def test_division_by_zero_is_a_user_error(self, capsys, tmp_path):
        src = tmp_path / "div.psm"
        src.write_text(
            "p :- X is 1//0, msw(c, 1, a).\n"
            "values(c, [a, b]).\nset_sw(c, uniform).\n"
        )
        runs = [("infer", "--mode", "exact")] + [
            ("sample", "--mode", mode, "--samples", 5)
            for mode in ("lw", "independent")
        ]
        for command, *options in runs:
            code, _, err = run_cli(
                capsys, command, "--program", src, "--query", "p", *options
            )
            assert code == 1
            assert "division by zero" in err

    def test_round_trip_probability_bit_equal(self, program_files, capsys):
        out = program_files["dir"] / "rt.osdd"
        run_cli(
            capsys,
            "compile",
            "--program", program_files["birthday"],
            "--query", "same_birthday(3)",
            "--out", out,
        )
        code1, direct, _ = run_cli(
            capsys,
            "infer",
            "--program", program_files["birthday"],
            "--query", "same_birthday(3)",
            "--mode", "exact-measurable",
            "--rational",
        )
        code2, from_file, _ = run_cli(
            capsys,
            "infer",
            "--program", program_files["birthday"],
            "--osdd", out,
            "--mode", "exact-measurable",
            "--rational",
        )
        assert code1 == code2 == 0
        key = "probability_exact"
        assert json.loads(direct)[key] == json.loads(from_file)[key]

    def test_fast_path_aborts_with_guidance_on_non_uniform(
        self, capsys, tmp_path
    ):
        src = tmp_path / "nu.psm"
        src.write_text(
            "q :- msw(s, 1, X), msw(s, 2, Y), X = Y.\n"
            "values(s, [a, b]).\nset_sw(s, [0.25, 0.75]).\n"
        )
        code, _, err = run_cli(
            capsys,
            "infer",
            "--program", src,
            "--query", "q",
            "--mode", "exact-measurable",
        )
        assert code == 1
        assert "general exact computation" in err

    def test_missing_osdd_file_is_a_user_error(self, program_files, capsys, tmp_path):
        missing = tmp_path / "nope.osdd"
        code, _, stderr = run_cli(
            capsys,
            "infer",
            "--program", program_files["birthday"],
            "--osdd", missing,
        )
        assert code == 1
        assert stderr.strip() == (
            f"error: cannot read {missing}: No such file or directory"
        )


class TestSample:
    def test_budget_one_single_row(self, program_files, capsys, tmp_path):
        out = tmp_path / "one.csv"
        code, stdout, _ = run_cli(
            capsys,
            "sample",
            "--program", program_files["palindrome"],
            "--query", "evidence(4)",
            "--samples", 1,
            "--out", out,
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "samples,consistent,estimate,variance,mode,seed"
        assert len(lines) == 2

    def test_seeded_csvs_byte_identical(self, program_files, capsys, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, _, _ = run_cli(
                capsys,
                "sample",
                "--program", program_files["palindrome"],
                "--query", "query(6, 2)",
                "--evidence", "evidence(6)",
                "--samples", 400,
                "--stride", 100,
                "--seed", 21,
                "--out", out,
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_summary_reports_rng(self, program_files, capsys):
        code, stdout, _ = run_cli(
            capsys,
            "sample",
            "--program", program_files["toy"],
            "--query", "same_birthday(2)",
            "--samples", 50,
            "--stride", 25,
        )
        assert code == 0
        summary = json.loads(stdout.strip().splitlines()[-1])
        assert summary["rng"] == "philox"
        assert summary["samples"] == 50

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--stride", 0, "CSV stride must be at least 1"),
            ("--stride", -3, "CSV stride must be at least 1"),
            ("--seed", -1, "seed must be non-negative"),
        ],
    )
    def test_bad_stride_or_seed_is_a_user_error(
        self, program_files, capsys, flag, value, message
    ):
        code, _, err = run_cli(
            capsys, "sample",
            "--program", program_files["toy"],
            "--query", "same_birthday(2)",
            "--samples", 5,
            flag, value,
        )
        assert code == 1
        assert err.strip() == f"error: {message}"

    def test_fractional_for_bound_is_a_user_error(self, capsys, tmp_path):
        src = tmp_path / "for.psm"
        src.write_text(
            "p :- for(I, 1, 5/2), msw(c, I, a).\n"
            "values(c, [a, b]).\nset_sw(c, uniform).\n"
        )
        for mode in ("lw", "independent"):
            code, _, err = run_cli(
                capsys, "sample", "--program", src, "--query", "p",
                "--mode", mode, "--samples", 5,
            )
            assert code == 1
            assert "for/3 bounds must be integers" in err

    def test_arithmetic_on_an_outcome_is_a_user_error(self, capsys, tmp_path):
        # Both samplers sample the compiled model, so they accept exactly
        # the programs the symbolic engine compiles.
        src = tmp_path / "arith.psm"
        src.write_text(
            "q :- msw(s, 1, X), X =:= 1.\n"
            "values(s, [0, 1]).\nset_sw(s, uniform).\n"
        )
        for mode in ("lw", "independent"):
            code, _, err = run_cli(
                capsys, "sample", "--program", src, "--query", "q",
                "--mode", mode, "--samples", 5,
            )
            assert code == 1
            assert "cannot evaluate arithmetic term" in err


class TestReproduce:
    def test_missing_experiment_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "reproduce")
        assert code == 1
        assert "birthday" in err

    def test_palindrome_probabilities_follow_the_halving_rule(
        self, capsys, tmp_path
    ):
        out = tmp_path / "pal.csv"
        code, _, _ = run_cli(
            capsys, "reproduce", "palindrome", "--repeats", 1, "--out", out
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        for row in rows:
            parts = row.split(",")
            n = int(parts[0])
            prob = float(parts[4])
            assert prob == 0.5 ** (n // 2)

    @staticmethod
    def _fake_sweep(monkeypatch, failing_size):
        def measure(n):
            if n == failing_size:
                raise SolverLimitError("budget exceeded")
            return "0.5,0.1,0.25,7", 1.0

        monkeypatch.setattr(
            cli, "_birthday_sweep",
            lambda args: ("size,build_s,prob_s,probability,nodes,status", measure),
        )

    def test_a_failed_size_exits_1_naming_it(self, monkeypatch, capsys, tmp_path):
        self._fake_sweep(monkeypatch, failing_size=10)
        out = tmp_path / "b.csv"
        code, _, err = run_cli(capsys, "reproduce", "birthday", "--out", out)
        assert code == 1
        assert "size 10" in err and "budget exceeded" in err
        rows = out.read_text().strip().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["6", "8", "10", "12", "14", "16"]
        assert rows[2] == "10,,,,,error:budget exceeded"

    @pytest.mark.parametrize("repeats", [0, -2])
    def test_repeats_below_one_is_a_user_error(self, capsys, repeats):
        code, out, err = run_cli(
            capsys, "reproduce", "birthday", "--repeats", repeats
        )
        assert code == 1
        assert out == ""
        assert err.strip() == "error: --repeats must be at least 1"

    def test_over_timeout_rows_exit_0(self, monkeypatch, capsys):
        self._fake_sweep(monkeypatch, failing_size=None)
        code, out, _ = run_cli(
            capsys, "reproduce", "birthday", "--timeout-s", 0.5
        )
        assert code == 0
        assert out.count("over-timeout") == 6

    def test_exit_code_for_unknown_flag_style_error(self, program_files, capsys):
        code, _, err = run_cli(
            capsys, "infer", "--program", program_files["toy"]
        )
        assert code == 1
        assert "query" in err


class TestOptions:
    def test_each_subcommand_accepts_only_the_flags_it_reads(self):
        sub = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        flags = {
            name: {
                flag for action in p._actions for flag in action.option_strings
            } - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert flags == {
            "compile": {"--program", "--query", "--out", "--dot"},
            "infer": {
                "--program", "--query", "--evidence", "--mode", "--osdd",
                "--rational",
            },
            "sample": {
                "--program", "--query", "--evidence", "--mode", "--samples",
                "--seed", "--stride", "--out",
            },
            "reproduce": {"--out", "--repeats", "--timeout-s", "--joint"},
        }

    def test_flag_of_another_subcommand_is_rejected(self, program_files, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "compile", "--program", str(program_files["toy"]),
                "--query", "same_birthday(2)", "--seed", "3",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["infer", "--program", "birthday", "--query", "same_birthday(12)", "--rational"],
    ["compile", "--program", "palindrome", "--query", "evidence(12)"],
])
def test_stdout_closed_by_its_reader_exits_1_quietly(program_files, argv):
    """`osdd ... | head` with the reader gone before the first write: exit
    1, with no "internal error" and no second error at interpreter exit."""
    argv = [str(program_files.get(a, a)) for a in argv]
    proc = subprocess.Popen(
        [sys.executable, "-m", "osdd.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=fresh_env(),
    )
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1, stderr
    assert stderr == ""
