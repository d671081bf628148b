"""Command-line interface behaviour and exit codes."""

import json

import numpy as np
import pytest

from qintlab import holder, ratelab
from qintlab.cli import build_parser, main, parse_budgets
from qintlab.holder import HolderFunction, fooling_family, make_spec
from qintlab.ratelab import ConfigurationError


def test_parse_budgets():
    assert parse_budgets("2^4..2^7") == [16, 32, 64, 128]
    assert parse_budgets("16,64,256") == [16, 64, 256]
    assert parse_budgets("2^10") == [1024]
    with pytest.raises(ConfigurationError, match="at least 1"):
        parse_budgets("4,0,8")


@pytest.mark.parametrize("text", ["0..8", "-4..8", "2^5..2^4"])
def test_parse_budgets_rejects_bad_ranges(text):
    with pytest.raises(ConfigurationError, match="budget range"):
        parse_budgets(text)


def test_rates_zero_budget_range_exit_code(capsys):
    code = main(["rates", "--method", "mc", "--d", "1", "--budgets", "0..8", "--trials", "1"])
    assert code == 2
    assert "budget range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, message",
    [
        ("integrate --method det --d 1 --eps1 0", "positive and finite"),
        ("integrate --method mc --d 1 --eps1 0", "positive and finite"),
        ("integrate --method det --d 1 --eps1 -0.1", "positive and finite"),
        ("integrate --method det --d 1 --eps1 nan", "positive and finite"),
        ("integrate --method det --d 1 --eps1 inf", "positive and finite"),
        ("integrate --method det --d 1 --eps1 1e-300", "too small"),
        ("integrate --method mc --d 1 --eps1 1e-300", "too small"),
        ("integrate --method coin --d 1 --eps1 1e-300", "too small"),
        ("integrate --method quantum --d 1 --eps1 1e-300", "--eps1 1e-300 is too small"),
        ("integrate --method mcvr --d 1 --eps1 1e-300", "--eps1 1e-300 is too small"),
        ("integrate --method quantum --d 2 --eps1 1e-300", "--eps1 1e-300 is too small"),
        ("integrate --method rand-quantum --d 1 --eps1 0.25 --p 2", "--p must lie in"),
        ("integrate --method rand-quantum --d 1 --eps1 0.25 --p nan", "--p must lie in"),
        ("integrate --method det --d 1 --eps1 0.1 --trials -2", "at least one trial"),
        ("mean --n 4 --eps 0.1 --trials 0", "at least one trial"),
        ("mean --n 4 --eps nan --trials 3", "--eps must be positive and finite"),
        ("mean --n 4 --eps inf --trials 3", "--eps must be positive and finite"),
        ("mean --n 4 --eps 1e-300 --trials 3", "--eps 1e-300 is too small"),
        ("rates --method det --d 1 --budgets 0,4,8,16", "budgets must be at least 1"),
    ],
)
def test_out_of_range_inputs_exit_two(capsys, command, message):
    assert main(command.split()) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_method_choices_come_from_the_table(monkeypatch):
    monkeypatch.setitem(ratelab.METHODS, "extra", ratelab.METHODS["mc"])
    parser = build_parser()
    assert parser.parse_args(["rates", "--method", "extra", "--d", "1", "--budgets", "4"]).method == "extra"
    assert parser.parse_args(["integrate", "--method", "extra", "--d", "1", "--eps1", "0.1"]).method == "extra"
    assert parser.parse_args(["integrate", "--method", "rand-quantum", "--d", "1", "--eps1", "0.1"])
    with pytest.raises(SystemExit):
        parser.parse_args(["rates", "--method", "rand-quantum", "--d", "1", "--budgets", "4"])


def test_grover_command(capsys):
    assert main(["grover", "--m", "2", "--marked", "2", "--k", "1", "--shots", "200", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "analytic success probability: 1.000000" in out
    assert "empirical success frequency:  1.000000" in out


def test_mean_command(capsys):
    code = main(
        ["mean", "--n", "8", "--dist", "alternating", "--eps", "0.05",
         "--mode", "exact", "--trials", "20", "--seed", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "true mean=0.500000" in out
    assert "success rate" in out


def test_fool_command_matches_library(capsys):
    assert main(["fool", "--d", "1", "--k", "0", "--alpha", "1", "--n", "4"]) == 0
    out = capsys.readouterr().out
    instance = fooling_family(make_spec(1, 0, 1), 4, np.ones(4))
    assert repr(instance.exact_integral) in out
    assert "membership: pass" in out


def test_integrate_command_writes_csv(tmp_path):
    out_file = tmp_path / "runs.csv"
    code = main(
        ["integrate", "--method", "det", "--d", "1", "--eps1", "0.05",
         "--fn", "quadratic", "--trials", "2", "--seed", "0",
         "--out", str(out_file), "--format", "csv"]
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("trial,estimate")
    assert len(lines) == 3


def test_integrate_rand_quantum_json(tmp_path):
    out_file = tmp_path / "rq.json"
    code = main(
        ["integrate", "--method", "rand-quantum", "--d", "1", "--eps1", "0.25",
         "--p", "0.3", "--trials", "3", "--seed", "5",
         "--out", str(out_file), "--format", "json"]
    )
    assert code == 0
    rows = json.loads(out_file.read_text())
    assert len(rows) == 3
    assert all(abs(r["estimate"] - 0.3) < 0.25 for r in rows)


def test_integrate_unwritable_out_exits_one_and_names_the_path(capsys):
    code = main(["integrate", "--method", "det", "--d", "1", "--eps1", "0.05",
                 "--out", "/nonexistent/dir/x.csv"])
    assert code == 1
    assert "cannot write report to /nonexistent/dir/x.csv" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_integrate_prints_the_bytes_it_writes(tmp_path, capsysbinary, fmt):
    argv = ["integrate", "--method", "coin", "--d", "1", "--eps1", "0.05",
            "--trials", "3", "--seed", "2", "--format", fmt]
    out_file = tmp_path / f"runs.{fmt}"
    assert main([*argv, "--out", str(out_file)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == out_file.read_bytes()


def test_rates_command(tmp_path, capsys):
    out_file = tmp_path / "rates.csv"
    code = main(
        ["rates", "--method", "det", "--d", "1", "--budgets", "2^4..2^10",
         "--trials", "1", "--seed", "1", "--fn", "multiscale",
         "--out", str(out_file), "--format", "csv"]
    )
    assert code == 0
    assert out_file.exists()
    assert "fitted slope:" in capsys.readouterr().out


def test_rates_configuration_error_exit_code(capsys):
    code = main(
        ["rates", "--method", "det", "--d", "1", "--budgets", "16,8",
         "--trials", "1", "--seed", "1"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_suite_member_exit_code(capsys):
    code = main(
        ["rates", "--method", "det", "--d", "1", "--budgets", "2^4..2^7",
         "--trials", "1", "--seed", "1", "--fn", "nope"]
    )
    assert code == 2


def test_argparse_errors_exit_two():
    with pytest.raises(SystemExit) as info:
        main(["integrate", "--method", "warp", "--d", "1", "--eps1", "0.1"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["integrate", "--method", "mc", "--d", "1", "--eps1", "0.1"],
        ["integrate", "--method", "coin", "--d", "1", "--eps1", "0.1"],
        ["integrate", "--method", "det", "--d", "1", "--eps1", "0.1"],
        ["rates", "--method", "mcvr", "--d", "1", "--budgets", "2^4..2^7", "--trials", "2"],
    ],
)
def test_nan_valued_function_exits_two(monkeypatch, capsys, argv):
    def nan_member(spec, name):
        return HolderFunction(lambda p: np.full(len(p), np.nan), spec, exact_integral=0.0, name=name)

    monkeypatch.setattr(holder, "suite_member", nan_member)
    assert main(argv) == 2
    assert "non-finite estimate" in capsys.readouterr().err
