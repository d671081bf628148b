"""Command-line interface behaviour and exit codes."""

import json

import numpy as np
import pytest

from qintlab import ratelab
from qintlab.cli import build_parser, main, parse_budgets
from qintlab.holder import fooling_family, make_spec
from qintlab.ratelab import ConfigurationError


def test_parse_budgets():
    assert parse_budgets("2^4..2^7") == [16, 32, 64, 128]
    assert parse_budgets("16,64,256") == [16, 64, 256]
    assert parse_budgets("2^10") == [1024]


@pytest.mark.parametrize("text", ["0..8", "-4..8", "2^5..2^4"])
def test_parse_budgets_rejects_bad_ranges(text):
    with pytest.raises(ConfigurationError, match="budget range"):
        parse_budgets(text)


def test_rates_zero_budget_range_exit_code(capsys):
    code = main(["rates", "--method", "mc", "--d", "1", "--budgets", "0..8", "--trials", "1"])
    assert code == 2
    assert "budget range" in capsys.readouterr().err


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
