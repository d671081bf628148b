"""Command-line interface behaviour and exit codes."""

import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from qintlab import amp_est, cli, holder, integrators, ratelab
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
        ("integrate --method coin --d 1 --eps1 1e-5", "the coin draw count 10000000000 is more than"),
        ("integrate --method quantum --d 1 --eps1 1e-300", "--eps1 1e-300 is too small"),
        ("integrate --method mcvr --d 1 --eps1 1e-300", "--eps1 1e-300 is too small"),
        ("integrate --method mcvr --d 3 --eps1 1e-300", "the mcvr sample count eps1^-1.2 = 10^360.0 overflows"),
        ("integrate --method quantum --d 2 --eps1 1e-300", "--eps1 1e-300 is too small"),
        ("integrate --method rand-quantum --d 1 --eps1 0.25 --p 2", "--p must lie in"),
        ("integrate --method rand-quantum --d 1 --eps1 0.25 --p nan", "--p must lie in"),
        ("integrate --method det --d 1 --eps1 0.1 --trials -2", "error: --trials must be at least 1, got -2"),
        ("mean --n 4 --eps 0.1 --trials 0", "error: --trials must be at least 1, got 0"),
        ("rates --method det --d 1 --budgets 2^4..2^7 --trials 0", "error: --trials must be at least 1, got 0"),
        ("mean --n 4 --eps nan --trials 3", "--eps must be positive and finite"),
        ("mean --n 4 --eps inf --trials 3", "--eps must be positive and finite"),
        ("mean --n 4 --eps 1e-300 --trials 3", "--eps 1e-300 is too small"),
        ("rates --method det --d 1 --budgets 0,4,8,16", "budgets must be at least 1"),
        ("grover --m 3 --marked 1 --shots 0", "--shots must be at least 1"),
        ("integrate --method coin --d 2 --eps1 0.1 --fn fool --fool-bumps -2", "--fool-bumps must be at least 1"),
        ("integrate --method det --d 1 --eps1 0.1 --fn fool --fool-bumps 0", "--fool-bumps must be at least 1"),
        ("integrate --method rand-quantum --d 1 --eps1 1e-5",
         "the rand-quantum sample count 720000000000 is more than the 268435456 a run evaluates"),
        ("integrate --method rand-quantum --d 1 --eps1 1e-300",
         "the rand-quantum sample count eps1^-2 = 10^600.0 overflows a float"),
        # eps1^-2 fits a float here, but 72/eps1^2 and log2(1/eps1)/eps1^2 do not.
        ("integrate --method rand-quantum --d 1 --eps1 1e-154", "the rand-quantum sample count overflows a float"),
        ("integrate --method coin --d 1 --eps1 1e-154", "the coin draw count 10^308.0 is more than"),
        ("integrate --method quantum --d 1 --eps1 1e-307 --mode bit",
         "the quantum interpolation target overflows a float"),
        ("rates --method det --d 1 --budgets 2^4..2^7 --fn fool", "rates needs a suite member with an exact integral"),
        # Sized before anything is allocated; the refusal names the flag, not --eps1.
        ("mean --n 10000000000000 --eps 0.1",
         "error: --n 10000000000000 is too large: the mean item count 10000000000000 is more than"),
        ("fool --d 1 --n 10000000000000",
         "error: --n 10000000000000 is too large: the fooling bump count 10000000000000 is more than"),
        ("integrate --method det --d 2 --eps1 0.1 --fn fool --fool-bumps 10000000",
         "error: --fool-bumps 10000000 is too large: the fooling bump count 100000000000000 is more than"),
        ("grover --m 30 --marked 0", "error: --m 30 is too large: the grover register size 1073741824 is more than"),
        ("grover --m 3000 --marked 0", "error: --m 3000 is too large: the grover register size 10^903.1 is more than"),
        ("grover --m 20 --marked 0",
         "error: --m 20 with 804 iterations is too large: the grover amplitude-update count 35429285888 is more than"),
        ("grover --m 16 --marked 0", "the grover amplitude-update count 448921600 is more than"),
        # Counts below one and unreadable budgets name their flag.
        ("mean --n -5 --eps 0.1", "error: --n must be at least 1, got -5"),
        ("mean --n 0 --eps 0.1", "error: --n must be at least 1, got 0"),
        ("fool --d 1 --n -4", "error: --n must be at least 1, got -4"),
        ("fool --d 1 --n 0", "error: --n must be at least 1, got 0"),
        ("rates --method det --d 1 --budgets 4, --trials 2", "error: --budgets '4,': '' is not a count or a power"),
        ("rates --method det --d 1 --budgets 2^a..2^4", "error: --budgets '2^a..2^4': '2^a' is not a count or a power"),
        ("rates --method det --d 1 --budgets 2^^4", "error: --budgets '2^^4': '2^^4' is not a count or a power"),
        ("rates --method det --d 1 --budgets 0^-1", "error: --budgets '0^-1': '0^-1' is not a count or a power"),
        # Powers past 2^63 - 1 are refused before they are computed.
        ("rates --method det --d 1 --budgets 2^63", "error: --budgets '2^63': '2^63' is more than 2^63 - 1"),
        ("rates --method det --d 1 --budgets 2^100000",
         "error: --budgets '2^100000': '2^100000' is more than 2^63 - 1"),
        ("rates --method det --d 1 --budgets 2^4..2^100000",
         "error: --budgets '2^4..2^100000': '2^100000' is more than 2^63 - 1"),
        ("rates --method det --d 1 --budgets 10^100000000",
         "error: --budgets '10^100000000': '10^100000000' is more than 2^63 - 1"),
    ],
)
def test_out_of_range_inputs_exit_two(capsys, command, message):
    assert main(command.split()) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_rates_with_only_zero_budget_rows_exits_two_without_lapack_noise(capfd, monkeypatch):
    # The degree-1 interpolant reproduces the product member at d = 1, so
    # every row takes the degenerate path and spends no queries.  Its rows
    # are charged the projection's evaluations, but every error is roundoff
    # (5.55e-17), so no row is fitted and the run exits 2, not with slope 0.
    command = "rates --method quantum --d 1 --k 1 --fn product --budgets 2^5..2^8 --trials 3 --seed 4"
    assert main(command.split()) == 2
    captured = capfd.readouterr()
    assert captured.err.count("has median error 5.55e-17, at roundoff; excluded from fit\n") == 4
    assert "DLASCL" not in captured.out + captured.err
    # A cost that reads zero on those rows, as the query count alone did,
    # leaves only zero-budget rows.
    query_only = dataclasses.replace(ratelab.METHODS["quantum"], cost=lambda led: led.quantum_queries)
    monkeypatch.setitem(ratelab.METHODS, "quantum", query_only)
    assert main(command.split()) == 2
    captured = capfd.readouterr()
    warned = [line.split()[3] for line in captured.err.splitlines() if "zero measured budget" in line]
    assert warned == ["32", "64", "128", "256"]
    assert "fewer than 2 rows left to fit" in captured.err
    assert "DLASCL" not in captured.out + captured.err
    assert "SVD" not in captured.err


CONST_HALF = "rates --method quantum --d 1 --budgets 16,32,64,128 --trials 1 --fn const-half"
# Each row's budget is its projection's evaluations; the interpolant is exact, so every error is zero.
CONST_HALF_STDERR = "".join(
    f"warning: budget row {requested} (measured {budget}) has zero median error; excluded from fit\n"
    for requested, budget in ((16, 5), (32, 10), (64, 20), (128, 40))
) + "error: fewer than 2 rows left to fit\n"


def test_each_warning_is_one_stderr_line(capsys):
    # A second call in the same process prints the same lines.
    for _ in range(2):
        assert main(CONST_HALF.split()) == 2
        assert capsys.readouterr() == ("", CONST_HALF_STDERR)


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_rates_prints_the_same_lines_under_any_warnings_filter(capsys, action):
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        assert main(CONST_HALF.split()) == 2
    assert capsys.readouterr() == ("", CONST_HALF_STDERR)


def test_grover_sizes_the_run_before_building_the_oracle(monkeypatch, capsys):
    # m = 15 at its 142 default iterations updates 1.5e8 amplitudes, under
    # the bound; m = 16 (4.5e8) is refused.
    def built(*args):
        raise ValueError("oracle built")

    monkeypatch.setattr(cli.grover, "BitOracle", built)
    assert main(["grover", "--m", "15", "--marked", "0"]) == 2
    assert capsys.readouterr().err == "error: oracle built\n"


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


@pytest.mark.parametrize("signs, values", [
    ("alternating", [1.0, -1.0, 1.0, -1.0, 1.0]),
    ("random", np.random.default_rng(2).choice([-1.0, 1.0], size=5)),
])
def test_fool_command_signs_match_library(capsys, signs, values):
    # The five signs sum to 1 and -3, so neither integral is all-plus's.
    assert main(["fool", "--d", "1", "--n", "5", "--signs", signs, "--seed", "2"]) == 0
    out = capsys.readouterr().out
    instance = fooling_family(make_spec(1, 0, 1), 5, np.asarray(values))
    assert f"exact integral:       {instance.exact_integral!r}\n" in out
    assert "membership: pass" in out


def test_fool_alternating_signs_take_no_python_list(capsys):
    # The run peaks near 16 bytes a bump; a Python list of the signs added about 24 more.
    tracemalloc.start()
    try:
        assert main(["fool", "--d", "1", "--n", "1048576", "--signs", "alternating"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "membership: pass" in capsys.readouterr().out
    assert peak < 24 * 1048576


def test_mean_command_estimates_a_constant_half_exactly(capsys):
    # Amplitude 1/2 sits on the estimator's grid, so every trial is exact.
    assert main("mean --n 8 --dist const --eps 0.05 --trials 20 --seed 3".split()) == 0
    out = capsys.readouterr().out
    assert "n=8 dist=const true mean=0.500000" in out
    assert "success rate over 20 trials: 1.0000" in out


def test_integrate_fool_equals_the_library_fooling_function_bitwise(capsys):
    assert main("integrate --method det --d 2 --eps1 0.05 --fn fool --fool-bumps 3".split()) == 0
    _header, row = capsys.readouterr().out.splitlines()
    f = fooling_family(make_spec(2, 0, 1), 9, np.ones(9)).as_function()
    expected = integrators.integrate_deterministic(f, 20)  # eps1^-2 = 400 cells
    assert row.split(",")[1] == repr(expected.estimate)
    assert row.split(",")[2] == str(expected.ledger.classical_evals)


@pytest.mark.parametrize("k, name", [(0, "multiscale"), (1, "quadratic")])
def test_integrate_picks_the_default_member_rates_picks(capsys, k, name):
    assert main(f"rates --method mcvr --d 2 --k {k} --budgets 2^4..2^7 --trials 2".split()) == 0
    assert f"fn={name} " in capsys.readouterr().out
    command = f"integrate --method mcvr --d 2 --k {k} --eps1 0.05 --trials 2"
    assert main(command.split()) == 0
    default = capsys.readouterr().out
    assert main(f"{command} --fn {name}".split()) == 0
    assert capsys.readouterr().out == default


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


def test_integrate_det_trials_build_no_stream(monkeypatch, capsys):
    def refused(*args):
        raise AssertionError("a det trial built a stream")

    monkeypatch.setattr(ratelab, "trial_rng", refused)
    assert main(["integrate", "--method", "det", "--d", "2", "--eps1", "0.1", "--trials", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_integrate_trials_draw_the_streams_rates_draws(tmp_path):
    # Trial t once drew default_rng(seed + t), so --seed 1 trial 1 and
    # --seed 2 trial 0 gave the same estimate.
    spec = make_spec(1, 0, 1.0)
    sample = ratelab.METHODS["mcvr"].by_eps(holder.suite_member(spec, "multiscale"), 0.05, "query")
    runs = {}
    for seed in (1, 2):
        out_file = tmp_path / f"seed{seed}.json"
        assert main(["integrate", "--method", "mcvr", "--d", "1", "--eps1", "0.05", "--trials", "2",
                     "--seed", str(seed), "--out", str(out_file), "--format", "json"]) == 0
        runs[seed] = [row["estimate"] for row in json.loads(out_file.read_text())]
        assert runs[seed] == [sample(lambda: ratelab.trial_rng(seed, 0, t)).estimate for t in (0, 1)]
    assert runs[1][1] != runs[2][0]


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
    # The KeyError's message, not its repr.
    assert capsys.readouterr().err == "error: no suite member named 'nope' for HolderClassSpec(d=1, k=0, alpha=1.0)\n"


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


@pytest.mark.parametrize("argv, work", [
    ("rates --method quantum --d 1 --budgets 2^5..2^8 --trials 2", (ratelab, "run_convergence")),
    ("integrate --method quantum --d 1 --eps1 0.01", (cli, "_integrate_rows")),
])
def test_unwritable_out_fails_before_any_work(monkeypatch, capsys, argv, work):
    def run(*args, **kwargs):
        raise AssertionError("the run started before the output path was checked")

    monkeypatch.setattr(*work, run)
    code = main(argv.split() + ["--out", "/nonexistent/dir/x.csv"])
    assert code == 1
    assert "cannot write report to /nonexistent/dir/x.csv" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [CONST_HALF, "integrate --method coin --d 1 --eps1 1e-5"])
def test_a_refused_run_leaves_no_report(tmp_path, capsys, argv):
    path = tmp_path / "new.csv"
    assert main([*argv.split(), "--out", str(path)]) == 2
    assert not path.exists()


def test_rates_out_check_leaves_an_existing_report_alone_when_the_run_fails(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("old\n")
    code = main(["rates", "--method", "det", "--d", "1", "--budgets", "2^4..2^5",
                 "--out", str(path)])
    assert code == 2  # too few rows to fit; the report is never written
    assert path.read_text() == "old\n"


def test_mean_refuses_a_register_above_the_limit_before_building_it(monkeypatch, capsys):
    # --eps 0.01 asks for M = 512.
    monkeypatch.setattr(amp_est, "MAX_POWER", 256)
    assert main(["mean", "--n", "4", "--eps", "0.01", "--trials", "3"]) == 2
    captured = capsys.readouterr()
    assert "M = 512 exceeds" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv, names", [
    ("rates --method quantum --d 1 --budgets 2^5..2^8 --trials 2", ("quantum budget 128", "coupled grid node count 3609 ")),
    ("integrate --method quantum --d 1 --eps1 0.025", ("--eps1 0.025", "coupled grid node count 3632 ")),
])
def test_quantum_runs_refuse_a_coupled_grid_above_the_stream_limit(monkeypatch, capsys, argv, names):
    # Budgets 32 and 64 stream at most 754 nodes; the next row asks for more.
    monkeypatch.setattr(integrators, "MAX_STREAM", 1000)
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names)


@pytest.mark.parametrize("argv, names", [
    # Budgets 16 and 32 run 16 and 32 cells; 64 cells are refused.
    ("rates --method det --d 1 --budgets 2^4..2^6 --trials 2", ("det budget 64", "det cell count 64 ")),
    # eps1 0.05 at gamma 1/2 asks for 20 cells per axis.
    ("integrate --method det --d 2 --eps1 0.05", ("--eps1 0.05", "det cell count 400 ")),
    ("rates --method mc --d 1 --budgets 2^4..2^6 --trials 2", ("mc budget 64", "mc sample count 64 ")),
    ("integrate --method mc --d 2 --eps1 0.05", ("--eps1 0.05", "mc sample count 400 ")),
    # mcvr spends half its budget on samples.
    ("rates --method mcvr --d 1 --budgets 2^5..2^7 --trials 2", ("mcvr budget 128", "mcvr sample count 64 ")),
    ("integrate --method mcvr --d 1 --eps1 0.001", ("--eps1 0.001", "mcvr sample count 100 ")),
    # Coin budget 16 draws 16 times for 32 interpolation nodes; budget 32
    # needs 80 nodes and budget 64 draws 64 times.
    ("rates --method coin --d 1 --budgets 16,32 --trials 2", ("coin budget 32", "coin interpolation target 80 ")),
    ("rates --method coin --d 1 --budgets 16,64 --trials 2", ("coin budget 64", "coin draw count 64 ")),
    ("integrate --method coin --d 1 --eps1 0.2", ("--eps1 0.2", "coin interpolation target 59 ")),
    ("integrate --method coin --d 1 --eps1 0.1", ("--eps1 0.1", "coin draw count 100 ")),
])
def test_classical_runs_refuse_counts_above_the_stream_limit(monkeypatch, capsys, argv, names):
    # Refused where the sampler is built: a det trial that raised would
    # escape rates' size check as a traceback.
    monkeypatch.setattr(integrators, "MAX_STREAM", 50)
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert all(name in captured.err for name in names), captured.err
    assert "more than the 50 a run evaluates" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [
    "integrate --method quantum --d 1 --eps1 0.1 --alpha 0.001",
    "integrate --method coin --d 1 --eps1 0.1 --alpha 0.001",
    "rates --method quantum --d 1 --alpha 0.001 --budgets 2^5..2^8 --trials 2",
    "integrate --method quantum --d 1 --eps1 0.45 --alpha 0.002",
])
def test_a_coupled_grid_that_overflows_names_the_class_not_eps1(capsys, argv):
    # N > 2^(1/beta) for every eps1 below 1/2: at beta = 0.001 that
    # overflows a float, at beta = 0.002 it is past the largest array.
    assert main(argv.split()) == 2
    err = capsys.readouterr().err
    assert "the coupled grid size (n^gamma/eps1)^(1/beta) = 10^" in err
    if "0.002" in argv:
        assert "10^173.9 exceeds the largest array: the class's beta = 0.002 is too small" in err
    else:
        assert "overflows a float: the class's beta = 0.001 is too small" in err
    assert "--eps1" not in err and "budget" not in err


def test_integrate_det_runs_its_rule_once_for_all_trials(monkeypatch, capsys):
    cells = []
    original = integrators.midpoint_rule

    def counting(f, ell, ledger=None):
        cells.append(ell)
        return original(f, ell, ledger)

    monkeypatch.setattr(integrators, "midpoint_rule", counting)
    assert main("integrate --method det --d 1 --eps1 0.05 --trials 3".split()) == 0
    assert cells == [20]
    _header, *rows = capsys.readouterr().out.splitlines()
    assert [row.split(",", 1)[0] for row in rows] == ["0", "1", "2"]
    assert len({row.split(",", 1)[1] for row in rows}) == 1


def test_coin_names_the_draw_count_that_overflows(capsys):
    # eps1**2 underflows to zero inside the plan; the count is named first.
    assert main("integrate --method coin --d 1 --eps1 1e-300".split()) == 2
    err = capsys.readouterr().err
    assert "the coin draw count eps1^-2 = 10^600.0 overflows a float" in err
    assert "division by zero" not in err


@pytest.mark.parametrize("method", ["det", "mc", "mcvr", "coin", "quantum", "rand-quantum"])
def test_every_integrate_report_has_one_column_order(capsys, method):
    assert main(f"integrate --method {method} --d 1 --eps1 0.2 --trials 2".split()) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "trial,estimate,classical_evals,quantum_queries,random_bits,gates,error"
    assert len(rows) == 2 and all(len(row.split(",")) == 7 for row in rows)


def test_mean_exact_refuses_register_work_above_the_stream_limit(monkeypatch, capsys):
    # n_padded * M = 64 * 128: the simulated law's cost, checked before it runs.
    monkeypatch.setattr(integrators, "MAX_STREAM", 8000)
    assert main("mean --n 64 --eps 0.05 --mode exact --trials 3".split()) == 2
    captured = capsys.readouterr()
    assert "--n 64 at --eps 0.05 is too large" in captured.err
    assert "n_padded * M 8192 is more than the 8000" in captured.err and captured.out == ""
    # The closed form does not simulate the register.
    assert main("mean --n 64 --eps 0.05 --mode analytic --trials 3".split()) == 0
