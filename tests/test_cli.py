import csv
import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from nofob import cli
from nofob.algorithms import run_algorithm
from nofob.cli import (
    CSV_HEADER,
    EXIT_CANTCREAT,
    EXIT_ERROR,
    EXIT_MAX_ITER,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from nofob.linalg import ContractViolation
from nofob.problems import get_instance


def run_cli(args):
    return main(args)


# ---------------------------------------------------------------------------
# solve


def test_solve_rotation_fbf_converges(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = run_cli([
        "solve", "--problem", "rotation", "--algorithm", "fbf",
        "--gamma", "0.7", "--tol", "1e-8", "--csv", str(out),
    ])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) - 1 <= 500


def test_solve_plain_fb_on_rotation_ends_violated_at_the_first_rise(tmp_path, capsys):
    # the forward step grows the residual by sqrt(1 + gamma^2), which a
    # nonexpansive map cannot do: the run stops at record 1 and fails
    out = tmp_path / "run.csv"
    code = run_cli([
        "solve", "--problem", "rotation", "--algorithm", "fbs",
        "--gamma", "0.7", "--csv", str(out),
    ])
    assert code == EXIT_ERROR
    assert "violated after 2 iterations" in capsys.readouterr().out
    rows = list(csv.DictReader(out.read_text().splitlines()))
    r0, r1 = (float(r["residual_S"]) for r in rows)
    assert r1 / r0 == pytest.approx(np.sqrt(1.49), rel=1e-12)


def test_solve_from_oracle_writes_one_row(tmp_path):
    inst = get_instance("regquad-full")
    out = run_algorithm("four-op", dataclasses.replace(inst, x0=inst.oracle))
    assert out.trajectory.status == "converged"
    assert len(out.trajectory.records) == 1


def test_solve_unknown_problem_is_usage_error():
    assert run_cli(["solve", "--problem", "nope", "--algorithm", "fbf"]) == EXIT_USAGE


def test_solve_unknown_algorithm_is_usage_error():
    assert run_cli(
        ["solve", "--problem", "rotation", "--algorithm", "nope"]
    ) == EXIT_USAGE


def test_solve_rejects_flags_it_does_not_read(tmp_path):
    base = ["solve", "--problem", "rotation", "--algorithm", "fbf"]
    assert run_cli(base + ["--eps", "0.1"]) == EXIT_USAGE
    assert run_cli(base + ["--report", str(tmp_path / "x.json")]) == EXIT_USAGE
    assert not (tmp_path / "x.json").exists()


def test_solve_unwritable_csv_path(tmp_path):
    code = run_cli([
        "solve", "--problem", "rotation", "--algorithm", "fbf",
        "--csv", str(tmp_path / "no" / "such" / "dir" / "x.csv"),
    ])
    assert code == EXIT_CANTCREAT


def test_csv_full_precision_round_trip(tmp_path):
    out = tmp_path / "run.csv"
    run_cli([
        "solve", "--problem", "regquad-full", "--algorithm", "four-op",
        "--csv", str(out),
    ])
    inst = get_instance("regquad-full")
    ref = run_algorithm("four-op", inst)
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == len(ref.trajectory.records)
    for row, rec in zip(rows, ref.trajectory.records):
        assert float(row["residual_S"]) == rec.residual_s
        assert float(row["mu"]) == rec.mu


def test_csv_byte_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["solve", "--problem", "saddle", "--algorithm", "ps-explicit"]
    run_cli(args + ["--csv", str(a)])
    run_cli(args + ["--csv", str(b)])
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# check


def test_check_passes_on_matched_pair(capsys):
    code = run_cli(["check", "--problem", "regquad-full", "--algorithm", "four-op"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "fejer" in out and "pass" in out


def test_check_names_why_it_skips_the_separation_audits(capsys, tmp_path):
    # plain forward-backward converges on regquad-fbhf, but with D nonzero
    # its step has no separation to audit; the report says so too
    report = tmp_path / "report.json"
    code = run_cli(["check", "--problem", "regquad-fbhf", "--algorithm", "fbs-relaxed",
                    "--report", str(report)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    reason = "D or K is nonzero, so the step has no separation to audit"
    assert out.splitlines()[0] == (
        f"separation/mu-bounds skipped: fbs-relaxed on regquad-fbhf: {reason}")
    assert [line.split()[0] for line in out.splitlines()[1:]] == ["fejer", "rate-fit"]
    payload = json.loads(report.read_text())
    assert payload["skipped"] == reason
    assert [c["name"] for c in payload["checks"]] == ["fejer"]


def test_check_corrupt_negative_control(capsys):
    code = run_cli([
        "check", "--problem", "regquad-full", "--algorithm", "four-op",
        "--corrupt",
    ])
    assert code == EXIT_ERROR
    assert "FAIL" in capsys.readouterr().out


def test_check_ps_equivalence_line(capsys, tmp_path):
    report = tmp_path / "report.json"
    code = run_cli([
        "check", "--problem", "saddle", "--algorithm", "ps-explicit",
        "--report", str(report),
    ])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "equivalence" in out
    payload = json.loads(report.read_text())
    assert payload["skipped"] is None  # all three audits ran
    eq = [c for c in payload["checks"] if "equivalence" in c["name"]]
    assert eq and eq[0]["passed"]
    assert eq[0]["max_violation"] <= 1e-10


def test_check_takes_no_csv(tmp_path):
    code = run_cli(["check", "--problem", "rotation", "--algorithm", "fbf",
                    "--csv", str(tmp_path / "x.csv")])
    assert code == EXIT_USAGE
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("algorithm, tau", [
    ("afba", "1,0.1,5"), ("afba-fixed", "1,0.1,5"), ("four-op", "1,0.1,99"),
    ("ps-resolvent", "1,0.1,5"),
])
def test_saddle_tau_list_of_the_wrong_length_is_an_error(algorithm, tau, capsys):
    code = run_cli(["solve", "--problem", "saddle", "--algorithm", algorithm,
                    "--tau", tau])
    assert code == EXIT_ERROR
    assert "needs 2 step sizes" in capsys.readouterr().err


def test_tau_that_is_not_a_number_is_a_usage_error(capsys):
    code = run_cli(["solve", "--problem", "saddle", "--algorithm", "afba",
                    "--tau", "x"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert ("argument --tau: must be a number or a comma-separated list of numbers" in err
            and "Traceback" not in err)


@pytest.mark.parametrize("command", ["solve", "check"])
def test_gamma_that_is_not_a_number_is_a_usage_error(command, capsys):
    code = run_cli([command, "--problem", "rotation", "--algorithm", "fbf",
                    "--gamma", "0.5,0.7"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "argument --gamma: must be a number" in err and "Traceback" not in err


@pytest.mark.parametrize("problem, algorithm", [
    ("rotation", "fbf"), ("nonlinear-kernel", "four-op"),
])
def test_tau_on_a_row_without_step_sizes_is_an_error(problem, algorithm, capsys):
    code = run_cli(["solve", "--problem", problem, "--algorithm", algorithm,
                    "--tau", "1"])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {algorithm} takes no tau on {problem}\n"


@pytest.mark.parametrize("problem, algorithm, gamma", [
    ("saddle", "afba", "5"), ("saddle", "ps-resolvent", "0.001"),
    ("nonlinear-kernel", "four-op", "99"),
])
def test_gamma_on_a_row_without_a_scalar_step_is_an_error(problem, algorithm, gamma,
                                                          capsys):
    code = run_cli(["solve", "--problem", problem, "--algorithm", algorithm,
                    "--gamma", gamma])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {algorithm} takes no gamma on {problem}\n"


@pytest.mark.parametrize("problem, algorithm, flags, message", [
    ("saddle", "afba", ["--tau", "inf,0.1"], "afba step sizes must be positive and finite"),
    ("saddle", "afba-fixed", ["--tau", "1e308,1"], "metric is not positive definite"),
    ("saddle", "ps-resolvent", ["--tau", "inf"],
     "ps-resolvent step sizes must be positive and finite"),
    ("rotation", "fbs", ["--gamma", "inf"], "gamma must be positive and finite"),
    ("rotation", "fbf", ["--gamma", "inf"], "gamma must be positive and finite"),
    ("regquad-full", "fbhf-long", ["--gamma", "inf"], "gamma must be positive and finite"),
    ("regquad-full", "four-op", ["--gamma", "nan"], "gamma must be positive and finite"),
])
def test_a_non_finite_or_overflowing_step_size_is_a_one_line_error(
        problem, algorithm, flags, message, capsys):
    # no warning on the way either: the step size is refused before it is used
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(["solve", "--problem", problem, "--algorithm", algorithm, *flags])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"


def test_an_overflowing_normal_in_a_dense_metric_ends_the_run_error(capsys):
    # P has entries near 1e308 and is well conditioned, so it is built; the
    # first normal overflows, and the dense solve passes the inf on to the
    # loop's finiteness test instead of raising
    code = run_cli(["solve", "--problem", "saddle", "--algorithm", "afba-fixed",
                    "--tau", "1e308,1e-308"])
    out, err = capsys.readouterr()
    assert code == EXIT_ERROR
    assert "error after 1 iterations, residual nan" in out
    assert err == ""


def test_a_check_on_an_overflowing_run_reports_every_audit(capsys):
    # the run above, checked: L_M ** 2 overflows, which raised
    # OverflowError out of the mu-bounds audit before; every audit fails
    # on the NaN record 0
    code = run_cli(["check", "--problem", "saddle", "--algorithm", "afba-fixed",
                    "--tau", "1e308,1e-308"])
    out, err = capsys.readouterr()
    assert code == EXIT_ERROR
    fails = [line.split()[0] for line in out.splitlines() if " FAIL " in line]
    assert fails == ["fejer", "separation", "mu-bounds"]
    assert err == ""


@pytest.mark.parametrize("theta", ["5", "2", "0", "-0.5", "nan"])
def test_theta_outside_the_open_interval_is_a_usage_error(theta, capsys):
    code = run_cli(["solve", "--problem", "rotation", "--algorithm", "fbf-long",
                    "--theta", theta])
    assert code == EXIT_USAGE
    assert "argument --theta: must lie in (0, 2)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "check", "bench"])
@pytest.mark.parametrize("flag, value, reason", [
    ("--tol", "inf", "must be finite and nonnegative"),
    ("--tol", "nan", "must be finite and nonnegative"),
    ("--tol", "-1", "must be finite and nonnegative"),
    ("--max-iter", "-1", "must be a nonnegative integer"),
    ("--max-iter", "1.5", "must be a nonnegative integer"),
])
def test_bad_tol_or_max_iter_is_a_usage_error(command, flag, value, reason, capsys):
    code = run_cli([command, "--problem", "rotation", "--algorithm", "fbf", flag, value])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: {reason}\n")


def test_zero_tol_is_valid():
    assert run_cli(["solve", "--problem", "rotation", "--algorithm", "fbf",
                    "--tol", "0", "--max-iter", "3"]) == EXIT_MAX_ITER


@pytest.mark.parametrize("problem, algorithm", [
    ("regquad-fbs", "fbs"), ("saddle", "afba-fixed"),
])
def test_theta_on_a_row_with_a_fixed_relaxation_is_an_error(problem, algorithm, capsys):
    code = run_cli(["solve", "--problem", problem, "--algorithm", algorithm,
                    "--theta", "0.5"])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {algorithm} takes no theta on {problem}\n"


@pytest.mark.parametrize("problem, algorithm, flags, message", [
    ("rotation", "afba-fixed", ["--theta", "0.5"], "needs a stacked saddle problem"),
    ("regquad-fbhf", "fbf", ["--tau", "1"], "requires a problem with E = 0"),
    ("regquad-fbhf", "fbf", ["--theta", "0.5"], "requires a problem with E = 0"),
])
def test_a_row_that_cannot_run_says_so_before_it_reads_a_flag(problem, algorithm, flags,
                                                              message, capsys):
    code = run_cli(["solve", "--problem", problem, "--algorithm", algorithm, *flags])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {algorithm} {message}\n"


def test_a_given_theta_is_used_unclamped(capsys):
    # 1.99 lies beyond LONG_THETA_CAP, the cap on the long rows' default
    code = run_cli(["solve", "--problem", "rotation", "--algorithm", "fbf-long",
                    "--theta", "1.99", "--max-iter", "3"])
    assert code == EXIT_MAX_ITER
    out = run_algorithm("fbf-long", get_instance("rotation"), theta=1.99, max_iter=3)
    assert {rec.theta for rec in out.trajectory.records} == {1.99}


def test_check_report_json_shape(tmp_path):
    report = tmp_path / "report.json"
    code = run_cli([
        "check", "--problem", "rotation", "--algorithm", "fbf-long",
        "--report", str(report),
    ])
    assert code == EXIT_OK
    payload = json.loads(report.read_text())
    names = {c["name"] for c in payload["checks"]}
    assert {"fejer", "separation", "mu-bounds"} <= names
    assert all(c["passed"] for c in payload["checks"])


# ---------------------------------------------------------------------------
# bench


def test_bench_long_step_dominates_conservative(tmp_path, capsys):
    prefix = tmp_path / "sweep"
    code = run_cli([
        "bench", "--problem", "rotation", "--algorithm", "fbf,fbf-long",
        "--gamma", "0.5,0.7", "--csv", str(prefix),
    ])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    iters = {}
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] in ("fbf", "fbf-long"):
            iters[(parts[0], parts[1])] = int(parts[3])
    for g in ("0.5", "0.7"):
        assert iters[("fbf-long", g)] <= iters[("fbf", g)]
    assert len(list(tmp_path.glob("sweep.*.csv"))) == 4


def test_bench_gamma_that_is_not_a_number_list_is_a_usage_error(capsys):
    code = run_cli(["bench", "--problem", "rotation", "--algorithm", "fbf",
                    "--gamma", "0.5,x"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert ("argument --gamma: must be a number or a comma-separated list of numbers" in err
            and "Traceback" not in err)


@pytest.mark.parametrize("algorithms", ["fbf,fbhf", "fbhf,fbf"])
def test_bench_an_errored_run_outranks_an_exhausted_budget(algorithms, capsys):
    # fbf raises on regquad-full (E != 0) and fbhf runs out of budget there;
    # the sweep exits with the error code, whichever row comes first
    code = run_cli(["bench", "--problem", "regquad-full", "--algorithm", algorithms,
                    "--max-iter", "5"])
    out = capsys.readouterr().out
    assert code == EXIT_ERROR
    assert "requires a problem with E = 0" in out and "max_iter" in out


def test_bench_unknown_algorithm_is_a_usage_error(capsys):
    code = run_cli(["bench", "--problem", "rotation", "--algorithm", "fbf,nope",
                    "--gamma", "0.7"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("argument --algorithm: must be a comma-separated list of algorithms from fbf,"
            in captured.err and "Traceback" not in captured.err)


def test_bench_an_errored_row_prints_its_gamma_to_four_digits(capsys):
    code = run_cli(["bench", "--problem", "regquad-full", "--algorithm", "fbf",
                    "--gamma", "0.700011"])
    assert code == EXIT_ERROR
    row = capsys.readouterr().out.splitlines()[1]
    assert row.split()[:3] == ["fbf", "0.7", "error"]


def test_bench_csv_names_each_gamma_in_full_precision(tmp_path, capsys):
    # the printed table rounds both to 0.7; the files must not share a name
    code = run_cli(["bench", "--problem", "rotation", "--algorithm", "fbf",
                    "--gamma", "0.70001,0.70002", "--max-iter", "5",
                    "--csv", str(tmp_path / "sweep")])
    assert code == EXIT_MAX_ITER
    assert sorted(p.name for p in tmp_path.glob("sweep.*.csv")) == [
        "sweep.fbf.0.70001000000000002.csv", "sweep.fbf.0.70001999999999998.csv"]


def test_bench_four_op_on_a_scalar_kernel_writes_one_csv_per_gamma(tmp_path, capsys):
    # four-op reports the scalar step size it ran at, so each run of the
    # sweep prints its gamma and gets its own file
    code = run_cli(["bench", "--problem", "regquad-full", "--algorithm", "four-op",
                    "--gamma", "0.3,0.5", "--csv", str(tmp_path / "sw")])
    assert code == EXIT_OK
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[:3] for row in rows] == [["four-op", "0.3", "converged"],
                                         ["four-op", "0.5", "converged"]]
    assert sorted(p.name for p in tmp_path.glob("sw.*.csv")) == [
        "sw.four-op.0.29999999999999999.csv", "sw.four-op.0.5.csv"]


def test_bench_empty_grid_is_usage_error():
    assert run_cli(
        ["bench", "--problem", "rotation", "--algorithm", "", "--gamma", "0.5"]
    ) == EXIT_USAGE


def test_unexpected_failure_prints_its_traceback(monkeypatch, capsys):
    def boom(_args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_list", boom)
    assert run_cli(["list"]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_contract_violation_stays_a_one_line_error(monkeypatch, capsys):
    def refuse(_args):
        raise ContractViolation("refused")

    monkeypatch.setattr(cli, "cmd_list", refuse)
    assert run_cli(["list"]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: refused\n"


# ---------------------------------------------------------------------------
# list


def test_list_dumps_registry(capsys):
    assert run_cli(["list"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("rotation", "saddle", "nonlinear-kernel", "ps-explicit", "fbf"):
        assert name in out
