import csv
import json
import os

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


def test_solve_divergent_plain_fb_hits_max_iter(tmp_path):
    out = tmp_path / "run.csv"
    code = run_cli([
        "solve", "--problem", "rotation", "--algorithm", "fbs",
        "--gamma", "0.7", "--max-iter", "200", "--csv", str(out),
    ])
    assert code == EXIT_MAX_ITER
    rows = list(csv.DictReader(out.read_text().splitlines()))
    res = [float(r["residual_S"]) for r in rows]
    assert res[-1] > res[0]
    # growth factor of the forward step is sqrt(1 + gamma^2)
    tail = np.array(res[-50:])
    factors = tail[1:] / tail[:-1]
    assert np.allclose(factors, np.sqrt(1 + 0.49), rtol=0.01)


def test_solve_from_oracle_writes_one_row(tmp_path):
    inst = get_instance("regquad-full")
    out = run_algorithm("four-op", inst, x0=inst.oracle)
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


def test_seed_env_var_overrides_flag(tmp_path, monkeypatch):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["solve", "--problem", "regquad-fbs", "--algorithm", "fbs"]
    monkeypatch.setenv("NOFOB_SEED", "7")
    run_cli(base + ["--seed", "123", "--csv", str(a)])
    monkeypatch.delenv("NOFOB_SEED")
    run_cli(base + ["--seed", "7", "--csv", str(b)])
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# check


def test_check_passes_on_matched_pair(capsys):
    code = run_cli(["check", "--problem", "regquad-full", "--algorithm", "four-op"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "fejer" in out and "pass" in out


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
    eq = [c for c in payload["checks"] if "equivalence" in c["name"]]
    assert eq and eq[0]["passed"]
    assert eq[0]["max_violation"] <= 1e-10


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
