"""Command-line driver: solve, check, bench, list.

Exit codes: 0 converged (or all checks passed), 2 iteration budget
exhausted, 1 runtime or check failure, 64 usage error, 73 output path
not writable.  NOFOB_SEED overrides --seed when set.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import traceback
from typing import List, Optional

import numpy as np

from .algorithms import ALGORITHMS, RunOutput, run_algorithm
from .core import Trajectory
from .diagnostics import (CheckReport, check_fejer, check_mu_bounds,
                          check_separation, fit_rate)
from .linalg import ContractViolation, weighted_norm
from .problems import DEFAULT_SEED, REGISTRY, get_instance

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAX_ITER = 2
EXIT_USAGE = 64
EXIT_CANTCREAT = 73

CSV_HEADER = "iter,residual_S,dist_to_oracle_S,mu,theta,psi_at_x"


def _fmt(v: float) -> str:
    return "%.17g" % v


def _csv_rows(out: RunOutput) -> List[str]:
    rows = [CSV_HEADER]
    for rec in out.trajectory.records:
        dist = weighted_norm(out.s_metric, rec.x - out.z_star)
        rows.append(",".join([
            str(rec.k), _fmt(rec.residual_s), _fmt(dist), _fmt(rec.mu),
            _fmt(rec.theta), _fmt(rec.psi_at_x),
        ]))
    return rows


def _write_text(path: str, text: str) -> Optional[int]:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError:
        print(f"cannot write {path}", file=sys.stderr)
        return EXIT_CANTCREAT
    return None


def _status_code(traj: Trajectory) -> int:
    return {"converged": EXIT_OK, "max_iter": EXIT_MAX_ITER}.get(
        traj.status, EXIT_ERROR
    )


def _parse_tau(text: Optional[str]):
    if text is None:
        return None
    return [float(t) for t in text.split(",") if t.strip()]


def _run_from_args(args, algorithm: str, gamma: Optional[float]) -> RunOutput:
    inst = get_instance(args.problem, args.seed)
    return run_algorithm(
        algorithm, inst, gamma=gamma, tau=_parse_tau(args.tau),
        theta=args.theta, tol=args.tol, max_iter=args.max_iter,
    )


def cmd_solve(args) -> int:
    out = _run_from_args(args, args.algorithm, args.gamma)
    if args.csv:
        code = _write_text(args.csv, "\n".join(_csv_rows(out)) + "\n")
        if code is not None:
            return code
    last = out.trajectory.records[-1]
    print(f"{args.problem} x {args.algorithm}: {out.trajectory.status} "
          f"after {out.trajectory.iterations} iterations, "
          f"residual {last.residual_s:.3e}")
    return _status_code(out.trajectory)


def _corrupt(traj: Trajectory) -> Trajectory:
    """Perturb one trajectory point on both records that carry it."""
    idx = min(5, len(traj.records) - 1)
    records = list(traj.records)
    records[idx] = dataclasses.replace(records[idx], x=records[idx].x + 1.0)
    if idx > 0:
        records[idx - 1] = dataclasses.replace(
            records[idx - 1], x_next=records[idx - 1].x_next + 1.0
        )
    return Trajectory(records, traj.final_x, traj.status)


def cmd_check(args) -> int:
    out = _run_from_args(args, args.algorithm, args.gamma)
    traj = _corrupt(out.trajectory) if args.corrupt else out.trajectory
    reports = [check_fejer(traj, out.z_star, out.s_metric)]
    if out.nofob_view is not None:
        view = out.nofob_view
        reports.append(check_separation(traj, view, out.z_star))
        reports.append(check_mu_bounds(
            traj, view.beta, view.p_metric, out.s_metric, view.kernel_lipschitz
        ))
    else:
        print("separation/mu-bounds skipped: no kernel view for this runner")
    lines = [r.line() for r in reports]
    residuals = [rec.residual_s for rec in traj.records]
    try:
        slope, r2 = fit_rate(residuals)
        lines.append(f"{'rate-fit':<16} info  slope {slope:+.4f} (r2 {r2:.3f})")
    except ContractViolation:
        lines.append(f"{'rate-fit':<16} info  insufficient data")
    if args.algorithm in ("ps-explicit", "ps-resolvent"):
        other = ("ps-resolvent" if args.algorithm == "ps-explicit"
                 else "ps-explicit")
        twin = _run_from_args(args, other, args.gamma)
        n = min(len(traj.records), len(twin.trajectory.records))
        dev = max(
            float(np.max(np.abs(a.x_next - b.x_next)))
            for a, b in zip(traj.records[:n], twin.trajectory.records[:n])
        )
        equiv = CheckReport("ps-equivalence", dev, None, dev <= 1e-10, 1e-10)
        reports.append(equiv)
        lines.append(equiv.line())
    print("\n".join(lines))
    if args.report:
        payload = {
            "problem": args.problem, "algorithm": args.algorithm,
            "status": traj.status,
            "checks": [dataclasses.asdict(r) for r in reports],
        }
        code = _write_text(args.report, json.dumps(payload, indent=2) + "\n")
        if code is not None:
            return code
    ok = all(r.passed for r in reports)
    if not ok:
        return EXIT_ERROR
    return _status_code(out.trajectory)


def cmd_bench(args) -> int:
    algorithms = [a for a in (args.algorithm or "").split(",") if a.strip()]
    gammas = ([float(g) for g in args.gamma.split(",") if g.strip()]
              if isinstance(args.gamma, str) else
              ([args.gamma] if args.gamma is not None else [None]))
    if not algorithms or not gammas:
        print("bench needs at least one algorithm and one gamma", file=sys.stderr)
        return EXIT_USAGE
    worst = EXIT_OK
    print(f"{'algorithm':<14}{'gamma':>10}{'status':>12}{'iters':>8}{'rate':>10}")
    for algo in algorithms:
        for g in gammas:
            try:
                out = _run_from_args(args, algo, g)
            except (ContractViolation, KeyError) as exc:
                print(f"{algo:<14}{g if g is not None else '-':>10}"
                      f"{'error':>12}{'-':>8}{'-':>10}  {exc}")
                worst = max(worst, EXIT_ERROR)
                continue
            traj = out.trajectory
            try:
                slope, _ = fit_rate([r.residual_s for r in traj.records])
                rate = f"{slope:+.3f}"
            except ContractViolation:
                rate = "-"
            gtxt = f"{out.gamma:.4g}" if out.gamma is not None else "-"
            print(f"{algo:<14}{gtxt:>10}{traj.status:>12}"
                  f"{traj.iterations:>8}{rate:>10}")
            if args.csv:
                path = f"{args.csv}.{algo}.{gtxt}.csv"
                code = _write_text(path, "\n".join(_csv_rows(out)) + "\n")
                if code is not None:
                    return code
            worst = max(worst, _status_code(traj))
    return worst


def cmd_list(_args) -> int:
    print("problems:")
    for name in REGISTRY:
        print(f"  {name}")
    print("algorithms:")
    for name in ALGORITHMS:
        print(f"  {name}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nofob",
        description="Corrected forward-backward solvers for monotone inclusions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_algo=True):
        p.add_argument("--problem", required=True, choices=sorted(REGISTRY))
        if need_algo:
            p.add_argument("--algorithm", required=True)
        p.add_argument("--gamma", default=None)
        p.add_argument("--tau", default=None)
        p.add_argument("--theta", type=float, default=None)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--max-iter", type=int, default=1000)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--csv", default=None)

    p_solve = sub.add_parser("solve", help="run one algorithm on one problem")
    add_common(p_solve)
    p_solve.set_defaults(fn=cmd_solve, gamma_is_scalar=True)

    p_check = sub.add_parser("check", help="run and audit the trajectory")
    add_common(p_check)
    p_check.add_argument("--corrupt", action="store_true",
                         help="perturb one iterate first (negative control)")
    p_check.add_argument("--report", default=None,
                         help="write the check results as JSON to this path")
    p_check.set_defaults(fn=cmd_check, gamma_is_scalar=True)

    p_bench = sub.add_parser("bench", help="sweep algorithms and step sizes")
    add_common(p_bench)
    p_bench.set_defaults(fn=cmd_bench, gamma_is_scalar=False)

    p_list = sub.add_parser("list", help="show registered names")
    p_list.set_defaults(fn=cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    env_seed = os.environ.get("NOFOB_SEED")
    if env_seed is not None and hasattr(args, "seed"):
        try:
            args.seed = int(env_seed)
        except ValueError:
            print("NOFOB_SEED must be an integer", file=sys.stderr)
            return EXIT_USAGE
    if getattr(args, "gamma_is_scalar", False) and args.gamma is not None:
        try:
            args.gamma = float(args.gamma)
        except ValueError:
            print("--gamma must be a number", file=sys.stderr)
            return EXIT_USAGE
    if getattr(args, "algorithm", None) is not None \
            and args.command != "bench" and args.algorithm not in ALGORITHMS:
        print(f"unknown algorithm {args.algorithm!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except (ContractViolation, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception:  # surfaced as runtime failure, with where it came from
        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
