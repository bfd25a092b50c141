"""Command-line driver: solve, check, bench, list.

Exit codes: 0 converged (or all checks passed), 2 iteration budget
exhausted, 3 stalled (a null step above tol), 1 runtime or check failure
or a run that ended `error` or `violated`, 64 usage error, 73 output
path not writable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import traceback
from typing import List, Optional

import numpy as np

from .algorithms import ALGORITHMS, ROWS, RunOutput, run_algorithm
from .core import Trajectory
from .diagnostics import (CheckReport, check_fejer, check_mu_bounds,
                          check_separation, fit_rate)
from .linalg import PS_EQUIVALENCE_TOL, STOP_TOL, ContractViolation, weighted_row_norms
from .problems import DEFAULT_SEED, REGISTRY, get_instance

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAX_ITER = 2
EXIT_STALLED = 3
EXIT_USAGE = 64
EXIT_CANTCREAT = 73

CSV_HEADER = "iter,residual_S,dist_to_oracle_S,mu,theta,psi_at_x"


def _fmt(v: float) -> str:
    return "%.17g" % v


def _csv_rows(out: RunOutput) -> List[str]:
    traj = out.trajectory
    dists = weighted_row_norms(out.s_metric, traj.x[:-1] - out.z_star)
    columns = (traj.residual_s, dists, traj.mu, traj.theta, traj.psi_at_x)
    rows = [CSV_HEADER]
    for k, row in enumerate(zip(*(c.tolist() for c in columns))):
        rows.append(",".join([str(k), *map(_fmt, row)]))
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
    return {"converged": EXIT_OK, "max_iter": EXIT_MAX_ITER,
            "stalled": EXIT_STALLED}.get(traj.status, EXIT_ERROR)


def _numbers(text: str) -> List[float]:
    """A comma-separated list of numbers; ValueError on any other entry."""
    return [float(t) for t in text.split(",") if t.strip()]


def _checked(convert, reason: str, ok=lambda v: True):
    """An argparse type: `convert` the text and accept it if `ok`; either
    failing is the usage error `argument --flag: reason`."""

    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(reason)

    return parse


_NUMBER = _checked(float, "must be a number")
_NUMBER_LIST = _checked(_numbers, "must be a number or a comma-separated list of numbers")
_THETA = _checked(float, "must lie in (0, 2)", lambda v: 0.0 < v < 2.0)
_TOLERANCE = _checked(float, "must be finite and nonnegative", lambda v: 0.0 <= v < math.inf)
_MAX_ITER = _checked(int, "must be a nonnegative integer", lambda v: v >= 0)
_ALGORITHM_LIST = _checked(
    lambda text: [a for a in text.split(",") if a.strip()],
    f"must be a comma-separated list of algorithms from {', '.join(ALGORITHMS)}",
    lambda names: all(a in ALGORITHMS for a in names),
)
# least to most severe: one errored run outranks any number out of budget
_SEVERITY = (EXIT_OK, EXIT_STALLED, EXIT_MAX_ITER, EXIT_ERROR)


def _run_from_args(args, algorithm: str, gamma: Optional[float]) -> RunOutput:
    inst = get_instance(args.problem, args.seed)
    return run_algorithm(
        algorithm, inst, gamma=gamma, tau=args.tau,
        theta=args.theta, tol=args.tol, max_iter=args.max_iter,
    )


def cmd_solve(args) -> int:
    out = _run_from_args(args, args.algorithm, args.gamma)
    if args.csv:
        code = _write_text(args.csv, "\n".join(_csv_rows(out)) + "\n")
        if code is not None:
            return code
    traj = out.trajectory
    print(f"{args.problem} x {args.algorithm}: {traj.status} "
          f"after {traj.iterations} iterations, "
          f"residual {traj.residual_s[-1]:.3e}")
    return _status_code(out.trajectory)


def _corrupt(traj: Trajectory) -> Trajectory:
    """Perturb one trajectory point on both records that carry it."""
    x = traj.x.copy()
    x[min(5, traj.iterations - 1)] += 1.0
    return dataclasses.replace(traj, x=x)


def cmd_check(args) -> int:
    out = _run_from_args(args, args.algorithm, args.gamma)
    traj = _corrupt(out.trajectory) if args.corrupt else out.trajectory
    reports = [check_fejer(traj, out.z_star, out.s_metric)]
    skipped = None  # why the separation and mu-bounds audits are skipped
    if out.nofob_view is not None:
        view = out.nofob_view
        reports.append(check_separation(traj, view, out.z_star))
        reports.append(check_mu_bounds(
            traj, view.beta, view.p_metric, out.s_metric, view.kernel_lipschitz
        ))
    else:
        skipped = ROWS[args.algorithm].no_audit(get_instance(args.problem, args.seed))
        print(f"separation/mu-bounds skipped: {args.algorithm} on {args.problem}: {skipped}")
    lines = [r.line() for r in reports]
    try:
        slope, r2 = fit_rate(traj.residual_s)
        lines.append(f"{'rate-fit':<16} info  slope {slope:+.4f} (r2 {r2:.3f})")
    except ContractViolation:
        lines.append(f"{'rate-fit':<16} info  insufficient data")
    if args.algorithm in ("ps-explicit", "ps-resolvent"):
        other = ("ps-resolvent" if args.algorithm == "ps-explicit"
                 else "ps-explicit")
        twin = _run_from_args(args, other, args.gamma)
        # record k's x_next is row k + 1 of the chain
        rows = min(traj.iterations, twin.trajectory.iterations) + 1
        dev = float(np.max(np.abs(traj.x[1:rows] - twin.trajectory.x[1:rows])))
        equiv = CheckReport("ps-equivalence", dev, None, dev <= PS_EQUIVALENCE_TOL,
                            PS_EQUIVALENCE_TOL)
        reports.append(equiv)
        lines.append(equiv.line())
    print("\n".join(lines))
    if args.report:
        payload = {
            "problem": args.problem, "algorithm": args.algorithm,
            "status": traj.status, "skipped": skipped,
            "checks": [dataclasses.asdict(r) for r in reports],
        }
        code = _write_text(args.report, json.dumps(payload, indent=2) + "\n")
        if code is not None:
            return code
    ok = all(r.passed for r in reports)
    if not ok:
        return EXIT_ERROR
    return _status_code(out.trajectory)


def _gamma_text(gamma: Optional[float]) -> str:
    return f"{gamma:.4g}" if gamma is not None else "-"


def cmd_bench(args) -> int:
    gammas = [None] if args.gamma is None else args.gamma
    if not args.algorithm or not gammas:
        print("bench needs at least one algorithm and one gamma", file=sys.stderr)
        return EXIT_USAGE
    worst = EXIT_OK
    print(f"{'algorithm':<14}{'gamma':>10}{'status':>12}{'iters':>8}{'rate':>10}")
    for algo in args.algorithm:
        for g in gammas:
            try:
                out = _run_from_args(args, algo, g)
            except ContractViolation as exc:
                print(f"{algo:<14}{_gamma_text(g):>10}"
                      f"{'error':>12}{'-':>8}{'-':>10}  {exc}")
                worst = max(worst, EXIT_ERROR, key=_SEVERITY.index)
                continue
            traj = out.trajectory
            try:
                slope, _ = fit_rate(traj.residual_s)
                rate = f"{slope:+.3f}"
            except ContractViolation:
                rate = "-"
            print(f"{algo:<14}{_gamma_text(out.gamma):>10}{traj.status:>12}"
                  f"{traj.iterations:>8}{rate:>10}")
            if args.csv:
                # full precision, so no two gammas of a grid share a file
                gname = _fmt(out.gamma) if out.gamma is not None else "-"
                path = f"{args.csv}.{algo}.{gname}.csv"
                code = _write_text(path, "\n".join(_csv_rows(out)) + "\n")
                if code is not None:
                    return code
            worst = max(worst, _status_code(traj), key=_SEVERITY.index)
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

    def add_common(p, sweep=False):
        # bench sweeps comma-separated algorithms and gammas
        p.add_argument("--problem", required=True, choices=sorted(REGISTRY))
        if sweep:
            p.add_argument("--algorithm", required=True, type=_ALGORITHM_LIST)
        else:
            p.add_argument("--algorithm", required=True, choices=ALGORITHMS)
        p.add_argument("--gamma", type=_NUMBER_LIST if sweep else _NUMBER, default=None)
        p.add_argument("--tau", type=_NUMBER_LIST, default=None)
        p.add_argument("--theta", type=_THETA, default=None)
        p.add_argument("--tol", type=_TOLERANCE, default=STOP_TOL)
        p.add_argument("--max-iter", type=_MAX_ITER, default=1000)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_solve = sub.add_parser("solve", help="run one algorithm on one problem")
    add_common(p_solve)
    p_solve.add_argument("--csv", default=None)
    p_solve.set_defaults(fn=cmd_solve)

    p_check = sub.add_parser("check", help="run and audit the trajectory")
    add_common(p_check)
    p_check.add_argument("--corrupt", action="store_true",
                         help="perturb one iterate first (negative control)")
    p_check.add_argument("--report", default=None,
                         help="write the check results as JSON to this path")
    p_check.set_defaults(fn=cmd_check)

    p_bench = sub.add_parser("bench", help="sweep algorithms and step sizes")
    add_common(p_bench, sweep=True)
    p_bench.add_argument("--csv", default=None)
    p_bench.set_defaults(fn=cmd_bench)

    p_list = sub.add_parser("list", help="show registered names")
    p_list.set_defaults(fn=cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ContractViolation as exc:  # argparse has already checked every name
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception:  # surfaced as runtime failure, with where it came from
        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
