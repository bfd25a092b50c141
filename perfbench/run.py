"""nofob benchmark: build, solve and audit time, with a traced per-layer split.

Run from the root of a nofob checkout:

    python3 perfbench/run.py --workload registry --seed 1 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
human-readable report.

The benchmark imports nofob from `src/` of the checkout it sits in and
exits with code 2 when that is missing.  It is a closed loop with one
client: every item starts after the previous one returns.  A pass runs
every item of the workload once; passes repeat until `--seconds` is used
up (at least MIN_PASSES), and each item's time is its median over passes,
measured against reference loops (see below).
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: on the two-core host two threads
# made the small dense products 2.5-11x slower and their timings erratic.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

MIN_PASSES = 3
PHASES = ("setup", "solve", "audit")

END_TO_END_UNITS = {
    "setup_s": "s", "solve_s": "s", "audit_s": "s", "iterations": "count",
    "result_mb": "MB", "peak_rss_mb": "MB", "ok_share": "ratio",
}


# ---------------------------------------------------------------------------
# reference loops
#
# On the 2-vCPU host the benchmark was calibrated on, other load slows code
# by up to 2x, in bursts from a fraction of a second to minutes, and
# interpreter-bound code and memory-bound dense products each by their own
# factor.  So every item is timed against the reference loops run just
# before and just after it, each loop of the same kind of work as the phase
# and importing no nofob code.  An item's time is its median over passes of
# (item time / the faster adjacent loop), times the loop's time at the
# reference speed in REFERENCE_SECONDS (the loop's median on that host when
# idle): seconds at that speed.

DENSE_DIM = 800
REFERENCE_SECONDS = {"interpreter": 0.001, "dense": 0.0025}


def interpreter_loop() -> float:
    """Small-vector numpy calls in a Python loop: per-call overhead."""
    import numpy as np

    x = np.linspace(-1.0, 1.0, 16)
    acc = 0.0
    t0 = perf_counter()
    for i in range(400):
        y = 0.5 * x + 0.25
        acc += float(y @ x)
        acc += abs(i % 7 - 3) * 1e-9
    dt = perf_counter() - t0
    if not acc == acc:  # keeps the loop's result live
        raise RuntimeError("reference loop produced NaN")
    return dt


def dense_loop(matrix) -> float:
    """Dense matrix-vector products at n = 800: memory-bound BLAS work."""
    import numpy as np

    v = np.ones(matrix.shape[0])
    t0 = perf_counter()
    for _ in range(12):
        v = matrix @ v
        v = v / np.abs(v).max()
    dt = perf_counter() - t0
    if not np.isfinite(v).all():
        raise RuntimeError("reference loop produced non-finite values")
    return dt


class References:
    """Times the reference loops a workload's phases are timed against."""

    def __init__(self, kinds):
        import numpy as np

        self.kinds = sorted(set(kinds))
        self.matrix = (np.linspace(-1.0, 1.0, DENSE_DIM * DENSE_DIM).reshape(DENSE_DIM, DENSE_DIM)
                       if "dense" in self.kinds else None)

    def time(self) -> dict:
        return {k: interpreter_loop() if k == "interpreter" else dense_loop(self.matrix)
                for k in self.kinds}


# ---------------------------------------------------------------------------
# passes


@dataclass
class Item:
    """An instance build (algorithm '') or one (instance, algorithm) run."""

    group: int
    label: str
    algorithm: str
    fingerprint: str
    iterations: int = 0
    result_bytes: int = 0
    reason: str | None = None
    known: bool = False
    violations: int = 0
    times: dict = field(default_factory=dict)  # phase -> seconds per pass
    refs: dict = field(default_factory=dict)  # phase -> adjacent reference loop per pass


class Ledger:
    """Items of one workload, their outcomes and their times over passes."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.groups = workload.groups(seed)
        self.references = References(workload.reference.values())
        self.items: dict = {}
        self.mismatches: list = []
        self.passes = 0

    def note(self, key, label, algorithm, fp, **outcome):
        """First pass: record the outcome.  Later passes: compare to it."""
        item = self.items.get(key)
        if item is None:
            self.items[key] = Item(key[0], label, algorithm, fp, **outcome)
        elif item.fingerprint != fp:
            self.mismatches.append(f"{label} {algorithm or 'build'}")

    def run_pass(self, tracer=None, keep_times=True) -> float:
        """Run every item once, timing each phase; return the wall time.

        keep_times=False checks the outputs but leaves the times out of the
        estimates, as for a traced pass.
        """
        from workloads import (algorithms_for, audit, fingerprint, judge,
                               known_failure, result_bytes, solve)

        samples = []
        before = self.references.time()

        def timed(key, phase, group, fn):
            nonlocal before
            box = []
            if tracer is None:
                t0 = perf_counter()
                box.append(fn())
                dt = perf_counter() - t0
            else:
                dt = tracer.root(phase, group, len(samples), lambda: box.append(fn()))
            after = self.references.time()
            kind = self.workload.reference[phase]
            samples.append((key, phase, dt, min(before[kind], after[kind])))
            before = after
            return box[0]

        wall0 = perf_counter()
        for gi, group in enumerate(self.groups):
            inst, exc = timed((gi, ""), "setup", group.problem, lambda: _attempt(group.build))
            if exc is not None:
                reason = f"instance build raised {type(exc).__name__}: {exc}"
                self.note((gi, ""), group.label, "", reason, reason=reason)
                continue
            self.note((gi, ""), group.label, "", "built")
            for algorithm in algorithms_for(group, inst):
                key = (gi, algorithm)
                out, exc = timed(key, "solve", algorithm, lambda: solve(algorithm, inst))
                reports = [] if out is None else timed(key, "audit", algorithm, lambda: audit(out))
                reason = judge(out, exc, reports)
                self.note(key, group.label, algorithm, fingerprint(out, exc, reports),
                          iterations=0 if out is None else out.trajectory.iterations,
                          result_bytes=result_bytes(out), reason=reason,
                          known=reason is not None and known_failure(algorithm, inst, exc),
                          violations=sum(not r.passed for r in reports))
                del out, reports
        wall = perf_counter() - wall0
        self.passes += 1
        if keep_times:
            for key, phase, dt, ref in samples:
                item = self.items[key]
                item.times.setdefault(phase, []).append(dt)
                item.refs.setdefault(phase, []).append(ref)
        return wall

    # -----------------------------------------------------------------------
    # estimates

    def phase_seconds(self, phase: str, raw: bool = False) -> float:
        """Sum over items of each item's median over passes of its time
        against the adjacent reference loop, in seconds at the reference
        speed; raw=True drops the reference."""
        scale = REFERENCE_SECONDS[self.workload.reference[phase]]
        total = 0.0
        for item in self.items.values():
            ts = item.times.get(phase)
            if not ts:
                continue
            if raw:
                total += statistics.median(ts)
            else:
                total += statistics.median(t / r for t, r in zip(ts, item.refs[phase])) * scale
        return total

    def save_times(self, path: Path):
        """Write every item's per-pass times for offline study."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"label": it.label, "algorithm": it.algorithm, "times": it.times,
                 "refs": it.refs} for it in self.items.values()]
        path.write_text(json.dumps({"workload": self.workload.name,
                                    "reference": self.workload.reference, "items": rows}))

    def runs(self) -> list:
        """Attempted runs: every (instance, algorithm) item and every failed build."""
        return [it for it in self.items.values() if it.algorithm or it.reason]

    def failures(self) -> list:
        return [it for it in self.runs() if it.reason is not None]


def _attempt(fn):
    try:
        return fn(), None
    except Exception as exc:  # judged and reported by the caller
        return None, exc


def run_passes(ledger: Ledger, deadline: float, minimum: int) -> list:
    walls = []
    while True:
        walls.append(ledger.run_pass())
        if len(walls) >= minimum and perf_counter() + walls[-1] > deadline:
            return walls


# ---------------------------------------------------------------------------
# end-to-end run


def end_to_end(ledger: Ledger, deadline: float) -> dict:
    walls = run_passes(ledger, deadline, MIN_PASSES)
    runs = ledger.runs()
    failures = ledger.failures()
    metrics = {f"{phase}_s": ledger.phase_seconds(phase) for phase in PHASES}
    metrics["iterations"] = sum(it.iterations for it in runs)
    metrics["result_mb"] = sum(it.result_bytes for it in runs) / 1e6
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["ok_share"] = (len(runs) - len(failures)) / len(runs)

    w = ledger.workload
    print(f"workload {w.name}: {len(ledger.groups)} instances, {len(runs)} runs, "
          f"{ledger.passes} passes, pass wall {min(walls):.2f}-{max(walls):.2f} s")
    for phase in PHASES:
        print(f"  {phase}_s {metrics[phase + '_s']:.4f} s (against the {w.reference[phase]} "
              f"reference loop; raw median {ledger.phase_seconds(phase, raw=True):.4f} s)")
    print(f"  iterations {metrics['iterations']} (records over all runs, exact)")
    print(f"  result_mb {metrics['result_mb']:.4f} MB (computed from array sizes)")
    print(f"  peak_rss_mb {metrics['peak_rss_mb']:.1f} MB (getrusage ru_maxrss)")
    print(f"  ok_share {metrics['ok_share']:.4f} = {len(runs) - len(failures)} ok "
          f"of {len(runs)} runs attempted")
    report_failures(failures)
    ledger.save_times(OUT_DIR / f"times-{w.name}-seed{ledger.seed}.json")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()}


def report_failures(failures: list):
    for it in failures:
        tag = "known" if it.known else "UNEXPECTED"
        print(f"  failed [{tag}] {it.label} {it.algorithm or 'build'}: {it.reason}")


def correct(ledger: Ledger) -> bool:
    ok = True
    if ledger.mismatches:
        print("INCORRECT: outputs differ between passes: " + "; ".join(ledger.mismatches[:10]))
        ok = False
    unexpected = [it for it in ledger.failures() if not it.known]
    if unexpected:
        print(f"INCORRECT: {len(unexpected)} failures of no known kind")
        ok = False
    return ok


# ---------------------------------------------------------------------------
# entry point


def host_line() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return (f"host: {os.cpu_count()} CPUs, numpy {np.__version__}, BLAS {blas}, "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}, "
            f"python {sys.version.split()[0]}")


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args, WORKLOADS[args.workload]


def main(argv=None) -> int:
    if not (SRC / "nofob" / "__init__.py").is_file():
        print(f"perfbench: no nofob sources at {SRC / 'nofob'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nofob

    if Path(nofob.__file__).resolve().parent != (SRC / "nofob").resolve():
        print(f"perfbench: nofob imported from {nofob.__file__}, not {SRC}", file=sys.stderr)
        return 2
    args, workload = parse_args(argv)
    print(host_line())
    warnings.simplefilter("ignore")  # divergence witnesses overflow on purpose
    start = perf_counter()
    deadline = start + args.seconds
    ledger = Ledger(workload, args.seed)
    if args.trace:
        from traced import per_layer

        metrics, ok = per_layer(ledger, deadline, OUT_DIR, args.seed)
        report_failures(ledger.failures())
    else:
        metrics, ok = end_to_end(ledger, deadline), True
    ok = correct(ledger) and ok
    runs = ledger.runs()
    print(json.dumps({"correct": ok, "attempted": len(runs),
                      "failed": len(ledger.failures()), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
