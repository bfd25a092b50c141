"""The traced run: per-layer metrics from spans around nofob's public calls.

Untraced and traced passes alternate.  The untraced passes give the
per-iteration time and the baseline for the tracing overhead; the traced
passes give the per-layer numbers, each the median over traced passes.
Counts must repeat exactly from one traced pass to the next, and every
traced item must compute bit for bit what the untraced pass computed.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

from tracing import PROX_PREFIX, Tracer

SETUP, SOLVE, AUDIT = ("setup",), ("solve",), ("audit",)
SOLVE_AUDIT = ("solve", "audit")
ALL = ("setup", "solve", "audit")

D_CALL = "operators.LipschitzMap.__call__"
E_CALL = "operators.CocoerciveMap.__call__"
K_CALL = "operators.SkewMap.__call__"
NL_RESOLVENT = "operators.separable_nonlinear_resolvent"
APPLY = "linalg.SpdMetric.apply"
SOLVE_CALL = "linalg.SpdMetric.solve"
METRIC_INIT = "linalg.SpdMetric.__init__"
KERNEL_DIFFS = {"fourop.as_nofob.kernel_diff", "fourop._scalar_kernel_diff"}
PS_STEPS = {"projective.ps_explicit_iterate", "projective.ps_resolvent_iterate"}
LOOP = "core.run_loop"


def pass_metrics(tr: Tracer, violations: int) -> dict:
    """Per-layer metrics of one traced pass, keyed by name: (value, unit)."""
    prox = {n for n in tr.names if n.startswith(PROX_PREFIX)}

    def calls(phases, names):
        return tr.totals(phases, 0, names=set(names))

    def self_s(phases, names=None, layer=None):
        return tr.totals(phases, 1, names=None if names is None else set(names), layer=layer)

    def incl_s(phases, names):
        return tr.totals(phases, 2, names=set(names))

    c, s = "count", "s"
    m = {
        "rng.draws": (tr.totals(ALL, 3, names={"rng.Lcg64.vector"}), c),
        "rng.self_s": (self_s(ALL, layer="rng"), s),
        "problems.self_s": (self_s(ALL, layer="problems"), s),
        "problems.oracle_steps": (calls(SETUP, ["fourop.conservative_iterate"]), c),
        "operators.skew_norm_s": (incl_s(ALL, ["operators.SkewMap.__init__"]), s),
        "operators.d_evals": (calls(SOLVE, [D_CALL]), c),
        "operators.e_evals": (calls(SOLVE, [E_CALL]), c),
        "operators.k_evals": (calls(SOLVE, [K_CALL]), c),
        "operators.forward_s": (self_s(SOLVE, [D_CALL, E_CALL, K_CALL]), s),
        "operators.resolvent_calls": (calls(SOLVE, [NL_RESOLVENT]), c),
        "operators.prox_evals": (calls(SOLVE, prox), c),
        "operators.resolvent_s": (sum(v for (ph, _g), v in tr.backward_s.items() if ph == "solve"), s),
        "linalg.metric_builds": (calls(SOLVE, [METRIC_INIT]), c),
        "linalg.metric_build_s": (incl_s(SOLVE, [METRIC_INIT]), s),
        "linalg.apply_calls": (calls(SOLVE_AUDIT, [APPLY]), c),
        "linalg.metric_apply_s": (incl_s(SOLVE_AUDIT, [APPLY]), s),
        "linalg.solve_calls": (calls(SOLVE_AUDIT, [SOLVE_CALL]), c),
        "linalg.metric_solve_s": (incl_s(SOLVE_AUDIT, [SOLVE_CALL]), s),
        "fourop.kernel_diff_calls": (calls(SOLVE, KERNEL_DIFFS), c),
        "fourop.self_s": (self_s(SOLVE, layer="fourop"), s),
        "core.step_self_s": (self_s(SOLVE, layer="core") - self_s(SOLVE, [LOOP]), s),
        "core.loop_self_s": (self_s(SOLVE, [LOOP]), s),
        "projective.steps": (calls(SOLVE, PS_STEPS), c),
        "projective.self_s": (self_s(SOLVE, layer="projective"), s),
        "algorithms.prep_s": (incl_s(SOLVE, ["algorithms.run_algorithm"]) - incl_s(SOLVE, [LOOP]), s),
        "diagnostics.fejer_s": (incl_s(AUDIT, ["diagnostics.check_fejer"]), s),
        "diagnostics.separation_s": (incl_s(AUDIT, ["diagnostics.check_separation"]), s),
        "diagnostics.mu_bounds_s": (incl_s(AUDIT, ["diagnostics.check_mu_bounds"]), s),
        "diagnostics.kernel_diffs": (calls(AUDIT, KERNEL_DIFFS), c),
        "diagnostics.violations": (violations, c),
    }
    return m


def check_self_times(tr: Tracer) -> bool:
    """Layer self times, the harness's included, must sum to each phase total."""
    ok = True
    print("self time by layer (traced pass), share of the phase total:")
    for phase in ALL:
        layers = tr.breakdown(phase, 1, "layer")
        total = tr.totals((phase,), 2, names={f"bench.{phase}"})
        summed = sum(layers.values())
        good = abs(summed - total) <= 1e-9 * max(total, 1.0) + 1e-9
        ok = ok and good
        shares = "  ".join(f"{k} {v / total:.1%}" for k, v in
                           sorted(layers.items(), key=lambda kv: -kv[1]) if total > 0)
        print(f"  {phase:<6} total {total:.4f} s, layer sum {summed:.4f} s "
              f"[{'ok' if good else 'MISMATCH'}]: {shares}")
    return ok


def print_top_names(tr: Tracer, count: int = 8):
    for phase in ALL:
        names = sorted(tr.breakdown(phase, 1, "name").items(), key=lambda kv: -kv[1])[:count]
        total = tr.totals((phase,), 2, names={f"bench.{phase}"})
        if total > 0:
            print(f"top self time in {phase}: " + ", ".join(
                f"{n} {v / total:.1%}" for n, v in names))


def print_evaluations(tr: Tracer, ledger):
    """Evaluations per iteration for each algorithm, solve phase."""
    iters = defaultdict(int)
    for it in ledger.runs():
        iters[it.algorithm] += it.iterations
    prox = {n for n in tr.names if n.startswith(PROX_PREFIX)}
    columns = [("D", {D_CALL}), ("E", {E_CALL}), ("K", {K_CALL}), ("prox", prox),
               ("nl-res", {NL_RESOLVENT}), ("apply", {APPLY}), ("solve", {SOLVE_CALL}),
               ("kdiff", KERNEL_DIFFS)]
    per = {label: tr.breakdown("solve", 0, "group", names) for label, names in columns}
    print("evaluations per iteration (solve phase; base = iterations):")
    print("  " + f"{'algorithm':<13}{'iters':>8}" + "".join(f"{c:>8}" for c, _ in columns))
    for algorithm in sorted(iters):
        base = iters[algorithm]
        if base == 0:
            continue
        row = "".join(f"{per[c].get(algorithm, 0) / base:>8.2f}" for c, _ in columns)
        print(f"  {algorithm:<13}{base:>8}{row}")


def print_reasons(tr: Tracer, workload: str):
    """Evidence for why each workload exists."""
    setup = tr.breakdown("setup", 1, "layer")
    setup.pop("bench", None)
    top = max(setup, key=setup.get) if setup else "-"
    solve = tr.breakdown("solve", 1, "layer")
    total = sum(solve.values())
    layer, share = max(((k, v / total) for k, v in solve.items() if k != "bench"),
                       key=lambda kv: kv[1], default=("-", 0.0))
    names = tr.breakdown("solve", 1, "name")
    top_name = max(names, key=names.get) if names else "-"
    lines = {
        "ladder": f"largest set-up self time: layer {top} (expected rng)",
        "backward": f"largest solve self time: {top_name} (expected an operators resolvent)",
        "registry": f"largest solve layer share: {layer} {share:.1%} (expected at most 50%)",
    }
    print("workload reason: " + lines[workload])


def per_layer(ledger, deadline: float, out_dir, seed: int):
    import nofob

    untraced, traced, per_pass = [], [], []
    ok = True
    while True:
        untraced.append(ledger.run_pass())
        tr = Tracer()
        tr.record_spans = not per_pass  # spans of the first traced pass only
        tr.install(nofob)
        try:
            t0 = perf_counter()
            ledger.run_pass(tr, keep_times=False)
            traced.append(perf_counter() - t0)
        finally:
            tr.uninstall()
        violations = sum(it.violations for it in ledger.runs())
        per_pass.append(pass_metrics(tr, violations))
        if len(per_pass) == 1:
            ok = check_self_times(tr) and ok
            print_top_names(tr)
            print_evaluations(tr, ledger)
            print_reasons(tr, ledger.workload.name)
            path = out_dir / f"spans-{ledger.workload.name}-seed{seed}.npz"
            tr.save_spans(path)
            print(f"{len(tr.sp_name)} spans written to {path}")
        if perf_counter() + untraced[-1] + traced[-1] > deadline:
            break

    counts = {k for k, (_v, unit) in per_pass[0].items() if unit == "count"}
    for m in per_pass[1:]:
        changed = [k for k in counts if m[k][0] != per_pass[0][k][0]]
        if changed:
            print("INCORRECT: counts differ between traced passes: " + ", ".join(changed))
            ok = False
    # counts repeat exactly (checked above); times are medians over passes
    metrics = {k: {"value": v if k in counts else statistics.median(m[k][0] for m in per_pass),
                   "unit": unit}
               for k, (v, unit) in per_pass[0].items()}
    iterations = sum(it.iterations for it in ledger.runs())
    metrics["core.us_per_iter"] = {
        "value": ledger.phase_seconds("solve") / max(iterations, 1) * 1e6, "unit": "us"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(t - u for t, u in zip(traced, untraced)), "unit": "s"}
    print(f"trace fidelity: {len(per_pass)} traced and {len(untraced)} untraced passes, "
          f"{len(ledger.mismatches)} items differ; overhead "
          f"{metrics['trace.overhead_s']['value']:.3f} s per pass")
    for k, v in metrics.items():
        print(f"  {k} {v['value']:.6g} {v['unit']}")
    return metrics, ok
