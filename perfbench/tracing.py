"""Spans and counts around the public calls of the nofob modules.

`Tracer.install` replaces, at run time and from outside the package, every
public function and method of the nofob modules with a wrapper that opens a
span on entry and closes it on exit.  Every module namespace that imported
the function by name gets the wrapper too.  A span carries its name, start,
end, parent span and the id of the benchmark item it belongs to.  Closing a
span adds its duration and its self time (duration minus the time its child
spans cover) to an aggregate keyed by (phase, group, name), so per-layer
numbers need no second pass over the spans.  `Tracer.uninstall` restores
every original.

Two kinds of callable are not module attributes and are wrapped when their
owner is built: the resolvent callables a `ProxOperator` stores
(`evaluator`, `diag_evaluator`) and the oracle and kernel callables a
`NofobProblem` stores.  Instances built while the tracer is installed carry
wrapped callables; build instances again after `uninstall`.

The wrappers pass arguments and results through untouched, so a traced run
computes bit for bit what an untraced one does; the benchmark checks this.
"""

from __future__ import annotations

import array
import functools
import inspect
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("rng", "problems", "operators", "linalg", "fourop", "core",
          "projective", "algorithms", "diagnostics")

# Private functions that sit on a layer boundary the metrics need: the step
# functions of fbs and afba-fixed (without them their arithmetic would land
# in the loop's self time) and the scalar-kernel difference.
PRIVATE_BOUNDARIES = {
    "algorithms": ("_fixed_step", "_fbs_record"),
    "fourop": ("_scalar_kernel_diff",),
}

# Public methods called once per random draw.  Their time stays inside the
# self time of `Lcg64.vector`, which also counts the draws; a span per draw
# would multiply the set-up time of the large instances.
PER_DRAW = {"rng.Lcg64.uniform", "rng.Lcg64.uniform_signed"}

# Dunder methods written in the package source that are layer boundaries.
DUNDERS = ("__init__", "__call__")

# Spans that are the backward step.  Their outermost calls give the
# inclusive resolvent time; calls nested inside one another count once.
BACKWARD = {"operators.separable_nonlinear_resolvent",
            "operators.moreau_dual_resolvent",
            "operators.BlockProx.evaluator",
            "operators.BlockProx.block_resolve"}
PROX_PREFIX = "operators.prox["

# Work units recorded besides the call count: draws per `vector` call.
UNITS = {"rng.Lcg64.vector": lambda args, kwargs: int(args[1] if len(args) > 1 else kwargs["n"])}


def _units_none(args, kwargs):
    return 0


class Tracer:
    """Installs wrappers, keeps spans in memory and aggregates self time."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._ids: dict[str, int] = {}
        self.phase = ""
        self.group = ""
        self.run_id = -1
        self.record_spans = True
        # span arrays: one entry per span, in the order spans open
        self.sp_name = array.array("i")
        self.sp_parent = array.array("i")
        self.sp_run = array.array("i")
        self.sp_start = array.array("d")
        self.sp_end = array.array("d")
        self._stack: list[list] = []
        self._back_depth = 0
        # (phase, group, name id) -> [calls, self_s, inclusive_s, units]
        self.agg: dict = defaultdict(lambda: [0, 0.0, 0.0, 0])
        # (phase, group) -> inclusive seconds of outermost backward spans
        self.backward_s: dict = defaultdict(float)
        self._patched: list[tuple] = []
        self.installed = False

    # ------------------------------------------------------------------
    # naming

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    # ------------------------------------------------------------------
    # spans

    def _call(self, nid, back, units, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1] if stack else None
        idx = -1
        if self.record_spans:
            idx = len(self.sp_name)
            self.sp_name.append(nid)
            self.sp_parent.append(parent[0] if parent is not None else -1)
            self.sp_run.append(self.run_id)
            self.sp_start.append(0.0)
            self.sp_end.append(0.0)
        frame = [idx, 0.0]
        stack.append(frame)
        if back:
            self._back_depth += 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            if parent is not None:
                parent[1] += dur
            agg = self.agg[(self.phase, self.group, nid)]
            agg[0] += 1
            agg[1] += dur - frame[1]
            agg[2] += dur
            agg[3] += units(args, kwargs)
            if back:
                self._back_depth -= 1
                if self._back_depth == 0:
                    self.backward_s[(self.phase, self.group)] += dur
            if idx >= 0:
                self.sp_start[idx] = t0
                self.sp_end[idx] = t1

    def root(self, phase: str, group: str, run_id: int, fn):
        """Run fn as the root span of one benchmark item; return its duration.

        The root span belongs to the `bench` layer: its self time is the
        harness code inside the timed region.
        """
        if self._stack:
            raise RuntimeError("root span opened inside another span")
        self.phase, self.group, self.run_id = phase, group, run_id
        nid = self.name_id(f"bench.{phase}", "bench")
        t0 = perf_counter()
        self._call(nid, False, _units_none, fn, (), {})
        return perf_counter() - t0

    def wrap(self, fn, name: str, layer: str):
        nid = self.name_id(name, layer)
        back = name in BACKWARD or name.startswith(PROX_PREFIX)
        units = UNITS.get(name, _units_none)
        call = self._call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(nid, back, units, fn, args, kwargs)

        traced.__perfbench_original__ = fn
        return traced

    # ------------------------------------------------------------------
    # installing

    def install(self, package):
        """Wrap the public callables of every layer module of `package`."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        modules = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            source = Path(mod.__file__).resolve()
            extra = PRIVATE_BOUNDARIES.get(layer, ())
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if (attr.startswith("_") and attr not in extra) or inspect.isgeneratorfunction(obj):
                        continue
                    replaced[obj] = self.wrap(obj, f"{layer}.{attr}", layer)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(obj, layer, source)
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._patch(mod, attr, replaced[obj])
        self._hook_fields(modules["operators"].ProxOperator, ("evaluator", "diag_evaluator"),
                          _prox_name, "operators")
        self._hook_fields(modules["core"].NofobProblem, ("fb_oracle", "kernel_eval", "kernel_diff"),
                          _closure_name, None)
        self.installed = True

    def _install_class(self, cls, layer, source):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in PER_DRAW:
                continue
            if isinstance(member, (classmethod, staticmethod)):
                fn = member.__func__
                if _defined_in(fn, source):
                    self._patch(cls, attr, type(member)(self.wrap(fn, name, layer)))
            elif inspect.isfunction(member) and _defined_in(member, source):
                self._patch(cls, attr, self.wrap(member, name, layer))

    def _hook_fields(self, cls, fields, namer, layer):
        """Wrap callables stored in `fields` whenever `cls` is constructed."""
        original_init = cls.__init__
        tracer = self

        @functools.wraps(original_init)
        def init(obj, *args, **kwargs):
            original_init(obj, *args, **kwargs)
            for field in fields:
                fn = getattr(obj, field)
                if fn is None or hasattr(fn, "__perfbench_original__"):
                    continue
                fn_layer = layer or _layer_of(fn)
                object.__setattr__(obj, field, tracer.wrap(fn, namer(obj, fn, field), fn_layer))

        self._patch(cls, "__init__", init)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self.installed = False

    # ------------------------------------------------------------------
    # reading the aggregates

    def totals(self, phases, stat: int, names=None, layer=None) -> float:
        """Sum one aggregate column over phases and names or a layer.

        stat: 0 calls, 1 self seconds, 2 inclusive seconds, 3 units.
        """
        total = 0
        for (phase, _group, nid), row in self.agg.items():
            if phase not in phases:
                continue
            if names is not None and self.names[nid] not in names:
                continue
            if layer is not None and self.layer_of[nid] != layer:
                continue
            total += row[stat]
        return total

    def breakdown(self, phase: str, stat: int, by: str, names=None) -> dict:
        """One aggregate column of a phase, summed per "layer", "name" or "group"."""
        out: dict = defaultdict(float)
        for (ph, group, nid), row in self.agg.items():
            if ph != phase or (names is not None and self.names[nid] not in names):
                continue
            key = {"layer": self.layer_of[nid], "name": self.names[nid], "group": group}[by]
            out[key] += row[stat]
        return dict(out)

    def save_spans(self, path: Path):
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(self.layer_of),
            name=np.frombuffer(self.sp_name, dtype=np.int32),
            parent=np.frombuffer(self.sp_parent, dtype=np.int32),
            run=np.frombuffer(self.sp_run, dtype=np.int32),
            start=np.frombuffer(self.sp_start, dtype=np.float64),
            end=np.frombuffer(self.sp_end, dtype=np.float64),
        )


def _defined_in(fn, source: Path) -> bool:
    """True for functions written in the module file, not generated ones."""
    return Path(fn.__code__.co_filename).resolve() == source


def _layer_of(fn) -> str:
    return getattr(fn, "__module__", "").rpartition(".")[2] or "unknown"


def _prox_name(prox, _fn, field) -> str:
    suffix = ".diag" if field == "diag_evaluator" else ""
    return f"{PROX_PREFIX}{prox.descriptor}]{suffix}"


def _closure_name(_owner, fn, _field) -> str:
    qual = getattr(fn, "__qualname__", type(fn).__name__).replace("<locals>.", "")
    return f"{_layer_of(fn)}.{qual}"
