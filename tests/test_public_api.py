"""One entry point per operation: every public name of the package is used
by the package itself.

A name in a module's `__all__`, or a public member of a public class (a
method, or a name annotated or assigned in the class body, such as a
dataclass field), must be referenced somewhere in `src/` outside its
own definition.  A reference is a name or an attribute read in the
source's syntax tree (a member only as an attribute), so a use inside
an f-string counts, and one in a docstring or an `__all__` string does
not; an import, a constructor keyword or a write is not a use.  Code
and state that only tests use belong in the tests, unless listed in
KEPT with the reason.

References count by name, not by owner, so two members of one name
pass together when either is read: a dead member can hide behind a
live one.  `ProblemInstance.n` hid behind `PsProblem.n`,
`ProblemInstance.seed` behind `args.seed`, `RunOutput.algorithm`
behind `args.algorithm` and `RunOutput.theta` behind `rec.theta`, each
until it was deleted; `ProblemInstance.sigma` passes only because
`SeparableNonlinear.sigma` is read.  For the result types the last test
checks by owner: it traces which fields of `RunOutput` and `Trajectory`
the command line reads.  The command line reads a trajectory's arrays,
not its `IterRecord` row views.
"""

import ast
import dataclasses
import inspect
from collections import Counter
from pathlib import Path

import pytest

import nofob
from nofob import cli
from nofob.algorithms import RunOutput, run_algorithm
from nofob.core import NofobProblem, Trajectory
from nofob.linalg import SpdMetric
from nofob.operators import ProxOperator

PACKAGE = Path(nofob.__file__).parent
# (module, name or Class.member) -> why it stays in the package unused
KEPT = {
    ("fourop", "epsbar_delta"): "a paper constant under test",
    ("problems", "ProblemInstance.extras"): "read by perfbench/workloads.py",
    # API: the point a run ends at, the last record's x
    ("core", "Trajectory.final_x"): "API; read by perfbench/workloads.py",
    # the row views of a trajectory's arrays, and the one field of a row
    # view that no array of the same name stands for
    ("core", "Trajectory.records"): "read by perfbench/workloads.py",
    ("core", "IterRecord.x_next"): "read by perfbench/workloads.py",
    # class-level None, not fields: perfbench/tracing.py hooks both by name
    ("core", "NofobProblem.kernel_eval"): "hooked by perfbench/tracing.py",
    ("operators", "ProxOperator.diag_evaluator"): "hooked by perfbench/tracing.py",
}


def _references(node) -> Counter:
    """("name", id) of every name and ("attr", attr) of every attribute
    read anywhere under node."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found["name", sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found["attr", sub.attr] += 1
    return found


def _uses(refs: Counter, name: str) -> int:
    """References to a top-level name, or to Class.member as an attribute."""
    owner, _, key = name.rpartition(".")
    return refs["attr", key] + (0 if owner else refs["name", key])


def _exported(tree) -> list:
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id == "__all__"):
            return [elt.value for elt in node.value.elts]
    return []


def _bound_names(node) -> list:
    """The names a def, an annotated assignment or an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.AnnAssign):
        return [node.target.id] if isinstance(node.target, ast.Name) else []
    if isinstance(node, ast.Assign):
        return [target.id for target in node.targets if isinstance(target, ast.Name)]
    return []


def _definitions(tree) -> dict:
    """Top-level name -> its statement, and Class.member -> its statement,
    for the public members of the public classes."""
    found = {}
    for node in tree.body:
        for name in _bound_names(node):
            found[name] = node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                for name in _bound_names(member):
                    if not name.startswith("_"):
                        found[f"{node.name}.{name}"] = member
    return found


def _public_entries():
    """(module, name, definition) of every name the check covers, and the
    references of the whole package."""
    entries, total = [], Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        total += _references(tree)
        module = path.stem
        defs = _definitions(tree)
        names = _exported(tree) + [key for key in defs if "." in key]
        for name in names:
            assert name in defs, f"{module}.__all__ names {name}, which it does not define"
            entries.append((module, name, defs[name]))
    return entries, total


def test_every_public_name_is_used_by_the_package():
    entries, total = _public_entries()
    unused = []
    for module, name, node in entries:
        if _uses(total, name) - _uses(_references(node), name) <= 0 \
                and (module, name) not in KEPT:
            unused.append(f"{module}.{name}")
    assert unused == [], "public names nothing in src/ uses: " + ", ".join(unused)


def test_every_kept_name_still_exists():
    entries, _ = _public_entries()
    defined = {(module, name) for module, name, _ in entries}
    assert set(KEPT) <= defined, sorted(set(KEPT) - defined)


def test_the_tracer_hooks_are_class_level_none_and_no_constructor_takes_them():
    view = dict(fb_oracle=lambda x: x, p_metric=SpdMetric.identity(2),
                s_metric=SpdMetric.identity(2), beta=0.0, kernel_lipschitz=1.0,
                kernel_diff=lambda x, x_hat, d: x - x_hat)
    prox = dict(evaluator=lambda gamma, y: y, descriptor="zero")
    for cls, name, kwargs in ((NofobProblem, "kernel_eval", view),
                              (ProxOperator, "diag_evaluator", prox)):
        assert getattr(cls, name) is None and getattr(cls(**kwargs), name) is None
        assert name not in {f.name for f in dataclasses.fields(cls)}
        with pytest.raises(TypeError, match=name):
            cls(**kwargs, **{name: None})


def test_the_command_line_reads_every_field_of_the_result_types(monkeypatch, tmp_path, capsys):
    read = {cls: set() for cls in (RunOutput, Trajectory)}
    for cls, names in read.items():
        def traced(obj, name, names=names):
            names.add(name)
            return object.__getattribute__(obj, name)

        monkeypatch.setattr(cls, "__getattribute__", traced)
    run = ["--problem", "saddle", "--algorithm", "afba"]
    for argv in (["solve", *run, "--csv", str(tmp_path / "run.csv")], ["check", *run],
                 ["bench", *run]):
        assert cli.main(argv) == cli.EXIT_OK, argv
    capsys.readouterr()
    unread = [f"{cls.__name__}.{f.name}" for cls, names in read.items()
              for f in dataclasses.fields(cls) if f.name not in names]
    assert unread == []


def test_the_command_line_sets_every_option_of_a_run():
    """A run option exists only if the command line can set it: every
    parameter of `run_algorithm` after the instance is passed by keyword
    in cli.py."""
    params = list(inspect.signature(run_algorithm).parameters)
    options = params[params.index("inst") + 1:]
    calls = [node for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "run_algorithm"]
    assert calls
    passed = {kw.arg for call in calls for kw in call.keywords}
    assert [name for name in options if name not in passed] == []
