"""One entry point per operation: every public name of the package is used
by the package itself.

A name in a module's `__all__`, or a public method of a public class,
must be referenced somewhere in `src/` outside its own definition.  A
reference is a name or an attribute read in the source's syntax tree (a
method only as an attribute), so a use inside an f-string counts, and
one in a docstring or an `__all__` string does not; an import is not a
use.  Code that only tests call belongs in the tests, unless it is
listed in KEPT with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

import nofob

PACKAGE = Path(nofob.__file__).parent
# (module, name or Class.method) -> why it stays in the package unused
KEPT = {
    ("fourop", "epsbar_delta"): "a paper constant under test",
    ("rng", "Lcg64.uniform_signed"): "the one-at-a-time draw the block draws are checked against",
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
    """References to a top-level name, or to Class.method as an attribute."""
    owner, _, key = name.rpartition(".")
    return refs["attr", key] + (0 if owner else refs["name", key])


def _exported(tree) -> list:
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name) and node.targets[0].id == "__all__"):
            return [elt.value for elt in node.value.elts]
    return []


def _definitions(tree) -> dict:
    """Top-level name -> its statement, and Class.method -> its def, for
    the public classes' public methods."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    found[target.id] = node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                if (isinstance(member, ast.FunctionDef)
                        and not member.name.startswith("_")):
                    found[f"{node.name}.{member.name}"] = member
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
