"""The tolerance policy: every round-off and contract tolerance of the
package is one named constant in the tolerance table of `nofob.linalg`.

The table is the run of top-level `*_TOL` assignments in linalg.py, each
a float literal under a one-line comment that gives its reason.  Outside
it, a float literal at or below SMALL is a tolerance written in place,
unless it is one of the listed constants that are not tolerances.
"""

import ast
from pathlib import Path

import nofob
from nofob import linalg

PACKAGE = Path(nofob.__file__).parent
SMALL = 1e-8
# (module, enclosing function, value) of the small literals that are not tolerances
NOT_TOLERANCES = {
    ("algorithms.py", "_saddle_taus", 1e-12),  # floor under ||L|| in a division
    ("problems.py", "make_rotation_vi", 1e-12),  # floor under ||x0|| in a division
    ("problems.py", "_oracle_by_active_set", 1e-9),  # Armijo's smallest step
}


def _is_table_entry(node) -> bool:
    return (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.endswith("_TOL"))


def _small_literals(tree, skip=()):
    """(enclosing function, value, line) of every float literal in (0, SMALL]
    outside the statements in `skip`; the function is None at module level."""
    found = []

    def visit(node, func):
        if node in skip:
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                and 0.0 < node.value <= SMALL):
            found.append((func, node.value, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def _table(tree):
    return [node for node in tree.body if _is_table_entry(node)]


def test_no_tolerance_is_written_outside_the_table():
    seen, stray = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        skip = set(_table(tree)) if path.name == "linalg.py" else set()
        for func, value, line in _small_literals(tree, skip):
            if (path.name, func, value) in NOT_TOLERANCES:
                seen.add((path.name, func, value))
            else:
                stray.append(f"{path.name}:{line} {value!r} in {func}")
    assert stray == [], "tolerance literals outside linalg's table: " + ", ".join(stray)
    # every allowance still names a literal, so none outlives its site
    assert seen == NOT_TOLERANCES


def test_the_table_is_one_block_with_a_reason_per_entry():
    source = (PACKAGE / "linalg.py").read_text()
    lines = source.splitlines()
    body = ast.parse(source).body
    table = [node for node in body if _is_table_entry(node)]
    assert table, "linalg.py has no tolerance table"
    first = body.index(table[0])
    assert body[first:first + len(table)] == table
    for node in table:
        name = node.targets[0].id
        assert isinstance(node.value, ast.Constant) and isinstance(node.value.value, float), name
        assert lines[node.lineno - 2].startswith("# "), f"{name} has no reason above it"
        assert name in linalg.__all__
        assert getattr(linalg, name) == node.value.value


def test_no_other_module_defines_a_tolerance():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "linalg.py":
            continue
        names = [n.targets[0].id for n in _table(ast.parse(path.read_text()))]
        assert names == [], f"{path.name} defines {names}"
