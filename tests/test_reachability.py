"""Every public module-level function or class of dcflex has a caller.

A definition counts as reached when another dcflex module, or another line
of its own module, names it in code. An import alone does not count, so a
package-root re-export does not keep dead code alive. The few names that
only a test or a tool reaches are listed below, each with its reason.
"""

import ast
from pathlib import Path

import dcflex

PACKAGE = Path(dcflex.__file__).parent

ALLOWED = {
    ("instance", "materialize_demo"): "acceptance suite builds the demo bundle with it",
    ("mps", "read_mps"): "HiGHS adapter (perfbench/highs_adapter.py) reads the model with it",
    ("signals", "cumulative_windows"): "test oracle: TestVarTable's window sums",
    ("spacetime", "SpaceTimeIndex"): "acceptance suite's space-time node and link checks",
    ("validate", "qos_deviation_report"): "acceptance suite's QoS criterion",
}


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(PACKAGE.glob("*.py"))}


def _public_defs(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _named(tree):
    """(name, line) of every name and attribute that code in ``tree`` uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_public_definition_has_a_caller():
    trees = _trees()
    named = {module: list(_named(tree)) for module, tree in trees.items()}
    unreached = []
    for module, tree in trees.items():
        for node in _public_defs(tree):
            reached = any(name == node.name and (other != module or line != node.lineno)
                          for other, uses in named.items() for name, line in uses)
            if not reached and (module, node.name) not in ALLOWED:
                unreached.append(f"{module}.{node.name}")
    assert unreached == [], f"no dcflex code reaches {unreached}; delete it or allow it"


def test_every_allowed_name_is_still_defined():
    defined = {(module, node.name) for module, tree in _trees().items()
               for node in _public_defs(tree)}
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)


def _calls_by_function(node, owner=None):
    """(innermost enclosing function name, call) of every call under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _calls_by_function(child, child.name)
            continue
        if isinstance(child, ast.Call):
            yield owner, child
        yield from _calls_by_function(child, owner)


def test_only_read_json_decodes_json():
    # Every JSON input goes through instance.read_json, which names the
    # file of any fault in it.
    trees = _trees()
    decoders = [(module, owner) for module, tree in trees.items()
                for owner, call in _calls_by_function(tree)
                if isinstance(call.func, ast.Attribute) and call.func.attr in ("load", "loads")
                and isinstance(call.func.value, ast.Name) and call.func.value.id == "json"]
    imported = [module for module, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "json"]
    assert decoders == [("instance", "read_json")] and imported == [], (decoders, imported)
