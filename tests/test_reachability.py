"""Every public module-level function or class of dcflex has a caller,
and each command imports only what it runs.

A definition counts as reached when another dcflex module, or another line
of its own module, names it in code. An import alone does not count, so a
package-root re-export does not keep dead code alive. The few names that
only a test or a tool reaches are listed below, each with its reason.

The import graph is read from ``sys.modules`` of a fresh interpreter after
one import or one command.
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dcflex
from dcflex.cli import EXIT_OK, main

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


def _by_function(node, kinds, owner=None):
    """(innermost enclosing function name, node) of every node of the types
    ``kinds`` under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _by_function(child, kinds, child.name)
            continue
        if isinstance(child, kinds):
            yield owner, child
        yield from _by_function(child, kinds, owner)


def test_only_read_json_decodes_json():
    # Every JSON input goes through artifacts.read_json, which names the
    # file of any fault in it.
    trees = _trees()
    decoders = [(module, owner) for module, tree in trees.items()
                for owner, call in _by_function(tree, ast.Call)
                if isinstance(call.func, ast.Attribute) and call.func.attr in ("load", "loads")
                and isinstance(call.func.value, ast.Name) and call.func.value.id == "json"]
    imported = [module for module, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "json"]
    assert decoders == [("artifacts", "read_json")] and imported == [], (decoders, imported)


def test_no_module_edits_a_built_column_or_row():
    # StandardFormModel checks each column and row as add_variable and
    # add_row build it, so no code may change these fields afterwards.
    # A row's rhs carries no invariant and may be relaxed in place.
    edits = [(module, owner, node.attr) for module, tree in _trees().items()
             for owner, node in _by_function(tree, ast.Attribute)
             if isinstance(node.ctx, ast.Store)
             and node.attr in ("lb", "ub", "integer", "sense", "coeffs")]
    assert edits == [], edits


def test_only_solve_and_compare_import_the_builder():
    # validate re-derives what the builder's rows state, and simulate,
    # fit-signal and gen-instance build no model: each reads the model's
    # definitions from problem, so only the commands that solve load optimizer.
    importers = {(module, owner) for module, tree in _trees().items()
                 for owner, node in _by_function(tree, (ast.Import, ast.ImportFrom))
                 for name in [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                 if name.split(".")[-1] == "optimizer"}
    assert importers == {("cli", "cmd_solve"), ("cli", "cmd_compare"),
                         ("cli", "_compare_cell")}


def _loaded_after(code: str) -> set:
    """The modules a fresh interpreter holds after running ``code``;
    conftest puts this dcflex on the child's path."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _after_main(argv, cpus=None) -> set:
    """The modules of a fresh interpreter after ``main(argv)`` exits 0, with
    ``cpus`` usable CPUs as the pool sees them if given."""
    code = "import dcflex.pool as pool\npool.usable_cpus = lambda: %d\n" % cpus if cpus else ""
    return _loaded_after(code + f"from dcflex.cli import main\nassert main({argv!r}) == 0")


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """A small bundle and a bundled cooperative solve of it."""
    root = tmp_path_factory.mktemp("imports")
    bundle, run = root / "b", root / "run"
    assert main(["gen-instance", "--out", str(bundle), "--seed", "3", "--preset", "small",
                 "--quiet"]) == EXIT_OK
    assert main(["solve", "--bundle", str(bundle), "--out", str(run), "--quiet"]) == EXIT_OK
    return bundle, run


@pytest.mark.parametrize("module", ["dcflex.cli", "dcflex.artifacts"])
def test_the_file_layer_imports_no_numpy(module):
    loaded = _loaded_after(f"import {module}")
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("dcflex")} <= {"dcflex", "dcflex.artifacts",
                                                             "dcflex.cli"}




def test_report_loads_no_numpy(solved, tmp_path):
    run = shutil.copytree(solved[1], tmp_path / "run")
    loaded = _after_main(["report", "--out", str(run), "--quiet"])
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("dcflex")} == {"dcflex", "dcflex.artifacts",
                                                             "dcflex.cli"}


# Each command, and the modules it must not load: no command that solves on
# the bundled solver loads the MPS layer or subprocess, a solve on a cmd:
# backend loads no bundled solver, no command that never solves loads a
# solver, the model builder or standard_form, and none loads numpy.ma
# (np.quantile's np.unique would). This compare has one cell, so it solves in
# process; a pooled one loads no subprocess either (below).
NO_MODEL = {"dcflex.mps", "subprocess", "dcflex.bnb", "dcflex.simplex", "numpy.ma",
            "dcflex.optimizer", "dcflex.standard_form"}
ADAPTER = Path(__file__).parents[1] / "perfbench" / "highs_adapter.py"
COMMANDS = {
    "gen-instance": (["gen-instance", "--seed", "3", "--preset", "small", "--signal-days", "1"],
                     NO_MODEL),
    "fit-signal": (["fit-signal", "--trace", "BUNDLE/signal.csv"], NO_MODEL),
    "simulate": (["simulate", "--bundle", "BUNDLE", "--solution", "RUN/solution.json",
                  "--seed", "7", "--scenarios", "2"], NO_MODEL),
    "solve": (["solve", "--bundle", "BUNDLE"], {"dcflex.mps", "subprocess", "numpy.ma"}),
    "solve_cmd": (["solve", "--bundle", "BUNDLE", "--backend", f"cmd:{sys.executable} {ADAPTER}"],
                  {"dcflex.bnb", "dcflex.simplex", "numpy.ma"}),
    "compare": (["compare", "--bundle", "BUNDLE"], {"dcflex.mps", "subprocess", "numpy.ma"}),
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_a_command_loads_only_what_it_runs(solved, tmp_path, command):
    argv, unloaded = COMMANDS[command]
    bundle, run = solved
    argv = [a.replace("BUNDLE", str(bundle)).replace("RUN", str(run)) for a in argv]
    loaded = _after_main(argv + ["--out", str(tmp_path / "out"), "--quiet"])
    assert unloaded & loaded == set()


def test_pooled_compare_imports_its_cells_modules_before_forking(solved, tmp_path):
    # A pool of two workers, forked bare: no subprocess.
    loaded = _after_main(["compare", "--bundle", str(solved[0]), "--out", str(tmp_path / "o"),
                          "--strategies", "cooperative,decoupled", "--quiet"], cpus=2)
    assert {"dcflex.validate", "dcflex.workload", "dcflex.bnb", "dcflex.simplex"} <= loaded
    assert {"dcflex.mps", "subprocess"} & loaded == set()


# Commands that run the pool on two CPUs: gen-instance formats signal.csv in
# blocks, compare solves two cells and solve's branch and bound expands nodes.
POOLED = {
    "gen-instance": ["gen-instance", "--seed", "3", "--preset", "small", "--signal-days", "1"],
    "compare": ["compare", "--bundle", "BUNDLE", "--strategies", "cooperative,decoupled"],
    "solve": ["solve", "--bundle", "BUNDLE"],
}


@pytest.mark.parametrize("command", list(POOLED))
def test_the_pool_loads_no_process_pool_modules(solved, tmp_path, command):
    argv = [a.replace("BUNDLE", str(solved[0])) for a in POOLED[command]]
    loaded = _after_main(argv + ["--out", str(tmp_path / "out"), "--quiet"], cpus=2)
    assert {"multiprocessing", "concurrent.futures"} & loaded == set()
