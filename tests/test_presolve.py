"""Presolve: the three reductions, their edge cases on both backends, and
seeded LPs with fixed columns and redundant rows against HiGHS."""

import numpy as np
import pytest

import dcflex.optimizer as optimizer
from dcflex import simplex
from dcflex.optimizer import InfeasibleModel, solve_model
from dcflex.simplex import OPTIMAL, solve_lp
from dcflex.standard_form import EMPTY_ROW_TOL, INF, StandardFormModel, presolve
from test_mps import external_command  # noqa: F401  (fixture)
from test_simplex import _block_sparse_model, _scipy_solve


@pytest.fixture(params=["bundled", "cmd"])
def backend(request, external_command):
    return "bundled" if request.param == "bundled" else f"cmd:{external_command}"


def test_reductions_and_postsolve_map():
    m = StandardFormModel("mixed")
    a = m.add_variable("a", 0.0, 4.0, obj=1.0)
    f = m.add_variable("f", 2.5, 2.5, obj=-2.0)
    b = m.add_variable("b", -1.0, INF, obj=1.0)
    m.add_row("keep", [(a, 1.0), (f, 2.0), (b, -1.0)], ">=", 6.0)
    m.add_row("only_fixed", [(f, 4.0)], "=", 10.0)
    m.add_row("slack_hi", [(a, 1.0), (f, 1.0)], "<=", 6.5)
    m.add_row("slack_lo", [(a, 2.0), (b, 1.0)], ">=", -1.0)
    pre = presolve(m)
    assert pre.counts == {"cols": [3, 2], "rows": [4, 1]}
    assert [v.name for v in pre.model.variables] == ["a", "b"]
    (row,) = pre.model.rows
    assert (row.name, row.coeffs, row.sense, row.rhs) == ("keep", [(0, 1.0), (1, -1.0)], ">=", 1.0)
    assert pre.model.objective == {0: 1.0, 1: 1.0}
    assert pre.expand([3.0, 7.0]).tolist() == [3.0, 2.5, 7.0]
    # The bounds are the original's and the original is untouched.
    assert [(v.lb, v.ub) for v in pre.model.variables] == [(0.0, 4.0), (-1.0, INF)]
    assert m.n_vars == 3 and m.n_rows == 4


def test_empty_row_sense_check_allows_round_off_only():
    m = StandardFormModel("edge")
    x = m.add_variable("x", 1.0, 1.0)
    m.add_row("cap", [(x, 1.0)], "<=", 1.0 - 0.5 * EMPTY_ROW_TOL)
    assert presolve(m).model is not None
    m.rows[0].rhs = 1.0 - 2.0 * EMPTY_ROW_TOL
    assert presolve(m).infeasible_row == "cap"


def test_presolve_reads_bounds_at_call_time():
    m = StandardFormModel("rebound")
    z = m.add_variable("z", 0.0, 1.0, integer=True, obj=1.0)
    y = m.add_variable("y", 0.0, 1.0, obj=1.0)
    m.add_row("need", [(z, 1.0), (y, 1.0)], ">=", 1.5)
    assert presolve(m).counts["cols"] == [2, 2]
    m.variables[z].lb = 1.0
    assert presolve(m).counts == {"cols": [2, 1], "rows": [1, 1]}
    assert solve_lp(m).x.tolist() == pytest.approx([1.0, 0.5])
    m.variables[z].lb, m.variables[z].ub = 0.0, 0.0
    assert solve_lp(m).status == "infeasible"


def test_all_fixed_model_returns_its_fixed_point_without_a_solver(monkeypatch, backend):
    def refuse(*args, **kwargs):
        raise AssertionError("a solver ran on a model with every column fixed")

    monkeypatch.setattr(simplex, "_build_arrays", refuse)
    monkeypatch.setattr(optimizer, "run_external_solver", refuse)
    m = StandardFormModel("pinned")
    a = m.add_variable("a", 2.0, 2.0, obj=3.0)
    b = m.add_variable("b", -1.0, -1.0, obj=0.5)
    m.add_row("sum", [(a, 1.0), (b, 1.0)], "=", 1.0)
    m.add_row("cap", [(a, 1.0)], "<=", 5.0)
    values, stats = solve_model(m, backend)
    assert values.tolist() == [2.0, -1.0]
    assert m.evaluate_objective(values) == 5.5
    assert stats["presolve"] == {"cols": [2, 0], "rows": [2, 0]}
    res = solve_lp(m)
    assert (res.status, res.objective, res.iterations) == (OPTIMAL, 5.5, 0)


def test_violated_empty_row_is_infeasible_and_named(backend):
    m = StandardFormModel("broken")
    x = m.add_variable("x", 1.0, 1.0)
    y = m.add_variable("y", 0.0, 4.0, obj=1.0)
    m.add_row("cap_1_2", [(x, 2.0)], "<=", 1.5)
    m.add_row("floor_1", [(x, 1.0), (y, 1.0)], ">=", 2.0)
    assert presolve(m).infeasible_row == "cap_1_2"
    with pytest.raises(InfeasibleModel) as err:
        solve_model(m, backend)
    assert err.value.family_report == {"cap": 0.5}


def test_model_with_every_row_redundant_solves(backend):
    m = StandardFormModel("loose")
    x = m.add_variable("x", 0.0, 1.0, obj=-1.0)
    y = m.add_variable("y", -2.0, 2.0, obj=1.0)
    m.add_row("hi", [(x, 1.0), (y, 1.0)], "<=", 3.0)
    # Bound-tight: the activity minimum equals the right-hand side.
    m.add_row("lo", [(x, 1.0), (y, -1.0)], ">=", -2.0)
    values, stats = solve_model(m, backend)
    assert values.tolist() == pytest.approx([1.0, -2.0], abs=1e-9)
    assert stats["presolve"] == {"cols": [2, 2], "rows": [2, 0]}


def _with_presolve_targets(rng, model):
    """Add rows that presolve must remove to a feasible, bounded model:
    rows the boxes prove slack (some tight) and rows over fixed columns
    that hold at their values. Neither kind can bind, so the optimum stays."""
    boxed = [j for j, v in enumerate(model.variables)
             if v.lb != v.ub and v.lb != -INF and v.ub != INF]
    fixed = [j for j, v in enumerate(model.variables) if v.lb == v.ub]
    for r in range(4):
        nz = rng.choice(boxed, size=min(len(boxed), 4), replace=False)
        coeffs = [(int(j), float(rng.normal())) for j in nz]
        hi = sum(c * (model.variables[j].ub if c > 0 else model.variables[j].lb) for j, c in coeffs)
        lo = sum(c * (model.variables[j].lb if c > 0 else model.variables[j].ub) for j, c in coeffs)
        pad = 0.0 if r % 2 else abs(rng.normal())
        if r < 2:
            model.add_row(f"slack_hi_{r}", coeffs, "<=", hi + pad)
        else:
            model.add_row(f"slack_lo_{r}", coeffs, ">=", lo - pad)
    for r, sense in enumerate(("=", "<=", ">=")):
        nz = rng.choice(fixed, size=min(len(fixed), 3), replace=False)
        coeffs = [(int(j), float(rng.normal())) for j in nz]
        act = sum(c * model.variables[j].lb for j, c in coeffs)
        pad = {"=": 0.0, "<=": 1.0, ">=": -1.0}[sense]
        model.add_row(f"fixed_only_{r}", coeffs, sense, act + pad)
    return model


def test_seeded_lps_with_fixed_columns_and_redundant_rows_match_highs(backend):
    rng = np.random.Generator(np.random.PCG64(66))
    for trial in range(4):
        model = _with_presolve_targets(rng, _block_sparse_model(rng, 48, 24, n_blocks=2))
        pre = presolve(model)
        assert pre.counts["cols"][1] < model.n_vars and pre.counts["rows"][1] <= model.n_rows - 7
        ref = _scipy_solve(model)
        assert ref.status == 0, f"trial {trial}"
        values, stats = solve_model(model, backend)
        assert stats["presolve"] == pre.counts
        obj = model.evaluate_objective(values)
        assert abs(obj - ref.fun) <= 1e-6 * max(1.0, abs(ref.fun)), f"trial {trial}"
        assert model.max_violation(values) <= 1e-7, f"trial {trial}"
