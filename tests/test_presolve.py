"""Presolve: each reduction, its edge cases on both backends, and seeded
LPs with fixed columns and redundant, duplicate, parallel and singleton
rows against HiGHS."""

import copy

import numpy as np
import pytest

from dcflex import mps, simplex
from dcflex.artifacts import InfeasibleModel
from dcflex.optimizer import solve_model
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
    assert pre.counts == {"cols": [3, 2], "rows": [4, 1], "nnz": [8, 2]}
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
    w = m.add_variable("w", 0.0, 0.25, obj=2.0)
    m.add_row("need", [(z, 1.0), (y, 1.0), (w, 1.0)], ">=", 1.5)
    assert presolve(m).counts["cols"] == [3, 3]
    m.variables[z].lb = 1.0
    assert presolve(m).counts == {"cols": [3, 2], "rows": [1, 1], "nnz": [3, 2]}
    assert solve_lp(m).x.tolist() == pytest.approx([1.0, 0.5, 0.0])
    m.variables[z].lb, m.variables[z].ub = 0.0, 0.0
    assert solve_lp(m).status == "infeasible"


def test_all_fixed_model_returns_its_fixed_point_without_a_solver(monkeypatch, backend):
    def refuse(*args, **kwargs):
        raise AssertionError("a solver ran on a model with every column fixed")

    monkeypatch.setattr(simplex, "_build_arrays", refuse)
    monkeypatch.setattr(mps, "run_external_solver", refuse)
    m = StandardFormModel("pinned")
    a = m.add_variable("a", 2.0, 2.0, obj=3.0)
    b = m.add_variable("b", -1.0, -1.0, obj=0.5)
    m.add_row("sum", [(a, 1.0), (b, 1.0)], "=", 1.0)
    m.add_row("cap", [(a, 1.0)], "<=", 5.0)
    values, stats = solve_model(m, backend)
    assert values.tolist() == [2.0, -1.0]
    assert m.evaluate_objective(values) == 5.5
    assert stats["presolve"] == {"cols": [2, 0], "rows": [2, 0], "nnz": [3, 0]}
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
    assert stats["presolve"] == {"cols": [2, 2], "rows": [2, 0], "nnz": [4, 0]}


def _kept(model):
    return [row.name for row in presolve(model).model.rows]


def test_duplicate_rows_keep_the_first():
    m = StandardFormModel("twins")
    x = m.add_variable("x", -1.0, 4.0, obj=1.0)
    y = m.add_variable("y", -1.0, 4.0, obj=1.0)
    for sense in ("<=", "=", ">="):
        m.add_row(f"a{sense}", [(x, 1.5), (y, -2.0)], sense, 1.0)
        m.add_row(f"b{sense}", [(y, -2.0), (x, 1.5)], sense, 1.0)
    # Not duplicates: a different rhs and a different coefficient.
    m.add_row("c", [(x, 1.5), (y, -2.0)], "<=", 1.5)
    m.add_row("d", [(x, 1.5), (y, -2.5)], "=", 1.0)
    assert _kept(m) == ["a<=", "a=", "a>=", "c", "d"]
    assert presolve(m).counts["nnz"] == [16, 10]


@pytest.mark.parametrize("sense, kept", [("<=", "strong_le"), (">=", "strong_ge")])
def test_parallel_rows_keep_the_row_that_implies_the_other(sense, kept):
    m = StandardFormModel("parallel")
    x = m.add_variable("x", -1.0, 4.0, obj=1.0)
    r = m.add_variable("r", 0.0, INF, obj=-1.0)
    # For <=, 3r >= 2r when r >= 0, so the 3r row implies the 2r row; for
    # >=, the 2r row implies the 3r row. The row kept takes the first row's
    # place when it comes second.
    first, second = (("weak_le", 2.0), ("strong_le", 3.0)) if sense == "<=" else (
        ("strong_ge", 2.0), ("weak_ge", 3.0))
    m.add_row(first[0], [(x, 1.0), (r, first[1])], sense, 5.0)
    m.add_row(second[0], [(x, 1.0), (r, second[1])], sense, 5.0)
    assert _kept(m) == [kept]
    # The same rows in the other order keep the same one.
    m.rows.reverse()
    assert _kept(m) == [kept]
    # A column that may go negative proves nothing.
    m.variables[r].lb = -1.0
    assert presolve(m).counts["rows"] == [2, 2]


def test_parallel_match_needs_one_differing_coefficient_and_equal_rhs():
    m = StandardFormModel("near")
    x = m.add_variable("x", 0.0, 4.0, obj=1.0)
    y = m.add_variable("y", 0.0, 4.0, obj=1.0)
    z = m.add_variable("z", 0.0, 4.0, obj=1.0)
    m.add_row("a", [(x, 1.0), (y, 1.0), (z, 1.0)], "<=", 5.0)
    m.add_row("two_differ", [(x, 2.0), (y, 2.0), (z, 1.0)], "<=", 5.0)
    m.add_row("other_rhs", [(x, 1.0), (y, 2.0), (z, 1.0)], "<=", 5.5)
    m.add_row("other_cols", [(x, 1.0), (y, 2.0)], "<=", 5.0)
    assert presolve(m).counts["rows"] == [4, 4]


def test_equality_rows_are_never_parallel():
    m = StandardFormModel("eq")
    x = m.add_variable("x", 0.0, 4.0, obj=1.0)
    r = m.add_variable("r", 0.0, 4.0, obj=1.0)
    m.add_row("e2", [(x, 1.0), (r, 2.0)], "=", 3.0)
    m.add_row("e3", [(x, 1.0), (r, 3.0)], "=", 3.0)
    assert _kept(m) == ["e2", "e3"]
    # Together they pin r = 0 and x = 3, which neither row alone does.
    assert solve_lp(m).x.tolist() == pytest.approx([3.0, 0.0], abs=1e-9)


def test_continuous_singleton_rows_become_bounds():
    m = StandardFormModel("single")
    x = m.add_variable("x", 0.0, 10.0, obj=-1.0)
    y = m.add_variable("y", -INF, INF, obj=1.0)
    f = m.add_variable("f", 2.0, 2.0)
    m.add_row("x_cap", [(x, 2.0)], "<=", 8.0)
    m.add_row("y_floor", [(y, -1.0), (f, 1.0)], "<=", 3.0)  # y >= -1 once f folds
    m.add_row("y_pin", [(y, 4.0)], "=", 2.0)
    m.add_row("x_loose", [(x, 1.0)], "<=", 9.0)  # looser than x_cap: dropped
    pre = presolve(m)
    assert pre.counts == {"cols": [3, 2], "rows": [4, 0], "nnz": [5, 0]}
    assert [(v.lb, v.ub) for v in pre.model.variables] == [(0.0, 4.0), (0.5, 0.5)]
    # The original keeps its bounds.
    assert [(v.lb, v.ub) for v in m.variables] == [(0.0, 10.0), (-INF, INF), (2.0, 2.0)]
    res = solve_lp(m)
    assert (res.status, res.x.tolist(), res.presolve) == (OPTIMAL, [4.0, 0.5, 2.0], pre.counts)


def test_integer_singleton_stays_a_row():
    m = StandardFormModel("pin")
    z = m.add_variable("z", 0.0, 1.0, integer=True, obj=-1.0)
    m.add_row("z_cap", [(z, 2.0)], "<=", 1.0)
    pre = presolve(m)
    (row,) = pre.model.rows
    assert (row.name, row.coeffs, row.sense, row.rhs) == ("z_cap", [(0, 2.0)], "<=", 1.0)
    assert (pre.model.variables[0].lb, pre.model.variables[0].ub) == (0.0, 1.0)
    values, stats = solve_model(m)
    assert values.tolist() == [0.0] and stats["presolve"]["rows"] == [1, 1]


def test_equal_singletons_one_ulp_apart_keep_the_second_as_a_row(backend):
    # Two = singletons on one column whose rhs / c differ in the last bit:
    # the crossing is round-off, so the second stays a row and the model
    # solves, as HiGHS solves the original.
    m = StandardFormModel("ulp")
    x = m.add_variable("x", 0.0, 10.0, obj=1.0)
    y = m.add_variable("y", 0.0, 10.0, obj=1.0)
    third = 1.0 / 3.0
    m.add_row("pin_a", [(x, 3.0)], "=", 1.0)
    m.add_row("pin_b", [(x, 1.0)], "=", np.nextafter(third, 0.0))
    m.add_row("link", [(x, 1.0), (y, 1.0)], ">=", 1.0)
    pre = presolve(m)
    assert [row.name for row in pre.model.rows] == ["pin_b", "link"]
    assert (pre.model.variables[0].lb, pre.model.variables[0].ub) == (third, third)
    ref = _scipy_solve(m)
    assert ref.status == 0
    values, _ = solve_model(m, backend)
    assert m.evaluate_objective(values) == pytest.approx(ref.fun, abs=1e-9)
    assert m.max_violation(values) <= 1e-9
    # A crossing within EMPTY_ROW_TOL of the rhs also stays a row.
    m.rows[1].rhs = third - 0.5 * EMPTY_ROW_TOL
    assert _kept(m) == ["pin_b", "link"]


def test_singleton_crossing_a_bound_is_infeasible_and_named(backend):
    m = StandardFormModel("crossed")
    x = m.add_variable("x", 0.0, 1.0)
    y = m.add_variable("y", 0.0, 4.0, obj=1.0)
    m.add_row("floor_1", [(x, 1.0), (y, 1.0)], ">=", 1.0)
    m.add_row("cap_1_2", [(x, 2.0)], ">=", 2.0 + 4.0 * EMPTY_ROW_TOL)
    assert presolve(m).infeasible_row == "cap_1_2"
    with pytest.raises(InfeasibleModel) as err:
        solve_model(m, backend)
    assert list(err.value.family_report) == ["cap"]


def _with_presolve_targets(rng, model):
    """Add rows that presolve must remove to a feasible, bounded model:
    rows the boxes prove slack (some tight), rows over fixed columns that
    hold at their values, a duplicate of a <=/>= row, a weaker parallel
    copy of it placed first, and a singleton the feasible point meets at
    the top of its box. None of them cuts that point off."""
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

    def nonneg(j):
        return model.variables[j].lb >= 0.0 and model.variables[j].lb != model.variables[j].ub

    row = next(r for r in model.rows
               if r.sense != "=" and any(nonneg(j) for j, _ in r.coeffs))
    model.add_row(f"{row.name}_twin", row.coeffs, row.sense, row.rhs)
    k = next(i for i, (j, _) in enumerate(row.coeffs) if nonneg(j))
    weaker = list(row.coeffs)
    weaker[k] = (weaker[k][0], weaker[k][1] + (-0.5 if row.sense == "<=" else 0.5))
    model.add_row(f"{row.name}_weaker", weaker, row.sense, row.rhs)
    model.rows.insert(0, model.rows.pop())
    # The feasible point sits in the top tenth of each box.
    j = int(rng.choice(boxed))
    v = model.variables[j]
    model.add_row(f"single_{j}", [(j, 2.0)], ">=", v.lb + v.ub)
    return model


def test_seeded_lps_with_fixed_columns_and_redundant_rows_match_highs(backend):
    rng = np.random.Generator(np.random.PCG64(66))
    for trial in range(4):
        model = _with_presolve_targets(rng, _block_sparse_model(rng, 48, 24, n_blocks=2))
        pre = presolve(model)
        assert pre.counts["cols"][1] < model.n_vars and pre.counts["rows"][1] <= model.n_rows - 10
        ref = _scipy_solve(model)
        assert ref.status == 0, f"trial {trial}"
        values, stats = solve_model(model, backend)
        assert stats["presolve"] == pre.counts
        obj = model.evaluate_objective(values)
        assert abs(obj - ref.fun) <= 1e-6 * max(1.0, abs(ref.fun)), f"trial {trial}"
        assert model.max_violation(values) <= 1e-7, f"trial {trial}"


def _as_data(pre):
    reduced = pre.model
    return (None if reduced is None else (
                [(v.name, v.lb, v.ub, v.integer) for v in reduced.variables],
                [(r.name, r.coeffs, r.sense, r.rhs) for r in reduced.rows],
                reduced.objective),
            pre.keep.tolist(), pre.fixed.tolist(), pre.counts, pre.infeasible_row)


def test_pins_act_as_fixed_bounds_on_a_copy():
    rng = np.random.Generator(np.random.PCG64(66))
    for trial in range(4):
        model = _with_presolve_targets(rng, _block_sparse_model(rng, 48, 24, n_blocks=2))
        # Pinned at an optimum, so the pinned model stays feasible.
        optimum = solve_lp(model).x
        open_cols = [j for j, v in enumerate(model.variables) if v.lb != v.ub]
        pins = {int(j): float(optimum[j]) for j in rng.choice(open_cols, size=6, replace=False)}
        fixed = copy.deepcopy(model)
        for j, value in pins.items():
            fixed.variables[j].lb = fixed.variables[j].ub = value
        before = copy.deepcopy(model)
        pre, ref = presolve(model, pins), presolve(fixed)
        assert _as_data(pre) == _as_data(ref), f"trial {trial}"
        assert pre.model is not None and pre.counts["cols"][1] < len(open_cols)
        values = rng.uniform(-1.0, 1.0, pre.model.n_vars)
        assert pre.expand(values).tolist() == ref.expand(values).tolist()
        assert model == before, f"trial {trial}"
