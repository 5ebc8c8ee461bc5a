import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from dcflex import simplex
from dcflex.artifacts import SolverError
from dcflex.optimizer import solve_model
from dcflex.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp
from dcflex.standard_form import INF, StandardFormModel, presolve


def simple_model():
    m = StandardFormModel("toy")
    x = m.add_variable("x", lb=0.0, obj=1.0)
    m.add_row("floor", [(x, 1.0)], ">=", 3.0)
    return m


def test_min_x_above_three():
    res = solve_lp(simple_model())
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(3.0, abs=1e-9)


def test_upper_bounded_maximization():
    m = StandardFormModel()
    x = m.add_variable("x", lb=0.0, ub=4.0, obj=-1.0)
    y = m.add_variable("y", lb=0.0, ub=3.0, obj=-2.0)
    m.add_row("cap", [(x, 1.0), (y, 1.0)], "<=", 5.0)
    res = solve_lp(m)
    assert res.status == OPTIMAL
    # y saturates at 3, then x fills the row to 2.
    assert res.objective == pytest.approx(-8.0, abs=1e-8)
    assert res.x[1] == pytest.approx(3.0, abs=1e-8)


def test_free_variable_equality():
    m = StandardFormModel()
    x = m.add_variable("x", lb=-INF, ub=INF, obj=1.0)
    m.add_row("pin", [(x, 1.0)], "=", -7.5)
    res = solve_lp(m)
    assert res.status == OPTIMAL
    assert res.x[0] == pytest.approx(-7.5, abs=1e-9)


def test_detects_infeasible():
    m = StandardFormModel()
    x = m.add_variable("x", lb=0.0, ub=1.0)
    m.add_row("too_big", [(x, 1.0)], ">=", 2.0)
    assert solve_lp(m).status == INFEASIBLE


def test_detects_unbounded():
    m = StandardFormModel()
    x = m.add_variable("x", lb=0.0, ub=INF, obj=-1.0)
    m.add_row("slacky", [(x, 1.0)], ">=", 0.0)
    assert solve_lp(m).status == UNBOUNDED


def test_fixed_variables_fold_into_rhs():
    m = StandardFormModel()
    x = m.add_variable("x", lb=2.0, ub=2.0, obj=1.0)
    y = m.add_variable("y", lb=0.0, obj=1.0)
    m.add_row("sum", [(x, 1.0), (y, 1.0)], ">=", 5.0)
    res = solve_lp(m)
    assert res.status == OPTIMAL
    assert res.x[0] == pytest.approx(2.0)
    assert res.x[1] == pytest.approx(3.0, abs=1e-9)


def test_degenerate_redundant_equalities_terminate():
    # Multiple copies of the same equality plus a redundant inequality fan.
    # Presolve drops the duplicate rows before the simplex runs, so this
    # does not reach Bland's rule; test_blands_rule_alone_matches_reference_solver does.
    m = StandardFormModel()
    xs = [m.add_variable(f"x{i}", lb=0.0, ub=10.0, obj=1.0 + 0.0 * i) for i in range(6)]
    for r in range(4):
        m.add_row(f"eq{r}", [(x, 1.0) for x in xs], "=", 6.0)
    for i, x in enumerate(xs):
        m.add_row(f"cap{i}", [(x, 1.0)], "<=", 6.0)
        m.add_row(f"pair{i}", [(x, 1.0), (xs[(i + 1) % 6], 1.0)], "<=", 6.0)
    res = solve_lp(m)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(6.0, abs=1e-8)


def _random_model(rng, n_vars, n_rows):
    m = StandardFormModel("rand")
    for j in range(n_vars):
        kind = rng.integers(0, 8)
        if kind <= 1:
            lb, ub = 0.0, INF
        elif kind <= 4:
            lb, ub = 0.0, float(rng.uniform(0.5, 5.0))
        elif kind <= 6:
            lb, ub = float(rng.uniform(-3, 0)), float(rng.uniform(0.5, 4.0))
        else:
            lb, ub = -INF, INF
        m.add_variable(f"v{j}", lb=lb, ub=ub, obj=float(rng.normal()))
    x_feas = np.array([
        rng.uniform(max(v.lb, -2.0), min(v.ub, 3.0)) for v in m.variables
    ])
    for r in range(n_rows):
        nz = rng.choice(n_vars, size=min(n_vars, int(rng.integers(1, 5))), replace=False)
        coeffs = [(int(j), float(rng.normal())) for j in nz]
        act = sum(c * x_feas[j] for j, c in coeffs)
        sense = ["<=", ">=", "="][int(rng.integers(0, 3))]
        # Keep x_feas feasible so the instance is never empty.
        if sense == "<=":
            rhs = act + abs(rng.normal())
        elif sense == ">=":
            rhs = act - abs(rng.normal())
        else:
            rhs = act
        m.add_row(f"r{r}", coeffs, sense, float(rhs))
    return m


def _scipy_solve(model):
    c = model.objective_vector()
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    n = model.n_vars
    for row in model.rows:
        dense = np.zeros(n)
        for j, coef in row.coeffs:
            dense[j] = coef
        if row.sense == "<=":
            a_ub.append(dense)
            b_ub.append(row.rhs)
        elif row.sense == ">=":
            a_ub.append(-dense)
            b_ub.append(-row.rhs)
        else:
            a_eq.append(dense)
            b_eq.append(row.rhs)
    bounds = [
        (None if v.lb == -INF else v.lb, None if v.ub == INF else v.ub)
        for v in model.variables
    ]
    return linprog(
        c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )


def _matches_reference(model, trial) -> bool:
    """Assert solve_lp agrees with HiGHS on status (and the optimum when
    both find one); True when the optimum was compared."""
    ours = solve_lp(model)
    ref = _scipy_solve(model)
    if ours.status == OPTIMAL:
        assert ref.status == 0, f"trial {trial}: we say optimal, reference disagrees"
        scale = max(1.0, abs(ref.fun))
        assert abs(ours.objective - ref.fun) / scale <= 1e-6, f"trial {trial}"
        assert model.max_violation(ours.x) <= 1e-7
        return True
    if ours.status == INFEASIBLE:
        assert ref.status == 2, f"trial {trial}: infeasibility disagreement"
    elif ours.status == UNBOUNDED:
        assert ref.status == 3, f"trial {trial}: unboundedness disagreement"
    return False


def test_hundred_random_lps_match_reference_solver():
    rng = np.random.Generator(np.random.PCG64(2024))
    checked = 0
    for trial in range(100):
        model = _random_model(rng, n_vars=int(rng.integers(2, 9)), n_rows=int(rng.integers(1, 8)))
        checked += _matches_reference(model, trial)
    # Construction keeps a feasible point, so the optimal branch dominates.
    assert checked >= 60


def test_blands_rule_alone_matches_reference_solver(monkeypatch):
    # A streak of 0 makes every pivot, not only those after a run of
    # degenerate steps, enter the lowest-index improving column.
    monkeypatch.setattr(simplex, "DEGENERATE_STREAK", 0)
    rng = np.random.Generator(np.random.PCG64(2024))
    checked = 0
    for trial in range(30):
        model = _random_model(rng, n_vars=int(rng.integers(2, 9)), n_rows=int(rng.integers(1, 8)))
        checked += _matches_reference(model, trial)
    assert checked >= 15


def test_upper_bounded_only_columns_match_reference_solver():
    # No model builder emits a column with lb = -inf and a finite ub (the
    # solver's x = ub - y columns), so half of _random_model's columns are
    # turned into that kind here; raising an infinite ub to 3 + u keeps the
    # construction's feasible point, which lies in [-2, 3].
    rng = np.random.Generator(np.random.PCG64(31))
    checked = mirrored = 0
    for trial in range(100):
        model = _random_model(rng, n_vars=int(rng.integers(2, 9)), n_rows=int(rng.integers(1, 8)))
        for v in model.variables:
            if rng.random() < 0.5:
                v.lb, v.ub = -INF, v.ub if v.ub != INF else 3.0 + float(rng.uniform(0.0, 2.0))
                mirrored += 1
        checked += _matches_reference(model, trial)
    # Dropping lower bounds leaves some objectives unbounded below.
    assert checked >= 50 and mirrored >= 200


def test_column_map_of_shift_mirror_and_free_columns():
    m = StandardFormModel("map")
    m.add_variable("shift", lb=1.0, ub=4.0, obj=1.0)    # x = 1 + y0
    m.add_variable("mirror", lb=-INF, ub=2.0, obj=-2.0)  # x = 2 - y1
    m.add_variable("free", lb=-INF, ub=INF, obj=0.5)    # x = y2 - y3
    m.add_row("r0", [(0, 2.0), (1, 3.0), (2, 1.0)], "<=", 10.0)
    m.add_row("r1", [(0, -1.0), (1, 1.0), (2, -2.0)], ">=", -5.0)
    a, b, senses, col_ub, col_cost, cmap = simplex._build_arrays(m)
    np.testing.assert_array_equal(a, [[2.0, -3.0, 1.0, -1.0], [-1.0, -1.0, -2.0, 2.0]])
    np.testing.assert_array_equal(b, [10.0 - 2.0 - 6.0, -5.0 + 1.0 - 2.0])
    assert list(senses) == ["<=", ">="]
    np.testing.assert_array_equal(col_ub, [3.0, INF, INF, INF])
    np.testing.assert_array_equal(col_cost, [1.0, 2.0, 0.5, -0.5])

    # A model-space point mapped into the columns comes back bitwise.
    col, sign, offset, free = cmap
    np.testing.assert_array_equal(col, [0, 1, 2])
    for x in ([2.5, -1.25, -0.75], [1.0, 2.0, 0.375], [4.0, 2.0, 0.0]):
        x = np.array(x)
        y = np.zeros(4)
        y[col] = np.where(free, np.maximum(x, 0.0), sign * (x - offset))
        y[col[free] + 1] = np.maximum(-x[free], 0.0)
        assert simplex._recover(y, cmap).tobytes() == x.tobytes(), x


def test_solution_is_primal_feasible_tightly():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(20):
        model = _random_model(rng, 6, 5)
        res = solve_lp(model)
        if res.status == OPTIMAL:
            assert model.max_violation(res.x) <= 1e-7


def _block_sparse_model(rng, n_vars, n_rows, n_blocks=4):
    """A feasible, bounded LP whose rows each draw 2-12 columns from one block.

    Columns are boxed, half-bounded, fixed or free. The feasible point sits
    near the top of each box. The objective is A^T y for a dual y of the
    sign each row's sense admits, plus a nonnegative reduced cost on each
    half-bounded column and a negative one on each boxed column, so the LP
    has an optimum with the boxed columns pushed to their upper bounds.
    """
    m = StandardFormModel("block")
    for j in range(n_vars):
        kind = int(rng.integers(0, 10))
        if kind <= 4:
            lb, ub = 0.0, float(rng.uniform(0.5, 5.0))
        elif kind <= 6:
            lb, ub = float(rng.uniform(-3, 0)), float(rng.uniform(0.5, 4.0))
        elif kind == 7:
            lb, ub = 0.0, INF
        elif kind == 8:
            lb = ub = float(rng.uniform(-1.0, 2.0))
        else:
            lb, ub = -INF, INF
        m.add_variable(f"v{j}", lb=lb, ub=ub)
    x_feas = np.array([
        v.ub - (v.ub - v.lb) * rng.uniform(0.0, 0.1) if v.ub != INF
        else rng.uniform(max(v.lb, -2.0), 3.0) for v in m.variables
    ])
    blocks = np.array_split(rng.permutation(n_vars), n_blocks)
    cost = np.zeros(n_vars)
    for r in range(n_rows):
        block = blocks[r % n_blocks]
        nz = rng.choice(block, size=int(rng.integers(2, 13)), replace=False)
        coeffs = [(int(j), float(rng.normal())) for j in nz]
        act = sum(c * x_feas[j] for j, c in coeffs)
        sense = ["<=", ">=", "="][int(rng.integers(0, 3))]
        slack = abs(rng.normal()) if rng.random() < 0.5 else 0.0
        rhs = act + slack if sense == "<=" else act - slack if sense == ">=" else act
        m.add_row(f"r{r}", coeffs, sense, float(rhs))
        y = {"<=": -1.0, ">=": 1.0, "=": float(rng.choice([-1.0, 1.0]))}[sense]
        y *= float(rng.uniform(0.0, 1.0))
        for j, c in coeffs:
            cost[j] += y * c
    for j, v in enumerate(m.variables):
        if v.lb != -INF:
            cost[j] += float(rng.exponential()) * (1.0 if v.ub == INF else -1.0)
    m.objective = {j: float(c) for j, c in enumerate(cost) if c != 0.0}
    return m


def test_block_sparse_lps_match_reference_solver():
    # Large enough that some solves run past the periodic refresh of the
    # basic values (every 256 iterations) with columns resting at their
    # upper bounds, and pivot on columns nonzero only in the pivot row.
    rng = np.random.Generator(np.random.PCG64(515))
    longest = 0
    for trial in range(12):
        model = _block_sparse_model(rng, int(rng.integers(100, 151)), int(rng.integers(80, 121)))
        ours = solve_lp(model)
        ref = _scipy_solve(model)
        assert ours.status == OPTIMAL and ref.status == 0, f"trial {trial}"
        assert abs(ours.objective - ref.fun) <= 1e-6 * max(1.0, abs(ref.fun)), f"trial {trial}"
        assert model.max_violation(ours.x) <= 1e-7, f"trial {trial}"
        longest = max(longest, ours.iterations)
    assert longest > 256


def test_model_over_tableau_budget_is_refused_before_allocation(monkeypatch):
    def no_arrays(model):
        raise AssertionError("tableau data built for a refused model")

    monkeypatch.setattr(simplex, "MAX_TABLEAU_BYTES", 64)
    monkeypatch.setattr(simplex, "_build_arrays", no_arrays)
    lp = StandardFormModel("toy")
    x = lp.add_variable("x", lb=0.0, obj=1.0)
    z = lp.add_variable("z", lb=-INF, ub=INF)
    lp.add_row("floor", [(x, 1.0), (z, -1.0)], ">=", 3.0)
    lp.add_row("tie", [(x, 1.0), (z, 1.0)], "=", 1.0)
    # 2 rows x (2 variables + 1 split column + 2 rows) = 80 bytes > 64.
    with pytest.raises(SolverError, match=r"toy: .* 2 rows x 5 columns .*--backend cmd:"):
        solve_lp(lp)
    with pytest.raises(SolverError, match="toy: "):
        solve_model(lp)
    lp.variables[0].ub, lp.variables[0].integer = 1.0, True
    with pytest.raises(SolverError, match="toy: "):
        solve_model(lp)


def test_guard_counts_at_least_what_the_solve_holds():
    # The least tableau alone, rows x (n + m) x 8 bytes, is under half of
    # these peaks; the guard also counts surplus columns and temporaries.
    rng = np.random.Generator(np.random.PCG64(5))
    for trial in range(3):
        model = _block_sparse_model(rng, int(rng.integers(100, 151)), int(rng.integers(80, 121)))
        held = simplex._footprint(presolve(model).model)[2]
        tracemalloc.start()
        try:
            assert solve_lp(model).status == OPTIMAL
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held >= peak, f"trial {trial}"
