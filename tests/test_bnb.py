import itertools

import numpy as np
import pytest
from scipy.optimize import LinearConstraint, milp
from scipy.optimize import Bounds as ScipyBounds

import dcflex.bnb as bnb
from dcflex.artifacts import SolverError
from dcflex.bnb import solve_mip
from dcflex.simplex import ITERATION_LIMIT, OPTIMAL, LPResult, solve_lp
from dcflex.standard_form import INF, StandardFormModel


def knapsack_model(values, weights, capacity):
    m = StandardFormModel("knapsack")
    for i, v in enumerate(values):
        m.add_variable(f"z{i}", lb=0.0, ub=1.0, integer=True, obj=-float(v))
    m.add_row("cap", [(i, float(w)) for i, w in enumerate(weights)], "<=", float(capacity))
    return m


def brute_force_knapsack(values, weights, capacity):
    best = 0.0
    for picks in itertools.product([0, 1], repeat=len(values)):
        if sum(p * w for p, w in zip(picks, weights)) <= capacity:
            best = max(best, sum(p * v for p, v in zip(picks, values)))
    return best


def test_all_binaries_fixed_reduces_to_lp():
    m = StandardFormModel()
    z = m.add_variable("z", lb=1.0, ub=1.0, integer=True, obj=2.0)
    x = m.add_variable("x", lb=0.0, obj=1.0)
    m.add_row("link", [(x, 1.0), (z, -3.0)], ">=", 0.0)
    mip = solve_mip(m)
    lp = solve_lp(m)
    assert mip.status == OPTIMAL
    assert mip.objective == pytest.approx(lp.objective, abs=1e-9)
    assert mip.objective == pytest.approx(5.0, abs=1e-9)


def test_knapsack_matches_brute_force():
    values = [10, 13, 7, 8, 11, 4]
    weights = [3, 4, 2, 3, 4, 1]
    capacity = 8
    res = solve_mip(knapsack_model(values, weights, capacity))
    assert res.status == OPTIMAL
    assert -res.objective == pytest.approx(brute_force_knapsack(values, weights, capacity))


def test_two_slot_commitment_choice_matches_enumeration():
    # One generator, two slots, fixed demand per slot, commitment cost via
    # a minimum-output floor; enumerate the 4 on/off patterns by hand.
    demand = [3.0, 9.0]
    p_min, p_max, cost, penal = 4.0, 10.0, 5.0, 50.0
    m = StandardFormModel()
    u = [m.add_variable(f"u{t}", 0.0, 1.0, integer=True) for t in range(2)]
    p = [m.add_variable(f"p{t}", 0.0, p_max, obj=cost) for t in range(2)]
    shed = [m.add_variable(f"q{t}", 0.0, INF, obj=penal) for t in range(2)]
    for t in range(2):
        m.add_row(f"bal{t}", [(p[t], 1.0), (shed[t], 1.0)], "=", demand[t])
        m.add_row(f"pmax{t}", [(p[t], 1.0), (u[t], -p_max)], "<=", 0.0)
        m.add_row(f"pmin{t}", [(p[t], -1.0), (u[t], p_min)], "<=", 0.0)
    res = solve_mip(m)

    best = float("inf")
    for pattern in itertools.product([0, 1], repeat=2):
        total = 0.0
        feasible = True
        for t in range(2):
            if pattern[t]:
                # p + shed = demand with p in [p_min, p_max], shed >= 0.
                if demand[t] < p_min:
                    feasible = False
                    break
                gen = min(demand[t], p_max)
                total += cost * gen + penal * (demand[t] - gen)
            else:
                total += penal * demand[t]
        if feasible:
            best = min(best, total)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(best, rel=1e-9)


def test_infeasible_binary_model():
    m = StandardFormModel()
    z = m.add_variable("z", 0.0, 1.0, integer=True)
    m.add_row("impossible", [(z, 1.0)], ">=", 1.5)
    assert solve_mip(m).status == "infeasible"


def test_search_that_exhausts_both_children_is_infeasible():
    # 2z = 1: the root LP is feasible at z = 0.5, and neither z = 0 nor
    # z = 1 satisfies the row, so the search ends with no incumbent.
    m = StandardFormModel()
    z = m.add_variable("z", 0.0, 1.0, integer=True)
    m.add_row("half", [(z, 2.0)], "=", 1.0)
    res = solve_mip(m)
    assert res.status == "infeasible" and res.nodes == 3


def test_rejects_general_integers():
    m = StandardFormModel()
    m.add_variable("n", 0.0, 5.0, integer=True)
    with pytest.raises(ValueError, match="binaries"):
        solve_mip(m)


def _random_binary_model(rng, n_bin, n_cont, n_rows):
    m = StandardFormModel()
    for i in range(n_bin):
        m.add_variable(f"z{i}", 0.0, 1.0, integer=True, obj=float(rng.normal()))
    for i in range(n_cont):
        m.add_variable(f"x{i}", 0.0, float(rng.uniform(1, 4)), obj=float(rng.normal()))
    n = n_bin + n_cont
    point = np.concatenate([
        rng.integers(0, 2, size=n_bin).astype(float),
        np.array([rng.uniform(0, m.variables[n_bin + i].ub) for i in range(n_cont)]),
    ])
    for r in range(n_rows):
        nz = rng.choice(n, size=min(n, 3), replace=False)
        coeffs = [(int(j), float(rng.normal())) for j in nz]
        act = sum(c * point[j] for j, c in coeffs)
        m.add_row(f"r{r}", coeffs, "<=", float(act + abs(rng.normal()) * 0.5))
    return m


def _scipy_milp(model):
    c = model.objective_vector()
    n = model.n_vars
    constraints = []
    for row in model.rows:
        dense = np.zeros(n)
        for j, coef in row.coeffs:
            dense[j] = coef
        if row.sense == "<=":
            constraints.append(LinearConstraint(dense, -np.inf, row.rhs))
        elif row.sense == ">=":
            constraints.append(LinearConstraint(dense, row.rhs, np.inf))
        else:
            constraints.append(LinearConstraint(dense, row.rhs, row.rhs))
    integrality = np.array([1 if v.integer else 0 for v in model.variables])
    lb = np.array([v.lb for v in model.variables])
    ub = np.array([v.ub for v in model.variables])
    return milp(c, constraints=constraints, integrality=integrality,
                bounds=ScipyBounds(lb, ub))


def test_random_binary_models_match_reference():
    rng = np.random.Generator(np.random.PCG64(99))
    agreements = 0
    for _ in range(25):
        model = _random_binary_model(rng, n_bin=5, n_cont=3, n_rows=4)
        ours = solve_mip(model)
        ref = _scipy_milp(model)
        if ours.status == OPTIMAL:
            assert ref.status == 0
            assert abs(ours.objective - ref.fun) / max(1.0, abs(ref.fun)) <= 1e-6
            agreements += 1
        elif ours.status == "infeasible":
            assert ref.status == 2
    assert agreements >= 15


def test_root_iteration_limit_is_not_reported_as_time_limit(monkeypatch):
    monkeypatch.setattr(bnb, "solve_lp", lambda model: LPResult(ITERATION_LIMIT, None, None, 9))
    res = solve_mip(knapsack_model([10, 13, 7], [3, 4, 2], 5))
    assert res.status == ITERATION_LIMIT and res.x is None


def _bounds(model):
    return [(v.lb, v.ub) for v in model.variables]


@pytest.mark.parametrize("raise_at", [None, 3])
def test_solves_leave_the_callers_bounds_as_they_were(monkeypatch, raise_at):
    model = knapsack_model([10, 13, 7, 8, 11, 4], [3, 4, 2, 3, 4, 1], 8)
    before = _bounds(model)
    calls = []

    def spy(m, pins=None):
        calls.append(pins)
        assert m is model and _bounds(m) == before
        if len(calls) == raise_at:
            raise SolverError("node solve failed")
        return solve_lp(m, pins)

    monkeypatch.setattr(bnb, "solve_lp", spy)
    if raise_at is None:
        assert solve_mip(model).status == OPTIMAL
    else:
        with pytest.raises(SolverError):
            solve_mip(model)
    assert len(calls) >= 3 and calls[0] is None and calls[2]  # the third is a node's
    assert _bounds(model) == before


def test_failed_final_resolve_returns_the_incumbents_own_solve(monkeypatch):
    model = knapsack_model([10, 13, 7, 8, 11, 4], [3, 4, 2, 3, 4, 1], 8)
    int_idx = model.integer_indices()
    results = []

    def near_integral(m, pins=None):
        # Binaries within INT_TOL of 0 or 1 count as integral; hold them
        # 1e-9 inside so a rounded point differs from the solved one.
        res = solve_lp(m, pins)
        if res.status == OPTIMAL:
            res.x[int_idx] = np.clip(res.x[int_idx], 1e-9, 1.0 - 1e-9)
        results.append(res)
        return res

    monkeypatch.setattr(bnb, "solve_lp", near_integral)
    clean = solve_mip(model)
    n_calls = len(results)
    results.clear()

    def final_fails(m, pins=None):
        if len(results) == n_calls - 1:
            return LPResult(ITERATION_LIMIT, None, None, 0)
        return near_integral(m, pins)

    monkeypatch.setattr(bnb, "solve_lp", final_fails)
    res = solve_mip(model)
    assert len(results) == n_calls - 1
    incumbent = min((r for r in results if r.status == OPTIMAL
                     and bnb._fractional(r.x, int_idx) < 0), key=lambda r: r.objective)
    assert res.status == OPTIMAL and res.nodes == clean.nodes
    assert res.objective == incumbent.objective == res.best_bound == clean.objective
    assert res.x.tolist() == incumbent.x.tolist()
