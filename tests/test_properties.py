"""Cross-cutting derived properties: reference-path equalities and
monotonicity sweeps that tie several modules together."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import Bounds as ScipyBounds
from scipy.optimize import LinearConstraint, milp

from test_oracle import capacity_revenue
from dcflex.instance import build_synthetic, fit_signal_artifacts, small_params
from dcflex.optimizer import (
    chance_coefficient,
    queue_check_points,
    resolve_config,
    run_strategy,
)
from dcflex.signals import fit_direct_gaussian, fit_gaussian_envelope, generate_trace
from dcflex.workload import load_matrix


@pytest.fixture(scope="module")
def solved_base():
    inst, cfg, trace = build_synthetic(small_params(), seed=42)
    fitted = fit_signal_artifacts(trace, cfg)
    return inst, cfg, trace, fitted


def reference_unit_commitment_cost(inst, cfg, nodal):
    """Independent UC dispatch oracle for fixed nodal DC loads (HiGHS)."""
    t_total = inst.n_slots
    gens = inst.grid.generators
    buses = inst.grid.buses
    g_count, b_count = len(gens), len(buses)
    dh = cfg.slot_hours
    n = 2 * g_count * t_total + 2 * b_count * t_total

    def pi(g, t):
        return g * t_total + t

    def ui(g, t):
        return g_count * t_total + g * t_total + t

    def ti(b, t):
        return 2 * g_count * t_total + b * t_total + t

    def qi(b, t):
        return 2 * g_count * t_total + b_count * t_total + b * t_total + t

    c = np.zeros(n)
    integrality = np.zeros(n)
    lb = np.full(n, -np.inf)
    ub = np.full(n, np.inf)
    for g, gen in enumerate(gens):
        for t in range(t_total):
            c[pi(g, t)] = gen.cost_per_mwh * dh
            lb[pi(g, t)] = 0.0
            ub[pi(g, t)] = gen.p_max
            integrality[ui(g, t)] = 1
            lb[ui(g, t)] = 0.0
            ub[ui(g, t)] = 1.0
    slack = inst.grid.bus_position(inst.grid.slack_bus)
    for b in range(b_count):
        for t in range(t_total):
            c[qi(b, t)] = cfg.c_penal * dh
            lb[qi(b, t)] = 0.0
            if b == slack:
                lb[ti(b, t)] = ub[ti(b, t)] = 0.0

    cons = []
    dc_at_bus = {}
    for l, dc in enumerate(inst.dcs):
        dc_at_bus.setdefault(inst.grid.bus_position(dc.bus), []).append(l)
    for t in range(t_total):
        for b, bus in enumerate(buses):
            row = np.zeros(n)
            rhs = float(bus.base_load[t]) + sum(nodal[l, t] for l in dc_at_bus.get(b, []))
            for g, gen in enumerate(gens):
                if inst.grid.bus_position(gen.bus) == b:
                    row[pi(g, t)] = 1.0
            row[qi(b, t)] = 1.0
            for line in inst.grid.lines:
                fpos = inst.grid.bus_position(line.from_bus)
                tpos = inst.grid.bus_position(line.to_bus)
                if fpos == b:
                    row[ti(fpos, t)] -= line.susceptance
                    row[ti(tpos, t)] += line.susceptance
                elif tpos == b:
                    row[ti(tpos, t)] -= line.susceptance
                    row[ti(fpos, t)] += line.susceptance
            cons.append(LinearConstraint(row, rhs, rhs))
    for line in inst.grid.lines:
        fpos = inst.grid.bus_position(line.from_bus)
        tpos = inst.grid.bus_position(line.to_bus)
        for t in range(t_total):
            row = np.zeros(n)
            row[ti(fpos, t)] = line.susceptance
            row[ti(tpos, t)] = -line.susceptance
            cons.append(LinearConstraint(row, -line.limit_mw, line.limit_mw))
    for g, gen in enumerate(gens):
        for t in range(t_total):
            row = np.zeros(n)
            row[pi(g, t)] = 1.0
            row[ui(g, t)] = -gen.p_max
            cons.append(LinearConstraint(row, -np.inf, 0.0))
            row2 = np.zeros(n)
            row2[pi(g, t)] = -1.0
            row2[ui(g, t)] = gen.p_min
            cons.append(LinearConstraint(row2, -np.inf, 0.0))
        for t in range(1, t_total):
            row = np.zeros(n)
            row[pi(g, t)] = 1.0
            row[pi(g, t - 1)] = -1.0
            row[ui(g, t - 1)] = -(gen.ramp_up - gen.startup_ramp)
            row[ui(g, t)] = -gen.startup_ramp
            cons.append(LinearConstraint(row, -np.inf, 0.0))
            row2 = np.zeros(n)
            row2[pi(g, t - 1)] = 1.0
            row2[pi(g, t)] = -1.0
            row2[ui(g, t)] = -(gen.ramp_down - gen.shutdown_ramp)
            row2[ui(g, t - 1)] = -gen.shutdown_ramp
            cons.append(LinearConstraint(row2, -np.inf, 0.0))
    res = milp(c, constraints=cons, integrality=integrality, bounds=ScipyBounds(lb, ub))
    assert res.status == 0, "reference UC dispatch failed"
    return float(res.fun)


def test_mode_none_objective_equals_baseline_dispatch_reference(solved_base):
    # No-flexibility reference path: dispatch the pinned baseline loads
    # with an independent UC oracle and price capacity by closed-form caps.
    inst, cfg, trace, fitted = solved_base
    cfg_none = resolve_config(
        replace(cfg, strategy="cooperative", shifting_mode="none"),
        inst.n_slots, fitted.mean_abs,
    )
    solution = run_strategy(inst, cfg_none, fitted)
    nodal = load_matrix(inst.x_base, inst.jobs, cfg_none.slot_hours)
    dispatch = reference_unit_commitment_cost(inst, cfg_none, nodal)
    ccoef = chance_coefficient(fitted.envelope, cfg_none.eps_p,
                               cfg_none.extra_signal_variance)
    rev_rate = cfg_none.revenue_rate(inst.n_slots)
    points = queue_check_points(inst.n_slots, cfg_none.slot_hours, cfg_none.var_horizons)
    revenue = capacity_revenue(inst, cfg_none, inst.x_base, nodal, ccoef,
                               rev_rate, points, fitted.var_table)
    expected = dispatch - revenue  # baseline placement has zero migration
    assert solution.objective_total == pytest.approx(expected, rel=1e-6)


def test_committed_capacity_monotone_in_eps_p(solved_base):
    # Loosening the instantaneous violation budget never shrinks the total
    # committed band on a fixed instance.
    inst, cfg, trace, fitted = solved_base
    totals = []
    for eps_p in (0.05, 0.10, 0.25):
        c = resolve_config(replace(cfg, eps_p=eps_p, strategy="cooperative",
                                   shifting_mode="joint"),
                           inst.n_slots, fitted.mean_abs)
        sol = run_strategy(inst, c, fitted)
        totals.append(float(sol.reg.sum()))
    assert totals[0] <= totals[1] + 1e-9
    assert totals[1] <= totals[2] + 1e-9


def test_objective_identity_exact_without_migration_hook(solved_base):
    inst, cfg, trace, fitted = solved_base
    c = replace(cfg, migration_cost=0.0, strategy="cooperative", shifting_mode="joint")
    sol = run_strategy(inst, c, fitted)
    recon = sol.generation_cost + sol.penalty_cost - sol.regulation_revenue
    assert sol.migration_cost == 0.0
    assert sol.objective_total == pytest.approx(recon, rel=1e-6)


def test_envelope_sigma_close_to_direct_on_gaussian_trace():
    trace = generate_trace("gaussian", hours=200, dt_seconds=8.0, seed=31)
    env = fit_gaussian_envelope(trace)
    direct = fit_direct_gaussian(trace)
    assert env.sigma == pytest.approx(direct.sigma, rel=0.05)


def test_frontier_sweep_via_cli(tmp_path):
    # eps_p sweep through the CLI: committed capacity nondecreasing across
    # rows of the assembled frontier file.
    import csv

    from dcflex.cli import EXIT_OK, main

    bundle = tmp_path / "bundle"
    assert main(["gen-instance", "--out", str(bundle), "--seed", "4",
                 "--preset", "small", "--quiet"]) == EXIT_OK
    committed = []
    for i, eps in enumerate(("0.05", "0.10", "0.25")):
        out = tmp_path / f"run{i}"
        assert main(["solve", "--bundle", str(bundle), "--out", str(out),
                     "--mode", "joint", "--eps-p", eps, "--quiet"]) == EXIT_OK
        assert main(["simulate", "--bundle", str(bundle),
                     "--solution", str(out / "solution.json"),
                     "--out", str(out), "--scenarios", "3", "--seed", "6",
                     "--eps-p", eps, "--quiet"]) == EXIT_OK
        with open(out / "frontier.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        committed.append(float(row["committed_r_mw"]))
    assert committed[0] <= committed[1] + 1e-9 <= committed[2] + 2e-9
