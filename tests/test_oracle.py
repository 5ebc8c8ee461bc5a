"""Exhaustive oracle for the tiny instance with integral placement.

Enumerates every integral schedule and every commitment pattern; for each
pair, capacity is priced in closed form from the constraint caps and the
dispatch is solved by an independent reference LP (HiGHS via scipy).
The bundled branch-and-bound on the same instance must match the best
enumerated objective.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import tiny_config, tiny_instance
from dcflex.optimizer import (
    FittedSignal,
    allowed_cells,
    chance_coefficient,
    queue_check_points,
    resolve_config,
    run_strategy,
)
from dcflex.signals import GaussianEnvelope, VaRTable
from dcflex.validate import queue_backlog
from dcflex.workload import load_matrix


def oracle_best_objective(inst, cfg, moments, table):
    """Brute force over integral schedules x commitment patterns."""
    t_total, n_dc = inst.n_slots, inst.n_dc
    gens = inst.grid.generators
    g_count = len(gens)
    ccoef = chance_coefficient(moments, cfg.eps_p, cfg.extra_signal_variance)
    assert ccoef > 0
    rev_rate = cfg.revenue_rate(t_total)
    dh = cfg.slot_hours
    base_lat = inst.baseline_latency
    points = queue_check_points(t_total, dh, cfg.var_horizons)

    choices = [sorted(allowed_cells(inst, cfg, i)) for i in range(len(inst.jobs))]
    best = math.inf
    for combo in itertools.product(*choices):
        x = np.zeros((len(inst.jobs), t_total, n_dc))
        for i, (t, l) in enumerate(combo):
            x[i, t - 1, l - 1] = 1.0
        if not schedule_feasible(inst, cfg, x, base_lat):
            continue
        nodal = load_matrix(x, inst.jobs, dh)
        revenue = capacity_revenue(inst, cfg, x, nodal, ccoef, rev_rate, points, table)
        if revenue is None:
            continue  # no nonnegative capacity satisfies the caps
        migration = migration_cost(inst, cfg, x)
        for pattern in itertools.product([0, 1], repeat=g_count * t_total):
            u = np.array(pattern).reshape(g_count, t_total)
            cost = dispatch_cost(inst, cfg, nodal, u)
            if cost is None:
                continue
            best = min(best, cost + migration - revenue)
    return best


def schedule_feasible(inst, cfg, x, base_lat):
    for l, dc in enumerate(inst.dcs):
        for t in range(inst.n_slots):
            for cap, need in ((dc.cpu_cap, "r_cpu"), (dc.mem_cap, "r_mem"), (dc.io_cap, "r_io")):
                used = sum(x[i, t, l] * job.weight * getattr(job, need)
                           for i, job in enumerate(inst.jobs))
                if used > cap[t] + 1e-9:
                    return False
    for t in range(1, inst.n_slots + 1):
        num = den = 0.0
        for i, job in enumerate(inst.jobs):
            for l in range(1, inst.n_dc + 1):
                w = x[i, t - 1, l - 1]
                num += inst.latency.latency(job.user_region, inst.dcs[l - 1].id) * w
                den += w
        if num > (base_lat[t - 1] + cfg.delta_qos) * den + 1e-9:
            return False
    return True


def capacity_revenue(inst, cfg, x, nodal, ccoef, rev_rate, points, table):
    """Closed-form optimal committed capacity per (dc, slot), or None."""
    dh = cfg.slot_hours
    caps = np.full((inst.n_dc, inst.n_slots), math.inf)
    for l, dc in enumerate(inst.dcs, start=1):
        for t in range(1, inst.n_slots + 1):
            load = nodal[l - 1, t - 1]
            caps[l - 1, t - 1] = min(caps[l - 1, t - 1], dc.p_max[t - 1] - load)
            chance_room = load - dc.p_min[t - 1]
            if chance_room < -1e-9:
                return None
            caps[l - 1, t - 1] = min(caps[l - 1, t - 1], chance_room / ccoef)
    backlog = queue_backlog(inst, x, dh, [cp.tau_hours for cp in points])
    for cp, q_cp in zip(points, backlog):
        s_lo, s_hi = table.bounds(cp.horizon_hours)
        for l in range(1, inst.n_dc + 1):
            q_base = q_cp[l - 1]
            hi_room = inst.queue.q_max[l - 1] - q_base
            lo_room = q_base - inst.queue.q_min[l - 1]
            if hi_room < -1e-9 or lo_room < -1e-9:
                return None
            if s_hi > 0:
                caps[l - 1, cp.slot - 1] = min(caps[l - 1, cp.slot - 1], hi_room / s_hi)
            if s_lo < 0:
                caps[l - 1, cp.slot - 1] = min(caps[l - 1, cp.slot - 1], lo_room / (-s_lo))
    caps = np.maximum(caps, 0.0)
    return float(sum(rev_rate[t] * caps[:, t].sum() * dh for t in range(inst.n_slots)))


def migration_cost(inst, cfg, x):
    total = 0.0
    for i, job in enumerate(inst.jobs):
        t0, l0 = inst.baseline_dc(i)
        for t in range(1, inst.n_slots + 1):
            for l in range(1, inst.n_dc + 1):
                hops = abs(t - t0) + (1 if l != l0 else 0)
                total += cfg.migration_cost * job.weight * hops * x[i, t - 1, l - 1]
    return total


def dispatch_cost(inst, cfg, nodal, u):
    """Reference dispatch LP for fixed loads and commitment pattern."""
    t_total = inst.n_slots
    gens = inst.grid.generators
    buses = inst.grid.buses
    g_count, b_count = len(gens), len(buses)
    dh = cfg.slot_hours
    # variables: p (G*T), theta (B*T), shed (B*T)
    n = g_count * t_total + 2 * b_count * t_total

    def pi(g, t):
        return g * t_total + t

    def ti(b, t):
        return g_count * t_total + b * t_total + t

    def qi(b, t):
        return g_count * t_total + b_count * t_total + b * t_total + t

    c = np.zeros(n)
    for g in range(g_count):
        for t in range(t_total):
            c[pi(g, t)] = gens[g].cost_per_mwh * dh
    for b in range(b_count):
        for t in range(t_total):
            c[qi(b, t)] = cfg.c_penal * dh

    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    dc_at_bus = {}
    for l, dc in enumerate(inst.dcs):
        dc_at_bus.setdefault(inst.grid.bus_position(dc.bus), []).append(l)
    for t in range(t_total):
        for b, bus in enumerate(buses):
            row = np.zeros(n)
            rhs = float(bus.base_load[t])
            for g, gen in enumerate(gens):
                if inst.grid.bus_position(gen.bus) == b:
                    row[pi(g, t)] = 1.0
            row[qi(b, t)] = 1.0
            for l in dc_at_bus.get(b, []):
                rhs += nodal[l, t]
            for line in inst.grid.lines:
                fpos = inst.grid.bus_position(line.from_bus)
                tpos = inst.grid.bus_position(line.to_bus)
                if fpos == b:
                    row[ti(fpos, t)] -= line.susceptance
                    row[ti(tpos, t)] += line.susceptance
                elif tpos == b:
                    row[ti(tpos, t)] -= line.susceptance
                    row[ti(fpos, t)] += line.susceptance
            a_eq.append(row)
            b_eq.append(rhs)
    for line in inst.grid.lines:
        fpos = inst.grid.bus_position(line.from_bus)
        tpos = inst.grid.bus_position(line.to_bus)
        for t in range(t_total):
            row = np.zeros(n)
            row[ti(fpos, t)] = line.susceptance
            row[ti(tpos, t)] = -line.susceptance
            a_ub.append(row.copy())
            b_ub.append(line.limit_mw)
            a_ub.append(-row)
            b_ub.append(line.limit_mw)
    for g, gen in enumerate(gens):
        for t in range(1, t_total):
            row = np.zeros(n)
            row[pi(g, t)] = 1.0
            row[pi(g, t - 1)] = -1.0
            a_ub.append(row)
            b_ub.append(gen.ramp_up * u[g, t - 1] + gen.startup_ramp * (u[g, t] - u[g, t - 1]))
            row2 = np.zeros(n)
            row2[pi(g, t - 1)] = 1.0
            row2[pi(g, t)] = -1.0
            a_ub.append(row2)
            b_ub.append(gen.ramp_down * u[g, t] + gen.shutdown_ramp * (u[g, t - 1] - u[g, t]))
    bounds = []
    for g, gen in enumerate(gens):
        for t in range(t_total):
            bounds.append((gen.p_min * u[g, t], gen.p_max * u[g, t]))
    slack = inst.grid.bus_position(inst.grid.slack_bus)
    for b in range(b_count):
        for t in range(t_total):
            bounds.append((0.0, 0.0) if b == slack else (None, None))
    for _ in range(b_count * t_total):
        bounds.append((0.0, None))
    res = linprog(c, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  A_eq=np.array(a_eq), b_eq=np.array(b_eq), bounds=bounds,
                  method="highs")
    if res.status != 0:
        return None
    return float(res.fun)


TABLE = VaRTable(0.1, (0.5, 1.0, 2.0), (-0.05, -0.05, -0.05), (0.05, 0.05, 0.05))


def test_bundled_mip_matches_exhaustive_enumeration():
    inst = tiny_instance()
    cfg = tiny_config(integral_x=True)
    moments = GaussianEnvelope(0.0, 0.35)
    cfg = resolve_config(cfg, inst.n_slots, 0.4)
    best = oracle_best_objective(inst, cfg, moments, TABLE)
    fitted = FittedSignal(moments, GaussianEnvelope(0.0, 0.3, "direct"), TABLE, 0.4)
    sol = run_strategy(inst, replace(cfg, strategy="cooperative"), fitted)
    assert sol.objective_total == pytest.approx(best, rel=1e-6, abs=1e-5)
