"""Independent post-solve validation of co-optimization solutions.

Re-evaluates every constraint family directly from instance data and the
solved arrays, without touching the model rows, so solver and model-
assembly defects cannot hide each other. Feasibility is judged at 1e-6
with the power balance held to 1e-6 MW per (bus, slot).

Three definitions are shared with the optimizer because they state the
model's inputs rather than emit its rows: queue_check_points (the VaR
checkpoint set), chance_coefficient (the z-quantile coefficient of R) and
allowed_cells (each shifting mode's cells). The queue backlog at each
checkpoint is re-derived here in closed form (queue_backlog).
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import line_flow, power_balance_residual
from .optimizer import (
    FittedSignal,
    ModelConfig,
    ProblemInstance,
    Solution,
    allowed_cells,
    chance_coefficient,
    queue_check_points,
)
from .workload import load_matrix, qos_deviation, resource_usage

FEAS_TOL = 1e-6
BALANCE_TOL = 1e-6


@dataclass
class Violation:
    family: str
    where: str
    amount: float

    def __str__(self):
        return f"{self.family} at {self.where}: {self.amount:.3e}"


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, family: str, where: str, amount: float, tol: float = FEAS_TOL):
        if amount > tol:
            self.violations.append(Violation(family, where, float(amount)))

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"family": v.family, "where": v.where, "amount": v.amount}
                for v in self.violations
            ],
        }


def queue_backlog(inst: ProblemInstance, x: np.ndarray, slot_hours: float,
                  taus) -> np.ndarray:
    """(len(taus), N) backlog of each DC before regulation at the times
    ``taus`` (hours), the slot a time falls in prorated uniformly:
    q_init + (arrivals - load * slot_hours) @ clip(tau / slot_hours - t, 0, 1)
    over the 0-based slots t."""
    net = inst.queue.arrivals - load_matrix(x, inst.jobs, slot_hours) * slot_hours
    cover = np.clip(np.asarray(taus, dtype=float)[:, None] / slot_hours
                    - np.arange(net.shape[1]), 0.0, 1.0)
    return inst.queue.q_init + cover @ net.T


def validate_solution(
    inst: ProblemInstance,
    cfg: ModelConfig,
    fitted: FittedSignal,
    solution: Solution,
) -> ValidationReport:
    """Re-check a solution against every constraint family at FEAS_TOL."""
    report = ValidationReport()
    x = solution.x
    m, t_total, n_dc = x.shape
    dh = cfg.slot_hours

    # Schedule box, completeness, and pin structure.
    report.add("x_bounds", "min", float(-(x.min())))
    report.add("x_bounds", "max", float(x.max() - 1.0))
    if cfg.integral_x:
        report.add("x_integral", "max |x - round(x)|", float(np.max(np.abs(x - np.round(x)))))
    totals = x.sum(axis=(1, 2))
    for i in range(m):
        report.add("completion", f"cluster {inst.jobs[i].id}", abs(totals[i] - 1.0))
    # Independent placement stays inside the mode's cells too (temporal
    # moves at the baseline DC), so one pin check covers all strategies.
    for i in range(m):
        cells = allowed_cells(inst, cfg, i)
        stray = 0.0
        for t in range(1, t_total + 1):
            for l in range(1, n_dc + 1):
                v = float(x[i, t - 1, l - 1])
                if len(cells) == 1:
                    stray = max(stray, abs(v - float(inst.x_base[i, t - 1, l - 1])))
                elif (t, l) not in cells:
                    stray = max(stray, v)
        report.add("mode_pins", f"cluster {inst.jobs[i].id}", stray)

    # Resource capacities.
    for l, dc in enumerate(inst.dcs, start=1):
        for t in range(1, t_total + 1):
            cpu, mem, io = resource_usage(x, inst.jobs, l, t)
            report.add("cpu_cap", f"dc {dc.id} slot {t}", cpu - dc.cpu_cap[t - 1])
            report.add("mem_cap", f"dc {dc.id} slot {t}", mem - dc.mem_cap[t - 1])
            report.add("io_cap", f"dc {dc.id} slot {t}", io - dc.io_cap[t - 1])

    # QoS (linearized form, matching the optimizer's rows).
    base_lat = inst.baseline_latency
    for t in range(1, t_total + 1):
        num = 0.0
        den = 0.0
        for i, job in enumerate(inst.jobs):
            for l in range(1, n_dc + 1):
                w = float(x[i, t - 1, l - 1])
                num += inst.latency.latency(job.user_region, inst.dcs[l - 1].id) * w
                den += w
        bound = (base_lat[t - 1] + cfg.delta_qos) * den
        report.add("qos", f"slot {t}", num - bound, FEAS_TOL * max(1.0, den))

    # Regulation power envelope: deterministic cap and chance constraint.
    nodal = load_matrix(x, inst.jobs, dh)
    moments = fitted.moments(cfg.signal_model)
    ccoef = chance_coefficient(moments, cfg.eps_p, cfg.extra_signal_variance)
    reg = solution.reg
    report.add("reg_nonneg", "min", float(-(reg.min())))
    for l, dc in enumerate(inst.dcs, start=1):
        for t in range(1, t_total + 1):
            load = nodal[l - 1, t - 1]
            r = reg[l - 1, t - 1]
            report.add("power_cap", f"dc {dc.id} slot {t}",
                       load + r - dc.p_max[t - 1])
            report.add("chance", f"dc {dc.id} slot {t}",
                       ccoef * r - (load - dc.p_min[t - 1]))

    # Queue VaR rows at every checkpoint, on the closed-form backlog.
    points = queue_check_points(t_total, dh, cfg.var_horizons)
    backlog = queue_backlog(inst, x, dh, [cp.tau_hours for cp in points])
    for cp, q_base in zip(points, backlog):
        s_lo, s_hi = fitted.var_table.bounds(cp.horizon_hours)
        r = reg[:, cp.slot - 1]
        for l, dc in enumerate(inst.dcs):
            where = f"dc {dc.id} tau {cp.tau_hours:g}h win {cp.horizon_hours:g}h"
            report.add("queue_hi", where, q_base[l] + r[l] * s_hi - inst.queue.q_max[l])
            report.add("queue_lo", where, inst.queue.q_min[l] - (q_base[l] + r[l] * s_lo))

    # Grid: balance residual, line limits, generator envelope, ramps.
    residual = power_balance_residual(
        inst.grid, solution.gen, solution.theta, solution.shed, nodal,
        [dc.bus for dc in inst.dcs],
    )
    report.add("power_balance", "max |residual|", float(np.max(np.abs(residual))), BALANCE_TOL)
    for k, line in enumerate(inst.grid.lines, start=1):
        fpos = inst.grid.bus_position(line.from_bus)
        tpos = inst.grid.bus_position(line.to_bus)
        flow = line_flow(solution.theta[fpos], solution.theta[tpos], line)
        worst = float(np.max(np.abs(flow)) - line.limit_mw)
        report.add("line_limit", f"line {line.id}", worst)
    for g, gen in enumerate(inst.grid.generators):
        u = solution.commit[g]
        p = solution.gen[g]
        report.add("commit_binary", f"gen {gen.id}",
                   float(np.max(np.abs(u - np.round(u)))), 1e-6)
        report.add("gen_max", f"gen {gen.id}", float(np.max(p - gen.p_max * u)))
        report.add("gen_min", f"gen {gen.id}", float(np.max(gen.p_min * u - p)))
        for t in range(1, t_total):
            up = p[t] - p[t - 1] - gen.ramp_up * u[t - 1] - gen.startup_ramp * (u[t] - u[t - 1])
            dn = p[t - 1] - p[t] - gen.ramp_down * u[t] - gen.shutdown_ramp * (u[t - 1] - u[t])
            report.add("ramp_up", f"gen {gen.id} slot {t + 1}", float(up))
            report.add("ramp_down", f"gen {gen.id} slot {t + 1}", float(dn))
    report.add("shed_nonneg", "min", float(-(solution.shed.min())))
    slack_pos = inst.grid.bus_position(inst.grid.slack_bus)
    report.add("slack_angle", "max |theta|", float(np.max(np.abs(solution.theta[slack_pos]))))

    # Objective bookkeeping (migration term is zero unless the hook is on).
    recomputed = (solution.generation_cost + solution.penalty_cost
                  + solution.migration_cost - solution.regulation_revenue)
    scale = max(1.0, abs(solution.objective_total))
    report.add("objective_identity", "total",
               abs(recomputed - solution.objective_total) / scale, 1e-6)
    return report


def qos_deviation_report(inst: ProblemInstance, solution: Solution) -> np.ndarray:
    """Per-slot latency deviation of the solved schedule from baseline."""
    return qos_deviation(solution.x, inst.x_base, inst.jobs, inst.latency,
                         [dc.id for dc in inst.dcs])
