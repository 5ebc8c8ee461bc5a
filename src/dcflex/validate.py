"""Independent post-solve validation of co-optimization solutions.

Re-evaluates every constraint family directly from instance data and the
solved arrays, without touching the model rows, so solver and model-
assembly defects cannot hide each other. Every family is judged at the
one tolerance FEAS_TOL (1e-6, in the family's own units); QoS scales it by
the slot's scheduled mass.

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
from .standard_form import FEAS_TOL
from .workload import load_matrix, qos_deviation


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

    def add(self, family: str, amounts, where, tol=FEAS_TOL):
        """Record each entry of ``amounts`` past ``tol``, a scalar or an
        array of the same shape; a NaN entry is past any tolerance.
        ``where(*index)`` labels an entry of an array; a scalar check
        passes its label as a string."""
        amounts = np.asarray(amounts, dtype=float)
        for index in map(tuple, np.argwhere(~(amounts <= tol))):
            label = where(*index) if callable(where) else where
            self.violations.append(Violation(family, label, float(amounts[index])))

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
    """Re-check a solution against every constraint family at FEAS_TOL.

    Each family is one array of excess amounts over its own index: clusters,
    (DC, slot), (checkpoint, DC), lines, generators or (generator, slot)."""
    report = ValidationReport()
    x, reg, p, u, theta = solution.x, solution.reg, solution.gen, solution.commit, solution.theta
    dh = cfg.slot_hours
    jobs, dcs, gens, lines = inst.jobs, inst.dcs, inst.grid.generators, inst.grid.lines

    def stack(items, name):
        return np.array([getattr(item, name) for item in items])

    def cluster(i):
        return f"cluster {jobs[i].id}"

    def dc_slot(l, t):
        return f"dc {dcs[l].id} slot {t + 1}"

    def gen(g, t=None):  # ramp entry t is the step into 1-based slot t + 2
        return f"gen {gens[g].id}" if t is None else f"gen {gens[g].id} slot {t + 2}"

    # Schedule box, completeness, and pin structure.
    report.add("x_bounds", -x.min(), "min")
    report.add("x_bounds", x.max() - 1.0, "max")
    if cfg.integral_x:
        report.add("x_integral", np.max(np.abs(x - np.round(x))), "max |x - round(x)|")
    report.add("completion", np.abs(x.sum(axis=(1, 2)) - 1.0), cluster)
    # Independent placement stays inside the mode's cells too (temporal
    # moves at the baseline DC), so one pin check covers all strategies. A
    # single-cell cluster must match its baseline everywhere; any other
    # must leave the cells outside its mode empty.
    allowed = np.zeros(x.shape, dtype=bool)
    pinned = np.zeros(len(jobs), dtype=bool)
    for i in range(len(jobs)):
        cells = allowed_cells(inst, cfg, i)
        slots, cols = np.array(list(cells)).T - 1
        allowed[i, slots, cols] = True
        pinned[i] = len(cells) == 1
    stray = np.where(pinned[:, None, None], np.abs(x - inst.x_base), np.where(allowed, 0.0, x))
    report.add("mode_pins", stray.max(axis=(1, 2)), cluster)

    # Resource capacities.
    mass = x * stack(jobs, "weight")[:, None, None]
    for family, need in (("cpu_cap", "r_cpu"), ("mem_cap", "r_mem"), ("io_cap", "r_io")):
        usage = (mass * stack(jobs, need)[:, None, None]).sum(axis=0).T
        report.add(family, usage - stack(dcs, family), dc_slot)

    # QoS (linearized form, matching the optimizer's rows).
    num = (inst.latency_table[:, None, :] * x).sum(axis=(0, 2))
    den = x.sum(axis=(0, 2))
    report.add("qos", num - (inst.baseline_latency + cfg.delta_qos) * den,
               lambda t: f"slot {t + 1}", FEAS_TOL * np.maximum(1.0, den))

    # Regulation power envelope: deterministic cap and chance constraint.
    nodal = load_matrix(x, jobs, dh)
    ccoef = chance_coefficient(fitted.moments(cfg.signal_model), cfg.eps_p,
                               cfg.extra_signal_variance)
    report.add("reg_nonneg", -reg.min(), "min")
    report.add("power_cap", nodal + reg - stack(dcs, "p_max"), dc_slot)
    report.add("chance", ccoef * reg - (nodal - stack(dcs, "p_min")), dc_slot)

    # Queue VaR rows at every checkpoint, on the closed-form backlog.
    points = queue_check_points(x.shape[1], dh, cfg.var_horizons)
    backlog = queue_backlog(inst, x, dh, [cp.tau_hours for cp in points])
    s_lo, s_hi = np.array([fitted.var_table.bounds(cp.horizon_hours) for cp in points]).T[:, :, None]
    r = reg[:, [cp.slot - 1 for cp in points]].T

    def checkpoint(k, l):
        return f"dc {dcs[l].id} tau {points[k].tau_hours:g}h win {points[k].horizon_hours:g}h"

    report.add("queue_hi", backlog + r * s_hi - inst.queue.q_max, checkpoint)
    report.add("queue_lo", inst.queue.q_min - (backlog + r * s_lo), checkpoint)

    # Grid: balance residual, line limits, generator envelope, ramps.
    residual = power_balance_residual(
        inst.grid, p, theta, solution.shed, nodal, [dc.bus for dc in dcs])
    report.add("power_balance", np.max(np.abs(residual)), "max |residual|")
    pos = inst.grid.bus_position
    report.add("line_limit", [np.max(np.abs(line_flow(theta[pos(ln.from_bus)],
                                                      theta[pos(ln.to_bus)], ln))) - ln.limit_mw
                              for ln in lines], lambda k: f"line {lines[k].id}")
    ramp_up, ramp_dn, start, stop, p_min, p_max = (
        stack(gens, name)[:, None] for name in
        ("ramp_up", "ramp_down", "startup_ramp", "shutdown_ramp", "p_min", "p_max"))
    report.add("commit_binary", np.max(np.abs(u - np.round(u)), axis=1), gen)
    report.add("gen_max", np.max(p - p_max * u, axis=1), gen)
    report.add("gen_min", np.max(p_min * u - p, axis=1), gen)
    report.add("ramp_up", p[:, 1:] - p[:, :-1] - ramp_up * u[:, :-1]
               - start * (u[:, 1:] - u[:, :-1]), gen)
    report.add("ramp_down", p[:, :-1] - p[:, 1:] - ramp_dn * u[:, 1:]
               - stop * (u[:, :-1] - u[:, 1:]), gen)
    report.add("shed_nonneg", -solution.shed.min(), "min")
    report.add("slack_angle", np.max(np.abs(theta[pos(inst.grid.slack_bus)])), "max |theta|")

    # Objective bookkeeping (migration term is zero unless the hook is on).
    recomputed = (solution.generation_cost + solution.penalty_cost
                  + solution.migration_cost - solution.regulation_revenue)
    scale = max(1.0, abs(solution.objective_total))
    report.add("objective_identity", abs(recomputed - solution.objective_total) / scale, "total")
    return report


def qos_deviation_report(inst: ProblemInstance, solution: Solution) -> np.ndarray:
    """Per-slot latency deviation of the solved schedule from baseline."""
    return qos_deviation(solution.x, inst.x_base, inst.latency_table)
