"""Day-ahead co-optimization of workload placement and regulation capacity.

Builds one solver-agnostic model covering grid dispatch with unit
commitment, DC power flow, workload completion/QoS/resource constraints,
the two-sided regulation power limits (deterministic cap downward,
Gaussian chance constraint upward), and Value-at-Risk queue-energy
constraints at sub-hour and multi-slot checkpoints. Also implements the
three bidding strategies (decoupled, independent, cooperative) and the
shifting-mode restrictions (none, spatial, temporal, joint).

Each variable block is declared once, by _columns, which returns its
column indices as an array: _x_columns gives the schedule columns
(admissible cells, friction, integrality) as an (M, T, N) array and
_r_columns the regulation-capacity columns as an (N, T) array, each -1
where a model declares no column, which add_row refuses; build_model adds
the grid blocks p, u, th and q. Every row emitter looks its columns up in
these arrays, and _block_sizes is the one statement of build_model's
block order. Each DC constraint family is emitted in one place:
_schedule_rows the completion, QoS and resource rows, _regulation_rows
the power cap, chance and queue VaR rows. The full model, the per-DC
models and the regulation-only model differ only in the DCs, clusters and
fixed values they pass. A queue row's x coefficients are -cover[t] * E_i,
where slot_cover gives the share of each slot elapsed by the checkpoint
and E_i is cluster i's energy; the backlog of the frozen schedule enters
its right-hand side as one sequential sum. validate.py re-derives every
family independently on purpose, so it stays a check on these emitters
rather than a copy of them. The records and the helpers that state the
model's semantics are in problem.py.
"""

import math
import re
import shlex

import numpy as np

from .artifacts import InfeasibleModel, SolverError
from .problem import (
    FittedSignal,
    ModelConfig,
    ProblemInstance,
    Solution,
    allowed_cells,
    chance_coefficient,
    queue_check_points,
    resolve_config,
)
from .signals import GaussianEnvelope, VaRTable
from .standard_form import FEAS_TOL, INF, INFEASIBLE, OPTIMAL, StandardFormModel, presolve
from .workload import cluster_energies_mwh, load_matrix

BACKEND_BUNDLED = "bundled"
_ELASTIC_SUFFIX = "_elastic"


class ModelBuildError(ValueError):
    """Model assembly failed; the message names the offending family."""


def slot_cover(t_total: int, slot_hours: float, tau_hours: float) -> np.ndarray:
    """Share of each slot elapsed by time ``tau_hours``: 1 for the slots
    before it, the elapsed fraction for the slot it falls in, 0 after.

    Arrivals and service inside a partially covered slot are prorated
    uniformly, so a queue row's x coefficient is -cover[t] * E_i.
    """
    full = int(math.floor(tau_hours / slot_hours + 1e-9))
    frac = (tau_hours - full * slot_hours) / slot_hours
    cover = np.zeros(t_total)
    cover[:full] = 1.0
    if frac >= 1e-12 and full < t_total:
        cover[full] = frac
    return cover


def _row_family(name: str) -> str:
    return re.sub(r"(_[0-9p.]+)+$", "", name)


def _columns(model: StandardFormModel, prefix: str, axes, lb, ub, obj=0.0,
             integer=False) -> np.ndarray:
    """Declare column ``{prefix}_{a}_{b}...`` for each point of the product
    of the label sequences ``axes``, in C order, with ``lb``, ``ub``, ``obj``
    and ``integer`` broadcast over the block. Returns the column indices as
    Python ints in an object array: rows then hold plain ints, which the
    presolve and solver loops read faster than numpy integers."""
    shape = tuple(len(a) for a in axes)
    first = model.n_vars
    spec = (np.broadcast_to(v, shape).ravel().tolist() for v in (lb, ub, obj, integer))
    for pos, lo, hi, c, flag in zip(np.ndindex(shape), *spec):
        label = "_".join(str(a[k]) for a, k in zip(axes, pos))
        model.add_variable(f"{prefix}_{label}", lo, hi, integer=flag, obj=c)
    return np.arange(first, model.n_vars).reshape(shape).astype(object)


def _block_sizes(inst: ProblemInstance) -> list[int]:
    """Column counts of build_model's blocks x, R, p, u, th and q, in order."""
    t, n_gen, n_bus = inst.n_slots, len(inst.grid.generators), len(inst.grid.buses)
    return [len(inst.jobs) * t * inst.n_dc, inst.n_dc * t] + [n_gen * t] * 2 + [n_bus * t] * 2


def _x_columns(model: StandardFormModel, inst: ProblemInstance, cfg: ModelConfig,
               members, dcs, fix_x: np.ndarray | None = None) -> np.ndarray:
    """Declare x[i, t, l] of the clusters ``members`` over the DCs ``dcs``
    (1-based), cluster-major; returns the (M, T, N) column array, -1 where
    no column is declared.

    A cluster may use its allowed_cells inside ``dcs``: one such cell pins
    it there, several are free in [0, 1] (integral under cfg.integral_x),
    and every other cell is fixed at 0. ``fix_x`` pins every column. Each
    column carries the migration friction of its hops.
    """
    shape = (len(inst.jobs), inst.n_slots, inst.n_dc)
    if fix_x is not None and fix_x.shape != shape:
        raise ModelBuildError(f"x family: fix_x shape {fix_x.shape} mismatches model")
    members, dcs = np.asarray(members, dtype=int), np.asarray(dcs, dtype=int)
    cells = np.ix_(members, np.arange(inst.n_slots), dcs - 1)
    allowed = np.zeros(shape)
    for i in members:
        for t, l in allowed_cells(inst, cfg, i):
            allowed[i, t - 1, l - 1] = 1.0
    hi = allowed[cells]
    lo = hi * (hi.sum(axis=(1, 2)) == 1)[:, None, None]
    if fix_x is not None:
        lo = hi = fix_x[cells]
    weights = np.array([inst.jobs[i].weight for i in members])[:, None, None]
    xcol = np.full(shape, -1, dtype=object)
    xcol[cells] = _columns(model, "x", (members + 1, range(1, inst.n_slots + 1), dcs), lo, hi,
                           obj=cfg.migration_cost * weights * inst.hops[cells],
                           integer=cfg.integral_x & (lo < hi))
    return xcol


def _r_columns(model: StandardFormModel, inst: ProblemInstance, cfg: ModelConfig,
               dcs, fix_r: np.ndarray | None = None) -> np.ndarray:
    """Declare R[l, t] of the DCs ``dcs`` (1-based), DC-major, priced at the
    revenue rate of the resolved config; returns the (N, T) column array,
    -1 where no column is declared. ``fix_r`` (N, T) pins every column."""
    try:
        rev = cfg.revenue_rate(inst.n_slots)
    except ValueError as exc:
        raise ModelBuildError(f"revenue family: {exc}") from exc
    dcs = np.asarray(dcs, dtype=int)
    lo, hi = (0.0, INF) if fix_r is None else (fix_r[dcs - 1],) * 2
    rcol = np.full((inst.n_dc, inst.n_slots), -1, dtype=object)
    rcol[dcs - 1] = _columns(model, "R", (dcs, range(1, inst.n_slots + 1)), lo, hi,
                             obj=-rev * cfg.slot_hours)
    return rcol


def _schedule_rows(model: StandardFormModel, inst: ProblemInstance, cfg: ModelConfig,
                   dcs, members, xcol) -> None:
    """Completion, QoS and CPU/memory/IO rows of the clusters ``members``
    placed over the DCs ``dcs`` (1-based); ``xcol`` is the column array of
    _x_columns. Zero coefficients are dropped by add_row."""
    slots = range(1, inst.n_slots + 1)
    for i in members:
        model.add_row(f"done_{i + 1}",
                      [(xcol[i, t - 1, l - 1], 1.0) for t in slots for l in dcs], "=", 1.0)
    lat = inst.latency_table
    for t in slots:
        bound = inst.baseline_latency[t - 1] + cfg.delta_qos
        coeffs = [(xcol[i, t - 1, l - 1], lat[i, l - 1] - bound) for i in members for l in dcs]
        model.add_row(f"qos_{t}", coeffs, "<=", 0.0)
    for l in dcs:
        dc = inst.dcs[l - 1]
        for t in slots:
            for tag, r_attr, cap in (
                ("cpu", "r_cpu", dc.cpu_cap[t - 1]),
                ("mem", "r_mem", dc.mem_cap[t - 1]),
                ("io", "r_io", dc.io_cap[t - 1]),
            ):
                coeffs = [(xcol[i, t - 1, l - 1],
                           inst.jobs[i].weight * getattr(inst.jobs[i], r_attr))
                          for i in members]
                model.add_row(f"{tag}_{l}_{t}", coeffs, "<=", float(cap))


def _regulation_rows(model: StandardFormModel, inst: ProblemInstance, cfg: ModelConfig,
                     moments: GaussianEnvelope, var_table: VaRTable, dcs, members, xcol,
                     rcol, x_fixed: np.ndarray) -> None:
    """Power cap, upward chance and VaR queue rows of the DCs ``dcs``.

    ``xcol`` and ``rcol`` are the column arrays of _x_columns and
    _r_columns. The x terms of the clusters ``members`` stay variable; the
    rest of each row is evaluated on the frozen schedule ``x_fixed`` and
    folded into its right-hand side.
    Raises ModelBuildError when the chance coefficient or a VaR horizon
    cannot be had from ``moments`` and ``var_table``.
    """
    try:
        ccoef = chance_coefficient(moments, cfg.eps_p, cfg.extra_signal_variance)
    except ValueError as exc:
        raise ModelBuildError(f"chance family: {exc}") from exc
    dh = cfg.slot_hours
    points = queue_check_points(inst.n_slots, dh, cfg.var_horizons)
    try:
        var_bounds = [var_table.bounds(cp.horizon_hours) for cp in points]
    except KeyError as exc:
        raise ModelBuildError(f"queue family: {exc}") from exc
    energies = cluster_energies_mwh(inst.jobs)
    mw = energies / dh
    load = load_matrix(x_fixed, inst.jobs, dh)
    for l in dcs:
        dc = inst.dcs[l - 1]
        for t in range(1, inst.n_slots + 1):
            x_load = [(xcol[i, t - 1, l - 1], mw[i]) for i in members]
            r = rcol[l - 1, t - 1]
            model.add_row(f"pcap_{l}_{t}", x_load + [(r, 1.0)], "<=",
                          float(dc.p_max[t - 1] - load[l - 1, t - 1]))
            model.add_row(f"chance_{l}_{t}", [(j, -c) for j, c in x_load] + [(r, ccoef)],
                          "<=", float(load[l - 1, t - 1] - dc.p_min[t - 1]))
    queue = inst.queue
    for cp, (s_lo, s_hi) in zip(points, var_bounds):
        htag = format(cp.horizon_hours, "g").replace(".", "p")
        cover = slot_cover(inst.n_slots, dh, cp.tau_hours)
        slots = np.flatnonzero(cover)
        coef = -(cover[slots, None] * energies)  # (covered slot, cluster) MWh per unit of x
        coef_rows = list(zip(slots.tolist(), coef.tolist()))
        for l in dcs:
            x_terms = [(xcol[i, t, l - 1], row[i]) for t, row in coef_rows for i in members]
            # Backlog of the frozen schedule from q_init: arrivals slot by
            # slot, then the frozen terms slot-major, cluster-minor. cumsum
            # adds strictly in that order; a pairwise np.sum or a dot product
            # would move the last bits of the right-hand side.
            frozen = coef * x_fixed[:, slots, l - 1].T
            q_fixed = float(np.cumsum(np.concatenate((
                [queue.q_init[l - 1]], cover[slots] * queue.arrivals[l - 1, slots],
                frozen.ravel())))[-1])
            r_slot = rcol[l - 1, cp.slot - 1]
            model.add_row(f"qhi_{l}_{cp.slot}_{htag}", x_terms + [(r_slot, s_hi)], "<=",
                          float(queue.q_max[l - 1]) - q_fixed)
            model.add_row(f"qlo_{l}_{cp.slot}_{htag}", x_terms + [(r_slot, s_lo)], ">=",
                          float(queue.q_min[l - 1]) - q_fixed)


def build_model(
    inst: ProblemInstance,
    cfg: ModelConfig,
    moments: GaussianEnvelope,
    var_table: VaRTable,
    *,
    fix_x: np.ndarray | None = None,
    fix_r: np.ndarray | None = None,
    name: str = "coopt",
) -> StandardFormModel:
    """Assemble the full day-ahead co-optimization model.

    Always declares the complete variable set (x, R, p, u, theta, q); the
    x and R blocks come from _x_columns and _r_columns over every cluster
    and DC, so shifting-mode and flexibility-class pins, like the fix_x /
    fix_r overrides of the sequential and independent strategies, act
    through variable bounds.
    """
    dearest = max(gen.cost_per_mwh for gen in inst.grid.generators)
    if cfg.c_penal <= dearest:
        raise ValueError(f"c_penal must exceed the highest generator cost {dearest}, "
                         f"got {cfg.c_penal}")
    t_total, n_dc, m = inst.n_slots, inst.n_dc, len(inst.jobs)
    gens = inst.grid.generators
    buses = inst.grid.buses
    n_gen, n_bus = len(gens), len(buses)
    dh = cfg.slot_hours
    mw = cluster_energies_mwh(inst.jobs) / dh  # MW contribution of a fully placed cluster

    model = StandardFormModel(name)
    members = range(m)
    dcs = range(1, n_dc + 1)

    # Variable blocks. Pins are bounds so the count formula stays exact.
    xcol = _x_columns(model, inst, cfg, members, dcs, fix_x)
    rcol = _r_columns(model, inst, cfg, dcs, fix_r)
    slots = range(1, t_total + 1)
    gen_axes, bus_axes = (range(1, n_gen + 1), slots), (range(1, n_bus + 1), slots)
    p = _columns(model, "p", gen_axes, 0.0, [[gen.p_max] for gen in gens],
                 obj=[[gen.cost_per_mwh * dh] for gen in gens])
    u = _columns(model, "u", gen_axes, 0.0, 1.0, integer=True)
    slack = (np.arange(n_bus) == inst.grid.bus_position(inst.grid.slack_bus))[:, None]
    th = _columns(model, "th", bus_axes, np.where(slack, 0.0, -INF), np.where(slack, 0.0, INF))
    q = _columns(model, "q", bus_axes, 0.0, INF, obj=cfg.c_penal * dh)

    gen_bus = np.array([inst.grid.bus_position(gen.bus) for gen in gens])
    dc_bus = np.array([inst.grid.bus_position(dc.bus) for dc in inst.dcs])

    # Nodal balance: gen + shed - DC load - net outflow = base load.
    for t in slots:
        for b in range(1, n_bus + 1):
            coeffs = [(q[b - 1, t - 1], 1.0)] + [(j, 1.0) for j in p[gen_bus == b - 1, t - 1]]
            coeffs += [(j, -mw[i]) for i in range(m) for j in xcol[i, t - 1, dc_bus == b - 1]]
            for line in inst.grid.lines:
                fpos = inst.grid.bus_position(line.from_bus) + 1
                tpos = inst.grid.bus_position(line.to_bus) + 1
                if fpos == b:
                    coeffs.append((th[fpos - 1, t - 1], -line.susceptance))
                    coeffs.append((th[tpos - 1, t - 1], line.susceptance))
                elif tpos == b:
                    coeffs.append((th[tpos - 1, t - 1], -line.susceptance))
                    coeffs.append((th[fpos - 1, t - 1], line.susceptance))
            model.add_row(f"bal_{b}_{t}", coeffs, "=", float(buses[b - 1].base_load[t - 1]))

    for k, line in enumerate(inst.grid.lines, start=1):
        th_from = th[inst.grid.bus_position(line.from_bus)]
        th_to = th[inst.grid.bus_position(line.to_bus)]
        for t in slots:
            flow = [(th_from[t - 1], line.susceptance), (th_to[t - 1], -line.susceptance)]
            model.add_row(f"flow_hi_{k}_{t}", flow, "<=", line.limit_mw)
            model.add_row(f"flow_lo_{k}_{t}", flow, ">=", -line.limit_mw)

    for g, gen in enumerate(gens, start=1):
        pg, ug = p[g - 1], u[g - 1]
        for t in slots:
            model.add_row(f"pmax_{g}_{t}", [(pg[t - 1], 1.0), (ug[t - 1], -gen.p_max)], "<=", 0.0)
            model.add_row(f"pmin_{g}_{t}", [(pg[t - 1], -1.0), (ug[t - 1], gen.p_min)], "<=", 0.0)
        # Ramps: p[s1] - p[s0] - (ramp - edge) u[s0] - edge u[s1] <= 0 for the
        # slots (s1, s0) = (t, t - 1) going up and (t - 1, t) going down.
        for t in range(1, t_total):
            for tag, s1, s0, ramp, edge in (("rup", t, t - 1, gen.ramp_up, gen.startup_ramp),
                                            ("rdn", t - 1, t, gen.ramp_down, gen.shutdown_ramp)):
                model.add_row(f"{tag}_{g}_{t + 1}", [(pg[s1], 1.0), (pg[s0], -1.0),
                                                     (ug[s0], -(ramp - edge)), (ug[s1], -edge)],
                              "<=", 0.0)

    _schedule_rows(model, inst, cfg, dcs, members, xcol)
    _regulation_rows(model, inst, cfg, moments, var_table, dcs, members, xcol, rcol,
                     np.zeros((m, t_total, n_dc)))
    return model


def extract_solution(inst: ProblemInstance, cfg: ModelConfig, values: np.ndarray,
                     status: str, stats: dict | None = None) -> Solution:
    """Split build_model's values into its blocks (_block_sizes), each a
    copy, and price the objective at the resolved config's revenue rate."""
    t_total, n_dc, m = inst.n_slots, inst.n_dc, len(inst.jobs)
    ends = np.cumsum(_block_sizes(inst))
    blocks = np.split(np.asarray(values, dtype=float)[:ends[-1]], ends[:-1])
    x = blocks[0].reshape(m, t_total, n_dc).copy()
    reg, gen, commit, theta, shed = (b.reshape(-1, t_total).copy() for b in blocks[1:])
    reg = np.clip(reg, 0.0, None)
    dh = cfg.slot_hours
    generation_cost = float(sum(
        unit.cost_per_mwh * gen[g, t] * dh
        for g, unit in enumerate(inst.grid.generators) for t in range(t_total)
    ))
    penalty_cost = float(cfg.c_penal * shed.sum() * dh)
    rev_rate = cfg.revenue_rate(t_total)
    regulation_revenue = float(sum(rev_rate[t] * reg[:, t].sum() * dh for t in range(t_total)))
    migration = migration_cost_of(inst, cfg, x)
    objective_total = generation_cost + penalty_cost + migration - regulation_revenue
    return Solution(
        x=x, reg=reg, gen=gen, commit=commit, theta=theta, shed=shed,
        objective_total=objective_total,
        generation_cost=generation_cost,
        penalty_cost=penalty_cost,
        regulation_revenue=regulation_revenue,
        status=status,
        migration_cost=migration,
        solver_stats=stats or {},
    )


def migration_cost_of(inst: ProblemInstance, cfg: ModelConfig, x: np.ndarray) -> float:
    """Friction charge of a schedule: cost per task and hop moved from the
    baseline cell along the canonical temporal-then-spatial path."""
    if cfg.migration_cost == 0.0:
        return 0.0
    total = 0.0
    for i, t, l in np.argwhere(inst.hops).tolist():
        total += (cfg.migration_cost * inst.jobs[i].weight * int(inst.hops[i, t, l])
                  * float(x[i, t, l]))
    return total


def diagnose_infeasibility(model: StandardFormModel,
                           backend: str = BACKEND_BUNDLED) -> dict[str, float]:
    """Per-family total violation of the elastic relaxation of a model.

    Every row gains nonnegative violation variables; minimizing total
    violation on ``backend`` names which constraint families cannot be
    satisfied together. The report is empty when that solve fails, and for
    an elastic model itself, which is feasible whenever its bounds are.
    """
    if model.name.endswith(_ELASTIC_SUFFIX):
        return {}
    elastic = StandardFormModel(model.name + _ELASTIC_SUFFIX)
    for v in model.variables:
        elastic.add_variable(v.name, v.lb, v.ub, integer=False)
    slacks_of_row: dict[int, list[int]] = {}
    for ri, row in enumerate(model.rows):
        s = elastic.add_variable(f"__viol_{ri}", 0.0, INF, obj=1.0)
        slacks_of_row[ri] = [s]
        if row.sense == "<=":
            elastic.add_row(row.name, list(row.coeffs) + [(s, -1.0)], "<=", row.rhs)
        elif row.sense == ">=":
            elastic.add_row(row.name, list(row.coeffs) + [(s, 1.0)], ">=", row.rhs)
        else:
            s2 = elastic.add_variable(f"__viol2_{ri}", 0.0, INF, obj=1.0)
            slacks_of_row[ri].append(s2)
            elastic.add_row(row.name, list(row.coeffs) + [(s, -1.0), (s2, 1.0)], "=", row.rhs)
    try:
        values, _ = solve_model(elastic, backend)
    except (InfeasibleModel, SolverError):
        return {}
    report: dict[str, float] = {}
    for ri, row in enumerate(model.rows):
        total = float(sum(values[s] for s in slacks_of_row[ri]))
        if total > 1e-7:
            family = _row_family(row.name)
            report[family] = report.get(family, 0.0) + total
    return {k: round(v, 9) for k, v in sorted(report.items())}


def backend_command(backend: str) -> str | None:
    """The command of a ``cmd:<command>`` backend, or None for ``bundled``.

    Any other string raises ValueError, as does a command that shlex
    cannot split or whose first word is empty (``cmd:""``).
    """
    if backend == BACKEND_BUNDLED:
        return None
    try:
        if backend.startswith("cmd:") and shlex.split(backend[4:])[0]:
            return backend[4:]
    except (ValueError, IndexError):  # an unclosed quote; no words at all
        pass
    raise ValueError(f"unknown backend {backend!r}; use 'bundled' or 'cmd:<command>'")


def solve_model(model: StandardFormModel, backend: str = BACKEND_BUNDLED):
    """Solve a model on the selected backend; the one place a solver runs.

    Every backend sees standard_form.presolve's reduced model and returns
    values over the full model. ``bundled`` uses branch and bound when the
    model has free binaries and the simplex otherwise; both presolve on
    entry, so each B&B node also drops the binaries it pins.
    ``cmd:<command>`` exports the reduced model as MPS to an external
    command in a temporary directory and expands the values it returns; a
    model that presolve proves infeasible, or whose columns are all fixed,
    runs no command. Returns (values, stats) only for a proven optimum;
    stats carry the counts of the one presolve of the model as given (for
    B&B, the root's): {"cols", "rows", "nnz"}, each [before, after].
    Raises InfeasibleModel, carrying the family report of
    diagnose_infeasibility on the same backend, when no feasible point
    exists, and SolverError on any other status.
    """
    # Each arm imports its solvers, so a command that never solves loads
    # none of them, a bundled solve never loads mps or subprocess and a
    # cmd: solve loads neither bundled solver.
    command = backend_command(backend)
    if command is None:
        if any(v.integer and v.ub - v.lb > 1e-12 for v in model.variables):
            from .bnb import solve_mip

            res = solve_mip(model)
            stats = {"backend": "bundled", "nodes": res.nodes, "status": res.status}
            if res.gap is not None:
                stats["gap"] = res.gap
        else:
            from .simplex import solve_lp

            res = solve_lp(model)
            stats = {"backend": "bundled", "iterations": res.iterations, "status": res.status}
        status, values, counts = res.status, res.x, res.presolve
    else:
        import tempfile

        from .mps import run_external_solver

        pre = presolve(model)
        counts = pre.counts
        if pre.model is None:
            status, values = INFEASIBLE, None
        elif pre.model.n_vars == 0:
            status, values = OPTIMAL, pre.expand(np.zeros(0))
        else:
            with tempfile.TemporaryDirectory(prefix="dcflex_ext_") as wd:
                status, values = run_external_solver(pre.model, command, wd)
            if values is not None:
                # A solution file may omit variables (read as 0): check the point.
                excess = pre.model.max_violation(values)
                if excess > FEAS_TOL:
                    raise SolverError(f"model {model.name}: {command} solver point breaks "
                                      f"the presolved model by {excess:.3e}")
                values = pre.expand(values)
        stats = {"backend": command, "status": status}
    if status == INFEASIBLE:
        raise InfeasibleModel(f"model {model.name} is infeasible",
                              diagnose_infeasibility(model, backend))
    if status != OPTIMAL:
        raise SolverError(f"model {model.name}: {stats['backend']} solver "
                          f"ended with status {status}")
    stats["presolve"] = counts
    return values, stats


def build_regulation_only_model(inst: ProblemInstance, cfg: ModelConfig,
                                moments: GaussianEnvelope, var_table: VaRTable,
                                x_frozen: np.ndarray) -> StandardFormModel:
    """Revenue maximization over R alone with the schedule frozen.

    Declares the R block of every DC and no x columns; the power caps, the
    chance constraint, and the queue VaR rows are kept with their x terms
    replaced by the frozen values. ``cfg`` must be resolved.
    """
    model = StandardFormModel("regulation_adjustment")
    dcs = range(1, inst.n_dc + 1)
    rcol = _r_columns(model, inst, cfg, dcs)
    _regulation_rows(model, inst, cfg, moments, var_table, dcs, (), None, rcol, x_frozen)
    return model


def _absorb_frozen_round_off(model: StandardFormModel) -> int:
    """Relax the rows of a regulation-only model that its frozen schedule
    alone breaks by at most FEAS_TOL; returns how many.

    Every column is an R >= 0, so at R = 0 each row's activity is 0 and a
    right-hand side on the wrong side of 0 is the schedule's own excess.
    An external solver's phase-1 point may break a queue row by round-off
    that no R can absorb; such a row gets right-hand side 0, and
    validate_solution still judges the final point. A larger excess is
    left for the solver to prove infeasible.
    """
    relaxed = 0
    for row in model.rows:
        excess = row.rhs if row.sense == ">=" else -row.rhs
        if 0.0 < excess <= FEAS_TOL:
            row.rhs = 0.0
            relaxed += 1
    return relaxed


def residual_supply_segments(inst: ProblemInstance, slot_hours: float,
                             l: int) -> list[list[tuple[float, float]]]:
    """Per-slot piecewise energy price a single DC faces, price-taker style.

    The rest of the system (base load plus the other DCs' baseline) is
    held fixed; the DC's own energy at a slot then fills the stacked
    generator bands from where the residual load left off. Returns, per
    slot, (width_mwh, price) segments in merit order; the last segment is
    unbounded at the most expensive unit's price.
    """
    gens = sorted(inst.grid.generators, key=lambda g: (g.cost_per_mwh, g.id))
    base = np.sum([b.base_load for b in inst.grid.buses], axis=0)
    nodal = load_matrix(inst.x_base, inst.jobs, slot_hours)
    others = base + nodal.sum(axis=0) - nodal[l - 1]
    out = []
    for t in range(inst.n_slots):
        segments = []
        cum = 0.0
        for g in gens:
            lo = max(0.0, (cum - others[t]) * slot_hours)
            cum += g.p_max
            hi = max(0.0, (cum - others[t]) * slot_hours)
            if hi > lo:
                segments.append((hi - lo, g.cost_per_mwh))
        segments.append((INF, gens[-1].cost_per_mwh))
        out.append(segments)
    return out


def build_per_dc_model(inst: ProblemInstance, cfg: ModelConfig, moments: GaussianEnvelope,
                       var_table: VaRTable,
                       l: int) -> tuple[StandardFormModel, np.ndarray, np.ndarray]:
    """Single-DC bill-minus-revenue optimization.

    Covers the clusters whose baseline sits at DC l, over their allowed
    cells at that DC (temporal shifting only): completion, local
    resources, a per-DC share of the QoS row (summing the per-DC rows over
    DCs recovers the global constraint), power caps, the chance constraint,
    and the DC's queue VaR rows. Energy is billed against the residual
    supply curve (price-taker view), so the DC is cost-aware without
    seeing the other DCs' decisions or the network. ``cfg`` must be
    resolved. Returns the model and its x and R column arrays, those of
    _x_columns and _r_columns, -1 outside the covered clusters and DC.
    """
    t_total = inst.n_slots
    dh = cfg.slot_hours
    members = [i for i in range(len(inst.jobs)) if inst.baseline_dc(i)[1] == l]
    energies = cluster_energies_mwh(inst.jobs)
    segments = residual_supply_segments(inst, dh, l)

    model = StandardFormModel(f"dc{l}_independent")
    rcol = _r_columns(model, inst, cfg, (l,))
    xcol = _x_columns(model, inst, cfg, members, (l,))
    # Energy bill: own energy per slot fills priced supply segments; the
    # convex merit order makes the LP use cheap segments first.
    for t in range(1, t_total + 1):
        widths, prices = zip(*segments[t - 1])
        bill = _columns(model, "bill", ([t], range(len(widths))), 0.0, [widths], obj=[prices])
        coeffs = [(xcol[i, t - 1, l - 1], float(energies[i])) for i in members]
        coeffs += [(sv, -1.0) for sv in bill[0]]
        model.add_row(f"bill_{t}", coeffs, "=", 0.0)

    _schedule_rows(model, inst, cfg, (l,), members, xcol)
    _regulation_rows(model, inst, cfg, moments, var_table, (l,), members, xcol, rcol,
                     np.zeros((len(inst.jobs), t_total, inst.n_dc)))
    return model, xcol, rcol


def run_strategy(inst: ProblemInstance, cfg: ModelConfig, fitted: FittedSignal,
                 backend: str = BACKEND_BUNDLED) -> Solution:
    """Solve an instance under the configured bidding strategy.

    Every model the strategy builds (the joint model; decoupled phase 1 and
    its regulation adjustment; each per-DC model and the dispatch) is
    solved by solve_model on ``backend``, so every part of the result is a
    proven optimum under one status contract.
    """
    moments = fitted.moments(cfg.signal_model)
    cfg = resolve_config(cfg, inst.n_slots, fitted.mean_abs)
    if cfg.strategy == "cooperative":
        model = build_model(inst, cfg, moments, fitted.var_table)
        values, stats = solve_model(model, backend)
        return extract_solution(inst, cfg, values, "optimal", stats)

    if cfg.strategy == "decoupled":
        phase1 = build_model(inst, cfg, moments, fitted.var_table,
                             fix_r=np.zeros((inst.n_dc, inst.n_slots)), name="decoupled_phase1")
        values1, stats1 = solve_model(phase1, backend)
        n_x, n_r = _block_sizes(inst)[:2]
        x1 = values1[:n_x].reshape(len(inst.jobs), inst.n_slots, inst.n_dc)
        phase2 = build_regulation_only_model(inst, cfg, moments, fitted.var_table, x1)
        relaxed = _absorb_frozen_round_off(phase2)
        values2, stats2 = solve_model(phase2, backend)
        stats2["relaxed_rows"] = relaxed
        # Phase 2's R columns follow the same (l, t) order as the R block.
        values = np.array(values1, dtype=float)
        values[n_x:n_x + n_r] = values2
        return extract_solution(inst, cfg, values, "optimal",
                                {"phase1": stats1, "phase2": stats2})

    if cfg.strategy == "independent":
        x_all = inst.x_base.copy()
        reg_all = np.zeros((inst.n_dc, inst.n_slots))
        per_dc_stats = []
        for l in range(1, inst.n_dc + 1):
            model, xcol, rcol = build_per_dc_model(inst, cfg, moments, fitted.var_table, l)
            values, stats = solve_model(model, backend)
            # The covered clusters leave no mass at other DCs.
            reg_all[l - 1] = np.maximum(values[rcol[l - 1].astype(int)], 0.0)
            placed = xcol >= 0
            x_all[placed.any(axis=(1, 2))] = 0.0
            x_all[placed] = values[xcol[placed].astype(int)]
            per_dc_stats.append({"dc": l, **stats})
        dispatch = build_model(inst, cfg, moments, fitted.var_table,
                               fix_x=x_all, fix_r=reg_all, name="independent_dispatch")
        values, stats = solve_model(dispatch, backend)
        return extract_solution(inst, cfg, values, "optimal",
                                {"dispatch": stats, "per_dc": per_dc_stats})

    raise ValueError(f"unknown strategy {cfg.strategy!r}")
