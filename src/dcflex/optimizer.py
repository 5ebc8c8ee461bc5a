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
where a model declares no column; build_model adds the grid blocks p, u,
th and q. Every row emitter looks its columns up in these arrays, and
_block_sizes is the one statement of build_model's block order. Each DC
constraint family is emitted in one place: _schedule_rows the completion,
QoS and resource rows, _regulation_rows the power cap, chance and queue
VaR rows. The full model, the per-DC models and the regulation-only model
differ only in the DCs, clusters and fixed values they pass. A queue row's
x coefficients are -cover[t] * E_i, where slot_cover gives the share of
each slot elapsed by the checkpoint and E_i is cluster i's energy; the
backlog of the frozen schedule enters its right-hand side as one
sequential sum. validate.py re-derives every family independently on
purpose, so it stays a check on these emitters rather than a copy of them.
"""

import math
import numbers
import re
import shlex
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .artifacts import SHIFTING_MODES, SIGNAL_MODELS, STRATEGIES, InfeasibleModel, SolverError
from .grid import GridCase, validate_case
from .signals import (
    DEFAULT_QUANTILE_GRID,
    DEFAULT_VAR_HORIZONS,
    GaussianEnvelope,
    VaRTable,
    inverse_normal_cdf,
)
from .standard_form import FEAS_TOL, INF, StandardFormModel, presolve
from .workload import (
    LatencyMap,
    baseline_assignment,
    baseline_latency_profile,
    cluster_energies_mwh,
    load_matrix,
)

BACKEND_BUNDLED = "bundled"
_CHOICES = {"shifting_mode": SHIFTING_MODES, "strategy": STRATEGIES,
            "signal_model": SIGNAL_MODELS, "forfeiture": ("full", "proportional")}
_ELASTIC_SUFFIX = "_elastic"


class ModelBuildError(ValueError):
    """Model assembly failed; the message names the offending family."""


@dataclass(frozen=True)
class QueueParameters:
    """Backlog state data per DC: initial level, exogenous arrivals, bounds.

    Arrivals are energy-equivalent MWh per (dc, slot); the queue bounds,
    the only ones the instance carries, must bracket the initial level.
    """

    q_init: np.ndarray
    arrivals: np.ndarray
    q_min: np.ndarray
    q_max: np.ndarray

    def __post_init__(self):
        for name in ("q_init", "arrivals", "q_min", "q_max"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n = self.q_init.size
        if self.arrivals.shape[0] != n or self.q_min.size != n or self.q_max.size != n:
            raise ValueError("queue parameter arrays disagree on DC count")
        if np.any(self.q_min > self.q_init) or np.any(self.q_init > self.q_max):
            raise ValueError("need q_min <= q_init <= q_max per DC")


def _finite_numbers(value) -> bool:
    """True for a finite real number or a list, tuple or array of them."""
    items = value if isinstance(value, (list, tuple, np.ndarray)) else [value]
    return all(isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
               for v in items)


@dataclass
class ModelConfig:
    """All knobs of one optimization run; mirrors the bundle config file."""

    shifting_mode: str = "joint"
    strategy: str = "cooperative"
    signal_model: str = "envelope"
    eps_p: float = 0.05
    eps_e: float = 0.05
    delta_qos: float = 5.0
    c_penal: float = 10_000.0
    slot_hours: float = 1.0
    c_rc: object = 8.0  # $/MW-slot, scalar or per-slot list
    c_rp: object = 3.0
    m_bar: object = None  # None -> mean |s| of the fitted trace
    var_horizons: tuple = DEFAULT_VAR_HORIZONS
    quantile_grid: tuple = DEFAULT_QUANTILE_GRID
    extra_signal_variance: float = 0.0
    integral_x: bool = False
    migration_cost: float = 0.0  # $ per task and hop moved, in the objective
    fit_split: float = 0.7
    compliance_threshold: float = 0.25
    forfeiture: str = "full"  # or "proportional"

    def validate(self, max_gen_cost: float = 0.0) -> None:
        """Raise ValueError naming the first field of the wrong type or out
        of range."""
        for name, value in self.__dict__.items():
            if name in _CHOICES:
                if value not in _CHOICES[name]:
                    raise ValueError(f"{name} must be one of {_CHOICES[name]}, got {value!r}")
            elif name == "integral_x":
                if not isinstance(value, bool):
                    raise ValueError(f"integral_x must be true or false, got {value!r}")
            elif name in ("var_horizons", "quantile_grid") and not isinstance(value, tuple):
                raise ValueError(f"{name} must be a list of numbers, got {value!r}")
            elif not (name == "m_bar" and value is None) and not _finite_numbers(value):
                raise ValueError(f"{name} must be numeric, got {value!r}")
        for name, hi in (("eps_p", 0.5), ("eps_e", 0.5), ("fit_split", 1.0)):
            if not 0.0 < getattr(self, name) < hi:
                raise ValueError(f"{name} must be in (0, {hi}), got {getattr(self, name)}")
        if not 0.0 <= self.compliance_threshold <= 1.0:
            raise ValueError(
                f"compliance_threshold must be in [0, 1], got {self.compliance_threshold}")
        if self.delta_qos < 0:
            raise ValueError("delta_qos must be >= 0")
        if self.slot_hours <= 0:
            raise ValueError("slot_hours must be > 0")
        if self.c_penal <= max_gen_cost:
            raise ValueError(f"c_penal must exceed the highest generator cost "
                             f"{max_gen_cost}, got {self.c_penal}")

    def prices(self, t_total: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(c_rc, c_rp, m_bar) as per-slot arrays of a resolved config."""
        if self.m_bar is None:
            raise ValueError("m_bar is unresolved; call resolve_config with the fitted signal")

        def as_array(v, name):
            arr = np.full(t_total, float(v)) if np.isscalar(v) else np.asarray(v, dtype=float)
            if arr.size != t_total:
                raise ValueError(f"{name} has {arr.size} entries, horizon is {t_total}")
            return arr

        return tuple(as_array(getattr(self, name), name) for name in ("c_rc", "c_rp", "m_bar"))

    def revenue_rate(self, t_total: int) -> np.ndarray:
        """$ per MW of committed capacity and slot: c_rc + c_rp * m_bar."""
        c_rc, c_rp, m_bar = self.prices(t_total)
        return c_rc + c_rp * m_bar

    def to_dict(self) -> dict:
        def plain(v):
            if isinstance(v, np.ndarray):
                return [float(x) for x in v]
            if isinstance(v, tuple):
                return list(v)
            return v

        return {k: plain(v) for k, v in self.__dict__.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        """Inverse of to_dict, validated; a key that names no field, or a
        field of the wrong type or out of range, raises ValueError."""
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown model config keys {unknown}")
        kwargs = dict(data)
        for key in ("var_horizons", "quantile_grid"):
            if isinstance(kwargs.get(key), list):
                kwargs[key] = tuple(kwargs[key])
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


@dataclass(frozen=True)
class ProblemInstance:
    """One complete optimization instance (workloads, grid, queues)."""

    jobs: tuple
    latency: LatencyMap
    dcs: tuple
    grid: GridCase
    queue: QueueParameters

    def __post_init__(self):
        object.__setattr__(self, "jobs", tuple(self.jobs))
        object.__setattr__(self, "dcs", tuple(self.dcs))

    @property
    def n_dc(self) -> int:
        return len(self.dcs)

    @property
    def n_slots(self) -> int:
        return self.dcs[0].n_slots

    @cached_property
    def x_base(self) -> np.ndarray:
        x = baseline_assignment(self.jobs, self.latency, self.dcs)
        x.flags.writeable = False
        return x

    @cached_property
    def hops(self) -> np.ndarray:
        """(M, T, N) migration hops of each cell from the cluster's baseline
        cell along the canonical temporal-then-spatial path: one per slot
        moved plus one for a change of DC."""
        slots = np.arange(1, self.n_slots + 1)
        dcs = np.arange(1, self.n_dc + 1)
        h = np.zeros((len(self.jobs), self.n_slots, self.n_dc), dtype=int)
        for i in range(len(self.jobs)):
            t0, l0 = self.baseline_dc(i)
            h[i] = np.abs(slots - t0)[:, None] + (dcs != l0)[None, :]
        h.flags.writeable = False
        return h

    @cached_property
    def latency_table(self) -> np.ndarray:
        """(M, N) latency of each cluster's region to each DC, rows in job
        order and columns in DC order."""
        lat = self.latency.table([job.user_region for job in self.jobs],
                                 [dc.id for dc in self.dcs])
        lat.flags.writeable = False
        return lat

    @cached_property
    def baseline_latency(self) -> np.ndarray:
        return baseline_latency_profile(self.x_base, self.latency_table)

    def validate(self) -> None:
        if not self.dcs:
            raise ValueError("instance needs at least one data center")
        t_total = self.n_slots
        for dc in self.dcs:
            if dc.n_slots != t_total:
                raise ValueError(f"dc {dc.id}: horizon differs from dc {self.dcs[0].id}")
        if self.grid.n_slots != t_total:
            raise ValueError("grid base load horizon differs from DC horizon")
        violations = validate_case(self.grid)
        if violations:
            raise ValueError("grid case invalid: " + "; ".join(violations))
        if not self.grid.generators:
            raise ValueError("grid case has no generators")
        bus_ids = set(self.grid.bus_ids())
        for dc in self.dcs:
            if dc.bus not in bus_ids:
                raise ValueError(f"dc {dc.id}: attached bus {dc.bus} not in grid")
        if self.queue.q_init.size != self.n_dc or self.queue.arrivals.shape != (self.n_dc, t_total):
            raise ValueError("queue parameters do not match (n_dc, n_slots)")
        regions = {j.user_region for j in self.jobs}
        self.latency.check_complete(sorted(regions), [dc.id for dc in self.dcs])
        for job in self.jobs:
            if job.arrival_slot > t_total:
                raise ValueError(f"cluster {job.id}: arrival slot beyond horizon")

    def baseline_dc(self, i: int) -> tuple[int, int]:
        """(slot, dc) both 1-based where cluster i sits in the baseline."""
        flat = int(np.argmax(self.x_base[i]))
        t, l = divmod(flat, self.n_dc)
        return t + 1, l + 1


@dataclass(frozen=True)
class FittedSignal:
    """Fitted signal artifacts shared by model building and simulation."""

    envelope: GaussianEnvelope
    direct: GaussianEnvelope
    var_table: VaRTable
    mean_abs: float

    def moments(self, signal_model: str) -> GaussianEnvelope:
        if signal_model == "envelope":
            return self.envelope
        if signal_model == "direct_gaussian":
            return self.direct
        raise ValueError(f"unknown signal model {signal_model!r}")


# solution.json's per-slot arrays: file key -> Solution field. "u" is
# written as rounded ints; every array is read back as floats.
SOLUTION_ARRAYS = {"R": "reg", "p": "gen", "u": "commit", "theta": "theta", "q": "shed"}


@dataclass
class Solution:
    """Solved decision variables plus the objective breakdown."""

    x: np.ndarray           # (M, T, N) fractions
    reg: np.ndarray         # (N, T) committed MW
    gen: np.ndarray         # (G, T) MW
    commit: np.ndarray      # (G, T) 0/1
    theta: np.ndarray       # (B, T) rad
    shed: np.ndarray        # (B, T) MW
    objective_total: float
    generation_cost: float
    penalty_cost: float
    regulation_revenue: float
    status: str
    migration_cost: float = 0.0
    solver_stats: dict = field(default_factory=dict)

    def breakdown(self) -> dict:
        return {
            "generation_cost": self.generation_cost,
            "penalty_cost": self.penalty_cost,
            "migration_cost": self.migration_cost,
            "regulation_revenue": self.regulation_revenue,
            "net_cost": self.objective_total,
        }

    def to_dict(self, jobs) -> dict:
        m, t_total, n_dc = self.x.shape
        sparse = [[i + 1, t + 1, l + 1, float(self.x[i, t, l])]
                  for i, t, l in np.argwhere(np.abs(self.x) > 1e-12).tolist()]
        return {
            "status": self.status,
            "objective_total": self.objective_total,
            "breakdown": self.breakdown(),
            "dims": {"clusters": m, "slots": t_total, "dcs": n_dc},
            "cluster_ids": [j.id for j in jobs],
            "x": sparse,
            **{key: [[int(round(v)) if key == "u" else float(v) for v in row]
                     for row in getattr(self, name)] for key, name in SOLUTION_ARRAYS.items()},
            "solver_stats": self.solver_stats,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Solution":
        """Inverse of to_dict; an x entry outside ``dims`` or with an index
        that is not an integer (a JSON ``true`` is not 1), an array whose
        shape disagrees with them, or a NaN or infinite number raises
        ValueError naming the field."""
        dims = data["dims"]
        shape = (dims["clusters"], dims["slots"], dims["dcs"])
        x = np.zeros(shape)
        for entry in data["x"]:
            *cell, v = entry
            if len(cell) != 3 or not all(
                    isinstance(k, int) and not isinstance(k, bool) and 1 <= k <= n
                    for k, n in zip(cell, shape)):
                raise ValueError(f"x entry {entry} lies outside dims {dims}")
            if not _finite_numbers(v):
                raise ValueError(f"x entry {entry} holds {v!r}, not a finite number")
            x[cell[0] - 1, cell[1] - 1, cell[2] - 1] = v
        arrays = {key: np.asarray(data[key], dtype=float) for key in SOLUTION_ARRAYS}
        for key, arr in arrays.items():
            if arr.ndim != 2 or arr.shape[1] != shape[1] or (key == "R" and len(arr) != shape[2]):
                raise ValueError(f"{key} has shape {arr.shape}, which disagrees with dims {dims}")
            if not _finite_numbers(arr.ravel()):
                raise ValueError(f"{key} holds a number that is not finite")
        br = data["breakdown"]
        return cls(
            x=x,
            **{name: arrays[key] for key, name in SOLUTION_ARRAYS.items()},
            objective_total=float(data["objective_total"]),
            generation_cost=float(br["generation_cost"]),
            penalty_cost=float(br["penalty_cost"]),
            regulation_revenue=float(br["regulation_revenue"]),
            status=data["status"],
            migration_cost=float(br.get("migration_cost", 0.0)),
            solver_stats=data.get("solver_stats", {}),
        )


def chance_coefficient(moments: GaussianEnvelope, eps_p: float,
                       extra_variance: float = 0.0) -> float:
    """Linear coefficient of R in the upward-regulation chance constraint.

    mu + z_{1-eps_p} * sqrt(sigma^2 + extra); at eps_p = 0.5 the z term
    vanishes and the coefficient reduces to the mean.
    """
    if not 0.0 < eps_p <= 0.5:
        raise ValueError(f"eps_p must be in (0, 0.5], got {eps_p}")
    sigma = math.sqrt(moments.sigma ** 2 + max(0.0, extra_variance))
    if eps_p == 0.5:
        return moments.mu
    return moments.mu + inverse_normal_cdf(1.0 - eps_p) * sigma


@dataclass(frozen=True)
class QueueCheckPoint:
    """One VaR checkpoint: window of ``horizon_hours`` ending at ``tau_hours``
    inside commitment slot ``slot`` (1-based)."""

    slot: int
    tau_hours: float
    horizon_hours: float


def queue_check_points(t_total: int, slot_hours: float, horizons) -> list[QueueCheckPoint]:
    """Deterministic checkpoint set: sub-hour offsets within each slot plus
    multi-slot windows ending at slot boundaries."""
    points = []
    seen = set()
    for t in range(1, t_total + 1):
        end = t * slot_hours
        for h in horizons:
            if h <= 0:
                raise ValueError("var horizons must be positive")
            if h < slot_hours - 1e-12:
                tau = (t - 1) * slot_hours + h
            elif h > end + 1e-12:
                continue  # window does not fit before this slot's end
            else:
                tau = end
            key = (t, round(tau, 9), round(float(h), 9))
            if key not in seen:
                seen.add(key)
                points.append(QueueCheckPoint(t, tau, float(h)))
    return points


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


def allowed_cells(inst: ProblemInstance, cfg: ModelConfig, i: int) -> set[tuple[int, int]]:
    """(slot, dc) cells, 1-based, where cluster i may place mass.

    Intersection of the cluster's flexibility class with the run's shifting
    mode; fixed clusters and mode "none" collapse to the baseline cell.
    Deferral is causal: work can run no earlier than its arrival slot.
    """
    t0, l0 = inst.baseline_dc(i)
    job = inst.jobs[i]
    if job.flex_class == "fixed" or cfg.shifting_mode == "none":
        return {(t0, l0)}
    spatial_ok = cfg.shifting_mode in ("spatial", "joint")
    temporal_ok = cfg.shifting_mode in ("temporal", "joint") and job.flex_class == "deferrable"
    slots = range(job.arrival_slot, inst.n_slots + 1) if temporal_ok else (t0,)
    dcs = range(1, inst.n_dc + 1) if spatial_ok else (l0,)
    return {(t, l) for t in slots for l in dcs}


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
    inst.validate()
    cfg.validate(inst.grid.max_generator_cost())
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

    model.validate()
    return model


def resolve_config(cfg: ModelConfig, t_total: int, mean_abs: float) -> ModelConfig:
    """Fill the defaulted mileage proxy so all phases price revenue alike:
    the only code that turns ``m_bar: null`` into ``mean_abs`` per slot."""
    if cfg.m_bar is not None:
        return cfg
    return replace(cfg, m_bar=[mean_abs] * t_total)


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
    # none of them and a bundled solve never loads mps or subprocess.
    from .simplex import INFEASIBLE, OPTIMAL

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
