"""What the day-ahead model means, apart from how it is built.

The input records (QueueParameters, ModelConfig, ProblemInstance), the
fitted signal (FittedSignal) and the result (Solution), with the helpers
that state the model's semantics: chance_coefficient (the z-quantile
coefficient of R), queue_check_points (the VaR checkpoint set),
allowed_cells (each shifting mode's cells) and resolve_config (the
defaulted mileage proxy). The builder (optimizer), the validator and the
simulator all read them here. This module imports neither standard_form
nor any solver, so a command that builds no model loads neither.
"""

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .artifacts import SHIFTING_MODES, SIGNAL_MODELS, STRATEGIES
from .grid import GridCase
from .signals import (
    DEFAULT_QUANTILE_GRID,
    DEFAULT_VAR_HORIZONS,
    GaussianEnvelope,
    VaRTable,
    inverse_normal_cdf,
)
from .workload import LatencyMap, baseline_assignment, baseline_latency_profile

_CHOICES = {"shifting_mode": SHIFTING_MODES, "strategy": STRATEGIES,
            "signal_model": SIGNAL_MODELS, "forfeiture": ("full", "proportional")}


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


@dataclass(frozen=True)
class ModelConfig:
    """All knobs of one optimization run; mirrors the bundle config file.
    Building one with a field of the wrong type or out of range raises
    ValueError naming the first such field."""

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

    def __post_init__(self):
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
        if self.c_penal <= 0:
            raise ValueError(f"c_penal must be > 0, got {self.c_penal}")

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
        """Inverse of to_dict; a key that names no field, or a field of the
        wrong type or out of range, raises ValueError."""
        unknown = sorted(set(data) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown model config keys {unknown}")
        kwargs = dict(data)
        for key in ("var_horizons", "quantile_grid"):
            if isinstance(kwargs.get(key), list):
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


@dataclass(frozen=True)
class ProblemInstance:
    """One complete optimization instance (workloads, grid, queues).
    Building one whose records disagree (horizons, DC buses, queue shapes,
    latency pairs, arrival slots) raises ValueError naming the first fault."""

    jobs: tuple
    latency: LatencyMap
    dcs: tuple
    grid: GridCase
    queue: QueueParameters

    def __post_init__(self):
        object.__setattr__(self, "jobs", tuple(self.jobs))
        object.__setattr__(self, "dcs", tuple(self.dcs))
        if not self.dcs:
            raise ValueError("instance needs at least one data center")
        t_total, bus_ids = self.grid.n_slots, set(self.grid.bus_ids())
        for dc in self.dcs:
            if dc.n_slots != t_total:
                raise ValueError(f"dc {dc.id}: {dc.n_slots} slots, the grid has {t_total}")
            if dc.bus not in bus_ids:
                raise ValueError(f"dc {dc.id}: attached bus {dc.bus} not in grid")
        if self.queue.q_init.size != self.n_dc or self.queue.arrivals.shape != (self.n_dc, t_total):
            raise ValueError("queue parameters do not match (n_dc, n_slots)")
        regions = {j.user_region for j in self.jobs}
        self.latency.check_complete(sorted(regions), [dc.id for dc in self.dcs])
        for job in self.jobs:
            if job.arrival_slot > t_total:
                raise ValueError(f"cluster {job.id}: arrival slot beyond horizon")

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


def resolve_config(cfg: ModelConfig, t_total: int, mean_abs: float) -> ModelConfig:
    """Fill the defaulted mileage proxy so all phases price revenue alike:
    the only code that turns ``m_bar: null`` into ``mean_abs`` per slot."""
    if cfg.m_bar is not None:
        return cfg
    return replace(cfg, m_bar=[mean_abs] * t_total)
