"""Aggregated computing workloads, latency map, and DC capacity data.

Jobs are aggregated into clusters keyed by (user region, arrival slot,
flexibility class). A schedule is a dense array x[i, t, l] of fractions in
[0, 1]; completeness requires each cluster's fractions to sum to 1 over the
horizon. Power conversion divides cluster energy (kWh/task * tasks) by the
slot duration.
"""

from dataclasses import dataclass, fields

import csv
import math

import numpy as np

from .artifacts import not_utf8

FLEX_CLASSES = ("fixed", "interactive", "deferrable")

COMPLETENESS_TOL = 1e-9


class InfeasibleBaseline(ValueError):
    """No data center can host a cluster within per-slot capacities."""


@dataclass(frozen=True)
class JobCluster:
    """One aggregated workload cluster.

    weight is a task count; r_cpu/r_mem/r_io are normalized resource units
    per unit weight; d_kwh_per_task converts tasks to energy.
    """

    id: str
    user_region: str
    arrival_slot: int
    flex_class: str
    weight: float
    r_cpu: float
    r_mem: float
    r_io: float
    d_kwh_per_task: float

    def __post_init__(self):
        if self.flex_class not in FLEX_CLASSES:
            raise ValueError(f"unknown flex class {self.flex_class!r}")
        if self.arrival_slot < 1:
            raise ValueError(f"arrival_slot must be >= 1, got {self.arrival_slot}")
        for name in ("weight", "r_cpu", "r_mem", "r_io", "d_kwh_per_task"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")

    @property
    def energy_mwh(self) -> float:
        """Total energy of the cluster if fully executed."""
        return self.d_kwh_per_task * self.weight / 1000.0


@dataclass(frozen=True)
class LatencyMap:
    """Latency cost per (user region, dc id) pair, ms-equivalent units."""

    entries: dict

    def __post_init__(self):
        for key, v in self.entries.items():
            if v < 0:
                raise ValueError(f"latency for {key} must be >= 0, got {v}")

    def latency(self, user_region: str, dc_id: int) -> float:
        try:
            return self.entries[(user_region, dc_id)]
        except KeyError:
            raise KeyError(f"no latency entry for region {user_region!r}, dc {dc_id}") from None

    def table(self, regions, dc_ids) -> np.ndarray:
        """(len(regions), len(dc_ids)) latency of each region to each DC."""
        return np.array([[self.latency(r, d) for d in dc_ids] for r in regions], dtype=float)

    def check_complete(self, regions, dc_ids) -> None:
        missing = [(r, d) for r in regions for d in dc_ids if (r, d) not in self.entries]
        if missing:
            raise ValueError(f"latency map missing {len(missing)} pairs, first {missing[0]}")


@dataclass(frozen=True)
class DataCenterSpec:
    """Per-DC capacity profiles and power bounds; the queue bounds live in
    the instance's QueueParameters."""

    id: int
    bus: int
    cpu_cap: np.ndarray
    mem_cap: np.ndarray
    io_cap: np.ndarray
    p_min: np.ndarray
    p_max: np.ndarray

    def __post_init__(self):
        for name in ("cpu_cap", "mem_cap", "io_cap", "p_min", "p_max"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        t = self.cpu_cap.size
        for name in ("mem_cap", "io_cap", "p_min", "p_max"):
            if getattr(self, name).size != t:
                raise ValueError(f"dc {self.id}: {name} length differs from cpu_cap")
        if np.any(self.cpu_cap < 0) or np.any(self.mem_cap < 0) or np.any(self.io_cap < 0):
            raise ValueError(f"dc {self.id}: capacities must be >= 0")
        if np.any(self.p_min > self.p_max):
            raise ValueError(f"dc {self.id}: p_min exceeds p_max in some slot")

    @property
    def n_slots(self) -> int:
        return self.cpu_cap.size


def cluster_energies_mwh(jobs) -> np.ndarray:
    return np.array([j.energy_mwh for j in jobs])


def load_matrix(x: np.ndarray, jobs, slot_hours: float) -> np.ndarray:
    """Nodal power demand as an (n_dc, n_slots) MW matrix."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[0] != len(jobs):
        raise ValueError(f"schedule shape {x.shape} does not match {len(jobs)} clusters")
    if slot_hours <= 0:
        raise ValueError("slot_hours must be > 0")
    energy = cluster_energies_mwh(jobs)  # MWh per fully-placed cluster
    nodal = np.tensordot(energy, x, axes=(0, 0)) / slot_hours  # (T, N) MW
    # C order: numpy's summation order along an axis depends on the layout.
    return np.ascontiguousarray(nodal.T)


def slot_latency(x: np.ndarray, lat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each slot's schedule-weighted latency and whether it holds jobs;
    ``lat`` is the (clusters, DCs) latency table of x's rows and columns.

    A slot whose total mass is at most COMPLETENESS_TOL holds only round-off
    and is reported as empty: latency 0 and held False.
    """
    x = np.asarray(x, dtype=float)
    num = (lat[:, None, :] * x).sum(axis=(0, 2))
    den = x.sum(axis=(0, 2))
    held = den > COMPLETENESS_TOL
    return np.divide(num, den, out=np.zeros_like(num), where=held), held


def baseline_latency_profile(x_base: np.ndarray, lat: np.ndarray) -> np.ndarray:
    """Per-slot baseline latency, with empty slots filled by the horizon mean.

    Deferring work into a slot the baseline left empty needs a reference
    latency; the schedule-weighted mean over the whole horizon is used so
    the tolerance stays anchored to typical baseline service.
    """
    values, held = slot_latency(x_base, lat)
    if held.any():
        values[~held] = np.sum(values * held) / held.sum()
    return values


def qos_deviation(x: np.ndarray, x_base: np.ndarray, lat: np.ndarray) -> np.ndarray:
    """Per-slot latency deviation of x from the baseline profile.

    Slots where x schedules nothing contribute deviation 0.
    """
    values, held = slot_latency(x, lat)
    return np.where(held, values - baseline_latency_profile(x_base, lat), 0.0)


def baseline_assignment(jobs, latmap: LatencyMap, dcs) -> np.ndarray:
    """Greedy nominal assignment: whole cluster at arrival slot, nearest DC.

    Clusters are placed in input order; each takes the feasible DC with the
    lowest latency for its region (lowest DC id on ties), spilling to the
    next-nearest DC when capacity is exhausted. Raises InfeasibleBaseline
    naming the slot and resource when no DC has room.
    """
    if not dcs:
        raise ValueError("need at least one data center")
    t_total = dcs[0].n_slots
    n_dc = len(dcs)
    used = np.zeros((3, n_dc, t_total))  # cpu/mem/io committed so far
    caps = np.stack(
        [
            np.stack([dc.cpu_cap for dc in dcs]),
            np.stack([dc.mem_cap for dc in dcs]),
            np.stack([dc.io_cap for dc in dcs]),
        ]
    )
    ids = [dc.id for dc in dcs]
    lat = latmap.table([job.user_region for job in jobs], ids)
    x = np.zeros((len(jobs), t_total, n_dc))
    for i, job in enumerate(jobs):
        if job.arrival_slot > t_total:
            raise ValueError(f"cluster {job.id}: arrival slot {job.arrival_slot} > horizon {t_total}")
        t = job.arrival_slot - 1
        demand = np.array([job.r_cpu, job.r_mem, job.r_io]) * job.weight
        for l in np.lexsort((ids, lat[i])):
            if np.all(used[:, l, t] + demand <= caps[:, l, t] + 1e-9):
                used[:, l, t] += demand
                x[i, t, l] = 1.0
                break
        else:
            gaps = caps[:, :, t] - used[:, :, t] - demand[:, None]
            worst = int(np.argmin(np.max(gaps, axis=1)))
            name = ("cpu", "mem", "io")[worst]
            raise InfeasibleBaseline(
                f"cluster {job.id}: no DC fits at slot {job.arrival_slot}, "
                f"binding resource {name}"
            )
    return x


# The headers of workload.csv, one column per JobCluster field in order,
# and of latency.csv; _PARSE reads a workload cell by its field's type.
WORKLOAD_HEADER = ("id", "user_region", "arrival_slot", "class", "weight",
                   "r_cpu", "r_mem", "r_io", "d_kwh_per_task")
LATENCY_HEADER = ("user_region", "dc_id", "latency")
_PARSE = {str: str.strip, int: int, float: float}


def _read_table(path, header, parse_row, what: str) -> list:
    """``parse_row`` of each row (a dict keyed by ``header``) of CSV file
    ``path``. Every fault raises one ValueError naming the file, and for a
    row of the wrong length, a fault of ``parse_row`` or a byte that is not
    UTF-8 also its line."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or tuple(f.strip() for f in reader.fieldnames) != header:
                raise ValueError(f"{path}: expected header {','.join(header)}")
            parsed = []
            for line_no, row in enumerate(reader, start=2):
                try:
                    if None in row or None in row.values():
                        raise ValueError(f"expected {len(header)} fields")
                    parsed.append(parse_row(row))
                except (ValueError, KeyError) as exc:
                    raise ValueError(f"{path} line {line_no}: {exc}") from None
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    if not parsed:
        raise ValueError(f"{path}: no {what} rows")
    return parsed


def read_workload_csv(path) -> list[JobCluster]:
    """Read clusters from CSV with the canonical workload header."""
    columns = tuple(zip(WORKLOAD_HEADER, fields(JobCluster)))
    return _read_table(path, WORKLOAD_HEADER, lambda row: JobCluster(
        *(_PARSE[f.type](row[name]) for name, f in columns)), "workload")


def write_workload_csv(jobs, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(WORKLOAD_HEADER)
        for j in jobs:
            writer.writerow([repr(getattr(j, f.name)) if f.type is float else getattr(j, f.name)
                             for f in fields(JobCluster)])


def _latency_row(row: dict) -> tuple:
    value = float(row["latency"])
    if not math.isfinite(value):
        raise ValueError(f"latency must be finite, got {value}")
    return (row["user_region"].strip(), int(row["dc_id"])), value


def read_latency_csv(path) -> LatencyMap:
    return LatencyMap(dict(_read_table(path, LATENCY_HEADER, _latency_row, "latency")))


def write_latency_csv(latmap: LatencyMap, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(LATENCY_HEADER)
        for (region, dc), v in sorted(latmap.entries.items()):
            writer.writerow([region, dc, repr(v)])
