"""Transmission grid case and linearized power-flow evaluation.

Buses carry per-slot base load; lines carry a susceptance (MW per radian
of angle difference, i.e. already scaled from per-unit by the MVA base at
load time) and a thermal limit; generators carry linear cost and
unit-commitment parameters. Flow on a line is susceptance times the angle
difference, positive from the line's first endpoint toward the second.
"""

from collections import deque
from dataclasses import asdict, dataclass, fields

import numpy as np

DEFAULT_MVA_BASE = 100.0


@dataclass(frozen=True)
class Bus:
    id: int
    base_load: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.base_load, dtype=float)
        if arr.ndim != 1 or np.any(arr < 0):
            raise ValueError(f"bus {self.id}: base load must be a list of per-slot values >= 0")
        arr.flags.writeable = False
        object.__setattr__(self, "base_load", arr)


@dataclass(frozen=True)
class Line:
    id: int
    from_bus: int
    to_bus: int
    susceptance: float  # MW per radian
    limit_mw: float

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise ValueError(f"line {self.id}: self loop at bus {self.from_bus}")
        if self.susceptance <= 0:
            raise ValueError(f"line {self.id}: susceptance must be > 0")
        if self.limit_mw <= 0:
            raise ValueError(f"line {self.id}: flow limit must be > 0")


@dataclass(frozen=True)
class Generator:
    id: int
    bus: int
    cost_per_mwh: float
    p_min: float
    p_max: float
    ramp_up: float
    ramp_down: float
    startup_ramp: float
    shutdown_ramp: float

    def __post_init__(self):
        if not 0 <= self.p_min <= self.p_max:
            raise ValueError(f"generator {self.id}: need 0 <= p_min <= p_max")
        for name in ("ramp_up", "ramp_down", "startup_ramp", "shutdown_ramp"):
            if getattr(self, name) < 0:
                raise ValueError(f"generator {self.id}: {name} must be >= 0")


@dataclass(frozen=True)
class GridCase:
    buses: tuple
    lines: tuple
    generators: tuple
    slack_bus: int
    mva_base: float = DEFAULT_MVA_BASE

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "lines", tuple(self.lines))
        object.__setattr__(self, "generators", tuple(self.generators))

    @property
    def n_slots(self) -> int:
        return self.buses[0].base_load.size

    def bus_ids(self) -> list[int]:
        return [b.id for b in self.buses]

    def bus_position(self, bus_id: int) -> int:
        """0-based position of a bus id in the case ordering."""
        for i, b in enumerate(self.buses):
            if b.id == bus_id:
                return i
        raise KeyError(f"unknown bus id {bus_id}")

    def max_generator_cost(self) -> float:
        return max((g.cost_per_mwh for g in self.generators), default=0.0)


def line_flow(theta_b, theta_j, line: Line):
    """MW flow from the line's first endpoint to its second; the angles may
    be floats or equal-shaped arrays (one entry per slot)."""
    return line.susceptance * (theta_b - theta_j)


def power_balance_residual(
    case: GridCase,
    gen_mw: np.ndarray,
    theta: np.ndarray,
    shed_mw: np.ndarray,
    dc_load_mw: np.ndarray,
    dc_buses: list[int],
) -> np.ndarray:
    """Nodal balance residual per (bus, slot) in MW.

    residual = generation - DC load - base load + shedding - net outflow.
    gen_mw is (G, T) ordered like the case generators, theta and shed_mw
    are (B, T) ordered like the case buses, dc_load_mw is (N, T) with
    dc_buses giving each DC's bus id. A feasible dispatch has residuals
    within 1e-6 everywhere.
    """
    n_b = len(case.buses)
    t_total = case.n_slots
    gen_mw = np.asarray(gen_mw, dtype=float)
    theta = np.asarray(theta, dtype=float)
    shed_mw = np.asarray(shed_mw, dtype=float)
    dc_load_mw = np.asarray(dc_load_mw, dtype=float)
    if theta.shape != (n_b, t_total) or shed_mw.shape != (n_b, t_total):
        raise ValueError("theta/shed shapes do not match the case")
    if gen_mw.shape != (len(case.generators), t_total):
        raise ValueError("generation shape does not match the case")
    if dc_load_mw.shape[0] != len(dc_buses):
        raise ValueError("DC load rows do not match dc_buses")
    residual = shed_mw.copy()
    for gi, g in enumerate(case.generators):
        residual[case.bus_position(g.bus)] += gen_mw[gi]
    for li, bus_id in enumerate(dc_buses):
        residual[case.bus_position(bus_id)] -= dc_load_mw[li]
    for bi, bus in enumerate(case.buses):
        residual[bi] -= bus.base_load
    for line in case.lines:
        fpos = case.bus_position(line.from_bus)
        tpos = case.bus_position(line.to_bus)
        flow = line_flow(theta[fpos], theta[tpos], line)
        residual[fpos] -= flow
        residual[tpos] += flow
    return residual


def validate_case(case: GridCase) -> list[str]:
    """All structural violations of a grid case; empty list means valid."""
    violations: list[str] = []
    ids = [b.id for b in case.buses]
    if len(set(ids)) != len(ids):
        violations.append("duplicate bus ids")
    if case.slack_bus not in ids:
        violations.append(f"slack bus {case.slack_bus} is not a case bus")
    t_total = case.n_slots
    for b in case.buses:
        if b.base_load.size != t_total:
            violations.append(f"bus {b.id}: base load length differs from horizon")
    id_set = set(ids)
    for line in case.lines:
        for end in (line.from_bus, line.to_bus):
            if end not in id_set:
                violations.append(f"line {line.id}: endpoint bus {end} does not exist")
    for g in case.generators:
        if g.bus not in id_set:
            violations.append(f"generator {g.id}: bus {g.bus} does not exist")
    if len(case.buses) > 1:
        adjacency: dict[int, set[int]] = {i: set() for i in ids}
        for line in case.lines:
            if line.from_bus in id_set and line.to_bus in id_set:
                adjacency[line.from_bus].add(line.to_bus)
                adjacency[line.to_bus].add(line.from_bus)
        seen = {ids[0]}
        queue = deque([ids[0]])
        while queue:
            node = queue.popleft()
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        if seen != id_set:
            unreached = sorted(id_set - seen)
            violations.append(f"grid is disconnected; unreachable buses {unreached}")
    return violations


def case_to_dict(case: GridCase) -> dict:
    """The grid document of a case; a line's susceptance is written per-unit."""
    return {
        "mva_base": case.mva_base,
        "slack_bus": case.slack_bus,
        "buses": [{"id": b.id, "base_load": b.base_load.tolist()} for b in case.buses],
        "lines": [{**asdict(k), "susceptance": k.susceptance / case.mva_base}
                  for k in case.lines],
        "generators": [asdict(g) for g in case.generators],
    }


def _integer(value, where: str) -> int:
    """An id or bus number read from a file: an int, or a float with no
    fractional part. A bool, a fraction or a non-number raises ValueError
    naming ``where``, rather than being truncated by ``int``."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _record(cls, entry: dict, where: str, mva: float):
    """The Line or Generator of a grid document entry, read in field order;
    a line's per-unit susceptance is scaled to MW/rad."""
    values = {f.name: _integer(entry[f.name], f"{where}.{f.name}") if f.type is int
              else float(entry[f.name]) for f in fields(cls)}
    if cls is Line:
        values["susceptance"] *= mva
    return cls(**values)


def case_from_dict(data: dict) -> GridCase:
    """The case of a parsed grid document."""
    mva = float(data.get("mva_base", DEFAULT_MVA_BASE))
    buses = tuple(Bus(_integer(b["id"], f"buses[{k}].id"), np.asarray(b["base_load"], float))
                  for k, b in enumerate(data["buses"]))
    lines = tuple(_record(Line, line, f"lines[{k}]", mva) for k, line in enumerate(data["lines"]))
    gens = tuple(_record(Generator, g, f"generators[{k}]", mva)
                 for k, g in enumerate(data["generators"]))
    slack = _integer(data["slack_bus"], "slack_bus")
    return GridCase(buses, lines, gens, slack, mva)
