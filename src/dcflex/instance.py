"""Instance bundles: on-disk format, loading, and synthetic generation.

A bundle directory holds grid.json, workload.csv, latency.csv, signal.csv,
dc.json, and config.json. A generated bundle also holds signal.npy, a
binary copy of signal.csv's columns, and manifest.json, the sha256 of each
file. This module owns ``write_artifacts``, the one writer of every
command's output directory and its manifest. The synthetic generator
builds desk-scale instances that are feasible by construction (the
baseline assignment witnesses feasibility of every constraint family) and
deterministic per seed; presets cover the shipped demo shape and a
chance-constraint stress shape used for signal-model comparisons.
"""

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .grid import Bus, Generator, GridCase, Line, _integer, case_from_dict, case_to_dict
from .optimizer import FittedSignal, ModelConfig, ProblemInstance, QueueParameters
from .signals import (
    RegulationTrace,
    build_var_table,
    fit_direct_gaussian,
    fit_gaussian_envelope,
    generate_trace,
    mean_abs_signal,
    read_trace_csv,
    trace_columns,
    trace_from_columns,
    write_trace_csv,
)
from .workload import (
    DataCenterSpec,
    JobCluster,
    LatencyMap,
    baseline_assignment,
    load_matrix,
    read_latency_csv,
    read_workload_csv,
    write_latency_csv,
    write_workload_csv,
)

BUNDLE_FILES = ("grid.json", "workload.csv", "latency.csv", "signal.csv",
                "dc.json", "config.json")
SIGNAL_COPY = "signal.npy"
MANIFEST = "manifest.json"

CLASS_ENERGY_SHARES = {"fixed": 0.5, "interactive": 0.3, "deferrable": 0.2}

# Generated instances: one-hour slots, DC energy as a share of base system
# energy, QoS latency tolerance (ms), migration price ($ per MWh moved a hop).
SLOT_HOURS = 1.0
DC_ENERGY_SHARE = 0.35
DELTA_QOS = 6.0
MIGRATION_FRIC_MWH = 5.0

_DC_IDS = ("id", "bus")
_DC_SCALARS = ("q_init", "q_min", "q_max")
_DC_PER_SLOT = ("cpu_cap", "mem_cap", "io_cap", "p_min", "p_max", "arrivals")


@dataclass(frozen=True)
class GenParams:
    """Shape knobs of the synthetic instance generator."""

    n_dc: int = 3
    n_slots: int = 6
    n_clusters: int = 9
    n_buses: int = 6
    n_gens: int = 2
    signal_kind: str = "sinusoid_noise"
    signal_dt_seconds: float = 4.0
    signal_days: float | None = None  # None -> sized from the VaR horizons
    power_headroom: float = 1.7  # p_max multiple of the baseline profile
    pcap_slack_frac: float = 0.6  # flat p_max slack, fraction of mean profile
    p_min_fraction: float = 0.25
    # Tight backlog bounds are the coupling that punishes revenue-blind
    # scheduling: parking the queue near a wall leaves no headroom for the
    # committed band's cumulative energy swings.
    queue_band_hours: float = 1.2
    reg_price_scale: float = 2.2
    arrival_spread: str = "peaked"  # or "uniform"
    region_mix: str = "random"  # or "round_robin"


def demo_params() -> GenParams:
    """The shipped desk-scale shape: 6 buses, 2 generators, 3 DCs."""
    return GenParams()


def small_params() -> GenParams:
    """Compact shape for randomized sweeps."""
    return GenParams(n_dc=2, n_slots=4, n_clusters=6, n_buses=4, n_gens=2)


def cc_stress_params() -> GenParams:
    """Chance-constraint stress shape: heavy-tailed signal, loose caps.

    Power headroom and queue bands are widened so the upward chance
    constraint is the binding limit on committed capacity at every node,
    which is the regime that separates envelope and direct-Gaussian fits.
    """
    return GenParams(
        n_dc=2, n_slots=4, n_clusters=16, n_buses=4, n_gens=2,
        signal_kind="heavy_tailed", power_headroom=4.0, pcap_slack_frac=2.0,
        p_min_fraction=0.3, queue_band_hours=60.0, reg_price_scale=3.0,
        arrival_spread="uniform", region_mix="round_robin",
    )


PRESETS = {"demo": demo_params, "small": small_params, "cc_stress": cc_stress_params}

DEMO_SEED = 7


def materialize_demo(out_dir) -> list[Path]:
    """Write the full demo bundle (static shape plus deterministic signal)."""
    return generate_instance(demo_params(), DEMO_SEED, out_dir)


def default_var_horizons(n_slots: int, slot_hours: float) -> tuple[float, ...]:
    """Sub-hour windows plus whole-slot windows up to four slots, plus the
    full horizon when longer (cheap drift protection)."""
    hs = [0.25 * slot_hours, 0.5 * slot_hours]
    hs += [k * slot_hours for k in range(1, min(4, n_slots) + 1)]
    full = n_slots * slot_hours
    if full > hs[-1] + 1e-9:
        hs.append(full)
    return tuple(hs)


def _check_signal_interval(slot_hours: float, dt_seconds: float) -> None:
    """Reject an interval that does not divide the slot into whole samples."""
    per_slot = slot_hours * 3600.0 / dt_seconds
    if abs(per_slot - round(per_slot)) > 1e-6 * per_slot:
        raise ValueError(f"signal interval {dt_seconds:g} s does not divide the "
                         f"{slot_hours:g} h slot ({per_slot:.6g} samples per slot)")


def _signal_days(params: GenParams) -> float:
    if params.signal_days is not None:
        return params.signal_days
    horizon_h = params.n_slots * SLOT_HOURS
    fit_hours = 30.0 * horizon_h / 0.7  # 30 windows of the longest horizon
    return math.ceil(fit_hours / 24.0) + 1.0


def build_synthetic(params: GenParams, seed: int) -> tuple[ProblemInstance, ModelConfig, RegulationTrace]:
    """Deterministic in-memory instance for a seed; see generate_instance
    for the on-disk variant."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n_dc, t_total = params.n_dc, params.n_slots
    n_bus, n_gen = params.n_buses, params.n_gens
    for name in ("n_dc", "n_slots", "n_clusters"):
        if getattr(params, name) < 1:
            raise ValueError(f"{name} must be at least 1, got {getattr(params, name)}")
    if n_bus < max(2, n_dc):
        raise ValueError("need at least as many buses as DCs (and two overall)")
    # The cost and capacity ladders below hold three units.
    if not 1 <= n_gen <= min(3, n_bus):
        raise ValueError(f"n_gens must be between 1 and {min(3, n_bus)}, got {n_gen}")
    for name in ("signal_dt_seconds", "signal_days"):
        value = getattr(params, name)
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    dh = SLOT_HOURS
    _check_signal_interval(dh, params.signal_dt_seconds)

    # Peaked daily base-load shape; DCs and temporal shifting act against it.
    t_axis = np.arange(t_total)
    peak_slot = t_total * 0.55
    shape = 1.0 + 0.8 * np.exp(-((t_axis - peak_slot) / (0.22 * t_total + 0.6)) ** 2)
    bus_scale = rng.uniform(8.0, 15.0, size=n_bus)
    base_loads = np.outer(bus_scale, shape) * rng.uniform(0.95, 1.05, size=(n_bus, t_total))

    # Workload clusters sized against the base system energy.
    base_energy = float(base_loads.sum()) * dh
    target_dc_energy = DC_ENERGY_SHARE * base_energy
    class_of = []
    for cls, share in CLASS_ENERGY_SHARES.items():
        count = max(1, int(round(share * params.n_clusters)))
        class_of += [cls] * count
    class_of = class_of[: params.n_clusters]
    while len(class_of) < params.n_clusters:
        class_of.append("fixed")
    d_kwh = 1.7
    jobs = []
    if params.arrival_spread == "uniform":
        arrival_probs = np.full(t_total, 1.0 / t_total)
    else:
        arrival_probs = shape / shape.sum()
    for i, cls in enumerate(class_of):
        share = CLASS_ENERGY_SHARES[cls] / sum(1 for c in class_of if c == cls)
        energy = target_dc_energy * share * float(rng.uniform(0.7, 1.3))
        weight = energy * 1000.0 / d_kwh
        arrival = int(rng.choice(t_total, p=arrival_probs)) + 1
        if params.region_mix == "round_robin":
            region = f"r{i % n_dc + 1}"
        else:
            region = f"r{int(rng.integers(1, n_dc + 1))}"
        jobs.append(JobCluster(
            id=f"c{i + 1:02d}", user_region=region, arrival_slot=arrival,
            flex_class=cls, weight=round(weight, 3),
            r_cpu=round(float(rng.uniform(0.8, 1.2)), 3),
            r_mem=round(float(rng.uniform(0.8, 1.2)), 3),
            r_io=round(float(rng.uniform(0.3, 0.7)), 3),
            d_kwh_per_task=d_kwh,
        ))

    # Latency grows with ring distance between the user's home DC and the
    # serving DC; the home DC is always strictly nearest.
    entries = {}
    for r in range(1, n_dc + 1):
        for l in range(1, n_dc + 1):
            ring = min(abs(r - l), n_dc - abs(r - l))
            entries[(f"r{r}", l)] = round(5.0 + 8.0 * ring + float(rng.uniform(0.0, 1.0)), 3)
    latmap = LatencyMap(entries)

    # Resource capacities: generous, binding only under heavy concentration,
    # and never below the largest single cluster's need, so each one fits.
    def cap(need):
        return max(1.0, 0.75 * sum(need(j) for j in jobs), max(need(j) for j in jobs))

    cpu_cap = cap(lambda j: j.weight * j.r_cpu)
    mem_cap = cap(lambda j: j.weight * j.r_mem)
    io_cap = cap(lambda j: j.weight * j.r_io)
    dc_buses = sorted(rng.choice(np.arange(1, n_bus + 1), size=n_dc, replace=False).tolist())
    dcs_tmp = []
    for l in range(1, n_dc + 1):
        dcs_tmp.append(DataCenterSpec(
            id=l, bus=int(dc_buses[l - 1]),
            cpu_cap=np.full(t_total, cpu_cap),
            mem_cap=np.full(t_total, mem_cap),
            io_cap=np.full(t_total, io_cap),
            p_min=np.zeros(t_total), p_max=np.full(t_total, 1e6),
        ))
    x_base = baseline_assignment(jobs, latmap, dcs_tmp)
    nodal_base = load_matrix(x_base, jobs, dh)

    dcs = []
    q_max = np.zeros(n_dc)
    for l in range(1, n_dc + 1):
        profile = nodal_base[l - 1]
        p_min = params.p_min_fraction * profile
        # Shaping p_max to the profile makes committable capacity depend on
        # the schedule: both draining and saturating a slot costs headroom.
        slack = params.pcap_slack_frac * max(float(profile.mean()), 0.5) + 1.0
        p_max = params.power_headroom * profile + slack
        dcs.append(DataCenterSpec(
            id=l, bus=int(dc_buses[l - 1]),
            cpu_cap=dcs_tmp[l - 1].cpu_cap, mem_cap=dcs_tmp[l - 1].mem_cap,
            io_cap=dcs_tmp[l - 1].io_cap,
            p_min=np.round(p_min, 6), p_max=np.round(p_max, 6),
        ))
        q_max[l - 1] = round(params.queue_band_hours * max(float(profile.mean()), 0.5), 6)
    queue = QueueParameters(
        q_init=np.round(q_max / 2.0, 6),
        arrivals=np.round(nodal_base * dh, 6),
        q_min=np.zeros(n_dc),
        q_max=q_max,
    )

    # Generators: a cheap base unit plus increasingly expensive peakers.
    system_peak = float((base_loads.sum(axis=0) + nodal_base.sum(axis=0)).max())
    cost_ladder = [25.0, 85.0, 45.0][:n_gen]
    # The cheap unit spans valleys with room for every movable MWh, so the
    # day-ahead price seen off-peak stays real after collective shifting.
    cap_ladder = [0.85, 0.65, 0.45][:n_gen]
    gen_buses = rng.choice(np.arange(1, n_bus + 1), size=n_gen, replace=False)
    gens = []
    for g in range(n_gen):
        p_max = round(cap_ladder[g] * system_peak, 4)
        gens.append(Generator(
            id=g + 1, bus=int(gen_buses[g]),
            cost_per_mwh=round(cost_ladder[g] * float(rng.uniform(0.95, 1.05)), 4),
            p_min=round(0.12 * p_max, 4) if g == 0 else 0.0,
            p_max=p_max,
            ramp_up=round(0.9 * p_max, 4), ramp_down=round(0.9 * p_max, 4),
            startup_ramp=p_max, shutdown_ramp=p_max,
        ))

    # Ring topology plus one chord; limits sized to stay slack at the peak.
    lines = []
    limit = round(1.5 * system_peak, 4)
    for b in range(1, n_bus + 1):
        other = b % n_bus + 1
        lines.append(Line(
            id=b, from_bus=b, to_bus=other,
            susceptance=round(float(rng.uniform(300.0, 600.0)), 4),
            limit_mw=limit,
        ))
    if n_bus >= 4:
        lines.append(Line(
            id=n_bus + 1, from_bus=1, to_bus=n_bus // 2 + 1,
            susceptance=round(float(rng.uniform(300.0, 600.0)), 4),
            limit_mw=limit,
        ))
    buses = tuple(Bus(b, np.round(base_loads[b - 1], 6)) for b in range(1, n_bus + 1))
    grid = GridCase(buses, tuple(lines), tuple(gens), slack_bus=1)

    horizons = default_var_horizons(t_total, dh)
    cfg = ModelConfig(
        delta_qos=DELTA_QOS,
        slot_hours=dh,
        c_rc=round(5.0 * params.reg_price_scale, 4),
        c_rp=round(2.5 * params.reg_price_scale, 4),
        var_horizons=horizons,
        migration_cost=round(MIGRATION_FRIC_MWH * d_kwh / 1000.0, 6),
    )

    trace = generate_trace(
        params.signal_kind,
        hours=_signal_days(params) * 24.0,
        dt_seconds=params.signal_dt_seconds,
        seed=int(rng.integers(0, 2**63 - 1)),
    )
    inst = ProblemInstance(tuple(jobs), latmap, tuple(dcs), grid, queue)
    inst.validate()
    return inst, cfg, trace


def save_bundle(out_dir, inst: ProblemInstance, cfg: ModelConfig,
                trace: RegulationTrace) -> list[Path]:
    """Write a bundle and record it in the directory's manifest; returns
    the paths written, BUNDLE_FILES then SIGNAL_COPY.

    SIGNAL_COPY holds ``trace_columns(trace)``, bitwise what parsing
    signal.csv gives. It is derived and safe to delete: ``load_bundle``
    reads it only while the manifest holds the sha256 of both files.
    """
    q = inst.queue
    dc_entries = [{"id": dc.id, "bus": dc.bus,
                   **{k: float(getattr(q, k)[l]) for k in _DC_SCALARS},
                   **{k: [float(v) for v in (q.arrivals[l] if k == "arrivals" else getattr(dc, k))]
                      for k in _DC_PER_SLOT}}
                  for l, dc in enumerate(inst.dcs)]
    return write_artifacts(out_dir, {
        "grid.json": case_to_dict(inst.grid),
        "workload.csv": partial(write_workload_csv, inst.jobs),
        "latency.csv": partial(write_latency_csv, inst.latency),
        "signal.csv": partial(write_trace_csv, trace),
        "dc.json": {"dcs": dc_entries},
        "config.json": cfg.to_dict(),
        SIGNAL_COPY: lambda path: np.save(path, trace_columns(trace)),
    })


def generate_instance(params: GenParams, seed: int, out_dir) -> list[Path]:
    """Build and write a complete bundle; deterministic per seed."""
    inst, cfg, trace = build_synthetic(params, seed)
    return save_bundle(out_dir, inst, cfg, trace)


def sha256_file(path) -> str:
    """Hex sha256 of a file's bytes, read in fixed-size chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def read_manifest(directory) -> dict:
    """A directory's manifest: file name (relative to it) -> sha256."""
    def entries(doc: dict) -> dict:
        wrong = [name for name, digest in doc.items() if not isinstance(digest, str)]
        if wrong:
            raise ValueError(f"{wrong[0]} must map to a sha256 string, got {doc[wrong[0]]!r}")
        return doc
    return read_json(Path(directory) / MANIFEST, entries)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_artifacts(out_dir, files: dict) -> list[Path]:
    """Create ``out_dir``, write ``files`` (file name -> content) into it
    and record their sha256 in its manifest, keeping the entries of other
    files; returns the paths written.

    A content is a text, a callable that writes the file at the path it
    is given (for files written as a stream), or else a JSON document,
    written with indent 2, sorted keys and a final newline. If a write
    fails and this call created ``out_dir``, it removes the directory.
    """
    out = Path(out_dir)
    # Read first: a manifest that cannot be read fails before any write.
    manifest = read_manifest(out) if (out / MANIFEST).exists() else {}
    created = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        for name, content in files.items():
            if callable(content):
                content(out / name)
            else:
                text = content if isinstance(content, str) else _json_text(content)
                (out / name).write_text(text, encoding="utf-8", newline="")
        manifest.update((name, sha256_file(out / name)) for name in files)
        (out / MANIFEST).write_text(_json_text(manifest), encoding="utf-8")
    except Exception:
        if created:
            shutil.rmtree(out, ignore_errors=True)
        raise
    return [out / name for name in files]


def _non_finite(node, where: str = "") -> str | None:
    """Location of the first non-finite number in a parsed JSON value, as
    ``key[index].key``, or None."""
    if isinstance(node, float):
        return None if math.isfinite(node) else where
    if isinstance(node, dict):
        children = ((f"{where}.{key}" if where else key, v) for key, v in node.items())
    elif isinstance(node, list):
        children = ((f"{where}[{k}]", v) for k, v in enumerate(node))
    else:
        return None
    return next(filter(None, (_non_finite(v, w) for w, v in children)), None)


def read_json(path, parse=None):
    """The JSON object in file ``path``, or what ``parse`` makes of it; the
    one JSON decoder. Invalid JSON, a top level that is not an object, a
    NaN or infinity (named by its field), and a KeyError, IndexError,
    TypeError or ValueError from ``parse`` raise one ValueError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
        where = _non_finite(doc)
        if where is not None:
            raise ValueError(f"{where} must be finite")
        return parse(doc) if parse else doc
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _dc_entry(k, entry: dict, t_total: int) -> dict:
    """The fields of dc.json entry k: an int for each of _DC_IDS, and as
    float arrays one value per slot for _DC_PER_SLOT and a single number
    for _DC_SCALARS."""
    values = {}
    for name in _DC_IDS + _DC_SCALARS + _DC_PER_SLOT:
        if name not in entry:
            raise ValueError(f"dcs[{k}] has no {name!r}")
        if name in _DC_IDS:
            values[name] = _integer(entry[name], f"dcs[{k}] {name!r}")
            continue
        value = np.asarray(entry[name], dtype=float)
        shape = (t_total,) if name in _DC_PER_SLOT else ()
        if value.shape != shape:
            expected = f"{t_total} values, one per slot" if shape else "a single number"
            raise ValueError(f"dcs[{k}] {name!r} has shape {value.shape}; "
                             f"expected {expected}")
        values[name] = value
    return values


def read_signal(path) -> RegulationTrace:
    """The trace of signal CSV ``path``. When it is a bundle's signal.csv
    and the bundle's manifest holds the sha256 of both it and SIGNAL_COPY
    as they are on disk, the trace comes from the copy; otherwise the text
    is parsed. The columns of either file pass the same checks,
    ``trace_from_columns``, and a fault names ``path`` and its line."""
    text = Path(path)
    copy = text.parent / SIGNAL_COPY
    try:
        manifest = read_manifest(text.parent)
        fresh = text.name == "signal.csv" and all(
            manifest.get(p.name) == sha256_file(p) for p in (text, copy))
        # Mapped, not read: the (n, 2) columns are never copied to the heap,
        # which lowers the peak RSS of every command that loads a bundle.
        # The map lives only until trace_from_columns has copied the
        # samples; a file truncated within that window would fault.
        columns = np.load(copy, mmap_mode="r", allow_pickle=False) if fresh else None
    except (OSError, ValueError, EOFError):
        columns = None
    if columns is None or columns.dtype != np.float64 or columns.ndim != 2 \
            or columns.shape[1] != 2:
        return read_trace_csv(text)
    return trace_from_columns(columns[:, 0], columns[:, 1], text)


def load_bundle(bundle_dir) -> tuple[ProblemInstance, ModelConfig, RegulationTrace]:
    """Read and validate a bundle directory.

    The trace is ``read_signal`` of signal.csv: it comes from SIGNAL_COPY
    only while the manifest holds the sha256 of both it and signal.csv as
    they are on disk. A hand edit to signal.csv, or a missing or damaged
    copy or manifest, makes it parse signal.csv instead, so the edit takes
    effect.
    """
    bundle = Path(bundle_dir)
    missing = [name for name in BUNDLE_FILES if not (bundle / name).exists()]
    if missing:
        raise FileNotFoundError(f"{bundle}: bundle is missing {missing}")
    grid = read_json(bundle / "grid.json", case_from_dict)
    jobs = read_workload_csv(bundle / "workload.csv")
    latmap = read_latency_csv(bundle / "latency.csv")
    trace = read_signal(bundle / "signal.csv")
    entries = read_json(bundle / "dc.json", lambda doc: [
        _dc_entry(k, entry, grid.n_slots) for k, entry in enumerate(doc["dcs"])])
    dcs = [DataCenterSpec(**{f.name: e[f.name] for f in fields(DataCenterSpec)})
           for e in entries]
    queue = QueueParameters(*(np.array([e[name] for e in entries])
                              for name in ("q_init", "arrivals", "q_min", "q_max")))
    cfg = read_json(bundle / "config.json", ModelConfig.from_dict)
    _check_signal_interval(cfg.slot_hours, trace.dt_seconds)
    inst = ProblemInstance(tuple(jobs), latmap, tuple(dcs), grid, queue)
    inst.validate()
    return inst, cfg, trace


def fit_signal_artifacts(trace: RegulationTrace, cfg: ModelConfig) -> FittedSignal:
    """Fit envelope, direct moments, and the VaR table on the fitting split."""
    fit_seg, _ = trace.split(cfg.fit_split)
    envelope = fit_gaussian_envelope(fit_seg, quantile_grid=cfg.quantile_grid)
    direct = fit_direct_gaussian(fit_seg)
    var_table = build_var_table(fit_seg, horizons=cfg.var_horizons, eps_e=cfg.eps_e)
    return FittedSignal(envelope, direct, var_table, mean_abs_signal(fit_seg))
