"""Intra-slot delivery simulation of committed regulation capacity.

Replays a regulation-signal segment against a solved commitment: per
sample, DC power is the scheduled nodal load minus signal times committed
capacity; the backlog queue absorbs the cumulative regulation energy on
top of scheduled service. Violations are counted per sample and at the
same checkpoint set the optimizer constrained, and revenue is settled per
slot against a compliance threshold.
"""

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .problem import (
    FittedSignal,
    ModelConfig,
    ProblemInstance,
    Solution,
    queue_check_points,
    resolve_config,
)
from .signals import RegulationTrace, empirical_quantile
from .workload import load_matrix

SIM_TOL = 1e-9


@dataclass
class ScenarioResult:
    """One replayed scenario: trajectories, violations, settled revenue.

    ``simulate`` fills the trajectories; ``monte_carlo`` keeps only the
    summary fields and leaves them empty, (N, T, 0) and (N, 0).
    ``checkpoint_ok`` holds one bool per DC and VaR checkpoint, the columns
    in the order of ``problem.queue_check_points``: whether the backlog
    at that checkpoint's sample lies within [q_min, q_max].
    """

    scenario_id: int
    trace_offset: int
    power: np.ndarray            # (N, T, K) MW
    queue: np.ndarray            # (N, T*K + 1) MWh-equivalent
    power_violation_frac: np.ndarray   # (N, T) per-slot sample fraction
    queue_violation_frac: np.ndarray   # (N, T) per-slot sample fraction
    checkpoint_ok: np.ndarray    # (N, P) bool, one column per checkpoint
    slot_compliant: np.ndarray   # (N, T) bool at the configured threshold
    committed_revenue: float
    realized_revenue: float
    samples_per_slot: int

    @property
    def n_samples(self) -> int:
        return int(self.power_violation_frac.size * self.samples_per_slot)

    @property
    def power_violation_rate(self) -> float:
        return float(self.power_violation_frac.mean())

    @property
    def queue_violation_rate(self) -> float:
        return float(self.queue_violation_frac.mean())

    @property
    def checkpoint_coverage(self) -> float:
        if not self.checkpoint_ok.size:
            return 1.0
        return float(self.checkpoint_ok.mean())

    def summary(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "trace_offset": self.trace_offset,
            "power_violation_rate": self.power_violation_rate,
            "queue_violation_rate": self.queue_violation_rate,
            "checkpoint_coverage": self.checkpoint_coverage,
            "checkpoints_total": int(self.checkpoint_ok.size),
            "slots_compliant": int(self.slot_compliant.sum()),
            "slots_total": int(self.slot_compliant.size),
            "committed_revenue": self.committed_revenue,
            "realized_revenue": self.realized_revenue,
            "n_samples": self.n_samples,
        }


def _outside(values: np.ndarray, lo, hi) -> np.ndarray:
    """Where values lie more than SIM_TOL outside [lo, hi]."""
    return (values < lo - SIM_TOL) | (values > hi + SIM_TOL)


class _Replay:
    """What every window replayed against one solution shares: nodal load,
    bounds, checkpoint sample indices and the per-cell payments, computed
    once; ``run`` replays one window in whole-horizon array passes."""

    def __init__(self, inst: ProblemInstance, cfg: ModelConfig, solution: Solution,
                 dt_seconds: float):
        t_total = inst.n_slots
        rev_rate = cfg.revenue_rate(t_total)
        self.cfg = cfg
        self.per_slot = int(round(cfg.slot_hours * 3600.0 / dt_seconds))
        self.needed = self.per_slot * t_total
        self.dh_sample = dt_seconds / 3600.0
        self.nodal = load_matrix(solution.x, inst.jobs, cfg.slot_hours)
        self.reg = solution.reg
        self.p_min = np.stack([dc.p_min for dc in inst.dcs])[:, :, None]
        self.p_max = np.stack([dc.p_max for dc in inst.dcs])[:, :, None]
        self.queue_params = inst.queue
        # Checkpoint samples past the horizon end (a sampling interval that
        # does not divide the slot) read the last sample.
        self.check_samples = np.array(
            [min(int(round(cp.tau_hours * 3600.0 / dt_seconds)), self.needed)
             for cp in queue_check_points(t_total, cfg.slot_hours, cfg.var_horizons)],
            dtype=np.intp)
        self.committed = float(sum(rev_rate[t] * self.reg[:, t].sum() * cfg.slot_hours
                                   for t in range(t_total)))
        self.pay = (rev_rate[None, :] * self.reg * cfg.slot_hours).tolist()

    def run(self, segment: RegulationTrace, scenario_id: int,
            trace_offset: int) -> ScenarioResult:
        cfg, q, per_slot = self.cfg, self.queue_params, self.per_slot
        n_dc, t_total = self.nodal.shape
        if len(segment) < self.needed:
            raise ValueError(
                f"trace segment has {len(segment)} samples, horizon needs {self.needed}"
            )
        s = segment.samples[:self.needed].reshape(t_total, per_slot)
        delta = self.reg[:, :, None] * s[None, :, :]
        power = self.nodal[:, :, None] - delta
        power_violation_frac = _outside(power, self.p_min, self.p_max).mean(axis=2)

        # Queue: arrivals prorate uniformly; service is scheduled energy per
        # sample shifted by the regulation energy (positive signal slows
        # computing, so the backlog grows with +s). Each slot's backlog is
        # its opening plus the running sum of its increments; each opening
        # is the previous one plus that slot's closing increment. In place,
        # so the replay holds two (N, T, K) arrays, power and delta.
        delta *= self.dh_sample
        delta += q.arrivals[:, :, None] / per_slot - self.nodal[:, :, None] * self.dh_sample
        np.cumsum(delta, axis=2, out=delta)
        opening = np.cumsum(np.concatenate((q.q_init[:, None], delta[:, :-1, -1]), axis=1),
                            axis=1)
        queue = np.empty((n_dc, self.needed + 1))
        queue[:, 0] = q.q_init
        body = queue[:, 1:].reshape(n_dc, t_total, per_slot)
        np.add(opening[:, :, None], delta, out=body)
        q_viol_frac = _outside(body, q.q_min[:, None, None], q.q_max[:, None, None]).mean(axis=2)

        at_checks = queue[:, self.check_samples]
        checkpoint_ok = ((q.q_min[:, None] - SIM_TOL <= at_checks)
                         & (at_checks <= q.q_max[:, None] + SIM_TOL))

        slot_compliant = power_violation_frac <= cfg.compliance_threshold + SIM_TOL
        realized = 0.0
        if cfg.forfeiture == "proportional":
            for pays, fracs in zip(self.pay, power_violation_frac.tolist()):
                for pay, frac in zip(pays, fracs):
                    realized += pay * (1.0 - frac)
        else:
            for pays, oks in zip(self.pay, slot_compliant.tolist()):
                for pay, ok in zip(pays, oks):
                    if ok:
                        realized += pay
        return ScenarioResult(
            scenario_id=scenario_id,
            trace_offset=trace_offset,
            power=power,
            queue=queue,
            power_violation_frac=power_violation_frac,
            queue_violation_frac=q_viol_frac,
            checkpoint_ok=checkpoint_ok,
            slot_compliant=slot_compliant,
            committed_revenue=self.committed,
            realized_revenue=float(realized),
            samples_per_slot=per_slot,
        )


def simulate(
    inst: ProblemInstance,
    cfg: ModelConfig,
    solution: Solution,
    segment: RegulationTrace,
    scenario_id: int = 0,
    trace_offset: int = 0,
) -> ScenarioResult:
    """Replay one horizon-length signal segment against a solution.

    ``cfg`` must be price-resolved (see problem.resolve_config): its
    revenue rate is computed before the replay, so an unresolved ``m_bar``
    raises ValueError first. The segment must cover the whole horizon at
    its sampling interval.
    """
    return _Replay(inst, cfg, solution, segment.dt_seconds).run(segment, scenario_id,
                                                                 trace_offset)


def monte_carlo(
    inst: ProblemInstance,
    cfg: ModelConfig,
    fitted: FittedSignal,
    solution: Solution,
    held_out: RegulationTrace,
    n_scenarios: int,
    seed: int,
) -> tuple[list[ScenarioResult], dict]:
    """Replay seeded random windows of the held-out trace; aggregate stats.

    Deterministic for a given (solution, trace, seed); scenario windows may
    overlap when the held-out segment is short. Each result keeps its
    summary only: ``power`` and ``queue`` are empty, so memory does not
    grow with the scenario count. ``simulate`` on a result's
    ``trace_offset`` gives its trajectories back.
    """
    if n_scenarios < 1:
        raise ValueError("need at least one scenario")
    cfg = resolve_config(cfg, inst.n_slots, fitted.mean_abs)
    replay = _Replay(inst, cfg, solution, held_out.dt_seconds)
    needed = replay.needed
    if len(held_out) < needed:
        raise ValueError(
            f"held-out trace has {len(held_out)} samples, scenarios need {needed}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    max_start = len(held_out) - needed
    starts = sorted(int(v) for v in rng.integers(0, max_start + 1, size=n_scenarios))
    results = []
    for sid, start in enumerate(starts):
        segment = RegulationTrace(held_out.samples[start:start + needed], held_out.dt_seconds)
        result = replay.run(segment, scenario_id=sid, trace_offset=start)
        # New empty arrays: a [:0] slice is a view that keeps the buffer alive.
        result.power = np.empty(result.power.shape[:2] + (0,))
        result.queue = np.empty((result.queue.shape[0], 0))
        results.append(result)
    return results, aggregate(results)


def aggregate(results: list[ScenarioResult]) -> dict:
    """Deterministic cross-scenario statistics keyed for JSON export."""
    if not results:
        raise ValueError("no scenarios to aggregate")
    power_rates = [r.power_violation_rate for r in results]
    queue_rates = [r.queue_violation_rate for r in results]
    coverages = [r.checkpoint_coverage for r in results]
    revenues = [r.realized_revenue for r in results]
    n_dc = results[0].power_violation_frac.shape[0]
    per_dc = []
    for l in range(n_dc):
        per_dc.append({
            "power_violation_rate": float(np.mean([r.power_violation_frac[l].mean() for r in results])),
            "queue_violation_rate": float(np.mean([r.queue_violation_frac[l].mean() for r in results])),
            "slot_compliance_rate": float(np.mean([r.slot_compliant[l].mean() for r in results])),
        })
    total_checkpoints = sum(r.checkpoint_ok.size for r in results)
    ok_checkpoints = sum(int(r.checkpoint_ok.sum()) for r in results)
    return {
        "scenarios": len(results),
        "samples_total": int(sum(r.n_samples for r in results)),
        "power_violation_rate_mean": float(np.mean(power_rates)),
        "power_violation_rate_max": float(np.max(power_rates)),
        "queue_violation_rate_mean": float(np.mean(queue_rates)),
        "checkpoint_coverage_mean": float(np.mean(coverages)),
        "checkpoint_coverage_overall": (
            ok_checkpoints / total_checkpoints if total_checkpoints else 1.0
        ),
        "checkpoints_total": int(total_checkpoints),
        "committed_revenue": float(results[0].committed_revenue),
        "realized_revenue_mean": float(np.mean(revenues)),
        "realized_revenue_p05": empirical_quantile(revenues, 0.05),
        "realized_revenue_p95": empirical_quantile(revenues, 0.95),
        "per_dc": per_dc,
    }


def compliance_report(results: list[ScenarioResult], threshold: float = 0.25) -> dict:
    """Per-slot/per-DC pass rates and revenue retention at a threshold."""
    if not results:
        raise ValueError("no scenarios to report on")
    n_dc, t_total = results[0].power_violation_frac.shape
    passes = np.zeros((n_dc, t_total))
    for r in results:
        passes += (r.power_violation_frac <= threshold + SIM_TOL)
    passes /= len(results)
    committed = results[0].committed_revenue
    realized = float(np.mean([r.realized_revenue for r in results]))
    return {
        "threshold": threshold,
        "slot_pass_rate": [[float(v) for v in row] for row in passes],
        "pass_rate_overall": float(passes.mean()),
        "revenue_retention": realized / committed if committed > 0 else 1.0,
    }


def write_series_csv(result: ScenarioResult, inst: ProblemInstance,
                     segment: RegulationTrace, path) -> None:
    """One row per (dc, slot, sample): signal, power, queue, violations."""
    if result.power.size == 0 or result.queue.size == 0:
        raise ValueError("write_series_csv needs a result from simulate; "
                         "monte_carlo results keep no trajectories")
    n_dc, t_total, per_slot = result.power.shape
    p_min = np.stack([dc.p_min for dc in inst.dcs])
    p_max = np.stack([dc.p_max for dc in inst.dcs])
    queue = result.queue[:, 1:].reshape(n_dc, t_total, per_slot)
    power_viol = _outside(result.power, p_min[:, :, None], p_max[:, :, None]).astype(int)
    queue_viol = _outside(queue, inst.queue.q_min[:, None, None],
                          inst.queue.q_max[:, None, None]).astype(int)
    signal = segment.samples[:t_total * per_slot].reshape(t_total, per_slot)
    ks = range(1, per_slot + 1)
    # One (dc, slot) block of lines per write, in the bytes csv.writer gives
    # these values: ints as str, floats as their repr (so every value keeps
    # its bits), CRLF line ends.
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("dc,slot,k,s,power_mw,queue_mwh,power_violation,queue_violation\r\n")
        for l, dc in enumerate(inst.dcs):
            for t in range(t_total):
                head = f"{dc.id},{t + 1},"
                fh.write("".join([
                    f"{head}{k},{sv!r},{pv!r},{qv!r},{pf},{qf}\r\n"
                    for k, sv, pv, qv, pf, qf in zip(
                        ks, signal[t].tolist(), result.power[l, t].tolist(),
                        queue[l, t].tolist(), power_viol[l, t].tolist(),
                        queue_viol[l, t].tolist())]))


def results_digest(aggregate_stats: dict) -> str:
    """Stable content hash of an aggregate summary (reproducibility checks)."""
    blob = json.dumps(aggregate_stats, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
