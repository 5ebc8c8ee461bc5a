import copy
import csv
import json
from dataclasses import replace
from itertools import repeat

import numpy as np
import pytest

from dcflex.instance import build_synthetic, fit_signal_artifacts, small_params
from dcflex.optimizer import run_strategy
from dcflex.problem import queue_check_points, resolve_config
from dcflex.signals import RegulationTrace
from dcflex.simulator import (
    SIM_TOL,
    aggregate,
    compliance_report,
    monte_carlo,
    results_digest,
    simulate,
    write_series_csv,
)
from dcflex.validate import queue_backlog
from dcflex.workload import load_matrix


@pytest.fixture(scope="module")
def solved():
    inst, cfg, trace = build_synthetic(small_params(), seed=42)
    fitted = fit_signal_artifacts(trace, cfg)
    cfg = resolve_config(replace(cfg, strategy="cooperative", shifting_mode="joint"),
                         inst.n_slots, fitted.mean_abs)
    sol = run_strategy(inst, cfg, fitted)
    _, held = trace.split(cfg.fit_split)
    return inst, cfg, fitted, sol, held


def horizon_segment(inst, cfg, held, offset=0):
    needed = int(inst.n_slots * cfg.slot_hours * 3600 / held.dt_seconds)
    return RegulationTrace(held.samples[offset:offset + needed].copy(), held.dt_seconds)


class TestSimulate:
    def test_zero_capacity_is_fully_compliant(self, solved):
        inst, cfg, fitted, sol, held = solved
        quiet = copy.deepcopy(sol)
        quiet.reg = np.zeros_like(sol.reg)
        res = simulate(inst, cfg, quiet, horizon_segment(inst, cfg, held))
        assert res.power_violation_rate == 0.0
        assert res.queue_violation_rate == 0.0
        assert res.checkpoint_coverage == 1.0
        assert bool(res.slot_compliant.all())

    def test_constant_positive_signal_violates_when_overcommitted(self, solved):
        inst, cfg, fitted, sol, held = solved
        needed = int(inst.n_slots * cfg.slot_hours * 3600 / held.dt_seconds)
        ones = RegulationTrace(np.ones(needed), held.dt_seconds)
        big = copy.deepcopy(sol)
        # Committing beyond the floor margin makes every sample violate
        # wherever capacity exceeds load minus the floor.
        from dcflex.workload import load_matrix

        nodal = load_matrix(sol.x, inst.jobs, cfg.slot_hours)
        p_min = np.stack([dc.p_min for dc in inst.dcs])
        big.reg = nodal - p_min + 1.0
        res = simulate(inst, cfg, big, ones)
        assert res.power_violation_rate == 1.0

    def test_zero_signal_queue_matches_baseline_expression(self, solved):
        inst, cfg, fitted, sol, held = solved
        needed = int(inst.n_slots * cfg.slot_hours * 3600 / held.dt_seconds)
        res = simulate(inst, cfg, sol, RegulationTrace(np.zeros(needed), held.dt_seconds))
        per_slot = res.samples_per_slot
        backlog = queue_backlog(inst, sol.x, cfg.slot_hours,
                                np.arange(1, inst.n_slots + 1) * cfg.slot_hours)
        for l in range(1, inst.n_dc + 1):
            for t in range(1, inst.n_slots + 1):
                expected = backlog[t - 1, l - 1]
                assert res.queue[l - 1, t * per_slot] == pytest.approx(expected, abs=1e-9)

    def test_energy_telescoping_identity(self, solved):
        inst, cfg, fitted, sol, held = solved
        segment = horizon_segment(inst, cfg, held)
        res = simulate(inst, cfg, sol, segment)
        needed = segment.samples.size
        dh_sample = segment.dt_seconds / 3600.0
        s_blocks = segment.samples.reshape(inst.n_slots, -1)
        from dcflex.workload import load_matrix

        nodal = load_matrix(sol.x, inst.jobs, cfg.slot_hours)
        for l in range(inst.n_dc):
            served = nodal[l].sum() * cfg.slot_hours
            regen = float((sol.reg[l][:, None] * s_blocks * dh_sample).sum())
            expected = inst.queue.q_init[l] + inst.queue.arrivals[l].sum() - served + regen
            assert res.queue[l, -1] == pytest.approx(expected, abs=1e-9)

    def test_violation_count_monotone_in_capacity(self, solved):
        inst, cfg, fitted, sol, held = solved
        segment = horizon_segment(inst, cfg, held)
        counts = []
        for scale in (1.0, 2.0, 4.0):
            scaled = copy.deepcopy(sol)
            scaled.reg = sol.reg * scale
            res = simulate(inst, cfg, scaled, segment)
            counts.append(res.power_violation_frac.sum())
        assert counts[0] <= counts[1] <= counts[2]

    def test_short_trace_rejected(self, solved):
        inst, cfg, fitted, sol, held = solved
        with pytest.raises(ValueError, match="horizon"):
            simulate(inst, cfg, sol, RegulationTrace(held.samples[:100].copy(), held.dt_seconds))

    def test_deterministic_bytes(self, solved):
        inst, cfg, fitted, sol, held = solved
        segment = horizon_segment(inst, cfg, held)
        a = simulate(inst, cfg, sol, segment)
        b = simulate(inst, cfg, sol, segment)
        assert json.dumps(a.summary(), sort_keys=True) == json.dumps(b.summary(), sort_keys=True)


class TestMonteCarlo:
    def test_same_seed_identical_aggregate(self, solved):
        inst, cfg, fitted, sol, held = solved
        _, agg1 = monte_carlo(inst, cfg, fitted, sol, held, n_scenarios=6, seed=5)
        _, agg2 = monte_carlo(inst, cfg, fitted, sol, held, n_scenarios=6, seed=5)
        assert results_digest(agg1) == results_digest(agg2)

    def test_identical_scenarios_zero_variance(self, solved):
        inst, cfg, fitted, sol, held = solved
        segment = horizon_segment(inst, cfg, held)
        results = [simulate(inst, cfg, sol, segment, scenario_id=i) for i in range(3)]
        agg = aggregate(results)
        assert agg["realized_revenue_p05"] == pytest.approx(agg["realized_revenue_p95"])
        assert agg["power_violation_rate_max"] == pytest.approx(agg["power_violation_rate_mean"])

    def test_needs_scenarios_and_length(self, solved):
        inst, cfg, fitted, sol, held = solved
        with pytest.raises(ValueError):
            monte_carlo(inst, cfg, fitted, sol, held, n_scenarios=0, seed=1)
        tiny = RegulationTrace(held.samples[:50].copy(), held.dt_seconds)
        with pytest.raises(ValueError):
            monte_carlo(inst, cfg, fitted, sol, tiny, n_scenarios=1, seed=1)

    def test_keeps_summaries_only(self, solved, tmp_path):
        inst, cfg, fitted, sol, held = solved
        results, _ = monte_carlo(inst, cfg, fitted, sol, held, n_scenarios=4, seed=3)
        for r in results:
            # Fresh empty arrays, not views that would pin the trajectories.
            assert r.power.size == r.queue.size == 0
            assert r.power.base is None and r.queue.base is None
            full = simulate(inst, cfg, sol, horizon_segment(inst, cfg, held, r.trace_offset),
                            scenario_id=r.scenario_id, trace_offset=r.trace_offset)
            assert r.summary() == full.summary()
            for name in ("checkpoint_ok", "power_violation_frac", "queue_violation_frac",
                         "slot_compliant"):
                assert np.array_equal(getattr(r, name), getattr(full, name))
        segment = horizon_segment(inst, cfg, held, results[0].trace_offset)
        with pytest.raises(ValueError, match="needs a result from simulate"):
            write_series_csv(results[0], inst, segment, tmp_path / "series.csv")


class TestComplianceReport:
    def test_zero_violations_full_revenue(self, solved):
        inst, cfg, fitted, sol, held = solved
        quiet = copy.deepcopy(sol)
        quiet.reg = np.zeros_like(sol.reg)
        res = simulate(inst, cfg, quiet, horizon_segment(inst, cfg, held))
        report = compliance_report([res], threshold=0.25)
        assert report["pass_rate_overall"] == 1.0

    def test_threshold_semantics(self, solved):
        inst, cfg, fitted, sol, held = solved
        res = simulate(inst, cfg, sol, horizon_segment(inst, cfg, held))
        fake = copy.deepcopy(res)
        fake.power_violation_frac = np.full_like(res.power_violation_frac, 0.30)
        strict = compliance_report([fake], threshold=0.25)
        assert strict["pass_rate_overall"] == 0.0
        vacuous = compliance_report([fake], threshold=1.0)
        assert vacuous["pass_rate_overall"] == 1.0

    def test_forfeiture_zeroes_failing_slots(self, solved):
        inst, cfg, fitted, sol, held = solved
        needed = int(inst.n_slots * cfg.slot_hours * 3600 / held.dt_seconds)
        ones = RegulationTrace(np.ones(needed), held.dt_seconds)
        from dcflex.workload import load_matrix

        nodal = load_matrix(sol.x, inst.jobs, cfg.slot_hours)
        p_min = np.stack([dc.p_min for dc in inst.dcs])
        big = copy.deepcopy(sol)
        big.reg = nodal - p_min + 1.0
        res = simulate(inst, cfg, big, ones)
        assert res.realized_revenue == 0.0
        assert res.committed_revenue > 0.0


def test_series_csv_row_count(tmp_path, solved):
    inst, cfg, fitted, sol, held = solved
    segment = horizon_segment(inst, cfg, held)
    res = simulate(inst, cfg, sol, segment)
    path = tmp_path / "series.csv"
    write_series_csv(res, inst, segment, path)
    rows = path.read_text().strip().splitlines()
    assert len(rows) == 1 + inst.n_dc * inst.n_slots * res.samples_per_slot


def per_slot_replay(inst, cfg, sol, segment):
    """The replay as a loop over slots, checkpoints and cells: (queue, queue
    violation fractions, checkpoint bools, realized revenue)."""
    t_total, n_dc = inst.n_slots, inst.n_dc
    per_slot = int(round(cfg.slot_hours * 3600.0 / segment.dt_seconds))
    s = segment.samples[:t_total * per_slot].reshape(t_total, per_slot)
    dh = segment.dt_seconds / 3600.0
    nodal = load_matrix(sol.x, inst.jobs, cfg.slot_hours)
    q = inst.queue
    queue = np.empty((n_dc, t_total * per_slot + 1))
    queue[:, 0] = q.q_init
    queue_frac = np.zeros((n_dc, t_total))
    for t in range(t_total):
        delta = (q.arrivals[:, t][:, None] / per_slot - nodal[:, t][:, None] * dh
                 + sol.reg[:, t][:, None] * s[t][None, :] * dh)
        block = queue[:, t * per_slot][:, None] + np.cumsum(delta, axis=1)
        queue[:, t * per_slot + 1:(t + 1) * per_slot + 1] = block
        outside = (block < q.q_min[:, None] - SIM_TOL) | (block > q.q_max[:, None] + SIM_TOL)
        queue_frac[:, t] = outside.mean(axis=1)
    points = queue_check_points(t_total, cfg.slot_hours, cfg.var_horizons)
    ok = np.zeros((n_dc, len(points)), dtype=bool)
    for j, cp in enumerate(points):
        k = min(int(round(cp.tau_hours * 3600.0 / segment.dt_seconds)), t_total * per_slot)
        for l in range(n_dc):
            ok[l, j] = q.q_min[l] - SIM_TOL <= queue[l, k] <= q.q_max[l] + SIM_TOL
    p_min = np.stack([dc.p_min for dc in inst.dcs])[:, :, None]
    p_max = np.stack([dc.p_max for dc in inst.dcs])[:, :, None]
    power = nodal[:, :, None] - s[None, :, :] * sol.reg[:, :, None]
    power_frac = ((power < p_min - SIM_TOL) | (power > p_max + SIM_TOL)).mean(axis=2)
    rate = cfg.revenue_rate(t_total)
    realized = 0.0
    for l in range(n_dc):
        for t in range(t_total):
            pay = rate[t] * sol.reg[l, t] * cfg.slot_hours
            if cfg.forfeiture == "proportional":
                realized += pay * (1.0 - float(power_frac[l, t]))
            elif power_frac[l, t] <= cfg.compliance_threshold + SIM_TOL:
                realized += pay
    return queue, queue_frac, ok, float(realized)


@pytest.mark.parametrize("scale", [1.0, 4.0])
@pytest.mark.parametrize("forfeiture", ["full", "proportional"])
def test_array_replay_matches_the_per_slot_loop(solved, forfeiture, scale):
    inst, cfg, fitted, sol, held = solved
    cfg = replace(cfg, forfeiture=forfeiture)
    stretched = copy.deepcopy(sol)
    stretched.reg = sol.reg * scale
    # 7 s does not divide the hour: 514 samples per slot, and the checkpoints
    # at the horizon end fall past the last sample and clamp to it.
    dt = 7.0
    needed = inst.n_slots * int(round(cfg.slot_hours * 3600.0 / dt))
    assert round(inst.n_slots * cfg.slot_hours * 3600.0 / dt) > needed
    segment = RegulationTrace(held.samples[:needed].copy(), dt)
    res = simulate(inst, cfg, stretched, segment)
    queue, queue_frac, ok, realized = per_slot_replay(inst, cfg, stretched, segment)
    assert np.array_equal(res.queue, queue)
    assert np.array_equal(res.queue_violation_frac, queue_frac)
    assert res.checkpoint_ok.dtype == bool and np.array_equal(res.checkpoint_ok, ok)
    assert res.realized_revenue == realized
    if scale > 1.0:
        assert not ok.all() and queue_frac.any()


def csv_writer_series(res, inst, segment, path):
    """The series through csv.writer, one row per sample."""
    n_dc, t_total, per_slot = res.power.shape
    p_min = np.stack([dc.p_min for dc in inst.dcs])[:, :, None]
    p_max = np.stack([dc.p_max for dc in inst.dcs])[:, :, None]
    queue = res.queue[:, 1:].reshape(n_dc, t_total, per_slot)
    q_min, q_max = inst.queue.q_min[:, None, None], inst.queue.q_max[:, None, None]
    power_viol = ((res.power < p_min - SIM_TOL) | (res.power > p_max + SIM_TOL)).astype(int)
    queue_viol = ((queue < q_min - SIM_TOL) | (queue > q_max + SIM_TOL)).astype(int)
    signal = segment.samples[:t_total * per_slot].reshape(t_total, per_slot)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dc", "slot", "k", "s", "power_mw", "queue_mwh",
                         "power_violation", "queue_violation"])
        for l, dc in enumerate(inst.dcs):
            for t in range(t_total):
                writer.writerows(zip(
                    repeat(dc.id), repeat(t + 1), range(1, per_slot + 1), signal[t].tolist(),
                    res.power[l, t].tolist(), queue[l, t].tolist(),
                    power_viol[l, t].tolist(), queue_viol[l, t].tolist()))


def test_series_csv_bytes_match_csv_writer(tmp_path, solved):
    inst, cfg, fitted, sol, held = solved
    stretched = copy.deepcopy(sol)
    stretched.reg = sol.reg * 4.0
    segment = horizon_segment(inst, cfg, held)
    res = simulate(inst, cfg, stretched, segment)
    assert res.power_violation_frac.any() and res.queue_violation_frac.any()
    write_series_csv(res, inst, segment, tmp_path / "series.csv")
    csv_writer_series(res, inst, segment, tmp_path / "reference.csv")
    assert (tmp_path / "series.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
