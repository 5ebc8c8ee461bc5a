import copy
import json
from dataclasses import replace

import numpy as np
import pytest

from dcflex.instance import build_synthetic, fit_signal_artifacts, small_params
from dcflex.optimizer import resolve_config, run_strategy
from dcflex.signals import RegulationTrace
from dcflex.simulator import (
    aggregate,
    compliance_report,
    monte_carlo,
    results_digest,
    simulate,
    write_series_csv,
)
from dcflex.validate import queue_backlog


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
            assert r.checkpoint_ok == full.checkpoint_ok
            for name in ("power_violation_frac", "queue_violation_frac", "slot_compliant"):
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
