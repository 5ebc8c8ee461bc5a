"""Edge-path coverage: settlement modes, price arrays, and error
reporting not exercised by the main flows."""

import copy
import json

import numpy as np
import pytest

from dcflex.cli import EXIT_INPUT, main
from dcflex.grid import Bus, Generator, GridCase, Line
from dcflex.instance import build_synthetic, fit_signal_artifacts, small_params
from dcflex.optimizer import run_strategy
from dcflex.problem import ModelConfig, resolve_config
from dcflex.signals import RegulationTrace, empirical_quantile
from dcflex.simulator import simulate
from dcflex.workload import load_matrix

from dataclasses import replace


def test_quantile_endpoints():
    assert empirical_quantile([4, 1, 9], 0.0) == 1
    assert empirical_quantile([4, 1, 9], 1.0) == 9


def test_per_slot_price_arrays_accepted_and_length_checked():
    cfg = ModelConfig(c_rc=[1.0, 2.0, 3.0], c_rp=[0.5, 0.5, 0.5], m_bar=0.4)
    c_rc, c_rp, m_bar = cfg.prices(3)
    assert list(c_rc) == [1.0, 2.0, 3.0]
    assert np.allclose(m_bar, 0.4)
    with pytest.raises(ValueError, match="c_rc"):
        cfg.prices(4)


def test_proportional_forfeiture_scales_revenue():
    inst, cfg, trace = build_synthetic(small_params(), seed=42)
    fitted = fit_signal_artifacts(trace, cfg)
    cfg = resolve_config(replace(cfg, forfeiture="proportional"),
                         inst.n_slots, fitted.mean_abs)
    sol = run_strategy(inst, cfg, fitted)
    needed = int(inst.n_slots * cfg.slot_hours * 3600 / trace.dt_seconds)
    ones = RegulationTrace(np.ones(needed), trace.dt_seconds)
    nodal = load_matrix(sol.x, inst.jobs, cfg.slot_hours)
    p_min = np.stack([dc.p_min for dc in inst.dcs])
    over = copy.deepcopy(sol)
    over.reg = nodal - p_min + 1.0  # violates on every sample
    res = simulate(inst, cfg, over, ones)
    assert res.power_violation_rate == 1.0
    assert res.realized_revenue == pytest.approx(0.0, abs=1e-9)
    # Alternating signal violates on roughly half the samples; proportional
    # settlement pays the committed amount scaled by the compliant share.
    s = np.ones(needed)
    s[::2] = 0.0
    res_half = simulate(inst, cfg, over, RegulationTrace(s, trace.dt_seconds))
    rev_rate = cfg.revenue_rate(inst.n_slots)
    pay = over.reg * rev_rate[None, :] * cfg.slot_hours
    expected = float((pay * (1.0 - res_half.power_violation_frac)).sum())
    assert res_half.realized_revenue == pytest.approx(expected, rel=1e-6)


def test_report_without_manifest_exits_4(tmp_path):
    assert main(["report", "--out", str(tmp_path), "--quiet"]) == EXIT_INPUT


def test_self_loop_rejected_at_construction():
    with pytest.raises(ValueError):
        Line(1, 1, 1, 1.0, 1.0)


def test_duplicate_bus_ids_flagged():
    buses = (Bus(1, np.array([1.0])), Bus(1, np.array([2.0])))
    gens = (Generator(1, 1, 10.0, 0.0, 5.0, 5.0, 5.0, 5.0, 5.0),)
    with pytest.raises(ValueError, match="duplicate bus ids"):
        GridCase(buses, (), gens, slack_bus=1)
