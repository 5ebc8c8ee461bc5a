import copy
from dataclasses import replace

import numpy as np

from conftest import tiny_config, tiny_instance
from dcflex.optimizer import FittedSignal, run_strategy
from dcflex.signals import GaussianEnvelope, VaRTable
from dcflex.validate import qos_deviation_report, validate_solution


def solved_tiny():
    inst = tiny_instance()
    cfg = tiny_config()
    table = VaRTable(cfg.eps_e, tuple(cfg.var_horizons),
                     (-0.05, -0.05, -0.05), (0.05, 0.05, 0.05))
    fitted = FittedSignal(GaussianEnvelope(0.0, 0.35),
                          GaussianEnvelope(0.0, 0.3, "direct"), table, 0.4)
    sol = run_strategy(inst, cfg, fitted)
    return inst, cfg, fitted, sol


class TestValidator:
    def test_clean_solution_passes(self):
        inst, cfg, fitted, sol = solved_tiny()
        report = validate_solution(inst, cfg, fitted, sol)
        assert report.ok, [str(v) for v in report.violations]

    def test_detects_balance_tampering(self):
        inst, cfg, fitted, sol = solved_tiny()
        bad = copy.deepcopy(sol)
        bad.gen[0, 0] += 0.5
        report = validate_solution(inst, cfg, fitted, bad)
        assert any(v.family == "power_balance" for v in report.violations)

    def test_detects_overcommitted_capacity(self):
        inst, cfg, fitted, sol = solved_tiny()
        bad = copy.deepcopy(sol)
        bad.reg += 50.0
        report = validate_solution(inst, cfg, fitted, bad)
        families = {v.family for v in report.violations}
        assert families & {"power_cap", "chance", "queue_hi", "queue_lo"}

    def test_detects_incomplete_schedule(self):
        inst, cfg, fitted, sol = solved_tiny()
        bad = copy.deepcopy(sol)
        bad.x[0] *= 0.5
        report = validate_solution(inst, cfg, fitted, bad)
        assert any(v.family == "completion" for v in report.violations)

    def test_detects_mode_pin_breach(self):
        inst, cfg, fitted, sol = solved_tiny()
        pinned_cfg = replace(cfg, shifting_mode="none")
        moved = copy.deepcopy(sol)
        i = 2
        moved.x[i] = 0.0
        moved.x[i, 2, 1] = 1.0
        report = validate_solution(inst, pinned_cfg, fitted, moved)
        assert any(v.family == "mode_pins" for v in report.violations)

    def test_detects_fractional_commitment(self):
        inst, cfg, fitted, sol = solved_tiny()
        bad = copy.deepcopy(sol)
        bad.commit[0, 0] = 0.4
        report = validate_solution(inst, cfg, fitted, bad)
        assert any(v.family == "commit_binary" for v in report.violations)

    def test_detects_fractional_schedule_under_integral_x(self):
        inst, cfg, fitted, sol = solved_tiny()
        split = copy.deepcopy(sol)
        i = 2  # deferrable, free over every cell in mode joint
        split.x[i] = 0.0
        split.x[i, 0, 0] = split.x[i, 1, 0] = 0.5
        integral = validate_solution(inst, replace(cfg, integral_x=True), fitted, split)
        assert [v.amount for v in integral.violations if v.family == "x_integral"] == [0.5]
        relaxed = validate_solution(inst, cfg, fitted, split)
        assert all(v.family != "x_integral" for v in relaxed.violations)

    def test_detects_objective_mismatch(self):
        inst, cfg, fitted, sol = solved_tiny()
        bad = copy.deepcopy(sol)
        bad.objective_total += 10.0
        report = validate_solution(inst, cfg, fitted, bad)
        assert any(v.family == "objective_identity" for v in report.violations)

    def test_report_serializes(self):
        inst, cfg, fitted, sol = solved_tiny()
        doc = validate_solution(inst, cfg, fitted, sol).to_dict()
        assert doc["ok"] is True and doc["violations"] == []


def test_qos_deviation_of_solution_within_tolerance():
    inst, cfg, fitted, sol = solved_tiny()
    dev = qos_deviation_report(inst, sol)
    assert np.all(dev <= cfg.delta_qos + 1e-9)
