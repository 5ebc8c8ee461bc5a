import copy
import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

import dcflex.optimizer as optimizer
from conftest import tiny_config, tiny_instance
from dcflex.instance import (DEMO_SEED, demo_params, fit_signal_artifacts, generate_instance,
                             load_bundle)
from dcflex.optimizer import (FittedSignal, build_model, build_per_dc_model,
                              build_regulation_only_model, queue_check_points, resolve_config,
                              run_strategy)
from dcflex.signals import GaussianEnvelope, VaRTable
from dcflex.standard_form import FEAS_TOL
from dcflex.validate import queue_backlog, qos_deviation_report, validate_solution
from test_optimizer import tiny_setup


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


def at(field, index, value):
    """Edit: set one entry of a solution array."""
    def edit(inst, cfg, fitted, sol):
        getattr(sol, field)[index] = value
        return inst, cfg, fitted, sol
    return edit


def cfg_with(**changes):
    """Edit: replace fields of the run's config."""
    def edit(inst, cfg, fitted, sol):
        return inst, replace(cfg, **changes), fitted, sol
    return edit


def dc1_slot2(**values):
    """Edit: set DC 1's slot-2 entry of each named capacity profile. The
    solved tiny schedule uses cpu 1000, mem 1000 and io 500 there."""
    def edit(inst, cfg, fitted, sol):
        changes = {}
        for name, value in values.items():
            profile = getattr(inst.dcs[0], name).copy()
            profile[1] = value
            changes[name] = profile
        dcs = (replace(inst.dcs[0], **changes),) + inst.dcs[1:]
        return replace(inst, dcs=dcs), cfg, fitted, sol
    return edit


def var_bounds(**bounds):
    """Edit: replace the VaR table's s_low/s_high over horizons 0.5, 1, 2 h."""
    def edit(inst, cfg, fitted, sol):
        return inst, cfg, replace(fitted, var_table=replace(fitted.var_table, **bounds)), sol
    return edit


def edited(*edits):
    inst, cfg, fitted, sol = solved_tiny()
    case = inst, cfg, fitted, copy.deepcopy(sol)
    for edit in edits:
        case = edit(*case)
    return validate_solution(*case)


# Each edit breaks one family of the solved tiny instance at one place: x
# is 1 at (fix, slot 1, dc 1), (int, 2, 2) and (def, 2, 1); R is (5.6,
# 3.79, 0) at DC 1 and (0, 5.685, 0) at DC 2; generator 1 runs 10.4,
# 15.25, 9 MW in [1, 25] MW with ramps of 20 MW.
FAMILY_BREAKS = [
    ("x_bounds", "min", [at("x", (2, 1, 0), -0.5)]),
    ("x_integral", "max |x - round(x)|",
     [cfg_with(integral_x=True), at("x", (2, 1, 0), 0.5), at("x", (2, 0, 0), 0.5)]),
    ("completion", "cluster def", [at("x", (2, 1, 0), 0.5)]),
    ("mode_pins", "cluster def",
     [cfg_with(shifting_mode="none"), at("x", (2, 1, 0), 0.0), at("x", (2, 2, 1), 1.0)]),
    ("cpu_cap", "dc 1 slot 2", [dc1_slot2(cpu_cap=1000.0 - 2 * FEAS_TOL)]),
    ("mem_cap", "dc 1 slot 2", [dc1_slot2(mem_cap=1000.0 - 2 * FEAS_TOL)]),
    ("io_cap", "dc 1 slot 2", [dc1_slot2(io_cap=500.0 - 2 * FEAS_TOL)]),
    ("qos", "slot 2", [cfg_with(delta_qos=0.0), at("x", (2, 1, 0), 0.0), at("x", (2, 1, 1), 1.0)]),
    ("reg_nonneg", "min", [at("reg", (1, 0), -0.5)]),
    ("power_cap", "dc 1 slot 1", [at("reg", (0, 0), 6.0)]),
    ("chance", "dc 2 slot 2", [at("reg", (1, 1), 6.2)]),
    ("queue_hi", "dc 2 tau 2h win 2h", [var_bounds(s_high=(0.05, 0.05, 0.8))]),
    ("queue_lo", "dc 2 tau 2h win 2h", [var_bounds(s_low=(-0.05, -0.05, -0.8))]),
    ("power_balance", "max |residual|", [at("gen", (0, 0), 10.9)]),
    ("line_limit", "line 1", [at("theta", (1, 1), -2.0)]),
    ("commit_binary", "gen 1", [at("commit", (0, 0), 0.4)]),
    ("gen_max", "gen 1", [at("gen", (0, 1), 26.0)]),
    ("gen_min", "gen 1", [at("gen", (0, 2), 0.5)]),
    ("ramp_up", "gen 1 slot 2", [at("gen", (0, 0), 2.0), at("gen", (0, 1), 24.0)]),
    ("ramp_down", "gen 1 slot 3", [at("gen", (0, 1), 24.0), at("gen", (0, 2), 2.0)]),
    ("shed_nonneg", "min", [at("shed", (0, 0), -0.5)]),
    ("slack_angle", "max |theta|", [at("theta", (0, 0), 0.1)]),
    ("objective_identity", "total", [lambda inst, cfg, fitted, sol: (
        inst, cfg, fitted, replace(sol, objective_total=sol.objective_total + 10.0))]),
]


@pytest.mark.parametrize("family, where, edits", FAMILY_BREAKS,
                         ids=[family for family, _, _ in FAMILY_BREAKS])
def test_each_family_reports_its_break(family, where, edits):
    report = edited(*edits)
    assert [v.where for v in report.violations if v.family == family] == [where], \
        [str(v) for v in report.violations]


def test_usage_exactly_at_capacity_passes():
    report = edited(dc1_slot2(cpu_cap=1000.0, mem_cap=1000.0, io_cap=500.0))
    assert report.ok, [str(v) for v in report.violations]


def test_qos_deviation_of_solution_within_tolerance():
    inst, cfg, fitted, sol = solved_tiny()
    dev = qos_deviation_report(inst, sol)
    assert np.all(dev <= cfg.delta_qos + 1e-9)


@pytest.fixture(scope="module")
def demo_solved(tmp_path_factory):
    bundle = tmp_path_factory.mktemp("demo") / "b"
    generate_instance(demo_params(), DEMO_SEED, bundle)
    inst, cfg, trace = load_bundle(bundle)
    fitted = fit_signal_artifacts(trace, cfg)
    return bundle, inst, cfg, fitted, run_strategy(inst, cfg, fitted)


def _relabel_dcs(bundle, out, ids):
    """A copy of the bundle whose k-th DC in dc.json has id ids[k], with
    latency.csv relabelled to match."""
    shutil.copytree(bundle, out)
    doc = json.loads((out / "dc.json").read_text())
    new_id = {}
    for entry, dc_id in zip(doc["dcs"], ids):
        new_id[str(entry["id"])] = str(dc_id)
        entry["id"] = dc_id
    (out / "dc.json").write_text(json.dumps(doc))
    header, *rows = (out / "latency.csv").read_text().splitlines()
    relabelled = [f"{region},{new_id[dc]},{value}"
                  for region, dc, value in (row.split(",") for row in rows)]
    (out / "latency.csv").write_text("\n".join([header, *relabelled]) + "\n")
    return out


@pytest.mark.parametrize("ids", [[11, 12, 13], [2, 1, 3]])
def test_qos_baseline_looks_dcs_up_by_id(demo_solved, tmp_path, ids):
    bundle, inst, cfg, fitted, sol = demo_solved
    moved, _, _ = load_bundle(_relabel_dcs(bundle, tmp_path / "b", ids))
    assert [dc.id for dc in moved.dcs] == ids
    assert moved.baseline_latency.tolist() == inst.baseline_latency.tolist()
    moved_sol = run_strategy(moved, cfg, fitted)
    assert abs(moved_sol.objective_total - sol.objective_total) <= 1e-9 * abs(sol.objective_total)
    assert validate_solution(moved, cfg, fitted, moved_sol).ok
    assert np.allclose(qos_deviation_report(moved, moved_sol), qos_deviation_report(inst, sol),
                       rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("field, index, families", [
    ("reg", (0, 0), {"reg_nonneg", "power_cap", "chance", "queue_hi", "queue_lo"}),
    ("x", (2, 1, 0), {"x_bounds", "completion", "mode_pins", "cpu_cap", "qos", "power_balance"}),
])
def test_a_nan_in_the_solution_breaks_every_family_it_reaches(demo_solved, field, index,
                                                             families):
    # NaN fails every comparison, so an "amount > tol" test alone passes it.
    _, inst, cfg, fitted, sol = demo_solved
    bad = copy.deepcopy(sol)
    getattr(bad, field)[index] = np.nan
    report = validate_solution(inst, cfg, fitted, bad)
    assert not report.ok and families <= {v.family for v in report.violations}


def test_a_fault_in_the_builders_queue_rows_is_caught(demo_solved, monkeypatch):
    # Understating the elapsed share of every slot by 5 % touches only the
    # qhi/qlo rows; the check re-derives the backlog and must flag the
    # schedule those rows admit.
    _, inst, cfg, fitted, _ = demo_solved
    cover = optimizer.slot_cover
    monkeypatch.setattr(optimizer, "slot_cover", lambda *args: 0.95 * cover(*args))
    sol = run_strategy(inst, cfg, fitted)
    families = {v.family for v in validate_solution(inst, cfg, fitted, sol).violations}
    assert "queue_hi" in families


@pytest.mark.parametrize("case", ["tiny", "demo"])
def test_builder_queue_rows_match_the_closed_form_backlog(demo_solved, case):
    if case == "tiny":
        inst, cfg, moments, table = tiny_setup()
    else:
        _, inst, cfg, fitted, _ = demo_solved
        cfg = resolve_config(cfg, inst.n_slots, fitted.mean_abs)
        moments, table = fitted.moments(cfg.signal_model), fitted.var_table
    x = np.random.default_rng(7).uniform(size=(len(inst.jobs), inst.n_slots, inst.n_dc))
    points = queue_check_points(inst.n_slots, cfg.slot_hours, cfg.var_horizons)
    point_of = {(cp.slot, format(cp.horizon_hours, "g").replace(".", "p")): k
                for k, cp in enumerate(points)}

    def check(model, x_seen):
        """q_bound - rhs plus the row's x terms at x_seen is the backlog."""
        backlog = queue_backlog(inst, x_seen, cfg.slot_hours, [cp.tau_hours for cp in points])
        names = [v.name for v in model.variables]
        rows = [row for row in model.rows if row.name.startswith(("qhi_", "qlo_"))]
        assert rows
        for row in rows:
            kind, l, slot, htag = row.name.split("_")
            bound = inst.queue.q_max if kind == "qhi" else inst.queue.q_min
            got = float(bound[int(l) - 1]) - row.rhs
            for j, c in row.coeffs:
                if names[j].startswith("x_"):
                    i, t, dc = (int(k) - 1 for k in names[j].split("_")[1:])
                    got += c * x_seen[i, t, dc]
            expected = backlog[point_of[(int(slot), htag)], int(l) - 1]
            assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected)), row.name

    check(build_model(inst, cfg, moments, table), x)
    for l in range(1, inst.n_dc + 1):
        members = [inst.baseline_dc(i)[1] == l for i in range(len(inst.jobs))]
        check(build_per_dc_model(inst, cfg, moments, table, l)[0],
              x * np.array(members)[:, None, None])
    check(build_regulation_only_model(inst, cfg, moments, table, x), x)
