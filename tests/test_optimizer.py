import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest

import dcflex.bnb as bnb
import dcflex.mps as mps
import dcflex.optimizer as optimizer
import dcflex.simplex as simplex
from conftest import tiny_config, tiny_instance
from dcflex.artifacts import (
    STRATEGIES,
    InfeasibleModel,
    SolverError,
    read_json,
    write_artifacts,
)
from dcflex.instance import build_synthetic, fit_signal_artifacts, small_params
from dcflex.mps import model_to_mps
from dcflex.optimizer import (
    FittedSignal,
    ModelConfig,
    ProblemInstance,
    QueueParameters,
    Solution,
    allowed_cells,
    build_model,
    build_per_dc_model,
    build_regulation_only_model,
    chance_coefficient,
    diagnose_infeasibility,
    extract_solution,
    queue_check_points,
    resolve_config,
    run_strategy,
    slot_cover,
    solve_model,
)
from dcflex.signals import GaussianEnvelope, VaRTable, inverse_normal_cdf
from dcflex.simplex import ITERATION_LIMIT, LPResult
from dcflex.standard_form import StandardFormModel
from dcflex.validate import queue_backlog, validate_solution
from dcflex.workload import cluster_energies_mwh, load_matrix
from test_mps import external_command  # noqa: F401  (fixture)


def flat_var_table(horizons=(0.5, 1.0, 2.0), lo=-0.05, hi=0.05, eps=0.1):
    return VaRTable(eps, tuple(float(h) for h in horizons),
                    tuple(lo for _ in horizons), tuple(hi for _ in horizons))


def tiny_setup(**cfg_overrides):
    inst = tiny_instance()
    cfg = tiny_config(**cfg_overrides)
    moments = GaussianEnvelope(0.0, 0.35)
    table = flat_var_table(cfg.var_horizons, eps=cfg.eps_e)
    return inst, cfg, moments, table


def flooded_queue_model():
    """The tiny joint model with arrivals far beyond the queue ceiling, which
    make the backlog rows unsatisfiable for any schedule and capacity."""
    inst, cfg, moments, table = tiny_setup()
    flooded = ProblemInstance(
        inst.jobs, inst.latency, inst.dcs, inst.grid,
        QueueParameters(
            q_init=inst.queue.q_init,
            arrivals=inst.queue.arrivals + 50.0,
            q_min=inst.queue.q_min,
            q_max=inst.queue.q_max,
        ),
    )
    return build_model(flooded, cfg, moments, table)


class TestChanceCoefficient:
    def test_reduces_to_mean_at_half(self):
        m = GaussianEnvelope(0.12, 0.8)
        assert chance_coefficient(m, 0.5) == pytest.approx(0.12)

    def test_standard_form(self):
        m = GaussianEnvelope(0.0, 1.0)
        assert chance_coefficient(m, 0.05) == pytest.approx(inverse_normal_cdf(0.95))

    def test_variance_inflation(self):
        m = GaussianEnvelope(0.0, 0.3)
        base = chance_coefficient(m, 0.1)
        inflated = chance_coefficient(m, 0.1, extra_variance=0.05)
        assert inflated > base


class TestBuildModel:
    def test_variable_count_formula(self):
        # M*T*N x vars + N*T R + G*T*(p,u) + B*T*(theta,q), tallied twice.
        inst, cfg, moments, table = tiny_setup()
        model = build_model(inst, cfg, moments, table)
        m_count, t, n = len(inst.jobs), inst.n_slots, inst.n_dc
        g, b = len(inst.grid.generators), len(inst.grid.buses)
        formula = m_count * t * n + n * t + 2 * g * t + 2 * b * t
        tally = sum(1 for v in model.variables)
        assert formula == 18 + 6 + 6 + 12
        assert tally == formula

    def test_mode_none_pins_everything_to_baseline(self):
        inst, cfg, moments, table = tiny_setup(shifting_mode="none")
        model = build_model(inst, cfg, moments, table)
        values, _ = solve_model(model)
        sol = extract_solution(inst, cfg, values, "optimal")
        assert np.allclose(sol.x, inst.x_base, atol=1e-9)

    def test_chance_row_at_eps_half_uses_mean_only(self):
        # At eps_p = 0.5 the z-score vanishes; verify via the coefficient
        # helper the row builder uses.
        m = GaussianEnvelope(0.2, 5.0)
        assert chance_coefficient(m, 0.5) == pytest.approx(0.2)

    def test_unresolved_m_bar_rejected(self):
        inst, cfg, moments, table = tiny_setup(m_bar=None)
        with pytest.raises(Exception, match="m_bar"):
            build_model(inst, cfg, moments, table)

    def test_missing_horizon_raises_build_error(self):
        inst, cfg, moments, _ = tiny_setup()
        bad_table = flat_var_table(horizons=(1.0,), eps=cfg.eps_e)
        with pytest.raises(Exception, match="queue"):
            build_model(inst, cfg, moments, bad_table)

    def test_causality_of_deferrable_cells(self):
        inst, cfg, _, _ = tiny_setup()
        cells = allowed_cells(inst, cfg, 2)  # deferrable, arrival slot 1
        assert cells == {(t, l) for t in (1, 2, 3) for l in (1, 2)}
        inst2 = tiny_instance()
        late = replace(cfg)
        # interactive cluster: spatial freedom only, at its arrival slot
        assert allowed_cells(inst2, late, 1) == {(2, 1), (2, 2)}


class TestQueueBaseline:
    def test_constant_without_arrivals_or_load(self):
        inst, cfg, _, _ = tiny_setup()
        const = queue_backlog(inst, inst.x_base, 1.0, [0.0])[0, 1]
        assert const == pytest.approx(4.0)
        assert not slot_cover(inst.n_slots, 1.0, 0.0).any()

    def test_telescoping_example(self):
        # Arrivals [3.4, 1.7], service from the baseline schedule.
        inst, cfg, _, _ = tiny_setup()
        x = inst.x_base
        v1, v2 = queue_backlog(inst, x, 1.0, [1.0, 2.0])[:, 0]
        served = load_matrix(x, inst.jobs, 1.0)[0]
        assert v1 == pytest.approx(4.0 + 3.4 - served[0])
        assert v2 == pytest.approx(4.0 + 3.4 + 1.7 - served[0] - served[1])

    def test_sub_slot_proration(self):
        inst, cfg, _, _ = tiny_setup()
        x = inst.x_base
        half, full = queue_backlog(inst, x, 1.0, [0.5, 1.0])[:, 0]
        assert half == pytest.approx((4.0 + full) / 2.0)

    def test_checkpoint_layout(self):
        points = queue_check_points(3, 1.0, (0.5, 1.0, 2.0))
        per_slot_1 = [p for p in points if p.slot == 1]
        assert {(p.tau_hours, p.horizon_hours) for p in per_slot_1} == {(0.5, 0.5), (1.0, 1.0)}
        multi = [p for p in points if p.horizon_hours == 2.0]
        assert {(p.slot, p.tau_hours) for p in multi} == {(2, 2.0), (3, 3.0)}


class TestSolveAndValidateTiny:
    def test_cooperative_solves_and_prices_breakdown(self):
        inst, cfg, moments, table = tiny_setup()
        model = build_model(inst, cfg, moments, table)
        values, stats = solve_model(model)
        sol = extract_solution(inst, cfg, values, "optimal", stats)
        recon = sol.generation_cost + sol.penalty_cost + sol.migration_cost - sol.regulation_revenue
        assert sol.objective_total == pytest.approx(recon, rel=1e-9)
        assert np.all(sol.reg >= 0)

    def test_solver_and_extraction_objectives_agree(self):
        inst, cfg, moments, table = tiny_setup()
        model = build_model(inst, cfg, moments, table)
        values, _ = solve_model(model)
        sol = extract_solution(inst, cfg, values, "optimal")
        assert model.evaluate_objective(values) == pytest.approx(
            sol.objective_total, rel=1e-6, abs=1e-6
        )

    def test_infeasible_reports_binding_family(self):
        with pytest.raises(InfeasibleModel) as err:
            solve_model(flooded_queue_model())
        assert any(fam.startswith("qhi") for fam in err.value.family_report)

    def test_zero_price_degeneracy(self):
        # Zero regulation prices: objective equals the capacity-disabled run.
        inst, cfg, moments, table = tiny_setup(c_rc=0.0, c_rp=0.0)
        free = build_model(inst, cfg, moments, table)
        pinned = build_model(inst, cfg, moments, table,
                             fix_r=np.zeros((inst.n_dc, inst.n_slots)))
        v_free, _ = solve_model(free)
        v_pin, _ = solve_model(pinned)
        assert free.evaluate_objective(v_free) == pytest.approx(
            pinned.evaluate_objective(v_pin), rel=1e-9, abs=1e-6
        )


class TestStrategiesTiny:
    def test_cooperative_beats_or_ties_decoupled(self):
        inst, cfg, moments, table = tiny_setup()
        fitted = FittedSignal(moments, GaussianEnvelope(0.0, 0.3, "direct"), table, 0.4)
        coop = run_strategy(inst, replace(cfg, strategy="cooperative"), fitted)
        dec = run_strategy(inst, replace(cfg, strategy="decoupled"), fitted)
        ind = run_strategy(inst, replace(cfg, strategy="independent"), fitted)
        assert coop.objective_total <= dec.objective_total + 1e-6
        assert coop.objective_total <= ind.objective_total + 1e-6
        assert coop.regulation_revenue >= dec.regulation_revenue - 1e-6

    def test_decoupled_zero_prices_matches_cooperative_schedule(self):
        inst, cfg, moments, table = tiny_setup(c_rc=0.0, c_rp=0.0)
        fitted = FittedSignal(moments, GaussianEnvelope(0.0, 0.3, "direct"), table, 0.4)
        coop = run_strategy(inst, replace(cfg, strategy="cooperative"), fitted)
        dec = run_strategy(inst, replace(cfg, strategy="decoupled"), fitted)
        assert np.allclose(coop.x, dec.x, atol=1e-9)
        assert coop.objective_total == pytest.approx(dec.objective_total, abs=1e-6)


class TestSolutionJson:
    def test_round_trip(self, tmp_path):
        inst, cfg, moments, table = tiny_setup()
        model = build_model(inst, cfg, moments, table)
        values, _ = solve_model(model)
        sol = extract_solution(inst, cfg, values, "optimal")
        write_artifacts(tmp_path, {"solution.json": sol.to_dict(inst.jobs)})
        back = read_json(tmp_path / "solution.json", Solution.from_dict)
        assert np.allclose(back.x, sol.x)
        assert np.allclose(back.reg, sol.reg)
        assert back.objective_total == pytest.approx(sol.objective_total)


def test_diagnose_reports_family_totals():
    m = StandardFormModel("clash")
    x = m.add_variable("x", 0.0, 1.0)
    m.add_row("up_1", [(x, 1.0)], ">=", 3.0)
    m.add_row("down_1", [(x, 1.0)], "<=", 0.5)
    report = diagnose_infeasibility(m)
    assert report and sum(report.values()) >= 2.0


def _refuse_bundled_solvers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the bundled solver ran under the cmd: backend")

    monkeypatch.setattr(simplex, "solve_lp", refuse)
    monkeypatch.setattr(bnb, "solve_mip", refuse)


def test_every_strategy_model_goes_through_the_selected_backend(monkeypatch, external_command):
    inst, cfg, moments, table = tiny_setup()
    fitted = FittedSignal(moments, GaussianEnvelope(0.0, 0.3, "direct"), table, 0.4)
    bundled = {s: run_strategy(inst, replace(cfg, strategy=s), fitted) for s in STRATEGIES}
    _refuse_bundled_solvers(monkeypatch)
    solved = []
    run_external_solver = mps.run_external_solver

    def recording(model, command, workdir):
        solved.append(model.name)
        return run_external_solver(model, command, workdir)

    monkeypatch.setattr(mps, "run_external_solver", recording)
    expected = {
        "decoupled": ["decoupled_phase1", "regulation_adjustment"],
        "independent": ["dc1_independent", "dc2_independent", "independent_dispatch"],
        "cooperative": ["coopt"],
    }
    for strategy, models in expected.items():
        solved.clear()
        scfg = replace(cfg, strategy=strategy)
        sol = run_strategy(inst, scfg, fitted, backend=f"cmd:{external_command}")
        assert solved == models
        assert sol.status == "optimal"
        assert sol.objective_total == pytest.approx(bundled[strategy].objective_total, rel=1e-6)
        assert validate_solution(inst, scfg, fitted, sol).ok


def test_infeasibility_diagnosis_uses_the_selected_backend(monkeypatch, external_command):
    _refuse_bundled_solvers(monkeypatch)
    with pytest.raises(InfeasibleModel) as err:
        solve_model(flooded_queue_model(), f"cmd:{external_command}")
    assert any(fam.startswith("qhi") for fam in err.value.family_report)


def test_backend_calling_every_model_infeasible_gets_an_empty_report():
    # The elastic relaxation is not diagnosed in turn, so this ends.
    with pytest.raises(InfeasibleModel) as err:
        solve_model(flooded_queue_model(), "cmd:sh -c 'exit 2'")
    assert err.value.family_report == {}


@pytest.mark.parametrize("backend, command", [
    ("bundled", None), ("cmd:highs --quiet", "highs --quiet"), ("cmd:'a b' c", "'a b' c")])
def test_backend_command_of_a_valid_backend(backend, command):
    assert optimizer.backend_command(backend) == command


@pytest.mark.parametrize("backend", ["", "bogus", "cmd:", "cmd:   ", 'cmd:""', "cmd:''",
                                     "cmd:'abc"])
def test_backend_command_rejects_before_any_solve(monkeypatch, backend):
    _refuse_bundled_solvers(monkeypatch)
    with pytest.raises(ValueError, match=f"unknown backend {re.escape(repr(backend))}"):
        solve_model(flooded_queue_model(), backend)


def test_unproven_status_raises_solver_error(monkeypatch):
    m = StandardFormModel("capped")
    m.add_variable("x", 0.0, 1.0, obj=-1.0)
    monkeypatch.setattr(simplex, "solve_lp",
                        lambda model: LPResult(ITERATION_LIMIT, None, None, 5))
    with pytest.raises(SolverError, match=ITERATION_LIMIT):
        solve_model(m)


def test_independent_respects_integral_x():
    # Each per-DC model declares its x block through the shared emitter, so
    # it is a MIP under integral_x and cannot undercut the joint optimum
    # with a fractional schedule.
    inst, cfg, trace = build_synthetic(small_params(), 8)
    fitted = fit_signal_artifacts(trace, cfg)
    cfg = replace(cfg, shifting_mode="joint", integral_x=True)
    coop = run_strategy(inst, replace(cfg, strategy="cooperative"), fitted)
    icfg = replace(cfg, strategy="independent")
    ind = run_strategy(inst, icfg, fitted)
    assert np.max(np.abs(ind.x - np.round(ind.x))) <= 1e-6
    assert ind.objective_total >= coop.objective_total - 1e-6 * abs(coop.objective_total)
    report = validate_solution(inst, icfg, fitted, ind)
    assert report.ok, [str(v) for v in report.violations]


def test_config_validation_and_round_trip():
    cfg = tiny_config()
    cfg.validate(max_gen_cost=100.0)
    data = json.loads(json.dumps(cfg.to_dict()))
    back = ModelConfig.from_dict(data)
    assert back == cfg
    with pytest.raises(ValueError):
        ModelConfig(eps_p=0.7).validate()
    with pytest.raises(ValueError):
        ModelConfig(c_penal=1.0).validate(max_gen_cost=10.0)
    with pytest.raises(ValueError):
        ModelConfig(shifting_mode="diagonal").validate()


def test_column_arrays_match_column_names():
    # Extracting each column's own index maps every cell to its column.
    inst, cfg, moments, table = tiny_setup()
    model = build_model(inst, cfg, moments, table)
    names = [v.name for v in model.variables]
    sol = extract_solution(inst, cfg, np.arange(model.n_vars, dtype=float), "optimal")
    for (i, t, l), j in np.ndenumerate(sol.x):
        assert names[int(j)] == f"x_{i + 1}_{t + 1}_{l + 1}"
    for prefix, block in (("R", sol.reg), ("p", sol.gen), ("u", sol.commit),
                          ("th", sol.theta), ("q", sol.shed)):
        for (a, t), j in np.ndenumerate(block):
            assert names[int(j)] == f"{prefix}_{a + 1}_{t + 1}"
    assert sol.shed.max() == model.n_vars - 1

    for l in range(1, inst.n_dc + 1):
        model, xcol, rcol = build_per_dc_model(inst, cfg, moments, table, l)
        names = [v.name for v in model.variables]
        members = [i for i in range(len(inst.jobs)) if inst.baseline_dc(i)[1] == l]
        covered = np.zeros(xcol.shape, dtype=bool)
        covered[members, :, l - 1] = True
        assert ((xcol >= 0) == covered).all() and (xcol[~covered] == -1).all()
        assert ((rcol >= 0) == (np.arange(inst.n_dc) == l - 1)[:, None]).all()
        for (i, t, k), j in np.ndenumerate(xcol):
            assert j < 0 or names[j] == f"x_{i + 1}_{t + 1}_{k + 1}"
        for (k, t), j in np.ndenumerate(rcol):
            assert j < 0 or names[j] == f"R_{k + 1}_{t + 1}"
        declared = sorted(xcol[covered].tolist() + rcol[l - 1].tolist())
        assert declared == [j for j, n in enumerate(names) if n[:2] in ("x_", "R_")]


def test_resolve_config_fills_m_bar():
    cfg = ModelConfig(m_bar=None)
    resolved = resolve_config(cfg, 4, 0.37)
    assert resolved.m_bar == [0.37] * 4
    assert resolve_config(resolved, 4, 0.99) is resolved


# sha256 of model_to_mps for the models of test_model_text_is_byte_stable.
# They pin the emitted model text: a refactor of the builders must leave it
# byte-identical, and a deliberate change of a row updates them.
MPS_SHA256 = {
    "plain": "599ee853843e98db14a2dec2618791ed0f6f271501e8905a6aa9e355575410ef",
    "pin_r_zero": "f2cf309fc3bcd9206df2346f4c5aee7a12255d361df358e906be8419f7450ab0",
    "fixed": "4f3d34f1ca3f778e05d54eb7eed6c1353adda422ef7d16e008f5a6152ef4db61",
    "dc1": "3d1e4c083133851b7971470b8406a3643b91f86a76e75db5fbfe778db8cd273a",
    "dc2": "ced3a24077164d0ea5513809ad3447dcbd1b4fbc67e7a1ee1d9bf51727ac4c49",
    "regulation": "eb64a0fdb371c1ed3e34412b70bc37db7752eba366f3dd53dd72cee3611cc933",
}


def test_model_text_is_byte_stable():
    # Hand-set moments and VaR table, so no fitted float reaches the models.
    inst, cfg, moments, table = tiny_setup()
    models = {
        "plain": build_model(inst, cfg, moments, table),
        "pin_r_zero": build_model(inst, cfg, moments, table,
                                  fix_r=np.zeros((inst.n_dc, inst.n_slots))),
        "fixed": build_model(inst, cfg, moments, table, fix_x=inst.x_base,
                             fix_r=np.zeros((inst.n_dc, inst.n_slots))),
        "dc1": build_per_dc_model(inst, cfg, moments, table, 1)[0],
        "dc2": build_per_dc_model(inst, cfg, moments, table, 2)[0],
        "regulation": build_regulation_only_model(inst, cfg, moments, table, inst.x_base),
    }
    digests = {k: hashlib.sha256(model_to_mps(m).encode()).hexdigest() for k, m in models.items()}
    assert digests == MPS_SHA256

    # The emitted queue rows carry exactly -cover[t] * E_i on every x term.
    model = models["plain"]
    names = [v.name for v in model.variables]
    rows = {row.name: row for row in model.rows}
    energies = cluster_energies_mwh(inst.jobs)
    for cp in queue_check_points(inst.n_slots, cfg.slot_hours, cfg.var_horizons):
        htag = format(cp.horizon_hours, "g").replace(".", "p")
        cover = slot_cover(inst.n_slots, cfg.slot_hours, cp.tau_hours)
        coeffs = {(i, t + 1): -(cover[t] * e) for t in np.flatnonzero(cover)
                  for i, e in enumerate(energies) if e != 0.0}
        for l in range(1, inst.n_dc + 1):
            row = rows[f"qhi_{l}_{cp.slot}_{htag}"]
            emitted = {names[j]: c for j, c in row.coeffs if names[j].startswith("x_")}
            assert emitted == {f"x_{i + 1}_{t}_{l}": c for (i, t), c in coeffs.items()}
