import sys
import tempfile
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from dcflex.artifacts import STRATEGIES
from dcflex.bnb import solve_mip
from dcflex.mps import (
    ExternalSolverError,
    model_to_mps,
    parse_mps,
    read_mps,
    read_solution_file,
    run_external_solver,
    write_mps,
)
from dcflex.instance import (
    DEMO_SEED,
    build_synthetic,
    demo_params,
    fit_signal_artifacts,
    small_params,
)
from dcflex.optimizer import run_strategy, solve_model
from dcflex.simplex import solve_lp
from dcflex.standard_form import INF, StandardFormModel
from dcflex.validate import validate_solution

GOLDEN_TOY = """\
NAME          TOY
ROWS
 N  COST
 G  floor
 L  cap
COLUMNS
    x         COST      1
    x         floor     1
    x         cap       2
    y         COST      -0.5
    y         cap       1
RHS
    RHS       floor     3
    RHS       cap       10
BOUNDS
 UP BND       y         4
ENDATA
"""


def toy_model():
    m = StandardFormModel("toy")
    x = m.add_variable("x", lb=0.0, obj=1.0)
    y = m.add_variable("y", lb=0.0, ub=4.0, obj=-0.5)
    m.add_row("floor", [(x, 1.0)], ">=", 3.0)
    m.add_row("cap", [(x, 2.0), (y, 1.0)], "<=", 10.0)
    return m


def models_equal(a, b, tol=1e-12):
    if a.n_vars != b.n_vars or a.n_rows != b.n_rows:
        return False
    for va, vb in zip(a.variables, b.variables):
        if va.name != vb.name or va.integer != vb.integer:
            return False
        if abs(va.lb - vb.lb) > tol or abs(va.ub - vb.ub) > tol:
            return False
    for ra, rb in zip(a.rows, b.rows):
        if ra.name != rb.name or ra.sense != rb.sense or abs(ra.rhs - rb.rhs) > tol:
            return False
        if dict(ra.coeffs) != dict(rb.coeffs):
            return False
    return a.objective == b.objective


def test_toy_golden_file_is_byte_stable():
    assert model_to_mps(toy_model()) == GOLDEN_TOY


def test_round_trip_identity_toy():
    back = parse_mps(model_to_mps(toy_model()))
    assert models_equal(toy_model(), back)


def _random_model(rng):
    m = StandardFormModel("rnd")
    n = int(rng.integers(2, 10))
    for j in range(n):
        kind = int(rng.integers(0, 6))
        if kind == 0:
            lb, ub = -INF, INF
        elif kind == 1:
            lb, ub = -INF, float(rng.normal())
        elif kind == 2:
            lb, ub = float(rng.normal()), INF
        elif kind == 3:
            v = float(rng.normal())
            lb, ub = v, v
        else:
            lo, hi = sorted(rng.normal(size=2))
            lb, ub = float(lo), float(hi)
        integer = kind == 5 and False
        m.add_variable(f"v{j}", lb, ub, integer=integer, obj=float(rng.normal()))
    if int(rng.integers(0, 2)):
        # binary block exercises the integer markers
        for k in range(int(rng.integers(1, 4))):
            m.add_variable(f"z{k}", 0.0, 1.0, integer=True, obj=float(rng.normal()))
    for r in range(int(rng.integers(1, 8))):
        nz = rng.choice(m.n_vars, size=min(m.n_vars, 3), replace=False)
        coeffs = [(int(j), float(rng.normal() * 10.0 ** int(rng.integers(-3, 4)))) for j in nz]
        sense = ["<=", ">=", "="][int(rng.integers(0, 3))]
        m.add_row(f"r{r}", coeffs, sense, float(rng.normal()))
    return m


def test_round_trip_random_models():
    rng = np.random.Generator(np.random.PCG64(17))
    for _ in range(50):
        model = _random_model(rng)
        assert models_equal(model, parse_mps(model_to_mps(model)))


def test_file_round_trip(tmp_path):
    path = tmp_path / "toy.mps"
    write_mps(toy_model(), path)
    assert models_equal(toy_model(), read_mps(path))


def test_solution_file_parsing(tmp_path):
    model = toy_model()
    sol = tmp_path / "toy.sol"
    sol.write_text("=obj= 1.0\nx 3.0\ny 4.0\nnoise\n")
    values = read_solution_file(sol, model)
    assert values[0] == 3.0 and values[1] == 4.0


def test_solution_file_without_matches_errors(tmp_path):
    sol = tmp_path / "bad.sol"
    sol.write_text("nothing useful\n")
    with pytest.raises(ExternalSolverError):
        read_solution_file(sol, toy_model())


REFERENCE_SOLVER = textwrap.dedent(
    """\
    import sys
    import numpy as np
    from scipy.optimize import LinearConstraint, milp, Bounds
    from dcflex.mps import read_mps
    from dcflex.standard_form import INF

    model = read_mps(sys.argv[1])
    n = model.n_vars
    cons = []
    for row in model.rows:
        dense = np.zeros(n)
        for j, c in row.coeffs:
            dense[j] = c
        lo = -np.inf if row.sense == "<=" else row.rhs
        hi = np.inf if row.sense == ">=" else row.rhs
        cons.append(LinearConstraint(dense, lo, hi))
    integrality = np.array([1 if v.integer else 0 for v in model.variables])
    lb = np.array([v.lb for v in model.variables])
    ub = np.array([v.ub for v in model.variables])
    res = milp(model.objective_vector(), constraints=cons,
               integrality=integrality, bounds=Bounds(lb, ub))
    if res.status == 2:
        sys.exit(2)
    if res.status != 0:
        sys.exit(1)
    with open(sys.argv[2], "w") as fh:
        for v, val in zip(model.variables, res.x):
            fh.write(f"{v.name} {float(val)!r}\\n")
    """
)


@pytest.fixture(scope="module")
def external_command(tmp_path_factory):
    script = tmp_path_factory.mktemp("reference") / "refsolve.py"
    script.write_text(REFERENCE_SOLVER)
    return f"{sys.executable} {script}"


def test_external_backend_matches_bundled(tmp_path, external_command):
    model = toy_model()
    status, values = run_external_solver(model, external_command, tmp_path / "work")
    assert status == "optimal"
    ours = solve_lp(model)
    assert model.evaluate_objective(values) == pytest.approx(ours.objective, rel=1e-6)


def test_external_backend_reports_infeasible(tmp_path, external_command):
    m = StandardFormModel("impossible")
    x = m.add_variable("x", 0.0, 1.0)
    m.add_row("r", [(x, 1.0)], ">=", 2.0)
    status, values = run_external_solver(m, external_command, tmp_path / "work")
    assert status == "infeasible" and values is None


def test_external_backend_mip(tmp_path, external_command):
    m = StandardFormModel("kn")
    for i, (v, w) in enumerate([(10, 3), (13, 4), (7, 2)]):
        m.add_variable(f"z{i}", 0.0, 1.0, integer=True, obj=-float(v))
    m.add_row("cap", [(0, 3.0), (1, 4.0), (2, 2.0)], "<=", 5.0)
    status, values = run_external_solver(m, external_command, tmp_path / "work")
    assert status == "optimal"
    ours = solve_mip(m)
    assert m.evaluate_objective(values) == pytest.approx(ours.objective, rel=1e-6)


def test_external_backend_removes_its_scratch_directory(tmp_path, monkeypatch, external_command):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    values, stats = solve_model(toy_model(), f"cmd:{external_command}")
    assert stats["status"] == "optimal" and len(values) == 2
    assert not list(tmp_path.glob("dcflex_ext_*"))


def test_decoupled_under_cmd_absorbs_phase1_round_off(external_command):
    # Phase 1's HiGHS schedule on the demo breaks queue rows qhi_1_4_* by
    # about 5e-7, which no R >= 0 can absorb; phase 2 relaxes those rows by
    # that excess alone, and validation still judges the final point.
    inst, cfg, trace = build_synthetic(demo_params(), DEMO_SEED)
    fitted = fit_signal_artifacts(trace, cfg)
    dcfg = replace(cfg, strategy="decoupled", shifting_mode="joint")
    sol = run_strategy(inst, dcfg, fitted, backend=f"cmd:{external_command}")
    assert sol.solver_stats["phase2"]["relaxed_rows"] > 0
    assert validate_solution(inst, dcfg, fitted, sol).ok


@seed(6)
@settings(max_examples=2, deadline=None, database=None)
@given(instance_seed=st.integers(min_value=0, max_value=10_000))
def test_backends_agree_on_every_strategy(external_command, instance_seed):
    # Both backends solve presolve's reduced models; each must reach the
    # other's objective and pass the independent validator.
    inst, cfg, trace = build_synthetic(small_params(), instance_seed)
    fitted = fit_signal_artifacts(trace, cfg)
    for strategy in STRATEGIES:
        scfg = replace(cfg, strategy=strategy, shifting_mode="joint")
        ours = run_strategy(inst, scfg, fitted)
        theirs = run_strategy(inst, scfg, fitted, backend=f"cmd:{external_command}")
        assert theirs.objective_total == pytest.approx(ours.objective_total, rel=1e-6), strategy
        assert validate_solution(inst, scfg, fitted, ours).ok, strategy
        assert validate_solution(inst, scfg, fitted, theirs).ok, strategy
