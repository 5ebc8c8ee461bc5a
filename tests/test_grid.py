import numpy as np
import pytest

from dcflex.artifacts import read_json, write_artifacts
from dcflex.grid import (
    Bus,
    Generator,
    GridCase,
    Line,
    case_from_dict,
    case_to_dict,
    line_flow,
    power_balance_residual,
    validate_case,
)


def three_bus_case(t=2):
    buses = (
        Bus(1, np.full(t, 5.0)),
        Bus(2, np.full(t, 3.0)),
        Bus(3, np.zeros(t)),
    )
    lines = (
        Line(1, 1, 2, 20.0, 50.0),
        Line(2, 2, 3, 15.0, 50.0),
        Line(3, 1, 3, 10.0, 50.0),
    )
    gens = (
        Generator(1, 1, 25.0, 0.0, 60.0, 60.0, 60.0, 60.0, 60.0),
        Generator(2, 3, 70.0, 0.0, 40.0, 40.0, 40.0, 40.0, 40.0),
    )
    return GridCase(buses, lines, gens, slack_bus=1)


class TestLineFlow:
    def test_basic(self):
        line = Line(1, 1, 2, 10.0, 99.0)
        assert line_flow(0.1, 0.0, line) == pytest.approx(1.0)

    def test_equal_angles(self):
        line = Line(1, 1, 2, 10.0, 99.0)
        assert line_flow(0.3, 0.3, line) == 0.0

    def test_antisymmetry(self):
        line = Line(1, 1, 2, 13.0, 99.0)
        assert line_flow(0.2, -0.1, line) == pytest.approx(-line_flow(-0.1, 0.2, line))


class TestPowerBalance:
    def test_single_bus_matched(self):
        case = GridCase(
            (Bus(1, np.array([5.0])),), (),
            (Generator(1, 1, 10.0, 0.0, 10.0, 10.0, 10.0, 10.0, 10.0),),
            slack_bus=1,
        )
        residual = power_balance_residual(
            case,
            gen_mw=np.array([[5.0]]),
            theta=np.zeros((1, 1)),
            shed_mw=np.zeros((1, 1)),
            dc_load_mw=np.zeros((0, 1)),
            dc_buses=[],
        )
        assert np.allclose(residual, 0.0)

    def test_shedding_covers_load(self):
        case = GridCase(
            (Bus(1, np.array([4.0])),), (),
            (Generator(1, 1, 10.0, 0.0, 10.0, 10.0, 10.0, 10.0, 10.0),),
            slack_bus=1,
        )
        residual = power_balance_residual(
            case, np.array([[0.0]]), np.zeros((1, 1)), np.array([[4.0]]),
            np.zeros((0, 1)), [],
        )
        assert np.allclose(residual, 0.0)

    def test_flows_telescope(self):
        # Sum of residuals per slot must equal gen - load - base + shed
        # regardless of the angle values: line terms cancel in the sum.
        case = three_bus_case()
        rng = np.random.Generator(np.random.PCG64(1))
        gen = rng.uniform(0, 10, size=(2, 2))
        theta = rng.normal(0, 0.2, size=(3, 2))
        shed = rng.uniform(0, 1, size=(3, 2))
        dc_load = rng.uniform(0, 2, size=(1, 2))
        residual = power_balance_residual(case, gen, theta, shed, dc_load, [2])
        base_total = sum(b.base_load for b in case.buses)
        expected = gen.sum(axis=0) - dc_load.sum(axis=0) - base_total + shed.sum(axis=0)
        assert np.allclose(residual.sum(axis=0), expected, atol=1e-9)


class TestValidateCase:
    def test_clean_case(self):
        assert validate_case(three_bus_case()) == []

    def test_dangling_generator(self):
        case = three_bus_case()
        bad = GridCase(case.buses, case.lines,
                       case.generators + (Generator(9, 99, 10.0, 0.0, 5.0, 5.0, 5.0, 5.0, 5.0),),
                       slack_bus=1)
        violations = validate_case(bad)
        assert len(violations) == 1 and "generator 9" in violations[0]

    def test_disconnected_graph(self):
        case = three_bus_case()
        bad = GridCase(case.buses, (Line(1, 1, 2, 20.0, 50.0),), case.generators, slack_bus=1)
        assert any("disconnected" in v for v in validate_case(bad))

    def test_random_connected_cases_accepted(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(10):
            n = int(rng.integers(2, 8))
            buses = tuple(Bus(i + 1, rng.uniform(0, 5, size=2)) for i in range(n))
            lines = [Line(i + 1, i + 1, i + 2, 10.0, 50.0) for i in range(n - 1)]
            extra = int(rng.integers(0, 3))
            for e in range(extra):
                a, b = rng.choice(n, size=2, replace=False) + 1
                lines.append(Line(100 + e, int(a), int(b), 5.0, 30.0))
            gens = (Generator(1, 1, 20.0, 0.0, 50.0, 50.0, 50.0, 50.0, 50.0),)
            case = GridCase(buses, tuple(lines), gens, slack_bus=1)
            assert validate_case(case) == []
            # Removing a tree edge disconnects the chain unless an extra
            # line happens to bridge it.
            chain_only = GridCase(buses, tuple(lines[1:]), gens, slack_bus=1)
            if extra == 0 and n > 2:
                assert any("disconnected" in v for v in validate_case(chain_only))


class TestGridJson:
    def test_round_trip(self, tmp_path):
        case = three_bus_case()
        write_artifacts(tmp_path, {"grid.json": case_to_dict(case)})
        back = read_json(tmp_path / "grid.json", case_from_dict)
        assert case_to_dict(back) == case_to_dict(case)
        assert back.lines[0].susceptance == pytest.approx(case.lines[0].susceptance)

    def test_susceptance_scaled_by_mva_base(self):
        data = case_to_dict(three_bus_case())
        assert data["lines"][0]["susceptance"] == pytest.approx(20.0 / 100.0)
        case = case_from_dict(data)
        assert case.lines[0].susceptance == pytest.approx(20.0)


def test_field_validation():
    with pytest.raises(ValueError):
        Line(1, 2, 2, 10.0, 5.0)
    with pytest.raises(ValueError):
        Line(1, 1, 2, -1.0, 5.0)
    with pytest.raises(ValueError):
        Generator(1, 1, 10.0, 5.0, 3.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        Bus(1, np.array([-1.0]))
