import os
from pathlib import Path

import numpy as np
import pytest

import dcflex
from dcflex.grid import Bus, Generator, GridCase, Line
from dcflex.instance import build_synthetic, fit_signal_artifacts, small_params
from dcflex.optimizer import ModelConfig, ProblemInstance, QueueParameters
from dcflex.workload import DataCenterSpec, JobCluster, LatencyMap

# Child processes of the suite, such as the reference solvers behind the
# cmd: backend, import the same dcflex as the suite.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(dcflex.__file__).parents[1]), os.environ.get("PYTHONPATH")]))


def tiny_instance():
    """Hand-built 2-DC / 3-slot / 3-cluster / 1-generator / 2-bus instance.

    Small enough for exhaustive schedule x commitment enumeration, with one
    cluster of each flexibility class.
    """
    t = 3
    jobs = (
        JobCluster("fix", "r1", 1, "fixed", 2000.0, 1.0, 1.0, 0.5, 1.7),
        JobCluster("int", "r2", 2, "interactive", 1500.0, 1.0, 1.0, 0.5, 1.7),
        JobCluster("def", "r1", 1, "deferrable", 1000.0, 1.0, 1.0, 0.5, 1.7),
    )
    latmap = LatencyMap({("r1", 1): 5.0, ("r1", 2): 12.0,
                         ("r2", 1): 12.0, ("r2", 2): 5.0})
    caps = np.full(t, 6000.0)
    dcs = (
        DataCenterSpec(1, 1, caps, caps, caps * 0.6,
                       p_min=np.zeros(t), p_max=np.full(t, 9.0)),
        DataCenterSpec(2, 2, caps, caps, caps * 0.6,
                       p_min=np.zeros(t), p_max=np.full(t, 9.0)),
    )
    queue = QueueParameters(
        q_init=np.array([4.0, 4.0]),
        arrivals=np.array([[3.4, 1.7, 0.0], [0.0, 2.55, 0.0]]),
        q_min=np.zeros(2),
        q_max=np.array([8.0, 8.0]),
    )
    buses = (Bus(1, np.array([4.0, 6.0, 5.0])), Bus(2, np.array([3.0, 5.0, 4.0])))
    lines = (Line(1, 1, 2, 50.0, 40.0),)
    gens = (Generator(1, 1, 30.0, 1.0, 25.0, 20.0, 20.0, 25.0, 25.0),)
    grid = GridCase(buses, lines, gens, slack_bus=1)
    inst = ProblemInstance(jobs, latmap, dcs, grid, queue)
    inst.validate()
    return inst


def tiny_config(**overrides):
    base = dict(
        shifting_mode="joint",
        eps_p=0.1,
        eps_e=0.1,
        delta_qos=8.0,
        c_penal=500.0,
        c_rc=6.0,
        c_rp=2.0,
        m_bar=0.4,
        var_horizons=(0.5, 1.0, 2.0),
        migration_cost=0.002,
    )
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="session")
def small_instance():
    inst, cfg, trace = build_synthetic(small_params(), seed=42)
    fitted = fit_signal_artifacts(trace, cfg)
    return inst, cfg, trace, fitted
