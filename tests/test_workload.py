import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcflex.workload import (
    COMPLETENESS_TOL,
    DataCenterSpec,
    InfeasibleBaseline,
    JobCluster,
    LatencyMap,
    baseline_assignment,
    baseline_latency_profile,
    load_matrix,
    qos_deviation,
    read_latency_csv,
    read_workload_csv,
    slot_latency,
    write_latency_csv,
    write_workload_csv,
)


def cluster(cid="j1", region="r1", slot=1, cls="deferrable", weight=1000.0,
            r_cpu=1.0, r_mem=1.0, r_io=0.5, d=1.7):
    return JobCluster(cid, region, slot, cls, weight, r_cpu, r_mem, r_io, d)


def dc_spec(dc_id=1, bus=1, t=3, cap=1e7, p_hi=100.0):
    shape = np.full(t, cap)
    return DataCenterSpec(dc_id, bus, shape, shape, shape,
                          np.zeros(t), np.full(t, p_hi))


def simple_latency(n_regions=2, n_dc=2):
    entries = {}
    for r in range(1, n_regions + 1):
        for l in range(1, n_dc + 1):
            entries[(f"r{r}", l)] = float(abs(r - l) * 4 + 5)
    return LatencyMap(entries)


def region_table(latmap, jobs, dc_ids):
    """The (clusters, DCs) latency table of ``jobs`` over ``dc_ids``."""
    return latmap.table([job.user_region for job in jobs], dc_ids)


class TestAggregateLoad:
    """Cluster energy aggregated into the (DC, slot) MW matrix of load_matrix."""

    def test_single_cluster_conversion(self):
        # 1000 tasks at 1.7 kWh/task fully placed in one 1 h slot -> 1.7 MW.
        jobs = [cluster()]
        x = np.zeros((1, 3, 2))
        x[0, 0, 0] = 1.0
        load = load_matrix(x, jobs, slot_hours=1.0)
        assert load.shape == (2, 3)
        assert load[0, 0] == pytest.approx(1.7)
        assert np.count_nonzero(load) == 1

    def test_zero_schedule(self):
        assert np.all(load_matrix(np.zeros((2, 3, 2)), [cluster(), cluster("j2")], 1.0) == 0.0)

    def test_symmetric_split(self):
        jobs = [cluster("a"), cluster("b")]
        x = np.zeros((2, 1, 2))
        x[0, 0, 0] = x[0, 0, 1] = 0.5
        x[1, 0, 0] = x[1, 0, 1] = 0.5
        load = load_matrix(x, jobs, 1.0)
        assert load[0, 0] == pytest.approx(load[1, 0])

    def test_node_id_layout(self):
        jobs = [cluster()]
        x = np.zeros((1, 3, 2))
        x[0, 2, 1] = 1.0  # slot 3, dc 2 -> node (2-1)*3 + 3 = 6
        load = load_matrix(x, jobs, 1.0)
        assert load[1, 2] == pytest.approx(1.7)
        assert load.reshape(-1)[5] == pytest.approx(1.7)

    @given(st.floats(0, 1), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, alpha, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        jobs = [cluster("a"), cluster("b", weight=500.0, d=0.9)]
        x1 = rng.random((2, 3, 2))
        x2 = rng.random((2, 3, 2))
        mixed = load_matrix(alpha * x1 + (1 - alpha) * x2, jobs, 1.0)
        parts = alpha * load_matrix(x1, jobs, 1.0) + (1 - alpha) * load_matrix(x2, jobs, 1.0)
        assert np.allclose(mixed, parts, atol=1e-9)


class TestEffectiveLatency:
    """Each slot's schedule-weighted latency, as slot_latency computes it."""

    def test_single_location(self):
        latmap = LatencyMap({("r1", 1): 5.0, ("r1", 2): 9.0})
        jobs = [cluster(), cluster("j2")]
        x = np.zeros((2, 1, 2))
        x[:, 0, 0] = 1.0
        values, held = slot_latency(x, region_table(latmap, jobs, [1, 2]))
        assert values[0] == pytest.approx(5.0) and held[0]

    def test_equal_weights_mean(self):
        latmap = LatencyMap({("r1", 1): 10.0, ("r2", 1): 20.0})
        jobs = [cluster(region="r1"), cluster("j2", region="r2")]
        x = np.zeros((2, 1, 1))
        x[:, 0, 0] = 1.0
        assert slot_latency(x, region_table(latmap, jobs, [1]))[0][0] == pytest.approx(15.0)

    def test_weighted_mean(self):
        latmap = LatencyMap({("r1", 1): 4.0, ("r2", 1): 8.0})
        jobs = [cluster(region="r1"), cluster("j2", region="r2")]
        x = np.zeros((2, 1, 1))
        x[0, 0, 0] = 0.25
        x[1, 0, 0] = 0.75
        assert slot_latency(x, region_table(latmap, jobs, [1]))[0][0] == pytest.approx(7.0)

    def test_empty_slot_flagged(self):
        latmap = LatencyMap({("r1", 1): 4.0})
        values, held = slot_latency(np.zeros((1, 2, 1)), region_table(latmap, [cluster()], [1]))
        assert values[1] == 0.0 and not held[1]


class TestBaselineAssignment:
    def test_single_job_single_dc(self):
        jobs = [cluster(cls="fixed")]
        latmap = LatencyMap({("r1", 1): 3.0})
        x = baseline_assignment(jobs, latmap, [dc_spec()])
        assert x.shape == (1, 3, 1) and x[0, 0, 0] == 1.0
        assert np.all((x >= -COMPLETENESS_TOL) & (x <= 1.0 + COMPLETENESS_TOL))
        assert np.all(np.abs(x.sum(axis=(1, 2)) - 1.0) <= COMPLETENESS_TOL)

    def test_spill_to_second_nearest_on_cpu(self):
        latmap = simple_latency()
        big = cluster("big", weight=900.0)
        late = cluster("late", weight=200.0)
        dcs = [dc_spec(1, 1, t=2, cap=1000.0), dc_spec(2, 2, t=2, cap=1000.0)]
        x = baseline_assignment([big, late], latmap, dcs)
        assert x[0, 0, 0] == 1.0  # nearest has room for the first cluster
        assert x[1, 0, 1] == 1.0  # second cluster spills to dc 2

    def test_infeasible_names_slot_and_resource(self):
        dcs = [dc_spec(1, 1, t=2, cap=100.0)]
        latmap = LatencyMap({("r1", 1): 3.0})
        with pytest.raises(InfeasibleBaseline, match="slot 1.*cpu"):
            baseline_assignment([cluster(weight=500.0)], latmap, dcs)

    def test_tiny_instance_matches_brute_force(self):
        # Exhaustive minimum-latency integral assignment oracle.
        latmap = simple_latency()
        jobs = [cluster("a", "r1", weight=600.0), cluster("b", "r2", weight=600.0),
                cluster("c", "r1", weight=600.0)]
        dcs = [dc_spec(1, 1, t=1, cap=1300.0), dc_spec(2, 2, t=1, cap=1300.0)]

        best_cost, best = None, None
        for combo in itertools.product(range(2), repeat=3):
            usage = [0.0, 0.0]
            for j, l in enumerate(combo):
                usage[l] += jobs[j].weight * jobs[j].r_cpu
            if any(u > 1300.0 for u in usage):
                continue
            cost = sum(latmap.latency(jobs[j].user_region, l + 1) for j, l in enumerate(combo))
            if best_cost is None or cost < best_cost - 1e-12:
                best_cost, best = cost, combo
        x = baseline_assignment(jobs, latmap, dcs)
        greedy_cost = sum(
            latmap.latency(jobs[j].user_region, int(np.argmax(x[j, 0])) + 1)
            for j in range(3)
        )
        assert greedy_cost == pytest.approx(best_cost)


class TestQosDeviation:
    def test_identity_is_exact_zero(self):
        latmap = simple_latency()
        jobs = [cluster("a", "r1"), cluster("b", "r2", slot=2)]
        dcs = [dc_spec(1, 1), dc_spec(2, 2)]
        x = baseline_assignment(jobs, latmap, dcs)
        assert np.all(qos_deviation(x, x, region_table(latmap, jobs, [1, 2])) == 0.0)

    def test_move_to_far_dc(self):
        latmap = LatencyMap({("r1", 1): 5.0, ("r1", 2): 9.0})
        jobs = [cluster("a", "r1"), cluster("b", "r1")]
        x_base = np.zeros((2, 1, 2))
        x_base[:, 0, 0] = 1.0
        x = np.zeros((2, 1, 2))
        x[:, 0, 1] = 1.0
        dev = qos_deviation(x, x_base, region_table(latmap, jobs, [1, 2]))
        assert dev[0] == pytest.approx(4.0)

    def test_empty_baseline_slot_uses_horizon_mean(self):
        latmap = LatencyMap({("r1", 1): 5.0})
        jobs = [cluster("a", "r1")]
        x_base = np.zeros((1, 2, 1))
        x_base[0, 0, 0] = 1.0
        profile = baseline_latency_profile(x_base, region_table(latmap, jobs, [1]))
        assert profile[1] == pytest.approx(5.0)

    def test_round_off_mass_is_not_work(self):
        latmap = LatencyMap({("r1", 1): 5.0, ("r1", 2): 9.0})
        jobs = [cluster("a", "r1")]
        x_base = np.zeros((1, 2, 2))
        x_base[0, 0, 0] = 1.0
        x = x_base.copy()
        x[0, 1, 1] = 5e-15  # a far DC in the slot the baseline leaves empty
        assert qos_deviation(x, x_base, region_table(latmap, jobs, [1, 2]))[1] == 0.0


class TestCsvIo:
    def test_workload_round_trip(self, tmp_path):
        jobs = [cluster(), cluster("j2", "r2", 2, "interactive", 10.5)]
        path = tmp_path / "workload.csv"
        write_workload_csv(jobs, path)
        assert read_workload_csv(path, 2) == jobs

    def test_latency_round_trip(self, tmp_path):
        latmap = simple_latency()
        path = tmp_path / "latency.csv"
        write_latency_csv(latmap, path)
        assert read_latency_csv(path).entries == latmap.entries

    def test_workload_header_enforced(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("id,region\nx,y\n")
        with pytest.raises(ValueError, match="header"):
            read_workload_csv(path, 2)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(
            "id,user_region,arrival_slot,class,weight,r_cpu,r_mem,r_io,d_kwh_per_task\n"
            "a,r1,1,deferrable,10,1,1,1,1.7\n"
            "b,r1,oops,deferrable,10,1,1,1,1.7\n"
        )
        with pytest.raises(ValueError, match="line 3"):
            read_workload_csv(path, 2)

    def test_bad_row_after_blank_rows_reports_its_file_line(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text(
            "id,user_region,arrival_slot,class,weight,r_cpu,r_mem,r_io,d_kwh_per_task\n"
            "a,r1,1,deferrable,10,1,1,1,1.7\n"
            "\n"
            "\n"
            "b,r1,1,deferrable,heavy,1,1,1,1.7\n"
        )
        with pytest.raises(ValueError, match=r"w\.csv line 5: "):
            read_workload_csv(path, 2)


def test_cluster_field_validation():
    with pytest.raises(ValueError):
        cluster(cls="batch")
    with pytest.raises(ValueError):
        cluster(weight=-1.0)
