import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import tiny_config, tiny_instance
from dcflex.artifacts import read_json, read_manifest, sha256_file, write_artifacts
from dcflex.grid import case_from_dict, validate_case
from dcflex.instance import (
    BUNDLE_FILES,
    DEMO_SEED,
    SIGNAL_COPY,
    GenParams,
    build_synthetic,
    cc_stress_params,
    default_var_horizons,
    demo_params,
    fit_signal_artifacts,
    generate_instance,
    load_bundle,
    save_bundle,
    small_params,
)
from dcflex.optimizer import ProblemInstance
from dcflex.signals import RegulationTrace
from dcflex.workload import COMPLETENESS_TOL, load_matrix


class TestSyntheticInstances:
    def test_demo_shape_matches_shipped_reduction(self):
        inst, cfg, trace = build_synthetic(demo_params(), seed=DEMO_SEED)
        assert inst.n_dc == 3
        assert len(inst.grid.buses) == 6
        assert len(inst.grid.generators) == 2
        assert inst.n_slots == 6

    def test_all_validators_accept_generated_instances(self):
        for seed in (1, 2, 3):
            inst, cfg, trace = build_synthetic(small_params(), seed=seed)
            inst.validate()
            assert validate_case(inst.grid) == []
            x = inst.x_base
            assert x.shape == (len(inst.jobs), inst.n_slots, inst.n_dc)
            assert np.all((x >= -COMPLETENESS_TOL) & (x <= 1.0 + COMPLETENESS_TOL))
            assert np.all(np.abs(x.sum(axis=(1, 2)) - 1.0) <= COMPLETENESS_TOL)

    def test_class_mix_spans_all_three(self):
        inst, _, _ = build_synthetic(demo_params(), seed=1)
        classes = {j.flex_class for j in inst.jobs}
        assert classes == {"fixed", "interactive", "deferrable"}
        # energy split roughly 50/30/20 by construction
        energy = {}
        for j in inst.jobs:
            energy[j.flex_class] = energy.get(j.flex_class, 0.0) + j.energy_mwh
        total = sum(energy.values())
        assert energy["fixed"] / total == pytest.approx(0.5, abs=0.2)

    def test_baseline_feasible_against_power_floor(self):
        inst, cfg, _ = build_synthetic(small_params(), seed=5)
        nodal = load_matrix(inst.x_base, inst.jobs, cfg.slot_hours)
        for l, dc in enumerate(inst.dcs):
            assert np.all(nodal[l] >= dc.p_min - 1e-9)
            assert np.all(nodal[l] <= dc.p_max + 1e-9)

    def test_queue_center_and_arrival_identity(self):
        inst, cfg, _ = build_synthetic(small_params(), seed=5)
        nodal = load_matrix(inst.x_base, inst.jobs, cfg.slot_hours)
        assert np.allclose(inst.queue.arrivals, nodal * cfg.slot_hours, atol=1e-5)
        assert np.all(inst.queue.q_init >= inst.queue.q_min)
        assert np.all(inst.queue.q_init <= inst.queue.q_max)

    def test_signal_sized_for_var_fitting(self):
        inst, cfg, trace = build_synthetic(small_params(), seed=9)
        fitted = fit_signal_artifacts(trace, cfg)
        assert min(fitted.var_table.n_windows) >= 30

    def test_default_horizons_include_full_horizon(self):
        hs = default_var_horizons(6, 1.0)
        assert 6.0 in hs and 0.25 in hs and 4.0 in hs
        assert default_var_horizons(3, 1.0)[-1] == 3.0

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError, match="buses"):
            build_synthetic(GenParams(n_dc=4, n_buses=3), seed=1)


class TestWriteArtifacts:
    def test_each_kind_of_content_and_the_manifest(self, tmp_path):
        out = tmp_path / "a" / "b"
        write_artifacts(out, {"doc.json": {"b": 1, "a": [1.5]}})
        paths = write_artifacts(out, {"t.csv": "x,y\r\n1,2\r\n",
                                      "s.bin": lambda path: path.write_bytes(b"\0\1")})
        assert paths == [out / "t.csv", out / "s.bin"]
        assert (out / "doc.json").read_text() == '{\n  "a": [\n    1.5\n  ],\n  "b": 1\n}\n'
        assert (out / "t.csv").read_bytes() == b"x,y\r\n1,2\r\n"
        assert (out / "s.bin").read_bytes() == b"\0\1"
        assert read_manifest(out) == {name: sha256_file(out / name)
                                      for name in ("doc.json", "t.csv", "s.bin")}

    def test_save_bundle_records_its_manifest(self, tmp_path):
        paths = save_bundle(tmp_path / "b", tiny_instance(), tiny_config(),
                            RegulationTrace(np.array([0.1, -0.2]), 4.0))
        assert [p.name for p in paths] == [*BUNDLE_FILES, SIGNAL_COPY]
        assert read_manifest(tmp_path / "b") == {p.name: sha256_file(p) for p in paths}


class TestBundleIo:
    def test_round_trip(self, tmp_path):
        params = small_params()
        generate_instance(params, 11, tmp_path / "b")
        inst, cfg, trace = load_bundle(tmp_path / "b")
        fresh, fresh_cfg, fresh_trace = build_synthetic(params, 11)
        assert inst.n_dc == fresh.n_dc
        assert [j.id for j in inst.jobs] == [j.id for j in fresh.jobs]
        assert np.allclose(trace.samples, fresh_trace.samples)
        assert cfg.var_horizons == fresh_cfg.var_horizons
        assert np.allclose(inst.queue.arrivals, fresh.queue.arrivals)

    def test_queue_bounds_survive_a_round_trip(self, tmp_path):
        inst = tiny_instance()
        narrowed = ProblemInstance(
            inst.jobs, inst.latency, inst.dcs, inst.grid,
            replace(inst.queue, q_min=np.array([1.0, 1.0]), q_max=np.array([6.0, 6.0])),
        )
        save_bundle(tmp_path / "b", narrowed, tiny_config(),
                    RegulationTrace(np.array([0.1, -0.2, 0.3, 0.0]), 4.0))
        back, _, _ = load_bundle(tmp_path / "b")
        assert back.queue.q_min.tolist() == [1.0, 1.0]
        assert back.queue.q_max.tolist() == [6.0, 6.0]

    def test_byte_identical_for_same_seed(self, tmp_path):
        generate_instance(small_params(), 42, tmp_path / "a")
        generate_instance(small_params(), 42, tmp_path / "b")
        for name in ("grid.json", "workload.csv", "latency.csv", "signal.csv",
                     "dc.json", "config.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_different_seed_differs(self, tmp_path):
        generate_instance(small_params(), 1, tmp_path / "a")
        generate_instance(small_params(), 2, tmp_path / "b")
        assert (tmp_path / "a" / "workload.csv").read_bytes() != (tmp_path / "b" / "workload.csv").read_bytes()

    def test_missing_file_reported(self, tmp_path):
        generate_instance(small_params(), 3, tmp_path / "b")
        (tmp_path / "b" / "dc.json").unlink()
        with pytest.raises(FileNotFoundError, match="dc.json"):
            load_bundle(tmp_path / "b")

    @pytest.mark.parametrize("field, value, message", [
        ("p_max", None, r"dc\.json: dcs\[1\] has no 'p_max'"),
        ("arrivals", [0.5], r"dc\.json: dcs\[1\] 'arrivals' has shape \(1,\); "
                            r"expected 4 values, one per slot"),
    ])
    def test_bad_dc_entry_names_file_dc_and_field(self, tmp_path, field, value, message):
        generate_instance(replace(small_params(), signal_days=1.0), 3, tmp_path)
        doc = json.loads((tmp_path / "dc.json").read_text())
        if value is None:
            del doc["dcs"][1][field]
        else:
            doc["dcs"][1][field] = value
        (tmp_path / "dc.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_bundle(tmp_path)

    def test_scalar_base_load_names_grid_json(self, tmp_path):
        generate_instance(replace(small_params(), signal_days=1.0), 3, tmp_path)
        doc = json.loads((tmp_path / "grid.json").read_text())
        doc["buses"][0]["base_load"] = 5
        (tmp_path / "grid.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"grid\.json: bus 1: base load must be a list"):
            load_bundle(tmp_path)


class TestDemoBundle:
    def test_bundled_case_is_valid(self, tmp_path):
        generate_instance(demo_params(), DEMO_SEED, tmp_path)
        case = read_json(tmp_path / "grid.json", case_from_dict)
        assert validate_case(case) == []
        assert len(case.buses) == 6 and len(case.generators) == 2


def test_cc_stress_preset_has_loose_caps():
    inst, cfg, trace = build_synthetic(cc_stress_params(), seed=100)
    nodal = load_matrix(inst.x_base, inst.jobs, cfg.slot_hours)
    for l, dc in enumerate(inst.dcs):
        active = nodal[l] > 0
        assert np.all(dc.p_max[active] >= 3.0 * nodal[l][active])
