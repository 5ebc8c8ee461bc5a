import contextlib
import csv
import hashlib
import io
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcflex.instance as instance
import dcflex.optimizer as optimizer
import dcflex.pool as pool
import dcflex.validate as validate
from dcflex.artifacts import SolverError
from dcflex.cli import (EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION,
                        main)
from dcflex.optimizer import ModelConfig
from dcflex.signals import RegulationTrace, read_trace_csv, write_trace_csv
from dcflex.validate import validate_solution
from test_mps import REFERENCE_SOLVER

MODEL_KEYS = tuple(ModelConfig.__dataclass_fields__)
NUMERIC_KEYS = ("eps_p", "eps_e", "delta_qos", "c_penal", "slot_hours", "c_rc", "c_rp",
                "var_horizons", "quantile_grid", "extra_signal_variance", "migration_cost",
                "fit_split", "compliance_threshold")
OUT_OF_RANGE = (("eps_p", 0.7), ("eps_e", 0.0), ("delta_qos", -1.0), ("slot_hours", 0.0),
                ("c_penal", -5.0), ("fit_split", 1.5), ("compliance_threshold", -5.0),
                ("forfeiture", "partial"), ("shifting_mode", "diagonal"),
                ("strategy", "solo"), ("signal_model", "laplace"), ("integral_x", "yes"))


def run_cli(argv):
    """main(argv) with stderr captured: (exit code, stderr lines)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue().splitlines()


def run_python(*argv):
    """Python in a child process; conftest puts this dcflex on its path."""
    return subprocess.run([sys.executable, *map(str, argv)], capture_output=True, text=True)


def run_child(*argv):
    """The CLI in a child process, so a traceback would reach its stderr."""
    return run_python("-m", "dcflex.cli", *argv)


# sha256 of simulate's seeded artifacts (--scenarios 4 --seed 7) for the
# solution of `solved_dir`. They pin the replay's bytes: a rewrite of the
# replay or of the series writer must leave them byte-identical.
REPLAY_SHA256 = {
    "sim_summary.json": "8870f69e6fd12fe3f73d4690cacb8c83e9f0b156d61b3df40879667903a1bb8f",
    "compliance.json": "e044a0b336753a63922a386f1d9c31a8b962bc8c5bd7e8ab957124a07f9b84d5",
    "series_scenario0.csv": "d3411c502b2520923c0ba9624a2131d21e8bcc206817e20de7e097f5ae0587ae",
}


# sha256 of the hand-fillable bundle records of `bundle` and of the
# solution.json of `solved_dir`. They pin the record codecs: a rewrite of a
# writer or a reader must leave every one of these files byte-identical.
BUNDLE_SHA256 = {
    "grid.json": "dee68a8a1a6f7fad0f5f4b58aed2f265ad4b18eb489aa8215662a8c328a5da95",
    "workload.csv": "41d3d4cdec84aaa199eb45663119bf50e8050b65c8dc43d9cde4874edc69812c",
    "latency.csv": "0f3257775c278e7b25418e6d1abea064d524ac78f162bf485dfdc80b3787af25",
    "dc.json": "a165d8da3749b45045f7c39b432228450a1cea7987d7683f9b1212401a581ff2",
    "config.json": "fa7dff30c19c66aba3029051c7ced85a6e51e7e7371516f9bf1490f4826304f2",
    "solution.json": "77b451de76133bb4240c68e076e1f196e69d6b052d569756d02cb2032e2ceb69",
}


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundles") / "b"
    code = main(["gen-instance", "--out", str(path), "--seed", "3",
                 "--preset", "small", "--quiet"])
    assert code == EXIT_OK
    return path


@pytest.fixture(scope="module")
def solved_dir(bundle, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "run"
    code = main(["solve", "--bundle", str(bundle), "--out", str(out),
                 "--mode", "joint", "--strategy", "cooperative", "--quiet"])
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def powerless_bundle(bundle, tmp_path_factory):
    """`bundle` with every DC's power bounds at 0: no cluster can complete."""
    path = shutil.copytree(bundle, tmp_path_factory.mktemp("bundles") / "powerless")
    doc = json.loads((path / "dc.json").read_text())
    for entry in doc["dcs"]:
        entry["p_min"] = entry["p_max"] = [0.0] * len(entry["p_max"])
    (path / "dc.json").write_text(json.dumps(doc))
    return path


def test_record_bytes_are_pinned(bundle, solved_dir):
    paths = {name: (solved_dir if name == "solution.json" else bundle) / name
             for name in BUNDLE_SHA256}
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in paths.items()}
    assert digests == BUNDLE_SHA256


def test_cli_import_loads_no_scipy():
    # Importing scipy.optimize about doubles a CLI process's resident memory.
    proc = run_python("-c", "import sys, dcflex.cli; "
                      "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


class TestGenInstance:
    def test_writes_manifest_with_all_files(self, bundle):
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert set(manifest) >= {"grid.json", "workload.csv", "latency.csv",
                                 "signal.csv", "signal.npy", "dc.json", "config.json"}

    def test_seed_reproducibility_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["gen-instance", "--out", str(tmp_path / sub), "--seed", "9",
                         "--preset", "small", "--quiet"]) == EXIT_OK
        ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
        mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert ma == mb

    def test_seed_is_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["gen-instance", "--out", str(tmp_path / "x")])

    def test_signal_interval_must_divide_the_slot(self, tmp_path, capsys):
        code = main(["gen-instance", "--out", str(tmp_path / "b"), "--seed", "1",
                     "--preset", "small", "--signal-dt", "7", "--quiet"])
        assert code == EXIT_INPUT
        assert "does not divide" in capsys.readouterr().err

    @pytest.mark.parametrize("args, setting", [
        (("--gens", "4"), "n_gens"),
        (("--gens", "5"), "n_gens"),
        (("--signal-dt", "0"), "signal_dt_seconds"),
        (("--signal-dt", "nan"), "signal_dt_seconds"),
        (("--clusters", "0"), "n_clusters"),
        (("--buses", "1"), "buses"),
        (("--n-dc", "0"), "n_dc"),
        (("--slots", "0"), "n_slots"),
    ])
    def test_bad_shape_exits_4_with_one_line(self, tmp_path, args, setting):
        proc = run_child("gen-instance", "--out", tmp_path / "b", "--seed", 7,
                         "--preset", "demo", *args)
        lines = proc.stderr.splitlines()
        assert proc.returncode == EXIT_INPUT and len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: ") and setting in lines[0], lines
        assert not (tmp_path / "b").exists()

    def test_one_cluster_bundle_generates_solves_and_validates(self, tmp_path):
        bundle, out = tmp_path / "one", tmp_path / "o"
        assert main(["gen-instance", "--out", str(bundle), "--seed", "7",
                     "--preset", "demo", "--clusters", "1", "--quiet"]) == EXIT_OK
        assert main(["solve", "--bundle", str(bundle), "--out", str(out),
                     "--quiet"]) == EXIT_OK
        assert json.loads((out / "validation.json").read_text())["ok"] is True
        assert json.loads((out / "solution.json").read_text())["dims"]["clusters"] == 1

    def test_dimension_overrides(self, tmp_path):
        out = tmp_path / "c"
        assert main(["gen-instance", "--out", str(out), "--seed", "1",
                     "--n-dc", "2", "--slots", "3", "--clusters", "5",
                     "--buses", "4", "--gens", "2", "--signal-days", "7",
                     "--quiet"]) == EXIT_OK
        dcs = json.loads((out / "dc.json").read_text())["dcs"]
        assert len(dcs) == 2 and len(dcs[0]["cpu_cap"]) == 3


class TestFitSignal:
    def test_artifacts_and_dominance(self, bundle, tmp_path):
        out = tmp_path / "fit"
        assert main(["fit-signal", "--trace", str(bundle / "signal.csv"),
                     "--out", str(out), "--quiet"]) == EXIT_OK
        env = json.loads((out / "envelope.json").read_text())
        report = json.loads((out / "fit_report.json").read_text())
        assert env["sigma"] >= 0.0
        assert all(m["dominance_margin"] >= -1e-9 for m in report["dominance"])
        table = json.loads((out / "var_table.json").read_text())
        assert all(lo <= hi for lo, hi in zip(table["s_low"], table["s_high"]))

    def test_malformed_trace_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,s\n0,0.1\n2,oops\n")
        code = main(["fit-signal", "--trace", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("body", ["nan,0.1\n2,0.2\n", "0,0.1\n2,nan\n"])
    def test_nan_trace_exits_4_with_one_line(self, tmp_path, body):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,s\n" + body)
        code, lines = run_cli(["fit-signal", "--trace", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT
        assert len(lines) == 1 and lines[0].startswith("error:"), lines

    @pytest.mark.parametrize("body, line", [
        ("0,0.1\n2,0.2\n5,0.3\n", 4),            # the row after the gap
        ("0,0.1\n\nnan,0.2\n", 4),
        ("0,0.1\n\n2,0.2\n\n5,0.3\n", 6),
        ("0,0.1\n2,nan\n", 3),
    ])
    def test_trace_fault_names_path_and_file_line(self, tmp_path, body, line):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,s\n" + body)
        code, lines = run_cli(["fit-signal", "--trace", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT and len(lines) == 1, lines
        assert lines[0].startswith(f"error: {bad} line {line}: "), lines


class TestSolve:
    def test_solution_and_validation_artifacts(self, solved_dir):
        sol = json.loads((solved_dir / "solution.json").read_text())
        val = json.loads((solved_dir / "validation.json").read_text())
        assert sol["status"] == "optimal"
        assert val["ok"] is True
        br = sol["breakdown"]
        recon = (br["generation_cost"] + br["penalty_cost"] + br["migration_cost"]
                 - br["regulation_revenue"])
        assert abs(recon - br["net_cost"]) <= 1e-6 * max(1.0, abs(br["net_cost"]))

    def test_mode_none_less_flexible_than_joint(self, bundle, tmp_path):
        outs = {}
        for mode in ("none", "joint"):
            out = tmp_path / mode
            assert main(["solve", "--bundle", str(bundle), "--out", str(out),
                         "--mode", mode, "--quiet"]) == EXIT_OK
            outs[mode] = json.loads((out / "solution.json").read_text())["objective_total"]
        assert outs["joint"] <= outs["none"] + 1e-6 * max(1.0, abs(outs["none"]))

    def test_missing_bundle_exits_4(self, tmp_path):
        assert main(["solve", "--bundle", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o"), "--quiet"]) == EXIT_INPUT

    def test_bundle_signal_interval_must_divide_the_slot(self, bundle, tmp_path, capsys):
        skewed = tmp_path / "skewed"
        shutil.copytree(bundle, skewed)
        trace = read_trace_csv(skewed / "signal.csv")
        write_trace_csv(RegulationTrace(trace.samples, 7.0), skewed / "signal.csv")
        code = main(["solve", "--bundle", str(skewed), "--out", str(tmp_path / "o"), "--quiet"])
        assert code == EXIT_INPUT
        assert "does not divide" in capsys.readouterr().err

    def test_unhostable_cluster_exits_4_with_one_line(self, bundle, tmp_path):
        cramped = tmp_path / "cramped"
        shutil.copytree(bundle, cramped)
        dc_doc = json.loads((cramped / "dc.json").read_text())
        for entry in dc_doc["dcs"]:
            entry["cpu_cap"] = [1.0] * len(entry["cpu_cap"])
        (cramped / "dc.json").write_text(json.dumps(dc_doc))
        proc = run_child("solve", "--bundle", cramped, "--out", tmp_path / "o", "--quiet")
        lines = proc.stderr.splitlines()
        assert proc.returncode == EXIT_INPUT and len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: ") and "cpu" in lines[0], lines

    @pytest.mark.parametrize("key, value", [
        ("bus", 1.7), ("id", 2.5), ("id", True), ("bus", "2")])
    def test_non_integral_dc_id_or_bus_exits_4_with_one_line(self, bundle, tmp_path,
                                                              key, value):
        broken = tmp_path / "broken"
        shutil.copytree(bundle, broken)
        doc = json.loads((broken / "dc.json").read_text())
        doc["dcs"][1][key] = value
        (broken / "dc.json").write_text(json.dumps(doc))
        code, lines = run_cli(["solve", "--bundle", str(broken),
                               "--out", str(tmp_path / "o"), "--quiet"])
        assert code == EXIT_INPUT and lines == [
            f"error: {broken / 'dc.json'}: dcs[1] {key!r} must be an integer, got {value!r}"]

    @pytest.mark.parametrize("where, value", [
        ("generators[0].bus", 4.5), ("slack_bus", 1.9), ("buses[1].id", 2.5),
        ("lines[0].from_bus", True), ("lines[0].id", 0.5)])
    def test_non_integral_grid_id_or_bus_exits_4_with_one_line(self, bundle, tmp_path,
                                                               where, value):
        broken = tmp_path / "broken"
        shutil.copytree(bundle, broken)
        doc = node = json.loads((broken / "grid.json").read_text())
        *path, field = where.replace("[", ".").replace("]", "").split(".")
        for key in path:
            node = node[int(key) if key.isdigit() else key]
        node[field] = value
        (broken / "grid.json").write_text(json.dumps(doc))
        code, lines = run_cli(["solve", "--bundle", str(broken),
                               "--out", str(tmp_path / "o"), "--quiet"])
        assert code == EXIT_INPUT and lines == [
            f"error: {broken / 'grid.json'}: {where} must be an integer, got {value!r}"]

    @pytest.mark.parametrize("name, keys", [
        ("dc.json", ("dcs", 0, "p_max")), ("grid.json", ("buses", 0, "base_load")),
        ("latency.csv", ("latency",)), ("workload.csv", ("weight",))],
        ids=["dc_p_max", "grid_base_load", "latency", "workload_weight"])
    def test_non_finite_bundle_number_exits_4_with_one_line(self, bundle, tmp_path, name, keys):
        broken = tmp_path / "broken"
        shutil.copytree(bundle, broken)
        path = broken / name
        if name.endswith(".json"):
            doc = node = json.loads(path.read_text())
            for key in keys:
                node = node[key]
            node[0] = float("nan")
            path.write_text(json.dumps(doc))
        else:
            rows = list(csv.reader(path.read_text().splitlines()))
            rows[1][rows[0].index(keys[0])] = "nan"
            path.write_text("\n".join(",".join(row) for row in rows) + "\n")
        proc = run_child("solve", "--bundle", broken, "--out", tmp_path / "o", "--quiet")
        lines = proc.stderr.splitlines()
        assert proc.returncode == EXIT_INPUT and len(lines) == 1, proc.stderr
        assert name in lines[0] and keys[-1] in lines[0], lines
        if name.endswith(".csv"):
            assert "line 2" in lines[0], lines

    def test_solver_failure_exits_5_without_traceback(self, bundle, tmp_path):
        proc = run_child("solve", "--bundle", bundle, "--out", tmp_path / "o",
                         "--backend", "cmd:false", "--quiet")
        assert proc.returncode == EXIT_SOLVER
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        # `false` writes nothing to stderr: the line names the model and
        # does not end in a dangling colon.
        assert "coopt" in proc.stderr and not proc.stderr.rstrip().endswith(":")

    def test_non_finite_external_value_exits_5_with_one_line(self, bundle, tmp_path):
        # The reference solver, then its first value overwritten with nan.
        script = tmp_path / "nan_solver.py"
        script.write_text(REFERENCE_SOLVER + (
            "lines = open(sys.argv[2]).read().splitlines()\n"
            "lines[0] = lines[0].split()[0] + ' nan'\n"
            "open(sys.argv[2], 'w').write('\\n'.join(lines) + '\\n')\n"))
        proc = run_child("solve", "--bundle", bundle, "--out", tmp_path / "o",
                         "--backend", f"cmd:{sys.executable} {script}", "--quiet")
        lines = proc.stderr.splitlines()
        assert proc.returncode == EXIT_SOLVER and len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: ") and "has value nan" in lines[0], lines
        assert not (tmp_path / "o" / "solution.json").exists()

    def test_model_over_tableau_budget_exits_5_with_one_line(self, bundle, tmp_path):
        # The budget is a constant, so the child lowers it before running main.
        code = ("import sys; import dcflex.simplex as s; s.MAX_TABLEAU_BYTES = 1024; "
                "from dcflex.cli import main; sys.exit(main(sys.argv[1:]))")
        proc = run_python("-c", code, "solve", "--bundle", bundle, "--out", tmp_path / "o",
                          "--quiet")
        assert proc.returncode == EXIT_SOLVER
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: model coopt: ")
        assert "MB budget" in lines[0] and "--backend cmd:" in lines[0]

    @pytest.mark.parametrize("backend", ["cmd:", "cmd:   "], ids=["empty", "spaces"])
    def test_cmd_backend_without_a_command_exits_4_with_one_line(self, bundle, tmp_path,
                                                                 backend):
        code, lines = run_cli(["solve", "--bundle", str(bundle), "--out", str(tmp_path / "o"),
                               "--backend", backend, "--quiet"])
        assert code == EXIT_INPUT and len(lines) == 1, lines
        assert lines[0].startswith(f"error: unknown backend {backend!r}"), lines

    def test_reproducible_solution_bytes(self, bundle, tmp_path):
        blobs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert main(["solve", "--bundle", str(bundle), "--out", str(out),
                         "--mode", "joint", "--quiet"]) == EXIT_OK
            blobs.append((out / "solution.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_infeasible_model_exits_2_naming_the_binding_families(self, powerless_bundle,
                                                                 tmp_path):
        code, lines = run_cli(["solve", "--bundle", str(powerless_bundle),
                               "--out", str(tmp_path / "o"), "--quiet"])
        assert code == EXIT_INFEASIBLE
        assert lines[0] == "infeasible: model coopt is infeasible", lines
        families = [line.split(":")[0] for line in lines[1:]]
        assert families == ["  binding family done", "  binding family pcap"], lines
        assert not (tmp_path / "o").exists()

    def test_solution_file_that_omits_values_exits_5_with_one_line(self, bundle, tmp_path):
        # An external solver that reports one variable: every other is read
        # as 0, so the point breaks the completion rows.
        script = tmp_path / "one_value.py"
        script.write_text("import sys\nopen(sys.argv[2], 'w').write('p_1_1 0\\n')\n")
        out = tmp_path / "o"
        proc = run_child("solve", "--bundle", bundle, "--out", out,
                         "--backend", f"cmd:{sys.executable} {script}", "--quiet")
        lines = proc.stderr.splitlines()
        assert proc.returncode == EXIT_SOLVER and len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: model coopt: "), lines
        assert "solver point breaks the presolved model by " in lines[0], lines
        assert not out.exists()

    def test_external_solver_that_writes_no_file_exits_5_naming_it(self, bundle, tmp_path):
        script = tmp_path / "silent.py"
        script.write_text("import sys\n")
        out = tmp_path / "o"
        proc = run_child("solve", "--bundle", bundle, "--out", out,
                         "--backend", f"cmd:{sys.executable} {script}", "--quiet")
        lines = proc.stderr.splitlines()
        assert proc.returncode == EXIT_SOLVER and len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: external solver wrote no solution file at "), lines
        assert lines[0].endswith("coopt.sol"), lines
        assert not out.exists()

    def test_solution_that_fails_validation_exits_3(self, bundle, tmp_path, monkeypatch,
                                                    capsys):
        monkeypatch.setattr(validate, "validate_solution", violating("cooperative"))
        out = tmp_path / "o"
        assert main(["solve", "--bundle", str(bundle), "--out", str(out)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "  violation: completion at cluster c01: 1.000e+00" in captured.out, captured.out
        assert captured.err == ""
        assert json.loads((out / "validation.json").read_text())["ok"] is False


def violating(strategy):
    """validate_solution, with one completion violation added to the report
    of every solve under ``strategy``."""
    def check(inst, cfg, fitted, solution):
        report = validate_solution(inst, cfg, fitted, solution)
        if cfg.strategy == strategy:
            report.add("completion", 1.0, "cluster c01")
        return report
    return check


@pytest.fixture
def text_parses(monkeypatch):
    """The paths load_bundle hands to the text parse, read_trace_csv."""
    seen = []

    def spy(path):
        seen.append(path)
        return read_trace_csv(path)

    monkeypatch.setattr(instance, "read_trace_csv", spy)
    return seen


def edit_sample(path, k, value: bytes) -> None:
    """Replace the value of sample k (file line k + 2) of a generated signal.csv."""
    lines = path.read_bytes().split(b"\r\n")
    lines[k + 1] = lines[k + 1].split(b",")[0] + b"," + value
    path.write_bytes(b"\r\n".join(lines))


def same_trace(a, b) -> bool:
    return a.samples.tobytes() == b.samples.tobytes() and a.dt_seconds == b.dt_seconds


def vouch(bundle, data: bytes) -> None:
    """Write signal.npy and record its digest, as if gen-instance had."""
    instance.write_artifacts(bundle, {"signal.npy": lambda path: path.write_bytes(data)})


def npy_bytes(array) -> bytes:
    out = io.BytesIO()
    np.save(out, array)
    return out.getvalue()


class TestBundleSignalCopy:
    """signal.npy is read only while the manifest vouches for it and for
    signal.csv; otherwise the text is parsed, so edits to it take effect."""

    @pytest.fixture
    def copied(self, bundle, tmp_path):
        return shutil.copytree(bundle, tmp_path / "b")

    def test_a_vouched_copy_replaces_the_text_parse(self, bundle, text_parses):
        _, _, trace = instance.load_bundle(bundle)
        assert text_parses == []
        assert same_trace(trace, read_trace_csv(bundle / "signal.csv"))

    def test_a_hand_edit_to_the_text_takes_effect(self, copied, text_parses):
        edit_sample(copied / "signal.csv", 3, b"0.123")
        _, _, trace = instance.load_bundle(copied)
        assert text_parses == [copied / "signal.csv"] and trace.samples[3] == 0.123
        assert same_trace(trace, read_trace_csv(copied / "signal.csv"))

    def test_a_nan_in_the_text_exits_4_naming_file_and_line(self, copied, tmp_path):
        edit_sample(copied / "signal.csv", 3, b"nan")
        code, lines = run_cli(["solve", "--bundle", str(copied), "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT
        assert lines == [f"error: {copied / 'signal.csv'} line 5: signal value nan "
                         f"is outside [-1, 1]"]

    @pytest.mark.parametrize("damage", [
        lambda b: (b / "signal.npy").write_bytes((b / "signal.npy").read_bytes()[:1000]),
        lambda b: (b / "signal.npy").write_bytes(b"not an array"),
        lambda b: (b / "signal.npy").unlink(),
        lambda b: (b / "manifest.json").unlink(),
        lambda b: (b / "manifest.json").write_text("[]"),
        lambda b: vouch(b, b"not an array"),
        lambda b: vouch(b, npy_bytes(np.zeros(4))),
        lambda b: vouch(b, npy_bytes(np.zeros((4, 2), dtype=np.float32))),
        lambda b: vouch(b, b""),
        lambda b: vouch(b, (b / "signal.npy").read_bytes()[:1000]),
    ], ids=["truncated", "garbage", "deleted", "no_manifest", "manifest_not_an_object",
            "vouched_garbage", "vouched_1d", "vouched_float32", "vouched_empty",
            "vouched_truncated"])
    def test_a_damaged_copy_or_manifest_falls_back_to_the_text(self, copied, text_parses,
                                                                damage):
        damage(copied)
        _, _, trace = instance.load_bundle(copied)
        assert text_parses == [copied / "signal.csv"]
        assert same_trace(trace, read_trace_csv(copied / "signal.csv"))


    def test_fit_signal_reads_a_vouched_copy(self, bundle, text_parses, tmp_path):
        assert main(["fit-signal", "--trace", str(bundle / "signal.csv"),
                     "--out", str(tmp_path / "copy"), "--quiet"]) == EXIT_OK
        assert text_parses == []
        alone = tmp_path / "alone"
        alone.mkdir()
        shutil.copy(bundle / "signal.csv", alone / "signal.csv")
        assert main(["fit-signal", "--trace", str(alone / "signal.csv"),
                     "--out", str(tmp_path / "text"), "--quiet"]) == EXIT_OK
        assert text_parses == [alone / "signal.csv"]
        for name in ("envelope.json", "var_table.json", "fit_report.json"):
            assert (tmp_path / "copy" / name).read_bytes() == \
                (tmp_path / "text" / name).read_bytes(), name

    def test_only_signal_csv_is_read_from_the_copy(self, copied, text_parses):
        # Another CSV in a bundle can be vouched by the same manifest, as when
        # a command writes its --out into the bundle directory.
        edited = copied / "edited.csv"
        shutil.copy(copied / "signal.csv", edited)
        edit_sample(edited, 3, b"0.123")
        instance.write_artifacts(copied, {"edited.csv": edited.read_bytes().decode()})
        trace = instance.read_signal(edited)
        assert text_parses == [edited] and trace.samples[3] == 0.123

    def test_fit_signal_parses_a_hand_edited_text(self, copied, text_parses, tmp_path):
        edit_sample(copied / "signal.csv", 3, b"nan")
        code, lines = run_cli(["fit-signal", "--trace", str(copied / "signal.csv"),
                               "--out", str(tmp_path / "o")])
        assert code == EXIT_INPUT and text_parses == [copied / "signal.csv"]
        assert lines == [f"error: {copied / 'signal.csv'} line 5: signal value nan "
                         f"is outside [-1, 1]"]


class TestSimulate:
    def test_summary_and_series(self, bundle, solved_dir, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--bundle", str(bundle),
                     "--solution", str(solved_dir / "solution.json"),
                     "--out", str(out), "--scenarios", "4", "--seed", "7",
                     "--quiet"]) == EXIT_OK
        summary = json.loads((out / "sim_summary.json").read_text())
        assert summary["scenarios"] == 4
        assert 0.0 <= summary["power_violation_rate_mean"] <= 1.0
        assert (out / "series_scenario0.csv").exists()
        assert (out / "frontier.csv").exists()

    def test_replay_bytes_are_pinned(self, bundle, solved_dir, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--bundle", str(bundle),
                     "--solution", str(solved_dir / "solution.json"),
                     "--out", str(out), "--scenarios", "4", "--seed", "7",
                     "--quiet"]) == EXIT_OK
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in REPLAY_SHA256}
        assert digests == REPLAY_SHA256

    def test_seeded_rerun_same_digest(self, bundle, solved_dir, tmp_path):
        digests = []
        for sub in ("s1", "s2"):
            out = tmp_path / sub
            assert main(["simulate", "--bundle", str(bundle),
                         "--solution", str(solved_dir / "solution.json"),
                         "--out", str(out), "--scenarios", "3", "--seed", "5",
                         "--quiet"]) == EXIT_OK
            digests.append(json.loads((out / "sim_summary.json").read_text())["digest"])
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("break_solution, named", [
        (lambda doc: doc["x"][0].__setitem__(0, 99), "x entry"),
        (lambda doc: doc["x"][0].__setitem__(0, 1.5), "x entry"),
        (lambda doc: doc["x"].__setitem__(0, [True, 1, True, 0.5]), "x entry"),
        (lambda doc: doc["x"][0].__setitem__(3, float("nan")), "x[0][3] must be finite"),
        (lambda doc: doc["R"].pop(), "R has shape"),
        (lambda doc: [row.pop() for row in doc["R"]], "R has shape"),
        (lambda doc: doc["R"][0].__setitem__(0, float("inf")), "R[0][0] must be finite"),
        (lambda doc: doc["dims"].__setitem__("clusters", doc["dims"]["clusters"] + 1),
         "(clusters, slots, dcs)"),
    ], ids=["x_outside_dims", "x_cell_not_an_integer", "x_cell_a_bool", "x_value_nan",
            "R_missing_a_dc", "R_missing_a_slot", "R_value_infinite", "dims_off_the_bundle"])
    def test_solution_that_does_not_fit_exits_4_with_one_line(self, bundle, solved_dir,
                                                              tmp_path, break_solution, named):
        doc = json.loads((solved_dir / "solution.json").read_text())
        break_solution(doc)
        path = tmp_path / "solution.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "sim"
        proc = run_child("simulate", "--bundle", bundle, "--solution", path,
                         "--out", out, "--scenarios", "2", "--seed", "7", "--quiet")
        lines = proc.stderr.splitlines()
        assert proc.returncode == EXIT_INPUT and len(lines) == 1, proc.stderr
        assert lines[0].startswith(f"error: {path}: {named}"), lines
        assert not (out / "sim_summary.json").exists()


class TestCompare:
    def test_three_strategies_sorted_by_construction(self, bundle, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--bundle", str(bundle), "--out", str(out),
                     "--strategies", "cooperative,independent,decoupled",
                     "--modes", "joint", "--quiet"]) == EXIT_OK
        with open(out / "compare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        net = {r["strategy"]: float(r["net_cost_kusd"]) for r in rows}
        assert net["cooperative"] <= net["independent"] + 1e-9
        assert net["independent"] <= net["decoupled"] + 1e-9
        assert (out / "loadcurve_cooperative_joint.csv").exists()

    def test_single_cell_table(self, bundle, tmp_path):
        out = tmp_path / "one"
        assert main(["compare", "--bundle", str(bundle), "--out", str(out),
                     "--strategies", "cooperative", "--modes", "joint",
                     "--quiet"]) == EXIT_OK
        with open(out / "compare.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == 1

    def test_four_modes_for_load_curves(self, bundle, tmp_path):
        out = tmp_path / "modes"
        assert main(["compare", "--bundle", str(bundle), "--out", str(out),
                     "--strategies", "cooperative",
                     "--modes", "none,spatial,temporal,joint", "--quiet"]) == EXIT_OK
        with open(out / "compare.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        curves = [p.name for p in out.iterdir() if p.name.startswith("loadcurve_")]
        assert len(curves) == 4

    @pytest.mark.parametrize("strategies, modes, bad", [
        ("cooperative,bogus", "joint", "bogus"),
        ("cooperative", "joint,sideways", "sideways"),
        ("cooperative,decoupled,cooperative", "joint", "cooperative"),
        ("cooperative", "joint,none,joint", "joint"),
    ])
    def test_bad_cell_exits_4_before_any_solve(self, bundle, tmp_path, strategies, modes,
                                               bad):
        out = tmp_path / "bad"
        code, lines = run_cli(["compare", "--bundle", str(bundle), "--out", str(out),
                               "--strategies", strategies, "--modes", modes, "--quiet"])
        assert code == EXIT_INPUT and len(lines) == 1, lines
        assert lines[0].startswith("error: ") and repr(bad) in lines[0], lines
        assert not out.exists()


    def test_cmd_backend_without_a_command_exits_4_with_one_line(self, bundle, tmp_path):
        code, lines = run_cli(["compare", "--bundle", str(bundle), "--out", str(tmp_path / "c"),
                               "--backend", "cmd:", "--quiet"])
        assert code == EXIT_INPUT and len(lines) == 1, lines
        assert lines[0].startswith("error: unknown backend 'cmd:'"), lines

    def test_no_solvable_cell_exits_2_recording_the_families(self, powerless_bundle,
                                                             tmp_path):
        out = tmp_path / "cmp"
        code, lines = run_cli(["compare", "--bundle", str(powerless_bundle), "--out", str(out),
                               "--quiet"])
        assert code == EXIT_INFEASIBLE and lines == []
        doc = json.loads((out / "compare.json").read_text())
        assert doc["rows"] == []
        assert [(e["strategy"], e["mode"], e["error"]) for e in doc["errors"]] == [
            ("cooperative", "joint", "model coopt is infeasible")]
        assert list(doc["errors"][0]["families"]) == ["done", "pcap"]

    def test_cell_that_fails_validation_is_an_error_row(self, bundle, tmp_path, monkeypatch):
        monkeypatch.setattr(validate, "validate_solution", violating("decoupled"))
        out = tmp_path / "cmp"
        assert main(["compare", "--bundle", str(bundle), "--out", str(out),
                     "--strategies", "cooperative,decoupled", "--modes", "joint",
                     "--quiet"]) == EXIT_OK
        doc = json.loads((out / "compare.json").read_text())
        assert [(r["strategy"], r["mode"]) for r in doc["rows"]] == [("cooperative", "joint")]
        assert doc["errors"] == [{"strategy": "decoupled", "mode": "joint",
                                  "error": "1 validation violations"}]
        assert not (out / "loadcurve_decoupled_joint.csv").exists()

    def test_no_cell_that_passes_validation_exits_3(self, bundle, tmp_path, monkeypatch):
        monkeypatch.setattr(validate, "validate_solution", violating("decoupled"))
        out = tmp_path / "cmp"
        code, lines = run_cli(["compare", "--bundle", str(bundle), "--out", str(out),
                               "--strategies", "decoupled", "--modes", "joint,none",
                               "--quiet"])
        assert code == EXIT_VALIDATION and lines == []
        doc = json.loads((out / "compare.json").read_text())
        assert doc["rows"] == []
        assert [(e["strategy"], e["mode"], e["error"]) for e in doc["errors"]] == [
            ("decoupled", "joint", "1 validation violations"),
            ("decoupled", "none", "1 validation violations")]

    @pytest.mark.parametrize("strategies, modes", [
        ("cooperative,independent,decoupled", "joint"),
        ("cooperative", "none,spatial,temporal,joint"),
    ])
    def test_bytes_do_not_depend_on_usable_cpus(self, bundle, tmp_path, monkeypatch,
                                                strategies, modes):
        files = {}
        for cpus in (1, 2):
            monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            assert main(["compare", "--bundle", str(bundle), "--out", str(out),
                         "--strategies", strategies, "--modes", modes,
                         "--quiet"]) == EXIT_OK
            assert multiprocessing.active_children() == []
            files[cpus] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert files[1] == files[2]

    @staticmethod
    def failing(monkeypatch, fail):
        """run_strategy raising the SolverError ``fail(cfg)`` returns, if any."""
        run_strategy = optimizer.run_strategy

        def run(inst, cfg, fitted, backend):
            exc = fail(cfg)
            if exc is not None:
                raise exc
            return run_strategy(inst, cfg, fitted, backend=backend)

        monkeypatch.setattr(optimizer, "run_strategy", run)

    def run_three(self, bundle, out):
        code, lines = run_cli(["compare", "--bundle", str(bundle), "--out", str(out),
                               "--strategies", "cooperative,independent,decoupled",
                               "--modes", "joint", "--quiet"])
        assert not out.exists() and multiprocessing.active_children() == []
        return code, lines

    def test_solver_error_in_a_worker_exits_5_as_in_process(self, bundle, tmp_path,
                                                           monkeypatch):
        parent = os.getpid()
        seen = {}
        for cpus in (1, 2):
            monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
            # With two CPUs, only a worker raises.
            self.failing(monkeypatch, lambda cfg: SolverError("model indep: no optimum")
                         if cfg.strategy == "independent" and (cpus == 1 or os.getpid() != parent)
                         else None)
            seen[cpus] = self.run_three(bundle, tmp_path / f"cpus{cpus}")
        assert seen[1] == seen[2] == (EXIT_SOLVER, ["error: model indep: no optimum"])

    def test_of_two_failing_cells_the_first_in_order_is_named(self, bundle, tmp_path,
                                                              monkeypatch):
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)

        def fail(cfg):
            if cfg.strategy == "independent":
                time.sleep(0.5)  # the later cell fails first
            if cfg.strategy != "cooperative":
                return SolverError(f"model {cfg.strategy}: no optimum")
            return None

        self.failing(monkeypatch, fail)
        assert self.run_three(bundle, tmp_path / "cmp") == (
            EXIT_SOLVER, ["error: model independent: no optimum"])

    def test_a_worker_that_dies_exits_5_with_one_line(self, bundle, tmp_path, monkeypatch):
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
        parent = os.getpid()

        def die_in_a_worker(cfg):
            if os.getpid() != parent:
                os._exit(1)

        self.failing(monkeypatch, die_in_a_worker)
        assert self.run_three(bundle, tmp_path / "cmp") == (
            EXIT_SOLVER, ["error: compare cell cooperative/joint: its worker process died"])


class TestExperimentConfig:
    def test_config_file_supplies_model_and_sim_settings(self, bundle, solved_dir, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({
            "scenarios": 2,
            "seed": 13,
            "threshold": 0.5,
            "model": {"eps_p": 0.1},
        }))
        out = tmp_path / "sim"
        assert main(["simulate", "--bundle", str(bundle),
                     "--solution", str(solved_dir / "solution.json"),
                     "--out", str(out), "--config", str(cfg_path),
                     "--quiet"]) == EXIT_OK
        summary = json.loads((out / "sim_summary.json").read_text())
        assert summary["scenarios"] == 2

    def test_flags_override_config_file(self, bundle, solved_dir, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"scenarios": 2, "seed": 13}))
        out = tmp_path / "sim"
        assert main(["simulate", "--bundle", str(bundle),
                     "--solution", str(solved_dir / "solution.json"),
                     "--out", str(out), "--config", str(cfg_path),
                     "--scenarios", "3", "--quiet"]) == EXIT_OK
        summary = json.loads((out / "sim_summary.json").read_text())
        assert summary["scenarios"] == 3

    def test_missing_seed_is_config_error(self, bundle, solved_dir, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--bundle", str(bundle),
                     "--solution", str(solved_dir / "solution.json"),
                     "--out", str(out), "--quiet"]) == EXIT_INPUT

    def test_unknown_config_key_rejected(self, bundle, tmp_path):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"scenarioz": 2}))
        assert main(["solve", "--bundle", str(bundle),
                     "--out", str(tmp_path / "o"), "--config", str(cfg_path),
                     "--quiet"]) == EXIT_INPUT

    @pytest.mark.parametrize("key, value", [
        ("seed", "x"), ("seed", True), ("scenarios", "many"), ("scenarios", 0),
        ("backend", 5), ("bundle", ["b"])])
    def test_config_top_level_type_exits_4_with_one_line(self, bundle, solved_dir, tmp_path,
                                                         key, value):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"seed": 1, key: value}))
        proc = run_child("simulate", "--bundle", bundle, "--out", tmp_path / "sim",
                         "--solution", solved_dir / "solution.json",
                         "--config", cfg_path, "--quiet")
        assert proc.returncode == EXIT_INPUT, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {cfg_path}: {key} must be ")
        assert lines[0].endswith(f", got {value!r}")

    def test_out_key_is_unknown(self, bundle, tmp_path):
        # The output directory is always the --out flag.
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"out": str(tmp_path / "from_config")}))
        code, lines = run_cli(["solve", "--bundle", str(bundle), "--out",
                               str(tmp_path / "from_flag"), "--config", str(cfg_path),
                               "--quiet"])
        assert code == EXIT_INPUT
        assert lines == [f"error: {cfg_path}: unknown experiment config keys ['out']"]
        assert not (tmp_path / "from_config").exists() and not (tmp_path / "from_flag").exists()


@pytest.fixture(scope="module")
def quick_bundle(bundle, tmp_path_factory):
    """The `bundle` instance with a one-day trace: it loads fast, and every
    command that gets past its settings fails on fitting that trace."""
    path = tmp_path_factory.mktemp("bundles") / "quick"
    assert main(["gen-instance", "--out", str(path), "--seed", "3", "--preset", "small",
                 "--signal-days", "1", "--quiet"]) == EXIT_OK
    return path


class TestSettings:
    @given(corruption=st.one_of(
        st.from_regex(r"[a-z_]{1,12}", fullmatch=True)
        .filter(lambda k: k not in MODEL_KEYS).map(lambda k: (k, 1.0)),
        st.tuples(st.sampled_from(NUMERIC_KEYS),
                  st.sampled_from(("abc", None, {"x": 1}, [True], float("nan")))),
        st.sampled_from(OUT_OF_RANGE)))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_corrupt_bundle_config_key_exits_4_with_one_line(self, quick_bundle, solved_dir,
                                                              tmp_path_factory, corruption):
        key, value = corruption
        corrupt = tmp_path_factory.mktemp("corrupt")
        for name in ("grid.json", "workload.csv", "latency.csv", "signal.csv", "dc.json"):
            shutil.copy(quick_bundle / name, corrupt / name)
        config = json.loads((quick_bundle / "config.json").read_text())
        config[key] = value
        (corrupt / "config.json").write_text(json.dumps(config))
        common = ["--bundle", str(corrupt), "--out", str(corrupt / "out"), "--quiet"]
        for argv in (["solve", *common],
                     ["simulate", *common, "--solution", str(solved_dir / "solution.json"),
                      "--seed", "1"],
                     ["compare", *common]):
            code, lines = run_cli(argv)
            assert code == EXIT_INPUT and len(lines) == 1, (argv[0], lines)
            assert repr(key) in lines[0] or f"{key} must" in lines[0], (argv[0], lines)

    @pytest.mark.parametrize("source", ["bundle", "config"])
    def test_unknown_model_key_exits_4_without_traceback(self, bundle, solved_dir, tmp_path,
                                                         source):
        target = tmp_path / "b"
        shutil.copytree(bundle, target)
        cfg_path = tmp_path / "exp.json"
        if source == "bundle":
            config = json.loads((target / "config.json").read_text())
            (target / "config.json").write_text(json.dumps(dict(config, eps_q=0.1)))
            cfg_path.write_text(json.dumps({"seed": 1}))
        else:
            cfg_path.write_text(json.dumps({"seed": 1, "model": {"eps_q": 0.1}}))
        common = ["--bundle", target, "--out", tmp_path / "o", "--config", cfg_path, "--quiet"]
        for argv in (["solve", *common],
                     ["simulate", *common, "--solution", solved_dir / "solution.json"]):
            proc = run_child(*argv)
            assert proc.returncode == EXIT_INPUT, proc.stderr
            where = f"{target / 'config.json'}: " if source == "bundle" else f"{cfg_path}: "
            assert proc.stderr.splitlines() == [
                f"error: {where}unknown model config keys ['eps_q']"]

    @pytest.mark.parametrize("model, flags, field", [
        ({"forfeiture": "partial"}, [], "forfeiture"),
        ({}, ["--threshold", "-5"], "compliance_threshold"),
        ({}, ["--eps-p", "7"], "eps_p"),
    ])
    def test_simulate_rejects_invalid_settings(self, bundle, solved_dir, tmp_path,
                                               model, flags, field):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"model": model}))
        code, lines = run_cli(["simulate", "--bundle", str(bundle),
                               "--solution", str(solved_dir / "solution.json"),
                               "--out", str(tmp_path / "sim"), "--seed", "1",
                               "--config", str(cfg_path), *flags, "--quiet"])
        assert code == EXIT_INPUT and len(lines) == 1
        # A fault in the file names it; a flag's fault names no file.
        where = f"{cfg_path}: " if model else ""
        assert lines[0].startswith(f"error: {where}{field} must")

    @pytest.mark.parametrize("doc, cause", [
        ({"seed": 1, "threshold": 7}, "compliance_threshold must be in [0, 1], got 7"),
        ({"seed": 1, "split": 1.5}, "fit_split must be in (0, 1.0), got 1.5"),
        ({"seed": 1, "model": {"eps_p": "abc"}}, "eps_p must be numeric, got 'abc'"),
    ])
    def test_a_config_file_fault_names_the_file(self, bundle, solved_dir, tmp_path, doc,
                                                 cause):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(doc))
        code, lines = run_cli(["simulate", "--bundle", str(bundle),
                               "--solution", str(solved_dir / "solution.json"),
                               "--out", str(tmp_path / "sim"), "--config", str(cfg_path),
                               "--quiet"])
        assert code == EXIT_INPUT and lines == [f"error: {cfg_path}: {cause}"]

    def test_solve_fits_on_the_config_file_split(self, tmp_path):
        bundle_dir = tmp_path / "demo"
        assert main(["gen-instance", "--out", str(bundle_dir), "--seed", "7",
                     "--preset", "demo", "--quiet"]) == EXIT_OK
        # Half the demo trace holds 30 windows of at most 4 h, not of the
        # bundle's 6 h horizon, so the file drops that window.
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({
            "split": 0.5, "model": {"var_horizons": [0.25, 0.5, 1.0, 2.0, 3.0, 4.0]}}))
        out = tmp_path / "s"
        assert main(["solve", "--bundle", str(bundle_dir), "--out", str(out),
                     "--config", str(cfg_path), "--quiet"]) == EXIT_OK
        report = json.loads((out / "fit_report.json").read_text())
        assert report["samples_fit"] == 129600


# PATH is made a directory where a file is read, and a file where --out
# makes a directory.
@pytest.mark.parametrize("argv, kind", [
    (["fit-signal", "--trace", "PATH", "--out", "OUT"], "dir"),
    (["solve", "--bundle", "BUNDLE", "--config", "PATH", "--out", "OUT"], "dir"),
    (["simulate", "--bundle", "BUNDLE", "--solution", "PATH", "--seed", "7", "--out", "OUT"],
     "dir"),
    (["gen-instance", "--preset", "demo", "--seed", "7", "--out", "PATH"], "file"),
    (["solve", "--bundle", "BUNDLE", "--out", "PATH"], "file"),
    (["compare", "--bundle", "BUNDLE", "--out", "PATH"], "file"),
], ids=["fit_signal_trace", "solve_config", "simulate_solution", "gen_instance_out",
        "solve_out", "compare_out"])
def test_path_of_the_wrong_kind_exits_4_with_one_line(bundle, tmp_path, argv, kind):
    path = tmp_path / "path"
    if kind == "dir":
        path.mkdir()
    else:
        path.write_text("")
    subs = {"PATH": str(path), "OUT": str(tmp_path / "out"), "BUNDLE": str(bundle)}
    code, lines = run_cli([subs.get(a, a) for a in argv] + ["--quiet"])
    assert code == EXIT_INPUT and len(lines) == 1, lines
    assert lines[0].startswith("error: ") and str(path) in lines[0], lines


# Path("") is the working directory: an empty --out must not write there.
@pytest.mark.parametrize("argv", [
    ["gen-instance", "--preset", "small", "--seed", "3"],
    ["fit-signal", "--trace", "BUNDLE/signal.csv"],
    ["solve", "--bundle", "BUNDLE"],
    ["simulate", "--bundle", "BUNDLE", "--solution", "RUN/solution.json", "--seed", "7"],
    ["compare", "--bundle", "BUNDLE"],
    ["report"],
], ids=lambda argv: argv[0])
def test_empty_out_exits_4_with_one_line_and_writes_nothing(bundle, solved_dir, tmp_path,
                                                             monkeypatch, argv):
    # The working directory holds a finished run, so report would have
    # written into it too.
    cwd = shutil.copytree(solved_dir, tmp_path / "cwd")
    before = {p.name: p.read_bytes() for p in cwd.iterdir()}
    monkeypatch.chdir(cwd)
    argv = [a.replace("BUNDLE", str(bundle)).replace("RUN", str(solved_dir)) for a in argv]
    code, lines = run_cli(argv + ["--out", "", "--quiet"])
    assert code == EXIT_INPUT and lines == ["error: --out must name a directory, got ''"]
    assert {p.name: p.read_bytes() for p in cwd.iterdir()} == before


# Named before any later fault on the same command line, such as a missing
# --seed or a negative one.
@pytest.mark.parametrize("seed", [["--seed", "7"], [], ["--seed", "-1"]],
                         ids=["alone", "no_seed", "negative_seed"])
def test_unknown_preset_exits_4_with_the_parsers_line(tmp_path, seed):
    out = tmp_path / "out"
    proc = run_child("gen-instance", "--preset", "x", *seed, "--out", out)
    assert proc.returncode == EXIT_INPUT and proc.stderr.splitlines() == [
        "error: argument --preset: invalid choice: 'x' (choose from 'cc_stress', 'demo', "
        "'small')"], proc.stderr
    assert not out.exists()


def test_report_summarizes_run(solved_dir, capsys):
    assert main(["report", "--out", str(solved_dir), "--quiet"]) == EXIT_OK
    text = (solved_dir / "report.md").read_text()
    assert "Artifacts" in text and "Solution" in text


def test_report_names_the_file_and_key_of_a_malformed_artifact(solved_dir, tmp_path):
    out = shutil.copytree(solved_dir, tmp_path / "run")
    (out / "report.md").unlink(missing_ok=True)
    solution = json.loads((out / "solution.json").read_text())
    del solution["breakdown"]
    (out / "solution.json").write_text(json.dumps(solution))
    code, lines = run_cli(["report", "--out", str(out), "--quiet"])
    assert code == EXIT_INPUT
    assert lines == [f"error: {out / 'solution.json'}: missing key 'breakdown'"]
    assert not (out / "report.md").exists()


# Each command checks its inputs and computes before it creates --out.
@pytest.mark.parametrize("argv, cause", [
    (["fit-signal", "--trace", "ONE_ROW"], "trace needs at least two rows"),
    (["solve", "--bundle", "BUNDLE", "--backend", "bogus"], "unknown backend 'bogus'"),
    (["compare", "--bundle", "BUNDLE", "--backend", "bogus"], "unknown backend 'bogus'"),
    (["simulate", "--bundle", "BUNDLE", "--solution", "SOLUTION", "--seed", "1",
      "--split", "0.99"], "held-out trace has 1944 samples, scenarios need 3600"),
], ids=["fit_signal_one_row", "solve_bogus_backend", "compare_bogus_backend",
        "simulate_short_held_out"])
def test_a_failing_command_leaves_no_out_directory(bundle, solved_dir, tmp_path, argv, cause):
    one_row = tmp_path / "one.csv"
    one_row.write_text("timestamp,s\n0,0.1\n")
    subs = {"ONE_ROW": str(one_row), "BUNDLE": str(bundle),
            "SOLUTION": str(solved_dir / "solution.json")}
    out = tmp_path / "out"
    code, lines = run_cli([subs.get(a, a) for a in argv] + ["--out", str(out), "--quiet"])
    assert code == EXIT_INPUT and len(lines) == 1 and cause in lines[0], lines
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "compare"])
@pytest.mark.parametrize("backend", ['cmd:""', "cmd:''", "cmd:'abc"],
                         ids=["empty_double_quotes", "empty_single_quotes", "unclosed_quote"])
def test_cmd_backend_shlex_cannot_use_exits_4_leaving_no_out(bundle, tmp_path, command,
                                                              backend):
    out = tmp_path / "out"
    code, lines = run_cli([command, "--bundle", str(bundle), "--out", str(out),
                           "--backend", backend, "--quiet"])
    assert code == EXIT_INPUT and len(lines) == 1, lines
    assert lines[0].startswith(f"error: unknown backend {backend!r}"), lines
    assert not out.exists()


def test_pipeline_round_trip_readers(bundle):
    # Everything the generator wrote loads back through the module readers.
    from dcflex.instance import load_bundle

    inst, cfg, trace = load_bundle(bundle)
    assert inst.n_slots == len(inst.grid.buses[0].base_load)
    assert len(trace) > 1000


# Each JSON input a command reads, with the contents that should be rejected
# besides invalid JSON, a top level that is not an object and a NaN: a
# missing key and a wrong nested type. A bundle's config.json (every model
# setting has a default) and a manifest require no key.
JSON_INPUTS = {
    "grid.json": ("{}", '{"buses": [5]}'),
    "dc.json": ("{}", '{"dcs": [5]}'),
    "config.json": (None, '{"var_horizons": [1.0, "x"]}'),
    "solution": ("{}", '{"dims": [1, 2, 3]}'),
    "config_file": ("{}", '{"model": [1]}'),
    "report_solution.json": ("{}", '{"status": "optimal", "breakdown": [1]}'),
    "report_sim_summary.json": ("{}", '{"scenarios": 1, "samples_total": 2, '
                                      '"power_violation_rate_mean": [0.1]}'),
    "report_compare.json": ("{}", '{"rows": [5]}'),
    "manifest.json": (None, '{"a.json": [1]}'),
}
BAD_JSON = [(source, kind, text) for source, (missing, nested) in JSON_INPUTS.items()
            for kind, text in (("invalid", "{oops"), ("not_an_object", "[1, 2]"),
                               ("missing_key", missing), ("nested_type", nested),
                               ("nan", '{"a": [0, NaN]}'))
            if text is not None]


@pytest.mark.parametrize("source, kind, text", BAD_JSON,
                         ids=[f"{source}-{kind}" for source, kind, _ in BAD_JSON])
def test_bad_json_input_exits_4_with_one_line_naming_it(bundle, quick_bundle, solved_dir,
                                                         tmp_path, source, kind, text):
    work, out = tmp_path / "work", tmp_path / "out"
    if source in ("grid.json", "dc.json", "config.json"):
        shutil.copytree(quick_bundle, work)
        path = work / source
        argv = ["solve", "--bundle", work, "--out", out]
    elif source == "solution":
        path = tmp_path / "solution.json"
        argv = ["simulate", "--bundle", bundle, "--solution", path, "--seed", "1",
                "--out", out]
    elif source == "config_file":
        path = tmp_path / "exp.json"
        argv = ["solve", "--config", path, "--out", out]
    elif source.startswith("report_"):
        out = shutil.copytree(solved_dir, work)
        (out / "report.md").unlink(missing_ok=True)
        path = out / source.removeprefix("report_")
        argv = ["report", "--out", out]
    else:
        out = work
        work.mkdir()
        path = work / source
        (work / "kept.txt").write_text("kept\n")
        argv = ["gen-instance", "--preset", "small", "--seed", "3", "--signal-days", "1",
                "--out", out]
    path.write_text(text)
    before = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
    code, lines = run_cli([str(a) for a in argv] + ["--quiet"])
    assert code == EXIT_INPUT and len(lines) == 1, lines
    assert lines[0].startswith(f"error: {path}: "), lines
    if kind == "missing_key":
        assert "missing key '" in lines[0], lines
    if kind == "nan":
        assert lines[0].endswith("a[1] must be finite"), lines
    after = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None
    assert after == before


@pytest.mark.parametrize("name, row, fields", [
    ("workload.csv", "c01,r1", 9), ("workload.csv", "c01", 9), ("latency.csv", "r1", 3),
    ("latency.csv", "r1,1,5.0,7", 3)])
def test_csv_row_of_the_wrong_length_exits_4_naming_file_and_line(quick_bundle, tmp_path, name, row,
                                                    fields):
    work = shutil.copytree(quick_bundle, tmp_path / "b")
    with open(work / name, "a", newline="") as fh:
        fh.write(row + "\r\n")
    line_no = len((work / name).read_text().splitlines())
    code, lines = run_cli(["solve", "--bundle", str(work), "--out", str(tmp_path / "o"),
                           "--quiet"])
    assert code == EXIT_INPUT
    assert lines == [f"error: {work / name} line {line_no}: expected {fields} fields"]


def test_latency_csv_missing_a_used_pair_exits_4_naming_it(quick_bundle, tmp_path):
    work = shutil.copytree(quick_bundle, tmp_path / "b")
    with open(work / "workload.csv", newline="") as fh:
        used = {row["user_region"] for row in csv.DictReader(fh)}
    lines = (work / "latency.csv").read_text().splitlines(keepends=True)
    k = next(k for k, line in enumerate(lines[1:], start=1) if line.split(",")[0] in used)
    region, dc = lines[k].split(",")[:2]
    (work / "latency.csv").write_text("".join(lines[:k] + lines[k + 1:]))
    code, lines = run_cli(["solve", "--bundle", str(work), "--out", str(tmp_path / "o"),
                           "--quiet"])
    assert code == EXIT_INPUT
    assert lines == [f"error: latency map missing 1 pairs, first ({region!r}, {int(dc)})"]
    assert not (tmp_path / "o").exists()


def test_unreadable_out_manifest_fails_before_any_write(bundle, solved_dir, tmp_path):
    out = shutil.copytree(solved_dir, tmp_path / "run")
    (out / "manifest.json").write_text("[1, 2]")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    code, lines = run_cli(["solve", "--bundle", str(bundle), "--out", str(out), "--quiet"])
    assert code == EXIT_INPUT
    assert lines == [f"error: {out / 'manifest.json'}: expected a JSON object, got list"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("argv, setting", [
    (["gen-instance", "--preset", "small", "--seed", "-1"], "seed"),
    (["simulate", "--bundle", "BUNDLE", "--solution", "SOLUTION", "--seed", "-3"], "seed"),
    (["simulate", "--bundle", "BUNDLE", "--solution", "SOLUTION", "--config", "CONFIG"],
     "seed"),
    (["fit-signal", "--trace", "TRACE", "--horizons", ",,"], "horizons"),
], ids=["gen_instance_seed", "simulate_seed", "config_seed", "fit_signal_horizons"])
def test_bad_flag_value_exits_4_naming_the_setting(bundle, solved_dir, tmp_path, argv,
                                                   setting):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({"seed": -1}))
    subs = {"BUNDLE": str(bundle), "SOLUTION": str(solved_dir / "solution.json"),
            "CONFIG": str(config), "TRACE": str(bundle / "signal.csv")}
    out = tmp_path / "out"
    code, lines = run_cli([subs.get(a, a) for a in argv] + ["--out", str(out), "--quiet"])
    assert code == EXIT_INPUT and len(lines) == 1, lines
    assert lines[0].startswith("error: ") and f"{setting} must be" in lines[0], lines
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--bundle", "BUNDLE", "--out", "OUT", "--mode", "bogus"],
    ["solve", "--bundle", "BUNDLE", "--out", "OUT", "--bogus"],
    ["gen-instance", "--out", "OUT", "--seed", "x"],
    ["solve", "--bundle", "BUNDLE"],
], ids=["bad_choice", "unknown_flag", "non_integer_seed", "missing_out"])
def test_usage_error_exits_4_with_one_line(bundle, tmp_path, argv):
    out = tmp_path / "out"
    proc = run_child(*[{"BUNDLE": bundle, "OUT": out}.get(a, a) for a in argv])
    lines = proc.stderr.splitlines()
    assert proc.returncode == EXIT_INPUT and len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: "), lines
    assert not out.exists()


def test_help_exits_0():
    proc = run_child("solve", "--help")
    assert proc.returncode == EXIT_OK and proc.stderr == ""
    assert "--bundle" in proc.stdout
