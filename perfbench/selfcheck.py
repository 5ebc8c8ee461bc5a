#!/usr/bin/env python3
"""Cheap self-check of the benchmark at demo scale (about a minute and a half).

    python3 perfbench/selfcheck.py

Runs ``replay_mc`` (the demo bundle) once untraced and once traced with a
short measuring time, then checks the output schema: the
result line's keys and types, every metric of BENCHMARK.json with its unit,
every end-to-end metric name in the human-readable lines, and the
environment record. Timings are not checked. Exits 0 when all checks pass.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PRINTED = ("setup_s", "wall_s", "fit_signal_s", "solve_s", "simulate_s", "compare_s",
           "peak_rss_mb", "error_rate")
ENVIRONMENT = ("nproc", "cpu", "python", "numpy", "scipy", "commit", "instance_seed",
               "scenario_seed", "thread_caps", "setup_reps", "seconds")


def run(trace: int, record: Path) -> tuple[list[str], dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", "replay_mc", "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--out", str(record)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"run.py --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    try:
        full = json.loads(record.read_text())
    finally:
        record.unlink(missing_ok=True)
    return lines, json.loads(lines[-1]), full


def check_result(result: dict, spec: list, problems: list, label: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result['attempted']!r}")
    expected = {m["name"]: m["unit"] for m in spec}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}, "
                        f"units {[k for k in expected if got.get(k, expected[k]) != expected[k]]}")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            problems.append(f"{label}: metric {name} is {metric!r}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    workdir = ROOT / ".perfbench_runs" / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    for trace, spec in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        label = f"trace {trace}"
        lines, result, full = run(trace, workdir / f"selfcheck-{trace}.json")
        check_result(result, spec, problems, label)
        if trace == 0:
            human = "\n".join(lines[:-1])
            problems += [f"{label}: {name} not printed" for name in PRINTED
                         if f"] {name} " not in human]
            problems += [f"{label}: {m['name']} is not positive" for m in spec
                         if result["metrics"].get(m["name"], {}).get("value", 0) <= 0]
        env = full.get("environment", {})
        problems += [f"{label}: environment lacks {k}" for k in ENVIRONMENT if k not in env]
        stats = full["workloads"]["replay_mc"]["stats"]
        problems += [f"{label}: {k} has no sample count" for k, s in stats.items() if "n" not in s]
    for directory in (workdir, workdir.parent):
        try:
            directory.rmdir()
        except OSError:
            pass
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
