#!/usr/bin/env python3
"""dcflex benchmark: the CLI pipeline as users run it, on seeded workloads.

    python3 perfbench/run.py --workload demo_pipeline --seed 11 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --instance-seed 7 --seed 11

Load model: a closed loop with one client. Every command runs in a fresh
child process (``python -m dcflex.cli``), one at a time, in workload order;
the ``cmd:`` solver runs as a grandchild. Children see at most ``nproc``
BLAS/OpenMP threads, a per-run temp directory (deleted afterwards, which
also removes the ``dcflex_ext_*`` directories external solves leave behind)
and only the generated bundle.

``--instance-seed`` (default 7) fixes the generated bundle; ``--seed``
(default 11) is the scenario seed of every ``simulate``. Both are inputs, so
one pair of seeds always gives the same inputs and outputs.

With ``--trace 0`` the command sequence repeats until the sequences have
taken ``--seconds`` (at least once), with SETUP_REPS set-ups spread among
them, and the end-to-end metrics are medians over the samples. With ``--trace 1`` the sequence runs twice, each time inside one
child process through ``dcflex.cli.main``, untraced and then traced
(session.py), and the per-layer metrics come from the traced spans
(layers.py).

Every output is checked (see ``check_sequence`` and ``check_objectives``).
Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from layers import layer_metrics, unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
RUN_BUDGET_S = 170.0
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
OBJECTIVE_RTOL = 1e-6
# Set-ups per untraced run; setup_s is their median. A set-up is one or two
# short processes, so a run repeats it and spreads the repetitions over the
# run (see run_untraced) to smooth out the host's swings.
SETUP_REPS = 7

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "fit_signal_s": "s", "solve_s": "s",
                    "simulate_s": "s", "compare_s": "s", "peak_rss_mb": "MB",
                    "error_rate": "ratio"}
# The end-to-end metrics that go into the result line: every workload has
# them, they are never 0, and they are steady enough for a 0.25 bound on a
# shared host. The others are printed.
CONTRACT_METRICS = ("setup_s", "wall_s", "peak_rss_mb")
COMMAND_METRICS = {"fit-signal": "fit_signal_s", "solve": "solve_s",
                   "simulate": "simulate_s", "compare": "compare_s"}


@dataclass
class Command:
    name: str          # CLI sub-command
    args: list         # arguments after the sub-command
    out: Path          # the --out directory


def dcflex(name, out, *args) -> Command:
    return Command(name, [name, "--out", str(out), *map(str, args)], Path(out))


def solve_cmd(bundle, out, backend) -> Command:
    return dcflex("solve", out, "--bundle", bundle, "--mode", "joint",
                  "--strategy", "cooperative", "--backend", backend)


def adapter_backend() -> str:
    return "cmd:" + shlex.join([sys.executable, str(HERE / "highs_adapter.py")])


@dataclass
class Workload:
    """A workload: its bundle shape, set-up and timed command sequence.
    Why each one exists is recorded in BENCHMARK.json and README.md."""

    name: str
    gen_args: tuple
    setup_solve: bool

    def setup_commands(self, root: Path, iseed: int) -> list:
        bundle = root / "bundle"
        cmds = [dcflex("gen-instance", bundle, "--seed", iseed, *self.gen_args)]
        if self.setup_solve:
            cmds.append(solve_cmd(bundle, root / "base", "bundled"))
        return cmds

    def sequence(self, setup: Path, seq: Path, sseed: int) -> list:
        bundle = setup / "bundle"
        if self.name == "demo_pipeline":
            sol = seq / "solve"
            return [
                dcflex("fit-signal", seq / "fit", "--trace", bundle / "signal.csv"),
                solve_cmd(bundle, sol, "bundled"),
                dcflex("simulate", sol, "--bundle", bundle, "--solution",
                       sol / "solution.json", "--scenarios", 20, "--seed", sseed),
                dcflex("compare", seq / "compare", "--bundle", bundle, "--strategies",
                       "cooperative,independent,decoupled", "--modes", "joint"),
                dcflex("report", sol),
            ]
        if self.name.endswith("_external"):
            sol = seq / "solve"
            return [
                solve_cmd(bundle, sol, adapter_backend()),
                dcflex("simulate", sol, "--bundle", bundle, "--solution",
                       sol / "solution.json", "--scenarios", 200, "--seed", sseed),
            ]
        return [
            dcflex("fit-signal", seq / "fit", "--trace", bundle / "signal.csv"),
            dcflex("simulate", seq / "sim", "--bundle", bundle, "--solution",
                   setup / "base" / "solution.json", "--scenarios", 2000, "--seed", sseed),
        ]


DEMO = ("--preset", "demo")
MID = ("--n-dc", "4", "--slots", "12", "--clusters", "24")
LARGE = ("--n-dc", "6", "--slots", "24", "--clusters", "60", "--buses", "14", "--gens", "3")
# BENCHMARK.json lists demo_pipeline and mid_external. large_external (the
# mid_external commands at the ladder's top rung) and replay_mc work through
# about 570 MB each, and their wall time swung by up to 1.8x with the shared
# host's load (see README.md), so they are run by hand, not by the gate.
WORKLOADS = {w.name: w for w in (
    Workload("demo_pipeline", DEMO, False),
    Workload("mid_external", MID, False),
    Workload("large_external", LARGE, False),
    Workload("replay_mc", DEMO, True),
)}


class Run:
    """One benchmark run of one workload: its directory, children and failures."""

    def __init__(self, workload: Workload, iseed: int, sseed: int):
        self.workload = workload
        self.iseed, self.sseed = iseed, sseed
        self.start = time.perf_counter()
        self.dir = RUNS / f"{workload.name}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "tmp").mkdir(parents=True)
        self.log = self.dir / "commands.log"
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}   # command id -> messages
        self.objectives: dict[str, float] = {}     # command id -> net cost

    def env(self, adapter_log: Path | None = None) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        for var in THREAD_VARS:
            env[var] = str(NPROC)
        for var in ("TMPDIR", "TMP", "TEMP"):
            env[var] = str(self.dir / "tmp")
        env.pop("PERFBENCH_ADAPTER_LOG", None)
        if adapter_log is not None:
            env["PERFBENCH_ADAPTER_LOG"] = str(adapter_log)
        return env

    def fail(self, cid: str, message: str) -> None:
        self.failures.setdefault(cid, []).append(message)

    def child(self, argv: list, env: dict) -> tuple[int, float, float]:
        """Run one child to completion; (exit code, wall s, max RSS MB).

        wait4 reports the child's peak RSS including its waited-for
        children, so a ``cmd:`` solver's footprint is included."""
        remaining = RUN_BUDGET_S - (time.perf_counter() - self.start)
        with open(self.log, "ab") as fh:
            fh.write(f"$ {shlex.join(argv)}\n".encode())
            fh.flush()
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=env, cwd=ROOT)
            timer = threading.Timer(max(remaining, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def command(self, cid: str, cmd: Command) -> tuple[float, float]:
        self.attempted += 1
        argv = [sys.executable, "-m", "dcflex.cli", *cmd.args]
        code, wall, rss = self.child(argv, self.env())
        if code != 0:
            self.fail(cid, f"{cmd.name} exited {code}")
        return wall, rss

    def setup(self, rep: int) -> float:
        root = self.dir / f"setup{rep}"
        cmds = self.workload.setup_commands(root, self.iseed)
        t0 = time.perf_counter()
        for k, cmd in enumerate(cmds):
            self.command(f"setup{rep}:{k}:{cmd.name}", cmd)
        elapsed = time.perf_counter() - t0
        check_sequence(self, f"setup{rep}", cmds)
        return elapsed

    def timed_sequence(self, index: int) -> tuple[dict, list]:
        """Run the workload's commands as separate processes; times and RSS."""
        seq = self.dir / f"seq{index}"
        cmds = self.workload.sequence(self.dir / "setup0", seq, self.sseed)
        sample = {"commands": {}, "peak_rss_mb": 0.0}
        t0 = time.perf_counter()
        for k, cmd in enumerate(cmds):
            wall, rss = self.command(f"seq{index}:{k}:{cmd.name}", cmd)
            sample["commands"].setdefault(cmd.name, []).append(wall)
            sample["peak_rss_mb"] = max(sample["peak_rss_mb"], rss)
        sample["wall_s"] = time.perf_counter() - t0
        check_sequence(self, f"seq{index}", cmds)
        return sample, cmds

    def session(self, label: str, trace: bool) -> dict:
        """Run the sequence in one process through dcflex.cli.main."""
        seq = self.dir / label
        cmds = self.workload.sequence(self.dir / "setup0", seq, self.sseed)
        seq.mkdir(parents=True)
        spec, result = seq / "spec.json", seq / "result.json"
        spec.write_text(json.dumps({"argvs": [c.args for c in cmds], "trace": trace}))
        adapter_log = seq / "adapter.jsonl"
        self.attempted += len(cmds)
        code, _, rss = self.child([sys.executable, str(HERE / "session.py"), str(spec),
                                   str(result)], self.env(adapter_log))
        if code != 0 or not result.exists():
            self.fail(f"{label}:session", f"session exited {code}")
            return {}
        data = json.loads(result.read_text())
        for k, (cmd, rc) in enumerate(zip(cmds, data["codes"])):
            if rc != 0:
                self.fail(f"{label}:{k}:{cmd.name}", f"{cmd.name} returned {rc}")
        check_sequence(self, label, cmds)
        data["adapter_runs"] = ([json.loads(line) for line in adapter_log.read_text().splitlines()]
                                if adapter_log.exists() else [])
        data["peak_rss_mb"] = rss
        return data

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def check_sequence(run: Run, label: str, cmds: list) -> None:
    """Check the outputs of commands that exited 0; record solve objectives."""
    for k, cmd in enumerate(cmds):
        cid = f"{label}:{k}:{cmd.name}"
        if cid in run.failures:
            continue
        try:
            if cmd.name == "solve":
                if not read_json(cmd.out / "validation.json")["ok"]:
                    run.fail(cid, "validation.json reports violations")
                run.objectives[cid] = read_json(cmd.out / "solution.json")["objective_total"]
            elif cmd.name == "simulate":
                wanted = int(cmd.args[cmd.args.index("--scenarios") + 1])
                if read_json(cmd.out / "sim_summary.json")["scenarios"] != wanted:
                    run.fail(cid, f"sim_summary.json does not hold {wanted} scenarios")
            elif cmd.name == "compare":
                check_compare(run, cid, read_json(cmd.out / "compare.json"))
            elif cmd.name == "fit-signal":
                read_json(cmd.out / "var_table.json")
            elif cmd.name == "report":
                if not (cmd.out / "report.md").read_text().startswith("# Run report"):
                    run.fail(cid, "report.md has no header")
        except (OSError, KeyError, ValueError) as exc:
            run.fail(cid, f"unreadable output: {exc!r}")


def check_compare(run: Run, cid: str, data: dict) -> None:
    if data["errors"]:
        run.fail(cid, f"compare.json has error rows: {data['errors']}")
    net = {row["strategy"]: row["net_cost_kusd"] for row in data["rows"]}
    order = ("cooperative", "independent", "decoupled")
    if set(net) != set(order):
        run.fail(cid, f"compare.json rows {sorted(net)}")
        return
    tol = 1e-9 * max(abs(v) for v in net.values())
    if not net["cooperative"] <= net["independent"] + tol <= net["decoupled"] + 2 * tol:
        run.fail(cid, f"net cost not cooperative <= independent <= decoupled: {net}")
    run.objectives[cid] = net["cooperative"] * 1000.0


def artifact_fingerprint(run: Run, cmds_by_label: dict) -> None:
    """Require byte-identical artifacts wherever one seed produced a file twice.

    Compares the manifest.json entries (sha256 per artifact) and the
    sim_summary.json digest of every output directory across sequences,
    on the artifact names both sides wrote."""
    seen: dict[tuple[str, str], tuple[str, str]] = {}
    for label, cmds in cmds_by_label.items():
        for k, cmd in enumerate(cmds):
            cid = f"{label}:{k}:{cmd.name}"
            manifest_path = cmd.out / "manifest.json"
            if cid in run.failures or not manifest_path.exists():
                continue
            entries = read_json(manifest_path)
            if cmd.name == "simulate":
                entries = dict(entries, digest=read_json(cmd.out / "sim_summary.json")["digest"])
            rel = cmd.out.relative_to(run.dir).parts[1:]
            for name, digest in entries.items():
                key = ("/".join(rel), name)
                if key in seen and seen[key][0] != digest:
                    run.fail(cid, f"{'/'.join(rel)}/{name} differs from {seen[key][1]}")
                seen.setdefault(key, (digest, cid))


def reference_milp(model):
    """Solve a StandardFormModel with ``scipy.optimize.milp`` to proven
    optimality (relative gap 0, so HiGHS stops at its absolute gap of 1e-6).

    The matrix is assembled here, as a ``<=`` block (``>=`` rows negated)
    and an ``=`` block, so the reference shares no code with the
    ``cmd:`` adapter under test (highs_adapter.model_arrays)."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    blocks = {"<=": ([], [], [], []), "=": ([], [], [], [])}
    for row in model.rows:
        sign = -1.0 if row.sense == ">=" else 1.0
        rows, cols, vals, rhs = blocks["=" if row.sense == "=" else "<="]
        for j, a in row.coeffs:
            rows.append(len(rhs))
            cols.append(j)
            vals.append(sign * a)
        rhs.append(sign * row.rhs)
    constraints = []
    for sense, (rows, cols, vals, rhs) in blocks.items():
        if rhs:
            a = coo_matrix((vals, (rows, cols)), shape=(len(rhs), model.n_vars)).tocsr()
            lower = np.full(len(rhs), -np.inf) if sense == "<=" else np.asarray(rhs)
            constraints.append(LinearConstraint(a, lower, np.asarray(rhs)))
    cost = np.zeros(model.n_vars)
    for j, coef in model.objective.items():
        cost[j] = coef
    variables = model.variables
    return milp(cost, constraints=constraints,
                integrality=np.array([int(v.integer) for v in variables]),
                bounds=Bounds(np.array([v.lb for v in variables]),
                              np.array([v.ub for v in variables])),
                options={"mip_rel_gap": 0.0})


def check_objectives(run: Run) -> None:
    """Compare every cooperative objective with an independent HiGHS solve of
    the same build_model output, made in this process (reference_milp)."""
    if not run.objectives:
        return
    sys.path.insert(0, str(SRC))
    from dataclasses import replace

    from dcflex.instance import fit_signal_artifacts, load_bundle
    from dcflex.optimizer import build_model, resolve_config

    inst, cfg, trace = load_bundle(run.dir / "setup0" / "bundle")
    cfg = replace(cfg, strategy="cooperative", shifting_mode="joint")
    fitted = fit_signal_artifacts(trace, cfg)
    cfg = resolve_config(cfg, inst.n_slots, fitted.mean_abs)
    model = build_model(inst, cfg, fitted.moments(cfg.signal_model), fitted.var_table)
    res = reference_milp(model)
    for cid, objective in run.objectives.items():
        if res.status != 0:
            run.fail(cid, f"reference HiGHS solve ended with status {res.status}")
        elif abs(objective - res.fun) > OBJECTIVE_RTOL * max(1.0, abs(res.fun)):
            run.fail(cid, f"objective {objective!r} != reference {res.fun!r}")


def summarize(values: list) -> dict:
    """Median and sample count, plus the highest percentile that has at
    least ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def environment(args) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    import numpy
    import scipy

    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit,
            "instance_seed": args.instance_seed, "scenario_seed": args.seed,
            "thread_caps": dict.fromkeys(THREAD_VARS, NPROC), "seconds": args.seconds,
            "setup_reps": SETUP_REPS, "trace": args.trace}


def run_untraced(run: Run, seconds: float) -> dict:
    """Set up, then alternate timed sequences with further set-ups until
    ``seconds`` of sequences have passed; finish the remaining set-ups."""
    setups = [run.setup(0)]
    samples, cmds_by_label = [], {}
    measured = 0.0
    while not samples or measured < seconds:
        sample, cmds = run.timed_sequence(len(samples))
        measured += sample["wall_s"]
        samples.append(sample)
        cmds_by_label[f"seq{len(samples) - 1}"] = cmds
        if len(setups) < SETUP_REPS:
            setups.append(run.setup(len(setups)))
    while len(setups) < SETUP_REPS:
        setups.append(run.setup(len(setups)))
    for rep in range(SETUP_REPS):
        cmds_by_label[f"setup{rep}"] = run.workload.setup_commands(run.dir / f"setup{rep}",
                                                                   run.iseed)
    artifact_fingerprint(run, cmds_by_label)
    check_objectives(run)
    values = {"setup_s": setups,
              "wall_s": [s["wall_s"] for s in samples],
              "peak_rss_mb": [s["peak_rss_mb"] for s in samples]}
    for cmd_name, metric in COMMAND_METRICS.items():
        values[metric] = [sum(s["commands"][cmd_name]) for s in samples
                          if cmd_name in s["commands"]]
    attempted = max(run.attempted, 1)
    values["error_rate"] = [len(run.failures) / attempted]
    return values


def run_traced(run: Run) -> dict:
    run.setup(0)
    startup = []
    for _ in range(3):
        code, wall, _ = run.child([sys.executable, "-c", "import dcflex.cli"], run.env())
        if code != 0:
            run.fail("startup", f"import dcflex.cli exited {code}")
        startup.append(wall)
    untraced = run.session("plain", trace=False)
    traced = run.session("traced", trace=True)
    labels = {label: run.workload.sequence(run.dir / "setup0", run.dir / label, run.sseed)
              for label in ("plain", "traced")}
    artifact_fingerprint(run, labels)
    check_objectives(run)
    if not untraced or not traced:
        return {}
    return layer_metrics(traced, traced["adapter_runs"], statistics.median(startup),
                         untraced["wall_s"])


def run_workload(name: str, args) -> dict:
    run = Run(WORKLOADS[name], args.instance_seed, args.seed)
    try:
        if args.trace:
            values = run_traced(run)
            metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
            stats = {k: {"median": v, "n": 1} for k, v in values.items()}
        else:
            values = run_untraced(run, args.seconds)
            stats = {k: summarize(v) if v else {"median": None, "n": 0}
                     for k, v in values.items()}
            metrics = {k: {"value": stats[k]["median"], "unit": END_TO_END_UNITS[k]}
                       for k in CONTRACT_METRICS}
        failures = dict(run.failures)
        attempted = run.attempted
    finally:
        run.close()
    for cid, messages in failures.items():
        for message in messages:
            print(f"[{name}] FAILED {cid}: {message}")
    for k, s in stats.items():
        unit = unit_of(k) if args.trace else END_TO_END_UNITS[k]
        extra = "".join(f" {p}={v:.6g}" for p, v in s.items() if p.startswith("p"))
        value = "-" if s["median"] is None else f"{s['median']:.6g}"
        print(f"[{name}] {k:32s} {value:>14s} {unit:6s} n={s['n']}{extra}")
    return {"correct": not failures and bool(values), "attempted": max(attempted, 1),
            "failed": len(failures), "metrics": metrics, "stats": stats,
            "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=11, help="scenario seed of simulate")
    parser.add_argument("--instance-seed", type=int, default=7, help="gen-instance seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="also write the full record (environment, "
                                      "samples, failures) to this JSON file")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running child is killed and reaped and
    # the run directory is deleted.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "dcflex" / "cli.py").is_file():
        print(f"error: no dcflex sources under {SRC}", file=sys.stderr)
        return 2
    env = environment(args)
    print("environment " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args) for name in names}
    if args.out:
        Path(args.out).write_text(json.dumps({"environment": env, "workloads": results},
                                             indent=2, sort_keys=True) + "\n")
    if len(names) == 1:
        r = results[names[0]]
        metrics = r["metrics"]
    else:
        r = {"correct": all(x["correct"] for x in results.values()),
             "attempted": sum(x["attempted"] for x in results.values()),
             "failed": sum(x["failed"] for x in results.values())}
        metrics = {f"{n}.{k}": v for n, x in results.items() for k, v in x["metrics"].items()}
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
