"""Command-line workflow: generate, fit, solve, simulate, compare, report.

Every command is deterministic given its inputs and an explicit seed, and
writes its artifacts under --out together with a manifest of content
hashes. Exit codes: 0 success, 2 infeasible model, 3 validation failure,
4 input/configuration error, 5 solver failure.

At module level this imports only the standard library and
``dcflex.artifacts``, so parsing a command line and catching its errors
loads neither numpy nor any solver. Each ``cmd_*`` imports the modules it
runs when it runs, and ``report`` needs none of them.
"""

import argparse
import csv
import io
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

from .artifacts import (
    MANIFEST,
    SHIFTING_MODES,
    SIGNAL_MODELS,
    STRATEGIES,
    InfeasibleModel,
    SolverError,
    read_json,
    read_manifest,
    write_artifacts,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_VALIDATION = 3
EXIT_INPUT = 4
EXIT_SOLVER = 5


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# The --config file's top-level settings: what each must be, and its check.
_TOP_LEVEL_TYPES = {
    "seed": ("an integer >= 0", lambda v: v is None or _is_int(v) and v >= 0),
    "scenarios": ("an integer >= 1", lambda v: _is_int(v) and v >= 1),
    "backend": ("a string", lambda v: isinstance(v, str)),
    "bundle": ("a string", lambda v: v is None or isinstance(v, str)),
    "model": ("an object", lambda v: isinstance(v, dict)),
}


@dataclass
class ExperimentConfig:
    """Run configuration: bundle, model overrides, backend, simulation.

    A --config JSON file mirrors this layout: top-level keys ``bundle``,
    ``backend``, ``scenarios``, ``seed``, ``threshold``, ``split``, and a
    ``model`` object of ModelConfig fields. Command-line flags override
    file values. Seeds are always explicit; there is no wall-clock default.
    The output directory is always the --out flag.
    """

    bundle: str | None = None
    backend: str = "bundled"
    scenarios: int = 20
    seed: int | None = None
    threshold: float | None = None
    split: float | None = None
    model: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The settings of a parsed --config file."""
        from .optimizer import ModelConfig

        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown experiment config keys {sorted(unknown)}")
        for key, (kind, ok) in _TOP_LEVEL_TYPES.items():
            if key in data and not ok(data[key]):
                raise ValueError(f"{key} must be {kind}, got {data[key]!r}")
        # ModelConfig checks threshold, split and the model's fields, each on
        # its own, so checking them over the defaults here names this file.
        model = dict(data.get("model", {}))
        for key, name in (("threshold", "compliance_threshold"), ("split", "fit_split")):
            if data.get(key) is not None:
                model[name] = data[key]
        ModelConfig.from_dict({**ModelConfig().to_dict(), **model})
        return cls(**data)


def _csv_text(rows) -> str:
    """Rows as csv.writer writes them: minimal quoting, CRLF line ends."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _say(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message)


def _experiment(args) -> "ExperimentConfig":
    """The --config file's settings, if one is given, under the flags of the
    same names; the bundle directory must exist."""
    config = getattr(args, "config", None)
    exp = read_json(config, ExperimentConfig.from_dict) if config else ExperimentConfig()
    for name in ("bundle", "backend", "scenarios", "seed"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(exp, name, value)
    if not exp.bundle:
        raise ValueError(f"{config}: missing key 'bundle' and no --bundle flag" if config
                         else "no bundle directory configured")
    if not Path(exp.bundle).is_dir():
        raise FileNotFoundError(f"bundle directory {exp.bundle} does not exist")
    return exp


def _model_config(args, base: "ModelConfig", exp: "ExperimentConfig | None") -> "ModelConfig":
    """The model settings of one command, validated once.

    Each source overrides the ones before it: ``base`` (the bundle's
    config.json, or the defaults for fit-signal), the --config file's
    ``model`` object, its top-level ``threshold`` and ``split``, then the
    command's flags.
    """
    from .optimizer import ModelConfig

    data = base.to_dict()
    data.update(getattr(exp, "model", {}))
    # The file's top level holds only threshold and split of these.
    for source in (exp, args):
        for key, name in (("mode", "shifting_mode"), ("strategy", "strategy"),
                          ("signal_model", "signal_model"), ("eps_p", "eps_p"),
                          ("eps_e", "eps_e"), ("threshold", "compliance_threshold"),
                          ("split", "fit_split"), ("horizons", "var_horizons")):
            value = getattr(source, key, None)
            if value is not None:
                data[name] = _horizons(value) if key == "horizons" else value
    return ModelConfig.from_dict(data)


def _horizons(text: str) -> tuple:
    try:
        return tuple(map(float, text.split(",")))
    except ValueError:
        raise ValueError(f"horizons must be comma-separated hours, got {text!r}") from None


def _preset(name: str) -> str:
    """A --preset value, refused with the line argparse prints for a value
    outside ``choices``; a type rather than ``choices``, so that only a
    command line that gives --preset imports instance."""
    from .instance import PRESETS

    if name not in PRESETS:
        choices = ", ".join(map(repr, sorted(PRESETS)))
        raise argparse.ArgumentTypeError(f"invalid choice: {name!r} (choose from {choices})")
    return name


def cmd_gen_instance(args) -> int:
    from .instance import PRESETS, GenParams, generate_instance

    params = PRESETS[args.preset]() if args.preset else GenParams()
    overrides = {}
    for flag, key in (("n_dc", "n_dc"), ("slots", "n_slots"), ("clusters", "n_clusters"),
                      ("buses", "n_buses"), ("gens", "n_gens"),
                      ("signal_kind", "signal_kind"), ("signal_days", "signal_days"),
                      ("signal_dt", "signal_dt_seconds")):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = value
    if overrides:
        params = replace(params, **overrides)
    generate_instance(params, args.seed, args.out)
    _say(args, f"wrote instance bundle to {args.out} (seed {args.seed})")
    return EXIT_OK


def _fit_report(fitted: "FittedSignal", trace, cfg: "ModelConfig") -> dict:
    """Envelope, VaR-table and fit-report documents, keyed by file name, of
    a signal already fitted on ``trace`` with ``cfg``."""
    import numpy as np

    fit_seg, _ = trace.split(cfg.fit_split)
    envelope, direct, table = fitted.envelope, fitted.direct, fitted.var_table
    margins = []
    grid = tuple(cfg.quantile_grid)
    for q, emp in zip(grid, np.quantile(fit_seg.samples, grid).tolist()):
        upper = envelope.upper_quantile(q)
        margins.append({"quantile": q, "empirical": emp, "envelope": upper,
                        "dominance_margin": upper - emp})
    env_doc = {"mu": envelope.mu, "sigma": envelope.sigma, "source": envelope.source,
               "direct_mu": direct.mu, "direct_sigma": direct.sigma}
    table_doc = {"eps_e": table.eps_e, **{k: list(getattr(table, k)) for k in
                                         ("horizons", "s_low", "s_high", "n_windows")}}
    report = {
        "samples_fit": len(fit_seg),
        "samples_held_out": len(trace) - len(fit_seg),
        "mean_abs_signal": fitted.mean_abs,
        "dominance": margins,
    }
    return {"envelope.json": env_doc, "var_table.json": table_doc, "fit_report.json": report}


def cmd_fit_signal(args) -> int:
    from .instance import fit_signal_artifacts, read_signal
    from .optimizer import ModelConfig

    trace = read_signal(args.trace)
    cfg = _model_config(args, ModelConfig(), None)
    docs = _fit_report(fit_signal_artifacts(trace, cfg), trace, cfg)
    write_artifacts(args.out, docs)
    env_doc = docs["envelope.json"]
    _say(args, f"fitted signal: mu={env_doc['mu']:.5f} sigma={env_doc['sigma']:.5f} "
               f"(direct sigma {env_doc['direct_sigma']:.5f})")
    return EXIT_OK


def cmd_solve(args) -> int:
    from .instance import fit_signal_artifacts, load_bundle
    from .optimizer import backend_command, run_strategy
    from .validate import validate_solution

    exp = _experiment(args)
    backend_command(exp.backend)
    inst, bundle_cfg, trace = load_bundle(exp.bundle)
    cfg = _model_config(args, bundle_cfg, exp)
    fitted = fit_signal_artifacts(trace, cfg)
    solution = run_strategy(inst, cfg, fitted, backend=exp.backend)
    report = validate_solution(inst, cfg, fitted, solution)
    write_artifacts(args.out, {**_fit_report(fitted, trace, cfg),
                               "validation.json": report.to_dict(),
                               "solution.json": solution.to_dict(inst.jobs)})
    _say(args, f"status {solution.status}; net cost {solution.objective_total:.3f} "
               f"(generation {solution.generation_cost:.3f}, revenue "
               f"{solution.regulation_revenue:.3f}); validation "
               f"{'clean' if report.ok else 'VIOLATIONS'}")
    if not report.ok:
        for v in report.violations[:10]:
            _say(args, f"  violation: {v}")
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .instance import fit_signal_artifacts, load_bundle
    from .optimizer import Solution, resolve_config
    from .signals import RegulationTrace
    from .simulator import (
        compliance_report,
        monte_carlo,
        results_digest,
        simulate,
        write_series_csv,
    )

    exp = _experiment(args)
    if exp.seed is None:
        raise ValueError("simulate needs an explicit --seed (flag or config)")
    inst, bundle_cfg, trace = load_bundle(exp.bundle)
    cfg = _model_config(args, bundle_cfg, exp)
    solution = read_json(args.solution, Solution.from_dict)
    shape = (len(inst.jobs), inst.n_slots, inst.n_dc)
    if solution.x.shape != shape:
        raise ValueError(f"{args.solution}: (clusters, slots, dcs) {solution.x.shape} do not "
                         f"match the bundle's {shape}")
    fitted = fit_signal_artifacts(trace, cfg)
    cfg = resolve_config(cfg, inst.n_slots, fitted.mean_abs)
    _, held_out = trace.split(cfg.fit_split)
    results, agg = monte_carlo(inst, cfg, fitted, solution, held_out,
                               n_scenarios=exp.scenarios, seed=exp.seed)
    agg["digest"] = results_digest(agg)
    # monte_carlo keeps summaries only; replay scenario 0 for its series.
    start = results[0].trace_offset
    needed = results[0].samples_per_slot * inst.n_slots
    segment = RegulationTrace(held_out.samples[start:start + needed], held_out.dt_seconds)
    series = simulate(inst, cfg, solution, segment, trace_offset=start)
    frontier = [["eps_p", "eps_e", "signal_model", "committed_r_mw", "power_violation_rate",
                 "committed_revenue", "realized_revenue_mean"],
                [repr(cfg.eps_p), repr(cfg.eps_e), cfg.signal_model,
                 repr(float(solution.reg.sum())), repr(agg["power_violation_rate_mean"]),
                 repr(agg["committed_revenue"]), repr(agg["realized_revenue_mean"])]]
    write_artifacts(args.out, {
        "sim_summary.json": agg,
        "compliance.json": compliance_report(results, cfg.compliance_threshold),
        "series_scenario0.csv": partial(write_series_csv, series, inst, segment),
        "frontier.csv": _csv_text(frontier),
    })
    _say(args, f"{len(results)} scenarios, power violation rate "
               f"{agg['power_violation_rate_mean']:.5f}, realized revenue "
               f"{agg['realized_revenue_mean']:.3f} of {agg['committed_revenue']:.3f}")
    return EXIT_OK


def _compare_cell(inst, cfg: "ModelConfig", fitted: "FittedSignal", backend: str,
                  base_total) -> tuple:
    """One compare cell solved and validated: (its row, its load-curve CSV
    text), or (its error entry, None) if it is infeasible or fails
    validation. Any other exception propagates."""
    from .optimizer import run_strategy
    from .validate import validate_solution
    from .workload import load_matrix

    cell = {"strategy": cfg.strategy, "mode": cfg.shifting_mode}
    try:
        solution = run_strategy(inst, cfg, fitted, backend=backend)
    except InfeasibleModel as exc:
        return {**cell, "error": str(exc), "families": exc.family_report}, None
    report = validate_solution(inst, cfg, fitted, solution)
    if not report.ok:
        return {**cell, "error": f"{len(report.violations)} validation violations"}, None
    dc_load = load_matrix(solution.x, inst.jobs, cfg.slot_hours).sum(axis=0)
    system = base_total + dc_load
    row = {
        **cell,
        "average_load_mw": float(dc_load.mean()),
        "total_cost_kusd": (solution.generation_cost + solution.penalty_cost
                             + solution.migration_cost) / 1000.0,
        "average_regulation_capacity_mw": float(solution.reg.mean()),
        "regulation_profit_kusd": solution.regulation_revenue / 1000.0,
        "net_cost_kusd": solution.objective_total / 1000.0,
        "peak_system_load_mw": float(system.max()),
    }
    curve = _csv_text([["slot", "base_load_mw", "dc_load_mw", "system_load_mw"]]
                      + [[t + 1, repr(float(base_total[t])), repr(float(dc_load[t])),
                          repr(float(system[t]))] for t in range(len(system))])
    return row, curve


def cmd_compare(args) -> int:
    import numpy as np

    from .instance import fit_signal_artifacts, load_bundle
    from .optimizer import backend_command
    from .pool import run_ordered

    # Forked workers inherit what is imported here; a module a worker
    # imported itself would be compiled again in each worker.
    from . import validate, workload  # noqa: F401
    if backend_command(args.backend) is None:
        from . import bnb, simplex  # noqa: F401
    else:
        from . import mps  # noqa: F401
    inst, bundle_cfg, trace = load_bundle(args.bundle)
    base_cfg = _model_config(args, bundle_cfg, None)
    strategies = args.strategies.split(",") if args.strategies else ["cooperative"]
    modes = args.modes.split(",") if args.modes else [base_cfg.shifting_mode]
    for flag, names in (("--strategies", strategies), ("--modes", modes)):
        repeated = [name for k, name in enumerate(names) if name in names[:k]]
        if repeated:
            raise ValueError(f"{flag} lists {repeated[0]!r} more than once")
    cells = [replace(base_cfg, strategy=s, shifting_mode=m) for s in strategies for m in modes]
    # Every cell is checked before the first solve writes anything.
    for cfg in cells:
        cfg.validate()
    base_total = np.sum([b.base_load for b in inst.grid.buses], axis=0)
    # The fit depends on the split, quantile grid, horizons and eps_e only,
    # none of which a cell changes.
    fitted = fit_signal_artifacts(trace, base_cfg)
    # Forked workers inherit the bundle, the fit and the settings; each
    # returns only its cell's entry and load-curve text.
    results = []
    run_ordered(lambda k: _compare_cell(inst, cells[k], fitted, args.backend, base_total),
                len(cells), results.append,
                lambda k: SolverError(f"compare cell {cells[k].strategy}/"
                                      f"{cells[k].shifting_mode}: its worker process died"))
    rows, errors, files = [], [], {}
    for entry, curve in results:
        if curve is None:
            errors.append(entry)
        else:
            rows.append(entry)
            files[f"loadcurve_{entry['strategy']}_{entry['mode']}.csv"] = curve
    fieldnames = ["strategy", "mode", "average_load_mw", "total_cost_kusd",
                  "average_regulation_capacity_mw", "regulation_profit_kusd",
                  "net_cost_kusd", "peak_system_load_mw"]
    files["compare.csv"] = _csv_text(
        [fieldnames] + [[repr(v) if isinstance(v, float) else v for v in map(row.get, fieldnames)]
                        for row in rows])
    files["compare.json"] = {"rows": rows, "errors": errors}
    write_artifacts(args.out, files)
    for row in rows:
        _say(args, f"{row['strategy']:12s} {row['mode']:9s} "
                   f"net {row['net_cost_kusd']:10.4f} k$  "
                   f"avg R {row['average_regulation_capacity_mw']:7.3f} MW")
    if rows:
        return EXIT_OK
    # Only an infeasible cell's error entry carries "families".
    return EXIT_INFEASIBLE if all("families" in e for e in errors) else EXIT_VALIDATION


def _report_section(probe: str, data: dict) -> list[str]:
    """The report lines of artifact ``probe``, parsed."""
    if probe == "solution.json":
        br = data["breakdown"]
        return [f"- status: {data['status']}",
                f"- net cost: {br['net_cost']:.3f} $",
                f"- generation: {br['generation_cost']:.3f} $, "
                f"revenue: {br['regulation_revenue']:.3f} $"]
    if probe == "sim_summary.json":
        return [f"- scenarios: {data['scenarios']}, samples: {data['samples_total']}",
                f"- power violation rate: {data['power_violation_rate_mean']:.5f}",
                f"- realized revenue: {data['realized_revenue_mean']:.3f} "
                f"of {data['committed_revenue']:.3f} $"]
    return [f"- {row['strategy']}/{row['mode']}: net {row['net_cost_kusd']:.4f} k$"
            for row in data["rows"]]


def cmd_report(args) -> int:
    out = Path(args.out)
    if not (out / MANIFEST).exists():
        raise FileNotFoundError(f"{out}: no {MANIFEST}; run a command first")
    manifest = read_manifest(out)
    lines = ["# Run report", "", "## Artifacts", ""]
    for name, digest in sorted(manifest.items()):
        lines.append(f"- `{name}` sha256 `{digest[:16]}...`")
    for probe, title in (("solution.json", "Solution"), ("sim_summary.json", "Simulation"),
                         ("compare.json", "Comparison")):
        path = out / probe
        if path.exists():
            lines += ["", f"## {title}", "", *read_json(path, partial(_report_section, probe))]
    write_artifacts(out, {"report.md": "\n".join(lines) + "\n"})
    _say(args, f"wrote {out / 'report.md'}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_INPUT with one line, in every sub-command."""

    def error(self, message):
        self.exit(EXIT_INPUT, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dcflex",
        description="Co-optimized data center scheduling and regulation bidding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_seed=False):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--quiet", action="store_true")
        if needs_seed:
            p.add_argument("--seed", type=int, required=True,
                           help="explicit seed (no wall-clock default)")

    g = sub.add_parser("gen-instance", help="write a synthetic instance bundle")
    common(g, needs_seed=True)
    g.add_argument("--preset", type=_preset)
    g.add_argument("--n-dc", type=int, dest="n_dc")
    g.add_argument("--slots", type=int)
    g.add_argument("--clusters", type=int)
    g.add_argument("--buses", type=int)
    g.add_argument("--gens", type=int)
    g.add_argument("--signal-kind", dest="signal_kind")
    g.add_argument("--signal-days", type=float, dest="signal_days")
    g.add_argument("--signal-dt", type=float, dest="signal_dt")
    g.set_defaults(func=cmd_gen_instance)

    f = sub.add_parser("fit-signal", help="fit envelope and VaR table from a trace")
    common(f)
    f.add_argument("--trace", required=True)
    f.add_argument("--eps-e", type=float, dest="eps_e")
    f.add_argument("--split", type=float)
    f.add_argument("--horizons", help="comma-separated window hours")
    f.set_defaults(func=cmd_fit_signal)

    s = sub.add_parser("solve", help="solve a bundle day-ahead")
    common(s)
    s.add_argument("--bundle", help="instance bundle directory (or via --config)")
    s.add_argument("--mode", choices=SHIFTING_MODES)
    s.add_argument("--strategy", choices=STRATEGIES)
    s.add_argument("--signal-model", dest="signal_model", choices=SIGNAL_MODELS)
    s.add_argument("--eps-p", type=float, dest="eps_p")
    s.add_argument("--eps-e", type=float, dest="eps_e")
    s.add_argument("--backend", help="bundled (default) or cmd:<command>")
    s.add_argument("--config", help="JSON experiment-config file")
    s.set_defaults(func=cmd_solve)

    m = sub.add_parser("simulate", help="replay signals against a solution")
    common(m)
    m.add_argument("--bundle", help="instance bundle directory (or via --config)")
    m.add_argument("--solution", required=True)
    m.add_argument("--seed", type=int, help="explicit scenario seed")
    m.add_argument("--scenarios", type=int)
    m.add_argument("--threshold", type=float)
    m.add_argument("--split", type=float)
    m.add_argument("--eps-p", type=float, dest="eps_p",
                   help="echoed into the frontier row")
    m.add_argument("--eps-e", type=float, dest="eps_e")
    m.add_argument("--signal-model", dest="signal_model", choices=SIGNAL_MODELS)
    m.add_argument("--config", help="JSON experiment-config file")
    m.set_defaults(func=cmd_simulate)

    c = sub.add_parser("compare", help="strategy/mode comparison table")
    common(c)
    c.add_argument("--bundle", required=True)
    c.add_argument("--strategies", help="comma-separated strategy list")
    c.add_argument("--modes", help="comma-separated mode list")
    c.add_argument("--backend", default="bundled")
    c.set_defaults(func=cmd_compare)

    r = sub.add_parser("report", help="summarize an output directory")
    common(r)
    r.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Commands create --out only after their work, so refuse a file, or
        # an empty path (Path("") is the working directory), first.
        if not args.out:
            raise ValueError("--out must name a directory, got ''")
        if Path(args.out).exists() and not Path(args.out).is_dir():
            raise FileExistsError(f"--out {args.out} exists and is not a directory")
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {args.seed}")
        return args.func(args)
    except InfeasibleModel as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        for family, amount in exc.family_report.items():
            print(f"  binding family {family}: total violation {amount}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
