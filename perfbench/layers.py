"""The per-layer metrics of the traced run: what the hooks record and how
spans and counters become metrics.

Layers are the modules of ``src/dcflex``. Time metrics (``*_s``) are the
inclusive time of the named functions' outermost spans; ``<layer>.self_s`` is
the self time of all spans of that module; counts come from hooks that read
the arguments and results of the traced calls.
"""

import os

from tracer import inclusive_time, self_times

# Modules with public functions, so with spans of their own.
LAYERS = ("instance", "signals", "optimizer", "simplex", "bnb", "mps", "validate",
          "simulator", "workload", "grid")

BUILDERS = ("optimizer.build_model", "optimizer.build_per_dc_model",
            "optimizer.build_regulation_only_model")
FIT_FUNCTIONS = ("signals.fit_gaussian_envelope", "signals.fit_direct_gaussian",
                 "signals.build_var_table")


def _on_read_trace(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.counters["signals.trace_bytes"] += os.path.getsize(path)


def _on_var_table(tracer, args, kwargs, result):
    # A fit is identified by the fitted segment plus (horizons, eps_e); the
    # segment fingerprint is cheap and distinguishes splits and traces.
    seg = args[0] if args else kwargs["trace"]
    samples = seg.samples
    key = repr((len(samples), seg.dt_seconds, samples[:32].tobytes(),
                samples[-32:].tobytes(), tuple(result.horizons), result.eps_e))
    keys = tracer.notes.setdefault("fit_keys", [])
    if key not in keys:
        keys.append(key)


def _on_build(tracer, args, kwargs, result):
    model = result[0] if isinstance(result, tuple) else result
    c = tracer.counters
    c["standard_form.vars"] += model.n_vars
    c["standard_form.rows"] += model.n_rows
    c["standard_form.nnz"] += sum(len(row.coeffs) for row in model.rows)
    c["standard_form.fixed_cols"] += sum(1 for v in model.variables if v.lb == v.ub)
    c["standard_form.binaries"] += sum(1 for v in model.variables if v.integer)


def _on_solve_lp(tracer, args, kwargs, result):
    tracer.counters["simplex.iterations"] += result.iterations


def _on_solve_mip(tracer, args, kwargs, result):
    tracer.counters["bnb.nodes"] += result.nodes


def _on_model_to_mps(tracer, args, kwargs, result):
    tracer.counters["mps.mps_bytes"] += len(result)


def _on_validate(tracer, args, kwargs, result):
    tracer.counters["validate.violations"] += len(result.violations)


def _on_monte_carlo(tracer, args, kwargs, result):
    results, _ = result
    c = tracer.counters
    c["simulator.scenarios"] += len(results)
    c["simulator.samples"] += sum(r.n_samples for r in results)
    retained = sum(r.power.nbytes + r.queue.nbytes + r.power_violation_frac.nbytes
                   + r.queue_violation_frac.nbytes + r.slot_compliant.nbytes
                   for r in results)
    c["simulator.retained_bytes_max"] = max(c["simulator.retained_bytes_max"], retained)


HOOKS = {
    "signals.read_trace_csv": _on_read_trace,
    "signals.build_var_table": _on_var_table,
    "simplex.solve_lp": _on_solve_lp,
    "bnb.solve_mip": _on_solve_mip,
    "mps.model_to_mps": _on_model_to_mps,
    "validate.validate_solution": _on_validate,
    "simulator.monte_carlo": _on_monte_carlo,
    **{name: _on_build for name in BUILDERS},
}


def counted_methods():
    from dcflex.standard_form import StandardFormModel

    return [(StandardFormModel, "add_row")]


def layer_metrics(trace: dict, adapter_runs: list, startup_s: float,
                  untraced_wall_s: float) -> dict:
    """Per-layer metric values of one traced command sequence.

    ``trace`` is a traced session result (session.py): spans, counters,
    notes and ``wall_s``, the time of its ``main`` calls. ``adapter_runs``
    are the adapter's log records of that session."""
    spans = [tuple(s) for s in trace["spans"]]
    c = trace["counters"]

    def t(*names):
        return inclusive_time(spans, names)

    def calls(*names):
        return sum(c.get(f"calls:{n}", 0) for n in names)

    own = self_times(spans)
    self_by_layer = dict.fromkeys(LAYERS + ("cli",), 0.0)
    for (name, *_), s in zip(spans, own):
        layer = name.split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + s
    mc_s = t("simulator.monte_carlo")
    fit_calls = calls("signals.build_var_table")
    m = {
        "instance.load_bundle_s": t("instance.load_bundle"),
        "instance.load_bundle_calls": calls("instance.load_bundle"),
        "signals.read_trace_csv_s": t("signals.read_trace_csv"),
        "signals.read_trace_csv_calls": calls("signals.read_trace_csv"),
        "signals.trace_mb": c.get("signals.trace_bytes", 0) / 1e6,
        "signals.fit_s": t(*FIT_FUNCTIONS),
        "signals.fit_calls": fit_calls,
        "signals.fit_useful_ratio": (len(trace["notes"].get("fit_keys", [])) / fit_calls
                                     if fit_calls else 0.0),
        "optimizer.run_strategy_s": t("optimizer.run_strategy"),
        "optimizer.build_s": t(*BUILDERS),
        "optimizer.build_calls": calls(*BUILDERS),
        "optimizer.queue_expr_s": t("optimizer.queue_baseline_expr"),
        "optimizer.extract_s": t("optimizer.extract_solution"),
        "optimizer.diagnose_calls": calls("optimizer.diagnose_infeasibility"),
        "standard_form.vars": c.get("standard_form.vars", 0),
        "standard_form.rows": c.get("standard_form.rows", 0),
        "standard_form.nnz": c.get("standard_form.nnz", 0),
        "standard_form.fixed_cols": c.get("standard_form.fixed_cols", 0),
        "standard_form.binaries": c.get("standard_form.binaries", 0),
        "standard_form.add_row_calls": calls("standard_form.StandardFormModel.add_row"),
        "simplex.solve_lp_s": t("simplex.solve_lp"),
        "simplex.lp_calls": calls("simplex.solve_lp"),
        "simplex.iterations": c.get("simplex.iterations", 0),
        "bnb.solve_mip_s": t("bnb.solve_mip"),
        "bnb.mip_calls": calls("bnb.solve_mip"),
        "bnb.nodes": c.get("bnb.nodes", 0),
        "mps.model_to_mps_s": t("mps.model_to_mps"),
        "mps.mps_mb": c.get("mps.mps_bytes", 0) / 1e6,
        "mps.run_external_solver_s": t("mps.run_external_solver"),
        "mps.adapter_parse_s": sum(r["parse_s"] for r in adapter_runs),
        "mps.adapter_highs_s": sum(r["highs_s"] for r in adapter_runs),
        "mps.read_solution_file_s": t("mps.read_solution_file"),
        "validate.validate_solution_s": t("validate.validate_solution"),
        "validate.violations": c.get("validate.violations", 0),
        "simulator.monte_carlo_s": mc_s,
        "simulator.scenarios": c.get("simulator.scenarios", 0),
        "simulator.samples_per_s": c.get("simulator.samples", 0) / mc_s if mc_s else 0.0,
        "simulator.retained_mb": c.get("simulator.retained_bytes_max", 0) / 1e6,
        "simulator.write_series_csv_s": t("simulator.write_series_csv"),
        "cli.startup_s": startup_s,
        # The cli module is the root of every command's span tree, so its
        # self time is the traced time that no layer span covers.
        "cli.uncovered_s": self_by_layer["cli"],
        "cli.trace_overhead_s": trace["wall_s"] - untraced_wall_s,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer]
    return m


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"
