"""MPS model export/import and the external-solver adapter.

The writer emits classic fixed-field MPS (names padded to eight
characters where they fit, longer names still whitespace-separated so
mainstream solvers accept them), with integer columns wrapped in
INTORG/INTEND markers. Values carry 17 significant digits so a write/read
round trip reproduces coefficients exactly.

The external backend contract: the configured command is invoked with two
extra arguments, the MPS path and a solution output path. It must exit 0
and write whitespace-separated ``name value`` lines for an optimal
solution, or exit 2 for an infeasible model.
"""

import math
import shlex
import subprocess
from pathlib import Path

import numpy as np

from .artifacts import SolverError, not_utf8
from .standard_form import INF, StandardFormModel

OBJECTIVE_ROW = "COST"

_SENSE_TO_TAG = {"<=": "L", ">=": "G", "=": "E"}
_TAG_TO_SENSE = {v: k for k, v in _SENSE_TO_TAG.items()}


class ExternalSolverError(SolverError):
    """The external solver command failed or returned unusable output."""


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _pad(name: str) -> str:
    return name.ljust(8)


def model_to_mps(model: StandardFormModel) -> str:
    """Render a model as MPS text (minimization, objective row COST)."""
    model.validate()
    lines = [f"NAME          {model.name.upper()[:60] or 'MODEL'}"]
    lines.append("ROWS")
    lines.append(f" N  {OBJECTIVE_ROW}")
    for row in model.rows:
        lines.append(f" {_SENSE_TO_TAG[row.sense]}  {row.name}")

    by_col: dict[int, list[tuple[str, float]]] = {j: [] for j in range(model.n_vars)}
    for row in model.rows:
        for j, coef in row.coeffs:
            by_col[j].append((row.name, coef))

    lines.append("COLUMNS")
    in_int = False
    marker_no = 0
    for j, var in enumerate(model.variables):
        if var.integer != in_int:
            marker_no += 1
            tag = "'INTORG'" if var.integer else "'INTEND'"
            lines.append(f"    M{marker_no:<7}  'MARKER'                 {tag}")
            in_int = var.integer
        obj = model.objective.get(j, 0.0)
        # Always write the objective entry so empty columns stay declared.
        lines.append(f"    {_pad(var.name)}  {_pad(OBJECTIVE_ROW)}  {_fmt(obj)}")
        for row_name, coef in by_col[j]:
            lines.append(f"    {_pad(var.name)}  {_pad(row_name)}  {_fmt(coef)}")
    if in_int:
        marker_no += 1
        lines.append(f"    M{marker_no:<7}  'MARKER'                 'INTEND'")

    lines.append("RHS")
    for row in model.rows:
        if row.rhs != 0.0:
            lines.append(f"    RHS       {_pad(row.name)}  {_fmt(row.rhs)}")

    lines.append("BOUNDS")
    for var in model.variables:
        lb, ub = var.lb, var.ub
        if lb == 0.0 and ub == INF:
            continue
        if lb == ub:
            lines.append(f" FX BND       {_pad(var.name)}  {_fmt(lb)}")
            continue
        if lb == -INF and ub == INF:
            lines.append(f" FR BND       {_pad(var.name)}")
            continue
        if lb == -INF:
            lines.append(f" MI BND       {_pad(var.name)}")
        elif lb != 0.0:
            lines.append(f" LO BND       {_pad(var.name)}  {_fmt(lb)}")
        if ub != INF:
            lines.append(f" UP BND       {_pad(var.name)}  {_fmt(ub)}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def write_mps(model: StandardFormModel, path) -> None:
    Path(path).write_text(model_to_mps(model), encoding="utf-8")


def parse_mps(text: str, name: str = "model") -> StandardFormModel:
    """Rebuild a StandardFormModel from MPS text produced by model_to_mps."""
    model = StandardFormModel(name)
    section = None
    row_sense: dict[str, str] = {}
    row_order: list[str] = []
    row_coeffs: dict[str, list[tuple[int, float]]] = {}
    rhs: dict[str, float] = {}
    var_index: dict[str, int] = {}
    in_integer = False

    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        if not raw[0].isspace():
            head = raw.split()
            section = head[0].upper()
            if section == "NAME" and len(head) > 1:
                model.name = head[1].lower()
            continue
        tokens = raw.split()
        if section == "ROWS":
            tag, row_name = tokens[0].upper(), tokens[1]
            if tag == "N":
                continue
            row_sense[row_name] = _TAG_TO_SENSE[tag]
            row_order.append(row_name)
            row_coeffs[row_name] = []
        elif section == "COLUMNS":
            if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                in_integer = tokens[2] == "'INTORG'"
                continue
            col = tokens[0]
            if col not in var_index:
                var_index[col] = model.add_variable(col, lb=0.0, ub=INF, integer=in_integer)
            j = var_index[col]
            pairs = tokens[1:]
            for k in range(0, len(pairs) - 1, 2):
                row_name, value = pairs[k], float(pairs[k + 1])
                if row_name == OBJECTIVE_ROW:
                    if value != 0.0:
                        model.objective[j] = value
                else:
                    row_coeffs[row_name].append((j, value))
        elif section == "RHS":
            pairs = tokens[1:]
            for k in range(0, len(pairs) - 1, 2):
                rhs[pairs[k]] = float(pairs[k + 1])
        elif section == "BOUNDS":
            kind = tokens[0].upper()
            col = tokens[2]
            j = var_index[col]
            var = model.variables[j]
            if kind == "FR":
                var.lb, var.ub = -INF, INF
            elif kind == "MI":
                var.lb = -INF
            elif kind == "PL":
                var.ub = INF
            elif kind == "FX":
                var.lb = var.ub = float(tokens[3])
            elif kind == "LO":
                var.lb = float(tokens[3])
            elif kind == "UP":
                var.ub = float(tokens[3])
            elif kind == "BV":
                var.lb, var.ub, var.integer = 0.0, 1.0, True
            else:
                raise ValueError(f"unsupported bound type {kind}")
        elif section == "RANGES":
            raise ValueError("RANGES sections are not supported")

    for row_name in row_order:
        model.add_row(row_name, row_coeffs[row_name], row_sense[row_name], rhs.get(row_name, 0.0))
    model.validate()
    return model


def read_mps(path) -> StandardFormModel:
    return parse_mps(Path(path).read_text(encoding="utf-8"), name=Path(path).stem)


def read_solution_file(path, model: StandardFormModel) -> np.ndarray:
    """Parse ``name value`` lines into a value vector over model variables.

    Unknown leading tokens (status banners etc.) are skipped; variables the
    file omits default to zero. Raises when the file is not UTF-8, nothing
    matches the model or a model variable's value is not finite.
    """
    index = {v.name: j for j, v in enumerate(model.variables)}
    values = np.zeros(model.n_vars)
    matched = 0
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ExternalSolverError(str(not_utf8(path))) from None
    for raw in text.splitlines():
        tokens = raw.split()
        if len(tokens) < 2 or tokens[0] not in index:
            continue
        try:
            value = float(tokens[1])
        except ValueError:
            continue
        if not math.isfinite(value):
            raise ExternalSolverError(f"{path}: variable {tokens[0]} has value {tokens[1]}")
        values[index[tokens[0]]] = value
        matched += 1
    if matched == 0:
        raise ExternalSolverError(f"{path}: no model variables found in solution file")
    return values


def run_external_solver(model: StandardFormModel, command: str, workdir) -> tuple[str, np.ndarray | None]:
    """Export the model, invoke the configured command, parse its solution.

    Returns (status, values); status is "optimal" or "infeasible".
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    mps_path = workdir / f"{model.name}.mps"
    sol_path = workdir / f"{model.name}.sol"
    write_mps(model, mps_path)
    argv = shlex.split(command) + [str(mps_path), str(sol_path)]
    # Bytes, not text: the command's output need not be UTF-8, and only
    # stderr is read, to quote it when the command fails.
    proc = subprocess.run(argv, capture_output=True)
    if proc.returncode == 2:
        return "infeasible", None
    if proc.returncode != 0:
        stderr = proc.stderr.decode("utf-8", errors="replace").strip()[:500]
        raise ExternalSolverError(f"model {model.name}: external solver exited "
                                  f"{proc.returncode}" + (f": {stderr}" if stderr else ""))
    if not sol_path.exists():
        raise ExternalSolverError(f"external solver wrote no solution file at {sol_path}")
    return "optimal", read_solution_file(sol_path, model)
