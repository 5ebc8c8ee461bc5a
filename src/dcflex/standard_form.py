"""Solver-agnostic linear/mixed-integer model carrier.

A model is a list of bounded (optionally integer) variables, a list of
sparse linear rows with a sense and right-hand side, and a minimized
linear objective. Both bundled solvers, the MPS writer/reader, and the
external-backend adapter consume this one representation and its solve
statuses; add_variable and add_row check each column and row. presolve
removes what no solver needs to see before any backend runs.
"""

from dataclasses import dataclass, field

import numpy as np

SENSES = ("<=", "=", ">=")

INF = float("inf")
# Relative tolerance of the sense check on a row presolve leaves empty, and
# of the phase-1 residue the bundled simplex accepts.
EMPTY_ROW_TOL = 1e-7
# Absolute excess up to which a solution meets a constraint, both in
# validate_solution and for the round-off a frozen schedule may carry.
FEAS_TOL = 1e-6

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"


@dataclass
class Variable:
    name: str
    lb: float = 0.0
    ub: float = INF
    integer: bool = False

    def __post_init__(self):
        if self.lb > self.ub:
            raise ValueError(f"variable {self.name}: lb {self.lb} > ub {self.ub}")


@dataclass
class LinearRow:
    name: str
    coeffs: list  # [(var_index, coefficient), ...]
    sense: str
    rhs: float

    def __post_init__(self):
        if self.sense not in SENSES:
            raise ValueError(f"row {self.name}: bad sense {self.sense!r}")


@dataclass
class StandardFormModel:
    """Minimization model over bounded variables with sparse linear rows."""

    name: str = "model"
    variables: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    objective: dict = field(default_factory=dict)  # var_index -> coefficient
    _var_names: set = field(default_factory=set, init=False, repr=False, compare=False)
    _row_names: set = field(default_factory=set, init=False, repr=False, compare=False)

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def add_variable(self, name: str, lb: float = 0.0, ub: float = INF,
                     integer: bool = False, obj: float = 0.0) -> int:
        """Declare a column; refuses a name already declared."""
        if name in self._var_names:
            raise ValueError(f"model {self.name}: column {name!r} is declared twice")
        self.variables.append(Variable(name, lb, ub, integer))
        self._var_names.add(name)
        if obj != 0.0:
            self.objective[self.n_vars - 1] = obj
        return self.n_vars - 1

    def add_row(self, name: str, coeffs, sense: str, rhs: float) -> int:
        """Add a row; refuses a repeated name and a column outside [0, n_vars)."""
        if name in self._row_names:
            raise ValueError(f"model {self.name}: row {name!r} is added twice")
        merged: dict[int, float] = {}
        for j, c in coeffs:
            if c != 0.0:
                merged[j] = merged.get(j, 0.0) + c
        row = LinearRow(name, sorted(merged.items()), sense, rhs)
        # Sorted by column, so the first and last entries bound every index.
        for j in (row.coeffs[0][0], row.coeffs[-1][0]) if row.coeffs else ():
            if not 0 <= j < self.n_vars:
                raise ValueError(f"model {self.name}: row {name!r} uses undeclared column {j}")
        self.rows.append(row)
        self._row_names.add(name)
        return len(self.rows) - 1

    def objective_vector(self) -> np.ndarray:
        c = np.zeros(self.n_vars)
        for j, v in self.objective.items():
            c[j] = v
        return c

    def integer_indices(self) -> list[int]:
        return [i for i, v in enumerate(self.variables) if v.integer]

    def evaluate_objective(self, values: np.ndarray) -> float:
        return float(sum(c * values[j] for j, c in self.objective.items()))

    def row_activity(self, row: LinearRow, values: np.ndarray) -> float:
        return float(sum(c * values[j] for j, c in row.coeffs))

    def max_violation(self, values: np.ndarray) -> float:
        """Worst bound/row violation of a candidate point (for checks)."""
        worst = 0.0
        for j, v in enumerate(self.variables):
            worst = max(worst, v.lb - values[j], values[j] - v.ub)
        for row in self.rows:
            act = self.row_activity(row, values)
            if row.sense == "<=":
                worst = max(worst, act - row.rhs)
            elif row.sense == ">=":
                worst = max(worst, row.rhs - act)
            else:
                worst = max(worst, abs(act - row.rhs))
        return worst


@dataclass
class Presolved:
    """A reduced model and the map back to the original columns.

    ``model`` keeps the columns ``keep`` (original indices, in order) and
    the rows no reduction removed; its bounds are the original's, tightened
    where a singleton row became a bound. ``fixed`` is a full-length point
    that holds every dropped column at its fixed value. When a row proves
    the original infeasible, ``model`` is None and ``infeasible_row`` names
    that row.
    """

    model: StandardFormModel | None
    keep: np.ndarray
    fixed: np.ndarray
    counts: dict  # {"cols", "rows", "nnz"}: [before, after] each
    infeasible_row: str | None = None

    def expand(self, values) -> np.ndarray:
        """Full-length point from values over the reduced model's columns."""
        x = self.fixed.copy()
        x[self.keep] = values
        return x


def _one_difference(a: tuple, b: tuple):
    """Position of the one entry where a and b differ; -1 when they are
    equal, None when they differ in more than one."""
    diff = -1
    for i, (u, v) in enumerate(zip(a, b)):
        if u != v:
            if diff >= 0:
                return None
            diff = i
    return diff


def presolve(model: StandardFormModel, pins: dict | None = None) -> Presolved:
    """Row and column reductions (Andersen & Andersen, Math. Prog. 71, 1995;
    Achterberg et al., INFORMS J. Comput. 32, 2020).

    Drops every column with lb == ub, and every column of ``pins``
    ({column: value}) at its pinned value, folding the value into the row
    right-hand sides (the objective constant is recovered by evaluating the
    original model on the expanded point). Drops rows left empty after
    checking their sense within EMPTY_ROW_TOL, and <=/>= rows that the
    activity bounds of their remaining columns prove slack. Then, row by
    row in model order:

    - a row over one continuous column becomes a tighter bound on it; a
      bound crossing larger than EMPTY_ROW_TOL in row units proves the model
      infeasible, and a smaller one keeps the row as a row. Integer columns
      keep their rows;
    - a row equal in sense, right-hand side and every (column, coefficient)
      to a kept row is dropped;
    - of two <= (or two >=) rows equal but for the coefficient of one
      column with lb >= 0, only the one that implies the other is kept: the
      larger coefficient for <=, the smaller for >=.

    A bound tightened by a singleton serves the rows after it. Matching is
    exact float equality, grouped by (sense, rhs, columns), so the cost
    stays linear in the nonzeros. The original model is left as it is.
    """
    pins = pins or {}
    n = model.n_vars
    fixed = [0.0] * n
    new_of = [-1] * n  # reduced index of each column, -1 when fixed
    columns = []  # the original Variable of each reduced column
    for j, v in enumerate(model.variables):
        if j in pins:
            fixed[j] = pins[j]
        elif v.lb == v.ub:
            fixed[j] = v.lb
        else:
            new_of[j] = len(columns)
            columns.append(v)
    lbs = [v.lb for v in columns]
    ubs = [v.ub for v in columns]
    kept = []  # surviving rows in model order; None where a later row implies it
    groups: dict[tuple, list] = {}  # (sense, rhs, columns) -> [(index in kept, coefficients)]

    def tol(row):
        """EMPTY_ROW_TOL at the scale of the row's rhs and folded terms."""
        return EMPTY_ROW_TOL * max([1.0, abs(row.rhs)] + [abs(c * fixed[j]) for j, c in row.coeffs])

    def infeasible(row):
        return Presolved(None, np.zeros(0, dtype=int), np.array(fixed), {},
                         infeasible_row=row.name)

    for row in model.rows:
        sense = row.sense
        coeffs = [(new_of[j], c) for j, c in row.coeffs if new_of[j] >= 0]
        rhs = row.rhs
        if len(coeffs) < len(row.coeffs):
            for j, c in row.coeffs:
                if new_of[j] < 0:
                    rhs -= c * fixed[j]
        if not coeffs:
            if (sense != ">=" and rhs < -tol(row)) or (sense != "<=" and rhs > tol(row)):
                return infeasible(row)
            continue
        # Activity bounds over the remaining columns; no term is NaN because
        # each sum takes only upper (or only lower) extremes.
        if sense == "<=":
            if sum(c * (ubs[k] if c > 0 else lbs[k]) for k, c in coeffs) <= rhs:
                continue
        elif sense == ">=":
            if sum(c * (lbs[k] if c > 0 else ubs[k]) for k, c in coeffs) >= rhs:
                continue
        if len(coeffs) == 1 and not columns[coeffs[0][0]].integer:
            (k, c), = coeffs
            lo, hi = lbs[k], ubs[k]
            if sense == "=" or (sense == ">=") == (c > 0):
                lo = max(lo, rhs / c)
            if sense == "=" or (sense == "<=") == (c > 0):
                hi = min(hi, rhs / c)
            if lo <= hi:
                lbs[k], ubs[k] = lo, hi
                continue
            if (lo - hi) * abs(c) > tol(row):
                return infeasible(row)
            # A round-off crossing: the row stays a row.
        cols, vals = zip(*coeffs)
        group = groups.setdefault((sense, rhs, cols), [])
        weaker = []
        for entry in group:
            i = _one_difference(vals, entry[1])
            if i is None or (i >= 0 and (sense == "=" or lbs[cols[i]] < 0)):
                continue
            if i < 0 or (vals[i] < entry[1][i]) == (sense == "<="):
                break  # equal to, or implied by, a kept row
            weaker.append(entry)
        else:
            for entry in weaker:
                kept[entry[0]] = None
                group.remove(entry)
            group.append((len(kept), vals))
            kept.append(LinearRow(row.name, coeffs, sense, rhs))
    # Not through add_row: the rows come from a checked model, and every B&B node presolves.
    reduced = StandardFormModel(
        model.name, [Variable(v.name, lo, hi, v.integer) for v, lo, hi in zip(columns, lbs, ubs)],
        [row for row in kept if row is not None],
        {new_of[j]: c for j, c in model.objective.items() if new_of[j] >= 0})
    keep = np.array([j for j in range(n) if new_of[j] >= 0], dtype=int)
    counts = {"cols": [n, reduced.n_vars], "rows": [model.n_rows, reduced.n_rows],
              "nnz": [sum(len(r.coeffs) for r in model.rows),
                      sum(len(r.coeffs) for r in reduced.rows)]}
    return Presolved(reduced, keep, np.array(fixed), counts)
