"""Bundled dense LP solver: two-phase simplex with variable bounds.

The tableau method is extended with upper-bounded variables (nonbasic
columns rest at either bound and may flip without a basis change), so
box constraints never become rows. Dantzig pricing is used by default
with a switch to Bland's rule after a run of degenerate steps, which
guarantees termination on cycling-prone inputs. Model variables map to
nonnegative columns through one set of arrays (x = lb + y, x = ub - y
where only the upper bound is finite, x = y+ - y- where neither is), so
the tableau data, the row flips to b >= 0 and the slack layout are built
by whole-array operations. Every solve starts with
standard_form.presolve, so fixed columns, empty rows, bound-redundant
rows, duplicate rows and parallel rows never reach the tableau, and a
row over one continuous column arrives as a bound; the columns branch and
bound pins at a node are fixed there too, so they drop out as well. A
pivot prices only the eligible columns (nonbasic with an open box, a mask
kept up to date pivot by pivot), runs both ratio tests over full-length
masks into one buffer, and updates the one dense tableau only on the
nonzero rows x columns of its rank-1 step, through their flat indices. A
model whose solve could hold more than MAX_TABLEAU_BYTES is refused. The
budget holds per solve: branch and bound runs a node's two children at
once, on its two workers.
"""

from dataclasses import dataclass, field

import numpy as np

from .artifacts import SolverError
from .standard_form import EMPTY_ROW_TOL, INF, StandardFormModel, presolve

PIVOT_TOL = 1e-9
RC_TOL = 1e-9
DEGENERATE_STREAK = 40
MAX_TABLEAU_BYTES = 256 * 2**20

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"


@dataclass
class LPResult:
    status: str
    objective: float | None
    x: np.ndarray | None
    iterations: int
    presolve: dict = field(default_factory=dict)  # its counts; {} if it proved infeasibility


def _build_arrays(model: StandardFormModel):
    """Dense constraint data in the solver's all-nonnegative column space.

    The column map is four arrays over the model's variables: ``col`` (each
    variable's first column), ``sign`` (-1 where only the upper bound is
    finite), ``offset`` and ``free``. A bounded-below variable is x = lb + y,
    one bounded above only is x = ub - y, and a free one is x = y+ - y-
    with y- in column col + 1. Returns (a, b, senses, column upper bounds,
    column costs, (col, sign, offset, free)).
    """
    lb = np.array([v.lb for v in model.variables], dtype=float)
    ub = np.array([v.ub for v in model.variables], dtype=float)
    free = (lb == -INF) & (ub == INF)
    sign = np.where((lb == -INF) & ~free, -1.0, 1.0)
    offset = np.where(free, 0.0, np.where(lb == -INF, ub, lb))
    col = np.arange(model.n_vars) + np.cumsum(free) - free
    n_cols = model.n_vars + int(free.sum())
    cvec = model.objective_vector()
    col_ub = np.full(n_cols, INF)
    col_ub[col] = ub - lb  # inf for every column without a finite box
    col_cost = np.empty(n_cols)
    col_cost[col] = sign * cvec
    col_cost[col[free] + 1] = -cvec[free]

    m = model.n_rows
    terms = np.array([t for row in model.rows for t in row.coeffs], dtype=float).reshape(-1, 2)
    ri = np.repeat(np.arange(m), [len(row.coeffs) for row in model.rows])
    j, coef = terms[:, 0].astype(int), terms[:, 1]
    a = np.zeros((m, n_cols))
    np.add.at(a, (ri, col[j]), sign[j] * coef)
    split = free[j]
    np.add.at(a, (ri[split], col[j[split]] + 1), -coef[split])
    # ufunc.at applies terms in order, so each rhs folds its coefficients
    # one at a time, in row order.
    b = np.array([row.rhs for row in model.rows], dtype=float)
    np.subtract.at(b, ri[~split], coef[~split] * offset[j[~split]])
    senses = np.array([row.sense for row in model.rows], dtype="U2")
    return a, b, senses, col_ub, col_cost, (col, sign, offset, free)


def _recover(values_ext: np.ndarray, cmap) -> np.ndarray:
    """Model-space point from column values through _build_arrays' map."""
    col, sign, offset, free = cmap
    out = offset + sign * values_ext[col]
    out[free] = values_ext[col[free]] - values_ext[col[free] + 1]
    return out


def _footprint(model: StandardFormModel) -> tuple[int, int, int]:
    """(rows, least tableau columns, most bytes held) of a reduced model: the
    tableau at its widest (n structural columns, two per free variable, plus
    up to two slack, surplus or artificial columns per row), the structural
    block kept beside it and a pivot's two temporaries as large as the tableau."""
    rows = model.n_rows
    n = model.n_vars + sum(v.lb == -INF and v.ub == INF for v in model.variables)
    return rows, n + rows, 8 * rows * (3 * (n + 2 * rows) + n)


def solve_lp(model: StandardFormModel, pins: dict | None = None) -> LPResult:
    """Solve the LP relaxation of a model to primal optimality.

    Integrality flags are ignored, and each column of ``pins`` ({column:
    value}) is held at its value without touching the model. The simplex
    runs on presolve's reduced model; a presolve proof of infeasibility
    returns INFEASIBLE, and a model with every column fixed returns its
    fixed point, neither running the simplex. Returns variable values in
    the model's original space with the objective recomputed from the
    original model's data, and presolve's counts. Raises SolverError,
    before allocating, when the solve of the reduced model could hold more
    than MAX_TABLEAU_BYTES.
    """
    pre = presolve(model, pins)
    if pre.model is None:
        return LPResult(INFEASIBLE, None, None, 0)
    full, model = model, pre.model
    if model.n_vars == 0:
        x = pre.expand(np.zeros(0))
        return LPResult(OPTIMAL, full.evaluate_objective(x), x, 0, pre.counts)
    rows, cols, held = _footprint(model)
    if held > MAX_TABLEAU_BYTES:
        raise SolverError(
            f"model {model.name}: its dense tableau needs at least {rows} rows x {cols} "
            f"columns and the solve up to {held / 2**20:.0f} MB, over the bundled "
            f"solver's {MAX_TABLEAU_BYTES / 2**20:.0f} MB budget; use --backend cmd:<command>")
    a, b, senses, ub_struct, cost_struct, cmap = _build_arrays(model)
    m, n_struct = a.shape

    # Normalize to b >= 0 so slack/artificial starting values are feasible.
    flip = b < 0
    a *= np.where(flip, -1.0, 1.0)[:, None]
    b[flip] = -b[flip]
    le = np.where(flip, senses == ">=", senses == "<=")
    ge = np.where(flip, senses == "<=", senses == ">=")

    # Row by row: a slack for <=, a surplus and an artificial for >=, an
    # artificial for =; the last column of each row starts basic.
    width = 1 + ge
    start = n_struct + np.cumsum(width) - width
    basis = start + ge
    art_cols = basis[~le]
    total = n_struct + m + int(ge.sum())

    tableau = np.zeros((m, total))
    tableau[:, :n_struct] = a
    tableau[np.arange(m), basis] = 1.0
    tableau[ge, start[ge]] = -1.0
    ub = np.concatenate([ub_struct, np.full(total - n_struct, INF)])
    phase2_cost = np.concatenate([cost_struct, np.zeros(total - n_struct)])
    phase1_cost = np.zeros(total)
    phase1_cost[art_cols] = 1.0

    xb = b.copy()
    at_upper = np.zeros(total, dtype=bool)
    is_basic = np.zeros(total, dtype=bool)
    is_basic[basis] = True
    init_basis_cols = basis.copy()

    max_iterations = 200 * (m + total) + 20_000

    iterations = 0
    degenerate_run = 0

    def refresh_xb():
        # Only structural columns rest at a nonzero upper bound (artificials: 0).
        rhs = b.copy()
        for j in np.flatnonzero(at_upper[:n_struct] & ~is_basic[:n_struct]):
            rhs -= a[:, j] * ub[j]
        binv = tableau[:, init_basis_cols]
        xb[:] = binv @ rhs

    def run_phase(cost: np.ndarray, phase_one: bool) -> str:
        nonlocal iterations, degenerate_run
        # Nonbasic columns with an open box; ub changes only between phases.
        eligible = ~is_basic & (ub > PIVOT_TOL)
        row_starts = np.arange(m) * total
        steps = np.empty(m)
        while iterations < max_iterations:
            iterations += 1
            if iterations % 256 == 0:
                refresh_xb()
            rc = cost - cost[basis] @ tableau
            # The objective's rate along each nonbasic column moved off its
            # bound: up from its lower bound, down from its upper one.
            rate = np.where(at_upper, -rc, rc)
            score = np.where(eligible & (rate < -RC_TOL), rate, 0.0)
            if degenerate_run >= DEGENERATE_STREAK:
                enter = int((score < -RC_TOL).argmax())  # Bland: lowest index
            else:
                enter = int(score.argmin())
            if not score[enter] < -RC_TOL:
                return OPTIMAL
            col = tableau[:, enter].copy()
            w = -col if at_upper[enter] else col

            # Largest step before a basic variable hits one of its bounds;
            # argmin takes the lowest row on a tie.
            t_best = ub[enter]
            leave_row = -1
            leave_to_upper = False
            ub_basic = ub[basis]
            tests = ((False, w > PIVOT_TOL, xb, w),
                     (True, (w < -PIVOT_TOL) & np.isfinite(ub_basic), ub_basic - xb, -w))
            for to_upper, mask, num, den in tests if m else ():
                steps.fill(INF)
                np.divide(num, den, out=steps, where=mask)
                k = int(steps.argmin())
                if steps[k] < t_best - 1e-15:
                    t_best = max(steps[k], 0.0)
                    leave_row = k
                    leave_to_upper = to_upper
            if not np.isfinite(t_best):
                return UNBOUNDED if not phase_one else INFEASIBLE
            degenerate_run = degenerate_run + 1 if t_best <= 1e-11 else 0

            if leave_row < 0:
                # Bound flip: the entering column swaps bounds, basis unchanged.
                xb[:] -= t_best * w
                at_upper[enter] = ~at_upper[enter]
                continue

            leaving = int(basis[leave_row])
            xb[:] -= t_best * w
            new_value = ub[enter] - t_best if at_upper[enter] else t_best
            row = tableau[leave_row] / col[leave_row]
            col[leave_row] = 0.0  # w, which may be col itself, is not read again
            rr, cc = col.nonzero()[0], row.nonzero()[0]
            if rr.size:  # cc always holds the entering column
                tableau.reshape(-1)[row_starts[rr][:, None] + cc] -= col[rr][:, None] * row[cc]
            tableau[leave_row] = row
            basis[leave_row] = enter
            is_basic[enter], is_basic[leaving] = True, False
            eligible[enter], eligible[leaving] = False, ub[leaving] > PIVOT_TOL
            at_upper[enter] = False
            at_upper[leaving] = leave_to_upper
            xb[leave_row] = new_value
        return ITERATION_LIMIT

    status = run_phase(phase1_cost, phase_one=True)
    if status == ITERATION_LIMIT:
        return LPResult(ITERATION_LIMIT, None, None, iterations, pre.counts)
    refresh_xb()
    art_set = set(art_cols)
    art_values = sum(xb[ri] for ri in range(m) if basis[ri] in art_set)
    scale = max(1.0, float(np.max(np.abs(b)))) if m else 1.0
    if status == INFEASIBLE or art_values > EMPTY_ROW_TOL * scale:
        return LPResult(INFEASIBLE, None, None, iterations, pre.counts)

    # Artificials are pinned at zero for phase 2 instead of being pivoted out.
    ub[art_cols] = 0.0
    degenerate_run = 0
    status = run_phase(phase2_cost, phase_one=False)
    if status in (ITERATION_LIMIT, UNBOUNDED):
        return LPResult(status, None, None, iterations, pre.counts)

    refresh_xb()
    values_ext = np.where(at_upper & np.isfinite(ub), ub, 0.0)
    values_ext[basis] = xb
    x = _recover(values_ext, cmap)
    # Clamp round-off excursions back into the declared boxes; on a tie the
    # recovered value is kept (numpy returns the second operand).
    lo = np.array([v.lb for v in model.variables])
    hi = np.array([v.ub for v in model.variables])
    x = pre.expand(np.minimum(hi, np.maximum(lo, x)))
    return LPResult(OPTIMAL, full.evaluate_objective(x), x, iterations, pre.counts)
