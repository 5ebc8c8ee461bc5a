"""Bundled dense LP solver: two-phase simplex with variable bounds.

The tableau method is extended with upper-bounded variables (nonbasic
columns rest at either bound and may flip without a basis change), so
box constraints never become rows. Dantzig pricing is used by default
with a switch to Bland's rule after a run of degenerate steps, which
guarantees termination on cycling-prone inputs. Every solve starts with
standard_form.presolve, so fixed columns, empty rows and bound-redundant
rows never reach the tableau; branch and bound pins binaries through
bounds, so they drop out of each node too. The one dense tableau is
updated only on the nonzero rows x columns of each rank-1 pivot, and a
model whose solve could hold more than MAX_TABLEAU_BYTES is refused.
"""

from dataclasses import dataclass

import numpy as np

from .standard_form import INF, SolverError, StandardFormModel, presolve

PIVOT_TOL = 1e-9
RC_TOL = 1e-9
FEAS_TOL = 1e-7
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


class _Transform:
    """Column-level mapping from model variables to shifted/split columns."""

    SHIFT = 0   # x = lb + y
    MIRROR = 1  # x = ub - y
    SPLIT = 2   # x = y_pos - y_neg

    def __init__(self, kind, offset, col, col2=None):
        self.kind = kind
        self.offset = offset
        self.col = col
        self.col2 = col2


def _build_arrays(model: StandardFormModel):
    """Dense constraint data in the solver's all-nonnegative column space."""
    n = model.n_vars
    transforms: list[_Transform] = []
    col_ub: list[float] = []
    col_cost: list[float] = []
    cvec = model.objective_vector()
    n_cols = 0
    for j, v in enumerate(model.variables):
        if v.lb == -INF and v.ub == INF:
            transforms.append(_Transform(_Transform.SPLIT, 0.0, n_cols, n_cols + 1))
            col_ub += [INF, INF]
            col_cost += [cvec[j], -cvec[j]]
            n_cols += 2
        elif v.lb == -INF:
            transforms.append(_Transform(_Transform.MIRROR, v.ub, n_cols))
            col_ub.append(INF)
            col_cost.append(-cvec[j])
            n_cols += 1
        else:
            transforms.append(_Transform(_Transform.SHIFT, v.lb, n_cols))
            col_ub.append(v.ub - v.lb if v.ub != INF else INF)
            col_cost.append(cvec[j])
            n_cols += 1

    m = model.n_rows
    a = np.zeros((m, n_cols))
    b = np.zeros(m)
    senses = []
    for ri, row in enumerate(model.rows):
        rhs = row.rhs
        for j, coef in row.coeffs:
            tr = transforms[j]
            if tr.kind == _Transform.SHIFT:
                a[ri, tr.col] += coef
                rhs -= coef * tr.offset
            elif tr.kind == _Transform.MIRROR:
                a[ri, tr.col] -= coef
                rhs -= coef * tr.offset
            else:
                a[ri, tr.col] += coef
                a[ri, tr.col2] -= coef
        b[ri] = rhs
        senses.append(row.sense)
    assert n_cols == len(col_ub) and n == len(transforms)
    return a, b, senses, np.array(col_ub), np.array(col_cost), transforms


def _recover(values_ext: np.ndarray, transforms, n_vars: int) -> np.ndarray:
    out = np.zeros(n_vars)
    for j, tr in enumerate(transforms):
        if tr.kind == _Transform.SHIFT:
            out[j] = tr.offset + values_ext[tr.col]
        elif tr.kind == _Transform.MIRROR:
            out[j] = tr.offset - values_ext[tr.col]
        else:
            out[j] = values_ext[tr.col] - values_ext[tr.col2]
    return out


def _footprint(model: StandardFormModel) -> tuple[int, int, int]:
    """(rows, least tableau columns, most bytes held) of a reduced model: the
    tableau at its widest (n structural columns, two per free variable, plus
    up to two slack, surplus or artificial columns per row), the structural
    block kept beside it and a pivot's two temporaries as large as the tableau."""
    rows = model.n_rows
    n = model.n_vars + sum(v.lb == -INF and v.ub == INF for v in model.variables)
    return rows, n + rows, 8 * rows * (3 * (n + 2 * rows) + n)


def solve_lp(model: StandardFormModel) -> LPResult:
    """Solve the LP relaxation of a model to primal optimality.

    Integrality flags are ignored. The simplex runs on presolve's reduced
    model; a presolve proof of infeasibility returns INFEASIBLE, and a model
    with every column fixed returns its fixed point, neither running the
    simplex. Returns variable values in the model's original space with the
    objective recomputed from the original model's data. Raises SolverError,
    before allocating, when the solve of the reduced model could hold more
    than MAX_TABLEAU_BYTES.
    """
    pre = presolve(model)
    if pre.model is None:
        return LPResult(INFEASIBLE, None, None, 0)
    full, model = model, pre.model
    if model.n_vars == 0:
        x = pre.expand(np.zeros(0))
        return LPResult(OPTIMAL, full.evaluate_objective(x), x, 0)
    rows, cols, held = _footprint(model)
    if held > MAX_TABLEAU_BYTES:
        raise SolverError(
            f"model {model.name}: its dense tableau needs at least {rows} rows x {cols} "
            f"columns and the solve up to {held / 2**20:.0f} MB, over the bundled "
            f"solver's {MAX_TABLEAU_BYTES / 2**20:.0f} MB budget; use --backend cmd:<command>")
    a, b, senses, ub_struct, cost_struct, transforms = _build_arrays(model)
    m, n_struct = a.shape

    # Normalize to b >= 0 so slack/artificial starting values are feasible.
    for ri in range(m):
        if b[ri] < 0:
            a[ri] *= -1.0
            b[ri] = -b[ri]
            if senses[ri] == "<=":
                senses[ri] = ">="
            elif senses[ri] == ">=":
                senses[ri] = "<="

    n_slack = sum(1 for s in senses if s == "<=")
    n_surplus = sum(1 for s in senses if s == ">=")
    n_art = sum(1 for s in senses if s in ("=", ">="))
    total = n_struct + n_slack + n_surplus + n_art

    tableau = np.zeros((m, total))
    tableau[:, :n_struct] = a
    ub = np.concatenate([ub_struct, np.full(total - n_struct, INF)])
    phase2_cost = np.concatenate([cost_struct, np.zeros(total - n_struct)])
    phase1_cost = np.zeros(total)

    basis = np.empty(m, dtype=int)
    art_cols: list[int] = []
    next_col = n_struct
    for ri, sense in enumerate(senses):
        if sense == "<=":
            tableau[ri, next_col] = 1.0
            basis[ri] = next_col
            next_col += 1
        elif sense == ">=":
            tableau[ri, next_col] = -1.0
            next_col += 1
            tableau[ri, next_col] = 1.0
            basis[ri] = next_col
            art_cols.append(next_col)
            phase1_cost[next_col] = 1.0
            next_col += 1
        else:
            tableau[ri, next_col] = 1.0
            basis[ri] = next_col
            art_cols.append(next_col)
            phase1_cost[next_col] = 1.0
            next_col += 1
    assert next_col == total

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
        while iterations < max_iterations:
            iterations += 1
            if iterations % 256 == 0:
                refresh_xb()
            rc = cost - cost[basis] @ tableau
            rc[basis] = 0.0
            movable = ~is_basic & (ub > PIVOT_TOL)
            down = movable & ~at_upper & (rc < -RC_TOL)
            upfl = movable & at_upper & (rc > RC_TOL)
            if not down.any() and not upfl.any():
                return OPTIMAL
            score = np.zeros(total)
            score[down] = rc[down]
            score[upfl] = -rc[upfl]
            if degenerate_run >= DEGENERATE_STREAK:
                candidates = np.where(score < -RC_TOL)[0]
                enter = int(candidates[0])  # Bland: lowest index
            else:
                enter = int(np.argmin(score))
            direction = -1.0 if at_upper[enter] else 1.0
            w = direction * tableau[:, enter]

            # Largest step before a basic variable hits one of its bounds.
            t_best = ub[enter]
            leave_row = -1
            leave_to_upper = False
            pos = np.where(w > PIVOT_TOL)[0]
            neg = np.where(w < -PIVOT_TOL)[0]
            if pos.size:
                steps = xb[pos] / w[pos]
                k = int(np.argmin(steps))
                if steps[k] < t_best - 1e-15:
                    t_best = max(steps[k], 0.0)
                    leave_row = int(pos[k])
                    leave_to_upper = False
            if neg.size:
                ub_b = ub[basis[neg]]
                finite = np.isfinite(ub_b)
                if finite.any():
                    rows = neg[finite]
                    steps = (ub_b[finite] - xb[rows]) / (-w[rows])
                    k = int(np.argmin(steps))
                    if steps[k] < t_best - 1e-15:
                        t_best = max(steps[k], 0.0)
                        leave_row = int(rows[k])
                        leave_to_upper = True
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
            new_value = t_best if direction > 0 else ub[enter] - t_best
            piv = tableau[leave_row, enter]
            row = tableau[leave_row] / piv
            col = tableau[:, enter].copy()
            col[leave_row] = 0.0
            rr, cc = np.flatnonzero(col), np.flatnonzero(row)
            if rr.size:  # cc always holds the entering column
                tableau[np.ix_(rr, cc)] -= np.outer(col[rr], row[cc])
            tableau[leave_row] = row
            basis[leave_row] = enter
            is_basic[enter] = True
            is_basic[leaving] = False
            at_upper[enter] = False
            at_upper[leaving] = leave_to_upper
            xb[leave_row] = new_value
        return ITERATION_LIMIT

    status = run_phase(phase1_cost, phase_one=True)
    if status == ITERATION_LIMIT:
        return LPResult(ITERATION_LIMIT, None, None, iterations)
    refresh_xb()
    art_set = set(art_cols)
    art_values = sum(xb[ri] for ri in range(m) if basis[ri] in art_set) + sum(
        ub[j] if at_upper[j] else 0.0 for j in art_cols if not is_basic[j])
    if status == INFEASIBLE or art_values > FEAS_TOL * max(1.0, float(np.max(np.abs(b))) if m else 1.0):
        return LPResult(INFEASIBLE, None, None, iterations)

    # Artificials are pinned at zero for phase 2 instead of being pivoted out.
    for j in art_cols:
        ub[j] = 0.0
    degenerate_run = 0
    status = run_phase(phase2_cost, phase_one=False)
    if status in (ITERATION_LIMIT, UNBOUNDED):
        return LPResult(status, None, None, iterations)

    refresh_xb()
    values_ext = np.where(at_upper & np.isfinite(ub), ub, 0.0)
    values_ext[~np.isfinite(values_ext)] = 0.0
    values_ext[basis] = xb
    x = _recover(values_ext, transforms, model.n_vars)
    # Clamp round-off excursions back into the declared boxes.
    for j, v in enumerate(model.variables):
        if v.lb != -INF:
            x[j] = max(x[j], v.lb)
        if v.ub != INF:
            x[j] = min(x[j], v.ub)
    x = pre.expand(x)
    return LPResult(OPTIMAL, full.evaluate_objective(x), x, iterations)
