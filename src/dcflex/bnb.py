"""Bundled MIP solver: best-first branch and bound over binary variables.

Each node re-solves the LP relaxation on the bundled simplex with the
node's binaries passed as solve_lp's pins, so no solve writes to the
caller's model. Binaries only; desk-scale models (a few dozen binaries)
solve exactly.
"""

import heapq
from dataclasses import dataclass, field

import numpy as np

from .simplex import INFEASIBLE, ITERATION_LIMIT, OPTIMAL, UNBOUNDED, solve_lp
from .standard_form import StandardFormModel

INT_TOL = 1e-6
GAP_TOL = 1e-9


@dataclass
class MIPResult:
    status: str  # optimal | infeasible | unbounded | iteration_limit
    objective: float | None
    x: np.ndarray | None
    best_bound: float | None
    nodes: int
    presolve: dict = field(default_factory=dict)  # the root's presolve counts

    @property
    def gap(self) -> float | None:
        if self.objective is None or self.best_bound is None:
            return None
        return abs(self.objective - self.best_bound) / max(1.0, abs(self.objective))


def _check_binary(model: StandardFormModel) -> list[int]:
    idx = model.integer_indices()
    for j in idx:
        v = model.variables[j]
        if v.lb < -INT_TOL or v.ub > 1.0 + INT_TOL:
            raise ValueError(
                f"integer variable {v.name} has bounds [{v.lb}, {v.ub}]; "
                "only binaries are supported"
            )
    return idx

def _fractional(x: np.ndarray, int_idx: list[int]):
    worst_j = -1
    worst_frac = INT_TOL
    for j in int_idx:
        frac = abs(x[j] - round(x[j]))
        if frac > worst_frac:
            worst_frac = frac
            worst_j = j
    return worst_j


def solve_mip(model: StandardFormModel) -> MIPResult:
    """Exact minimization over the model's binaries by branch and bound."""
    int_idx = _check_binary(model)
    root = solve_lp(model)
    if root.status in (INFEASIBLE, UNBOUNDED, ITERATION_LIMIT):
        return MIPResult(root.status, None, None, None, 1, root.presolve)

    incumbent_x: np.ndarray | None = None
    incumbent_obj = float("inf")

    def consider(result):
        nonlocal incumbent_x, incumbent_obj
        if result.status == OPTIMAL and result.objective < incumbent_obj - GAP_TOL:
            if _fractional(result.x, int_idx) < 0:
                incumbent_obj = result.objective
                incumbent_x = result.x.copy()
                return True
        return False

    consider(root)

    counter = 0
    heap: list = []
    frac_j = _fractional(root.x, int_idx)
    if frac_j >= 0:
        heapq.heappush(heap, (root.objective, counter, {}, frac_j))
    nodes = 1

    while heap:
        bound, _, fixed, branch_j = heapq.heappop(heap)
        if bound >= incumbent_obj - GAP_TOL:
            break
        for val in (0.0, 1.0):
            child_fixed = dict(fixed)
            child_fixed[branch_j] = val
            result = solve_lp(model, child_fixed)
            nodes += 1
            if result.status != OPTIMAL:
                continue
            if result.objective >= incumbent_obj - GAP_TOL:
                continue
            if consider(result):
                continue
            child_branch = _fractional(result.x, int_idx)
            if child_branch < 0:
                continue
            counter += 1
            heapq.heappush(heap, (result.objective, counter, child_fixed, child_branch))

    if incumbent_x is None:
        return MIPResult(INFEASIBLE, None, None, None, nodes, root.presolve)
    # Re-solve with the binary pattern pinned so continuous values are clean
    # at exactly integral binaries; if that fails, the incumbent's own solve
    # stands. The search stops only when no open node can beat the
    # incumbent, so its objective is the proven bound.
    final = solve_lp(model, {j: float(round(incumbent_x[j])) for j in int_idx})
    if final.status == OPTIMAL:
        return MIPResult(OPTIMAL, final.objective, final.x, incumbent_obj, nodes, root.presolve)
    return MIPResult(OPTIMAL, incumbent_obj, incumbent_x, incumbent_obj, nodes, root.presolve)
