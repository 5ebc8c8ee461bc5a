"""Sparse HiGHS adapter for dcflex's ``--backend cmd:<command>`` contract.

Usage: python highs_adapter.py MODEL.mps SOLUTION.sol

Reads the MPS file with ``dcflex.mps.read_mps``, assembles the constraint
matrix as CSR (together: the parse time), solves it with
``scipy.optimize.milp`` (HiGHS; the HiGHS time) to proven optimality
(relative gap 0, so HiGHS stops at its absolute gap of 1e-6) and writes
one ``name value`` line per variable. Exit codes follow the contract in
``dcflex.mps``: 0 optimal, 2 infeasible, 1 anything else.

When the environment variable PERFBENCH_ADAPTER_LOG names a file, one JSON
line with the parse and HiGHS wall times is appended to it.
"""

import json
import os
import sys
import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from dcflex.mps import read_mps


def model_arrays(model):
    """CSR constraint matrix, row bounds, objective, integrality, variable bounds."""
    n = model.n_vars
    indptr = np.zeros(model.n_rows + 1, dtype=np.int64)
    cols, vals = [], []
    lo = np.empty(model.n_rows)
    hi = np.empty(model.n_rows)
    for r, row in enumerate(model.rows):
        for j, c in row.coeffs:
            cols.append(j)
            vals.append(c)
        indptr[r + 1] = len(cols)
        lo[r] = -np.inf if row.sense == "<=" else row.rhs
        hi[r] = np.inf if row.sense == ">=" else row.rhs
    a = csr_matrix((np.asarray(vals, dtype=float), np.asarray(cols, dtype=np.int64), indptr),
                   shape=(model.n_rows, n))
    integrality = np.array([1 if v.integer else 0 for v in model.variables])
    lb = np.array([v.lb for v in model.variables])
    ub = np.array([v.ub for v in model.variables])
    return a, lo, hi, model.objective_vector(), integrality, Bounds(lb, ub)


def highs(arrays):
    """Solve ``model_arrays`` output with ``scipy.optimize.milp``."""
    a, lo, hi, c, integrality, bounds = arrays
    constraints = [LinearConstraint(a, lo, hi)] if a.shape[0] else []
    return milp(c, constraints=constraints, integrality=integrality, bounds=bounds,
                options={"mip_rel_gap": 0.0})


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: highs_adapter.py MODEL.mps SOLUTION.sol", file=sys.stderr)
        return 1
    mps_path, sol_path = argv
    t0 = time.perf_counter()
    model = read_mps(mps_path)
    arrays = model_arrays(model)
    t1 = time.perf_counter()
    res = highs(arrays)
    t2 = time.perf_counter()
    log = os.environ.get("PERFBENCH_ADAPTER_LOG")
    if log:
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"model": model.name, "parse_s": t1 - t0,
                                 "highs_s": t2 - t1}) + "\n")
    if res.status == 2:
        return 2
    if res.status != 0:
        print(f"HiGHS status {res.status}: {res.message}", file=sys.stderr)
        return 1
    with open(sol_path, "w", encoding="utf-8") as fh:
        for v, val in zip(model.variables, res.x):
            fh.write(f"{v.name} {float(val)!r}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
