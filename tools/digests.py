"""Print sha256 digests of dcflex's seeded outputs, one line each.

Run from any directory:

    python3 tools/digests.py > tools/digests.txt

Two checkouts that produce the same outputs print the same text. The
output is committed as ``tools/digests.txt``, and
``tests/test_digests.py`` requires the tool to print it; a commit that
moves a digest on purpose regenerates the file with the command above.
It prints four sections:

- ``demo``: every artifact of the README demo flow (``gen-instance
  --preset demo --seed 7``, ``fit-signal``, ``solve``, ``simulate
  --scenarios 20 --seed 11``, ``compare`` of three strategies in mode
  joint, ``report``);
- ``mid``: every artifact of a 4 DC x 12 slot x 24 cluster bundle at
  seed 7, solved through ``--backend cmd:python3
  perfbench/highs_adapter.py`` and replayed with ``simulate --scenarios
  200 --seed 11``;
- ``cell``: 126 in-process solves on the bundled solver, the demo
  instance at seed 7 and the ``small`` preset at seeds 1-20, each under
  cooperative, independent and decoupled in mode joint and cooperative in
  modes none, spatial and temporal. A cell prints the sha256 of its
  ``solution.json`` text, its objective in hex and whether
  ``validate_solution`` passed;
- ``violations``: the demo instance at seed 7 solved under cooperative,
  independent and decoupled in mode joint, each checked by
  ``validate_solution`` on 40 seeded perturbations of its solution (a
  tenth of one array's entries nudged, the array chosen by the seed). A
  line prints the number of violations and the sha256 of the sorted
  (perturbation, family, where) list, so it does not depend on the order
  of a report.

The commands run in this checkout's root, so the ``cmd:`` backend string
recorded in ``solution.json`` is the same in every checkout. It takes
about 10 s on two cores and about 9 s on one.
"""

import copy
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from dcflex.artifacts import InfeasibleModel, SolverError  # noqa: E402
from dcflex.cli import main  # noqa: E402
from dcflex.instance import (  # noqa: E402
    DEMO_SEED,
    build_synthetic,
    demo_params,
    fit_signal_artifacts,
    small_params,
)
from dcflex.optimizer import run_strategy  # noqa: E402
from dcflex.validate import validate_solution  # noqa: E402

ADAPTER = "cmd:python3 perfbench/highs_adapter.py"
CELLS = [(s, "joint") for s in ("cooperative", "independent", "decoupled")]
CELLS += [("cooperative", m) for m in ("none", "spatial", "temporal")]
PERTURBATIONS = 40
PERTURBED = ("x", "reg", "gen", "commit", "theta", "shed")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(*argv) -> None:
    code = main([*map(str, argv), "--quiet"])
    if code != 0:
        raise SystemExit(f"dcflex {argv[0]} exited {code}")


def _print_tree(section: str, root: Path) -> None:
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        print(f"{section} {path.relative_to(root)} {_sha256(path.read_bytes())}")


def demo_flow(root: Path) -> None:
    bundle, solve = root / "b1", root / "s1"
    _run("gen-instance", "--out", bundle, "--seed", 7, "--preset", "demo")
    _run("fit-signal", "--trace", bundle / "signal.csv", "--out", root / "fit")
    _run("solve", "--bundle", bundle, "--out", solve, "--mode", "joint",
         "--strategy", "cooperative")
    _run("simulate", "--bundle", bundle, "--solution", solve / "solution.json",
         "--out", solve, "--scenarios", 20, "--seed", 11)
    _run("compare", "--bundle", bundle, "--out", root / "cmp",
         "--strategies", "cooperative,independent,decoupled", "--modes", "joint")
    _run("report", "--out", solve)
    _print_tree("demo", root)


def mid_flow(root: Path) -> None:
    bundle, solve = root / "bundle", root / "solve"
    _run("gen-instance", "--out", bundle, "--seed", 7, "--n-dc", 4, "--slots", 12,
         "--clusters", 24)
    _run("solve", "--bundle", bundle, "--out", solve, "--mode", "joint",
         "--strategy", "cooperative", "--backend", ADAPTER)
    _run("simulate", "--bundle", bundle, "--solution", solve / "solution.json",
         "--out", solve, "--scenarios", 200, "--seed", 11)
    _print_tree("mid", root)


def cells() -> None:
    instances = [("demo", DEMO_SEED, demo_params())]
    instances += [("small", s, small_params()) for s in range(1, 21)]
    for name, seed, params in instances:
        inst, cfg, trace = build_synthetic(params, seed)
        fitted = fit_signal_artifacts(trace, cfg)
        for strategy, mode in CELLS:
            c = replace(cfg, strategy=strategy, shifting_mode=mode)
            try:
                sol = run_strategy(inst, c, fitted)
            except (InfeasibleModel, SolverError) as exc:
                print(f"cell {name} {seed} {strategy} {mode} {type(exc).__name__}: {exc}")
                continue
            text = json.dumps(sol.to_dict(inst.jobs), indent=2, sort_keys=True) + "\n"
            ok = validate_solution(inst, c, fitted, sol).ok
            print(f"cell {name} {seed} {strategy} {mode} {_sha256(text.encode())} "
                  f"{sol.objective_total.hex()} {'valid' if ok else 'VIOLATIONS'}")


def perturbed(sol, seed: int):
    """A copy of ``sol`` with a seeded tenth of one array's entries nudged
    by noise at 5 % of that array's largest magnitude (at least 1)."""
    rng = np.random.default_rng(seed)
    out = copy.deepcopy(sol)
    arr = getattr(out, PERTURBED[seed % len(PERTURBED)])
    mask = rng.random(arr.shape) < 0.1
    arr += mask * rng.normal(0.0, 0.05 * max(1.0, float(np.abs(arr).max())), arr.shape)
    return out


def violations() -> None:
    inst, cfg, trace = build_synthetic(demo_params(), DEMO_SEED)
    fitted = fit_signal_artifacts(trace, cfg)
    for strategy, mode in CELLS[:3]:
        c = replace(cfg, strategy=strategy, shifting_mode=mode)
        sol = run_strategy(inst, c, fitted)
        found = sorted((seed, v.family, v.where) for seed in range(PERTURBATIONS)
                       for v in validate_solution(inst, c, fitted, perturbed(sol, seed)).violations)
        print(f"violations demo {DEMO_SEED} {strategy} {mode} {len(found)} "
              f"{_sha256(json.dumps(found).encode())}")


def run() -> None:
    os.chdir(ROOT)
    # The cmd: adapter imports dcflex in a child process.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix="dcflex_digests_") as tmp:
        demo_flow(Path(tmp) / "demo")
        mid_flow(Path(tmp) / "mid")
    cells()
    violations()


if __name__ == "__main__":
    run()
