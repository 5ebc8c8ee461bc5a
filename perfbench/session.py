"""Run dcflex CLI commands in this one process through ``dcflex.cli.main``.

Usage: python session.py SPEC.json RESULT.json

SPEC holds ``{"argvs": [[...], ...], "trace": true|false}``. With tracing on,
every public function of ``dcflex`` is wrapped (see tracer.py) before the
first command. RESULT receives the exit codes, ``wall_s`` (the summed time
of the ``main`` calls) and, when traced, the spans, counters and notes.
"""

import json
import sys
import time
import traceback

from tracer import Tracer


def main(spec_path, result_path) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        from layers import HOOKS, counted_methods

        tracer = Tracer(HOOKS, counted_methods())
        tracer.install("dcflex")
    from dcflex import cli

    codes, times = [], []
    for run_id, argv in enumerate(spec["argvs"]):
        if tracer is not None:
            tracer.run_id = run_id
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
        times.append(time.perf_counter() - start)
        codes.append(code)
        sys.stdout.flush()
    result = {"codes": codes, "wall_s": sum(times)}
    if tracer is not None:
        result.update(spans=tracer.spans, counters=dict(tracer.counters), notes=tracer.notes)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
