"""One kg-flow operation, or one set-up, in a fresh interpreter.

    child.py --src DIR [--spans FILE] -- <kg-flow argv>
        Calls kgflow.cli.main(argv) and prints one JSON line: the exit
        code, the seconds spent inside main(), the peak RSS in MB and the
        machine facts.  With --spans, every call into the traced kgflow
        functions is recorded (see tracing.py), the spans are written to
        FILE after main() returns, and their summary joins the line.

    child.py --src DIR --setup SCENARIO [SCENARIO ...]
        Imports kgflow, then loads each scenario and builds its state and,
        where it has a final block, its outcome ensemble.  The caller
        times the whole process.

kgflow must come from DIR, the checkout's src directory; the child
refuses to run against any other copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _import_kgflow(src: Path):
    import kgflow

    origin = Path(kgflow.__file__).resolve().parent
    if origin != src / "kgflow":
        raise SystemExit(f"kgflow imported from {origin}, expected {src / 'kgflow'}")
    return kgflow


def _machine() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        # the pool size kg-flow uses when --threads is left out
        "pool_size": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _setup(src: Path, scenarios) -> dict:
    kgflow = _import_kgflow(src)
    for name in scenarios:
        scenario = kgflow.load_scenario(name)
        state = kgflow.build_state(scenario)
        if scenario.final is not None:
            kgflow.build_ensemble(scenario, state)
    return {"machine": _machine()}


def _operation(src: Path, argv, spans_path) -> dict:
    _import_kgflow(src)
    import kgflow.cli

    tracer = None
    if spans_path is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    main = kgflow.cli.main
    start = time.perf_counter()
    code = main(argv)
    wall = time.perf_counter() - start
    result = {
        "code": code,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": _machine(),
    }
    if tracer is not None:
        tracing.write_spans(tracer.spans, spans_path)
        result["spans"] = tracing.summarize(tracer.spans)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--setup", nargs="+", default=None)
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()
    src = args.src.resolve()
    if args.setup is not None:
        result = _setup(src, args.setup)
    else:
        result = _operation(src, args.argv, args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
