"""kgflow benchmark: kg-flow operations as a user runs them, one at a time.

    python3 perfbench/run.py --workload {validate,portrait,density_scan}
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Each operation runs kgflow.cli.main(argv) in a fresh child process
(child.py) that imports kgflow from src/ of the checkout, the directory
above this one.  The load is a closed loop with one client, until S
seconds have passed.  --trace 0 prints the end-to-end metrics, --trace 1
the per-layer metrics of a separate traced run; README.md defines each.
The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Without kgflow sources in the checkout
the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, CheckError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 11
# every child must end before this many seconds from the start
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}

CALLS, TOTAL, SELF, WORK = range(4)

LAYERS = ("scenarios", "states", "current", "newton_wigner", "conditional",
          "trajectories", "validation")

# validation report check -> span names whose inclusive time it is
VALIDATION_CHECKS = {
    "momentum_truncation": ("scenarios.truncation_defect",),
    "continuity_standard": ("validation.richardson_divergence",),
    "continuity_conditional": ("validation.richardson_divergence:conditional",),
    "conditional_normalization": ("validation.conditional_normalization_defect",),
    "decomposition_l2": ("conditional.decompose_check",),
    "kernel_vs_bessel": ("newton_wigner.position_kernel", "newton_wigner.bessel_k0"),
    "nw_parseval": ("validation.nw_parseval_defect",),
}


class ChildError(Exception):
    """A child process failed, timed out or printed no result."""


class Bench:
    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.count = 0
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def child(self, extra) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildError("time limit reached")
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC), *extra]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as err:
            raise ChildError(f"no result after {remaining:.0f} s") from err
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(lines[-1])

    def setup(self) -> float:
        start = time.perf_counter()
        self.child(["--setup", *self.workload.scenarios])
        return time.perf_counter() - start

    def operation(self, i: int, traced: bool):
        """Run and check operation i; None when it failed."""
        out = self.work / f"op{self.count}"
        self.count += 1
        argv = self.workload.argv(self.seed, i, out)
        extra = ["--spans", str(OUT / f"spans-{self.workload.name}.csv")] if traced else []
        try:
            result = self.child([*extra, "--", *argv])
            if result["code"] != 0:
                raise CheckError(f"kg-flow exited {result['code']}")
            result["work"] = self.workload.check(out, argv)
        except (ChildError, CheckError, OSError, ValueError, KeyError, TypeError) as err:
            print(f"perfbench: operation {i} ({' '.join(argv[:3])} ...) failed: {err}",
                  file=sys.stderr)
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return result


def _closed_loop(bench: Bench, seconds: float):
    start = time.monotonic()
    done, failed, i = [], 0, 0
    while i == 0 or time.monotonic() - start < seconds:
        result = bench.operation(i, traced=False)
        i += 1
        if result is None:
            failed += 1
        else:
            done.append(result)
    return done, failed


def end_to_end(bench: Bench, seconds: float):
    setups = [bench.setup() for _ in range(SETUP_REPEATS)]
    done, failed = _closed_loop(bench, seconds)
    walls = [r["wall_s"] for r in done]
    print(json.dumps({"samples": {"setup_s": setups, "wall_s": walls}}))
    metrics = {}
    if done:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
            "work_per_s": sum(r["work"] for r in done) / sum(walls),
        }
    return metrics, END_TO_END_UNITS, len(done) + failed, failed, True


def _sum(ops, name, field):
    return sum(op["spans"].get(name, (0, 0.0, 0.0, 0))[field] for op in ops)


def _ratio(num, den):
    return num / den if den else 0.0


def _exact_counts(op) -> dict:
    """Counts that must come out identical for identical inputs."""
    one = [op]
    return {
        "states.psi_dpsi_grid.calls": _sum(one, "states.psi_dpsi_grid", CALLS),
        "states.point_modes": sum(v[WORK] for k, v in op["spans"].items()
                                  if k.startswith("states.")),
        "current.current.calls": _sum(one, "current.current", CALLS),
        "conditional.weighted_integrand_grid.calls":
            _sum(one, "conditional.weighted_integrand_grid", CALLS),
        "trajectories.trace.steps": _sum(one, "trajectories.trace", WORK),
    }


def layer_metrics(traced, pairs):
    """Per-layer metrics and units from the span summaries of traced operations."""
    n = len(traced)

    def per_op(*names, field=TOTAL):
        return sum(_sum(traced, name, field) for name in names) / n

    def per_call(name, scale):
        return scale * _ratio(_sum(traced, name, TOTAL), _sum(traced, name, CALLS))

    def rate(name):
        return _ratio(_sum(traced, name, WORK), _sum(traced, name, TOTAL))

    metrics = {name: (value, "count") for name, value in _exact_counts(traced[0]).items()}
    metrics.update({
        "states.psi_dpsi_grid.point_modes_per_s": (rate("states.psi_dpsi_grid"), "1/s"),
        "current.current.us_per_call": (per_call("current.current", 1e6), "us"),
        "current.current_grid.point_modes_per_s": (rate("current.current_grid"), "1/s"),
        "newton_wigner.nw_density_grid.point_modes_per_s":
            (rate("newton_wigner.nw_density_grid"), "1/s"),
        "newton_wigner.position_kernel.ms_per_delta":
            (per_call("newton_wigner.position_kernel", 1e3), "ms"),
        "newton_wigner.bessel_k0.us_per_call": (per_call("newton_wigner.bessel_k0", 1e6), "us"),
        "conditional.weighted_integrand_grid.self_s":
            (per_op("conditional.weighted_integrand_grid", field=SELF), "s"),
        "conditional.decompose_check.s": (per_op("conditional.decompose_check"), "s"),
        "conditional.conditional_current.us_per_call":
            (per_call("conditional.conditional_current", 1e6), "us"),
        "conditional.make_outcome_ensemble.ms":
            (per_call("conditional.make_outcome_ensemble", 1e3), "ms"),
        "trajectories.trace.steps_per_s": (rate("trajectories.trace"), "1/s"),
        "trajectories.trace.field_calls_per_step": (_ratio(
            _sum(traced, "trajectories.field", CALLS),
            _sum(traced, "trajectories.trace", WORK)), "ratio"),
        "scenarios.load_scenario.ms": (per_call("scenarios.load_scenario", 1e3), "ms"),
        "scenarios.build_state.ms": (per_call("scenarios.build_state", 1e3), "ms"),
        "cli.main.self_s": (per_op("cli.main", field=SELF), "s"),
        "tracing.overhead_s": (statistics.median(t - u for u, t in pairs), "s"),
    })
    for check, names in VALIDATION_CHECKS.items():
        metrics[f"validation.{check}.s"] = (per_op(*names), "s")
    for layer in LAYERS:
        self_s = sum(v[SELF] for op in traced for k, v in op["spans"].items()
                     if k.startswith(layer + "."))
        metrics[f"{layer}.self_s"] = (self_s / n, "s")
    return metrics


def per_layer(bench: Bench, seconds: float):
    start = time.monotonic()
    traced, pairs = [], []
    attempted = failed = 0
    repeatable = True
    i = 0
    while i == 0 or time.monotonic() - start < seconds:
        plain = bench.operation(i, traced=False)
        runs = [bench.operation(i, traced=True) for _ in range(2 if i == 0 else 1)]
        attempted += 1 + len(runs)
        failed += (plain is None) + sum(r is None for r in runs)
        if i == 0 and None not in runs:
            first, again = (_exact_counts(r) for r in runs)
            if first != again:
                repeatable = False
                print(f"perfbench: exact counts differ between identical operations: "
                      f"{first} != {again}", file=sys.stderr)
        if plain is not None and runs[0] is not None:
            pairs.append((plain["wall_s"], runs[0]["wall_s"]))
        traced.extend(r for r in runs if r is not None)
        i += 1
    metrics, units = {}, {}
    if traced and pairs:
        for name, (value, unit) in layer_metrics(traced, pairs).items():
            metrics[name] = value
            units[name] = unit
    return metrics, units, attempted, failed, repeatable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks each operation, for the smoke test")
    args = parser.parse_args(argv)

    data = SRC / "kgflow" / "data"
    if not (SRC / "kgflow" / "__init__.py").is_file() or not data.is_dir():
        print(f"perfbench: no kgflow sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](data, args.size == "tiny")
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{workload.name}-") as work:
        bench = Bench(workload, args.seed, Path(work))
        try:
            # untimed: the first import also writes the bytecode caches
            facts = bench.child(["--setup", *workload.scenarios])["machine"]
            print(json.dumps({"workload": workload.name, "seed": args.seed,
                              "size": args.size, "argv_shape": workload.argv_shape,
                              "machine": facts}))
            run = per_layer if args.trace else end_to_end
            metrics, units, attempted, failed, repeatable = run(bench, args.seconds)
        except ChildError as err:
            print(f"perfbench: cannot set up kgflow: {err}", file=sys.stderr)
            return 2
    print(json.dumps({
        "correct": failed == 0 and repeatable and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
