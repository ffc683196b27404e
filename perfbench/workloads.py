"""The benchmark's workloads: kg-flow argv drawn from a seed, and output checks.

Operation i of a workload gets its argv from (workload, seed, i) alone,
so two runs with one seed hand the program the same inputs.  `check`
reads what an operation wrote, raises CheckError when the output is
wrong, and returns the operation's units of work, from which the
benchmark reports work per second:

- validate: report checks run;
- portrait: accepted RK4 steps over all traced lines;
- density_scan: positions x momentum nodes x 2 evaluations (current
  table and Newton-Wigner table).
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np


class CheckError(Exception):
    """An operation's output breaks the contract the benchmark checks."""


def _scenario(data: Path, name: str) -> dict:
    return json.loads((data / f"{name}.json").read_text(encoding="utf-8"))


class Validate:
    """The slowest user command; the conditional and validation layers do
    nearly all of its work.  Its input does not depend on the seed."""

    name = "validate"
    argv_shape = "validate --scenario s1_conditional --out DIR"
    scenarios = ("s1_conditional",)

    def __init__(self, data: Path, tiny: bool):
        pass

    def argv(self, seed: int, i: int, out: Path):
        return ["validate", "--scenario", "s1_conditional", "--out", str(out)]

    def check(self, out: Path, argv) -> int:
        report = json.loads((out / "validation_report.json").read_text(encoding="utf-8"))
        failing = sorted(k for k, c in report["checks"].items() if not c["pass"])
        if not report["all_pass"] or failing:
            raise CheckError(f"validation checks failed: {failing}")
        return len(report["checks"])


class Portrait:
    """Current-line portraits: fans of seeds traced through density reversals.

    Two operations in three trace standard T,X seeds on
    s1_negative_density; every third traces half as many T,X,Q seeds on
    s1_conditional, whose field costs about twice as much per call, so
    both kinds take about the same time.  Seeds are stratified in x and
    kept off the box edges, and Q stays where the outcome probability is
    far above the CLI's amplitude floor, so no line stops at its seed.
    """

    name = "portrait"
    argv_shape = ("trajectories --scenario s1_negative_density|s1_conditional "
                  "--max-steps 300 --seed=T,X[,Q] (32 T,X or 16 T,X,Q) --out DIR")
    scenarios = ("s1_negative_density", "s1_conditional")
    STOP_REASONS = {"box-exit", "node", "max-steps"}
    # (scenario, seeds per operation, t range, x range, Q range)
    STANDARD = ("s1_negative_density", 32, (-3.0, 3.0), (-6.0, 6.0), None)
    CONDITIONAL = ("s1_conditional", 16, (-1.5, 1.5), (-6.0, 6.0), (-4.0, 6.0))

    def __init__(self, data: Path, tiny: bool):
        self.max_steps = 20 if tiny else 300
        self.divisor = 16 if tiny else 1

    def argv(self, seed: int, i: int, out: Path):
        rng = random.Random(f"portrait:{seed}:{i}")
        scenario, n, (t_lo, t_hi), (x_lo, x_hi), q_range = (
            self.CONDITIONAL if i % 3 == 2 else self.STANDARD
        )
        n = max(1, n // self.divisor)
        argv = ["trajectories", "--scenario", scenario,
                "--max-steps", str(self.max_steps), "--out", str(out)]
        for k in range(n):
            parts = [rng.uniform(t_lo, t_hi), x_lo + (k + rng.random()) * (x_hi - x_lo) / n]
            if q_range is not None:
                parts.append(rng.uniform(*q_range))
            argv.append("--seed=" + ",".join(repr(v) for v in parts))
        return argv

    def check(self, out: Path, argv) -> int:
        summary = json.loads(
            (out / "trajectories_summary.json").read_text(encoding="utf-8"))
        lines = summary["trajectories"]
        n_seeds = sum(a.startswith("--seed=") for a in argv)
        if len(lines) != n_seeds:
            raise CheckError(f"{len(lines)} lines for {n_seeds} seeds")
        with open(out / "trajectories.csv", encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        events = sum(line["n_events"] for line in lines)
        if rows != events:
            raise CheckError(f"{rows} csv rows but n_events sums to {events}")
        for line in lines:
            if line["stop_reason"] not in self.STOP_REASONS:
                raise CheckError(f"line {line['id']}: stop reason {line['stop_reason']!r}")
            total = sum(line["fractions"].values())
            if not abs(total - 1.0) <= 1e-9:
                raise CheckError(f"line {line['id']}: fractions sum to {total!r}")
        return sum(line["n_events"] - 1 for line in lines)


class DensityScan:
    """Bulk j0, j1 and Newton-Wigner density on 20001 positions at a
    seed-drawn time, through the CLI's thread pool and 17-digit CSV."""

    name = "density_scan"
    argv_shape = "density --scenario s1_negative_density --n-x 20001 --t=T --out DIR"
    scenarios = ("s1_negative_density",)
    # Both densities integrate to 1 over the real line.  The box
    # [-14, 14] loses at most 1e-3 of either at |t| = 5, the box edge.
    INTEGRAL_TOL = 2e-3

    def __init__(self, data: Path, tiny: bool):
        raw = _scenario(data, "s1_negative_density")
        self.box = raw["box"]
        self.nodes = raw["grid"]["panels"] * raw["grid"]["nodes_per_panel"]
        self.n_x = 401 if tiny else 20001

    def argv(self, seed: int, i: int, out: Path):
        t = random.Random(f"density_scan:{seed}:{i}").uniform(
            self.box["t_lo"], self.box["t_hi"])
        return ["density", "--scenario", "s1_negative_density", "--n-x", str(self.n_x),
                f"--t={t!r}", "--out", str(out)]

    def check(self, out: Path, argv) -> int:
        path = out / "density.csv"
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
        if header != "x,j0,j1,nw_density":
            raise CheckError(f"density.csv header {header!r}")
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if table.shape != (self.n_x, 4):
            raise CheckError(f"density.csv has shape {table.shape}")
        if not np.all(np.isfinite(table)):
            raise CheckError("density.csv has non-finite cells")
        x = table[:, 0]
        expected_x = np.linspace(self.box["x_lo"], self.box["x_hi"], self.n_x)
        if not np.allclose(x, expected_x, rtol=0, atol=1e-12):
            raise CheckError("density.csv x column is not the box grid")
        for column, label in ((1, "j0"), (3, "nw_density")):
            total = float(np.trapezoid(table[:, column], x))
            if not math.isfinite(total) or abs(total - 1.0) > self.INTEGRAL_TOL:
                raise CheckError(f"integral of {label} is {total!r}")
        return self.n_x * self.nodes * 2


WORKLOADS = {w.name: w for w in (Validate, Portrait, DensityScan)}
