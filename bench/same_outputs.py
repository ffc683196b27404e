"""Whether two revisions of kgflow write the same artifacts, byte for byte.

    python3 bench/same_outputs.py [--base REV]

The two sides are --base (HEAD by default) and the index, each exported
with run_bench._export into a fresh directory.  Every command in
`commands` runs on each side in a fresh interpreter that imports kgflow
from that side's src; each artifact it writes is then compared across the
sides:

- density.csv of s1_negative_density at --n-x 20001 (three times) and at
  --n-x 1000001 (t = 0), and of each bundled scenario at the density
  subcommand's defaults;
- validation_report.json of s1_conditional, single_rest and
  single_boosted, after dropping each check's `seconds`, the time the
  check took;
- trajectories.csv and trajectories_summary.json of each bundled scenario
  at the trajectories subcommand's defaults (its fan of seeds), of the
  conditional seeds 0,1,3, 0.5,2,6 and -1,0,0 on s1_conditional, one run
  each, of s1_negative_density at --step 1e-6 --max-steps 300 (a tiny
  step, whose jets span the whole trace), and of perfbench's `portrait`
  operations 0-2 at seed 11 (the index's argv on both sides);
- kernel.csv at the kernel subcommand's defaults.

One line per artifact says "same" or "different", and one per command
gives each side's peak RSS, read by the child itself from VmHWM in
/proc/self/status after the command ran (MB of 2^20 bytes, as perfbench
reports it).  VmHWM starts afresh at exec, so the figure is the
command's own, whatever this script holds; getrusage's ru_maxrss would
start at this script's peak.  The exit code is 1 on any difference or
failed command.  The commands run one at a time; the 1000001-point
density peaks at about 90-120 MB of RSS.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_bench = _load("run_bench", HERE / "run_bench.py")

DENSITY = [("20001", t) for t in ("-4.00643355463875", "0", "3.7")] + [("1000001", "0")]
VALIDATE = ("s1_conditional", "single_rest", "single_boosted")
BUNDLED = ("single_rest", "single_boosted", "s1_negative_density", "s1_conditional")
CONDITIONAL_SEEDS = ("0,1,3", "0.5,2,6", "-1,0,0")
TRAJECTORIES = ["trajectories.csv", "trajectories_summary.json"]


def commands(root: Path) -> list:
    """(label, argv with DIR for the output directory, artifacts) of every compared run."""
    out = ["--out", "DIR"]
    runs = [(f"density n_x={n} t={t}",
             ["density", "--scenario", "s1_negative_density", "--n-x", n, f"--t={t}", *out],
             ["density.csv"]) for n, t in DENSITY]
    runs += [(f"density {name}", ["density", "--scenario", name, *out], ["density.csv"])
             for name in BUNDLED]
    runs += [(f"validate {name}", ["validate", "--scenario", name, *out],
              ["validation_report.json"]) for name in VALIDATE]
    runs += [(f"trajectories {name}", ["trajectories", "--scenario", name, *out], TRAJECTORIES)
             for name in BUNDLED]
    runs += [(f"trajectories s1_conditional seed {seed}",
              ["trajectories", "--scenario", "s1_conditional", f"--seed={seed}", *out],
              TRAJECTORIES) for seed in CONDITIONAL_SEEDS]
    runs.append(("trajectories s1_negative_density step 1e-6",
                 ["trajectories", "--scenario", "s1_negative_density", "--step", "1e-6",
                  "--max-steps", "300", *out], TRAJECTORIES))
    data = root / "src" / "kgflow" / "data"
    portrait = run_bench._perfbench(root).WORKLOADS["portrait"](data, False)
    runs += [(f"portrait seed 11 operation {i}", portrait.argv(11, i, Path("DIR")),
              TRAJECTORIES) for i in range(3)]
    runs.append(("kernel", ["kernel", "--scenario", "s1_negative_density", *out], ["kernel.csv"]))
    return runs


def normalised(name: str, data: bytes) -> bytes:
    """An artifact's bytes as compared: a validation report without its checks' seconds."""
    if name != "validation_report.json":
        return data
    report = json.loads(data)
    for check in report["checks"].values():
        check.pop("seconds", None)
    return json.dumps(report, indent=2, sort_keys=True).encode()


# the child's last line of output: its peak RSS in KiB, the unit of VmHWM
CHILD = ("import sys; from kgflow.cli import main; code = main(sys.argv[1:]); "
         "print(next(line.split()[1] for line in open('/proc/self/status') "
         "if line.startswith('VmHWM:'))); sys.exit(code)")


def peak_rss_mb(stdout: str):
    """The child's peak RSS in MB from its output's last line, or None if it printed none."""
    lines = stdout.split()
    return int(lines[-1]) / 1024.0 if lines and lines[-1].isdigit() else None


def _run(root: Path, argv, out: Path):
    """kg-flow argv on root's src, writing into out (its DIR).

    Whether it exited 0 or 1, and its peak RSS in MB (None if it crashed).
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = [str(out) if a == "DIR" else a for a in argv]
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=root, env=env,
                          capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1 still writes the report
        print(proc.stderr, end="", file=sys.stderr)
    return proc.returncode in (0, 1), peak_rss_mb(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD", help="revision compared with the index (HEAD)")
    args = parser.parse_args(argv)
    trees = {"base": run_bench._git("rev-parse", "--verify", f"{args.base}^{{tree}}"),
             "index": run_bench._git("write-tree")}
    different = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        tmp = Path(tmp)
        roots = {side: run_bench._export(tree, tmp / side) for side, tree in trees.items()}
        for k, (label, cmd, artifacts) in enumerate(commands(roots["index"])):
            outs = {side: tmp / "out" / side / str(k) for side in roots}
            runs = {side: _run(roots[side], cmd, outs[side]) for side in roots}
            ran = all(ok for ok, _ in runs.values())
            print(f"peak RSS: {label}: " + ", ".join(
                f"{side} " + ("-" if rss is None else f"{rss:.1f} MB")
                for side, (_, rss) in runs.items()))
            for name in artifacts:
                paths = [outs[side] / name for side in roots]
                same = ran and all(p.exists() for p in paths) and len(
                    {normalised(name, p.read_bytes()) for p in paths}) == 1
                different += not same
                print(f"{'same' if same else 'different'}: {label}: {name}")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
