"""Whether two revisions of kgflow write the same artifacts, byte for byte.

    python3 bench/same_outputs.py [--base REV]

The two sides are --base (HEAD by default) and the index, each exported
with run_bench._export into a fresh directory.  Every command in
`commands` runs on each side in a fresh interpreter that imports kgflow
from that side's src; each artifact it writes is then compared across the
sides:

- density.csv of s1_negative_density at --n-x 20001 (three times) and at
  --n-x 1000001 (t = 0);
- validation_report.json of s1_conditional, single_rest and
  single_boosted, after dropping each check's `seconds`, the time the
  check took;
- trajectories.csv and trajectories_summary.json of perfbench's
  `portrait` operations 0-2 at seed 11 (the index's argv on both sides);
- kernel.csv at the kernel subcommand's defaults.

One line per artifact says "same" or "different"; the exit code is 1 on
any difference or failed command.  The commands run one at a time; the
1000001-point density peaks at about 120-160 MB of RSS.
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


def commands(root: Path) -> list:
    """(label, argv with DIR for the output directory, artifacts) of every compared run."""
    out = ["--out", "DIR"]
    runs = [(f"density n_x={n} t={t}",
             ["density", "--scenario", "s1_negative_density", "--n-x", n, f"--t={t}", *out],
             ["density.csv"]) for n, t in DENSITY]
    runs += [(f"validate {name}", ["validate", "--scenario", name, *out],
              ["validation_report.json"]) for name in VALIDATE]
    data = root / "src" / "kgflow" / "data"
    portrait = run_bench._perfbench(root).WORKLOADS["portrait"](data, False)
    runs += [(f"portrait seed 11 operation {i}", portrait.argv(11, i, Path("DIR")),
              ["trajectories.csv", "trajectories_summary.json"]) for i in range(3)]
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


def _run(root: Path, argv, out: Path) -> bool:
    """kg-flow argv on root's src, writing into out (its DIR); whether it exited 0 or 1."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import sys; from kgflow.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = [str(out) if a == "DIR" else a for a in argv]
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=root, env=env,
                          capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1 still writes the report
        print(proc.stderr, end="", file=sys.stderr)
    return proc.returncode in (0, 1)


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
            ran = all([_run(roots[side], cmd, outs[side]) for side in roots])
            for name in artifacts:
                paths = [outs[side] / name for side in roots]
                same = ran and all(p.exists() for p in paths) and len(
                    {normalised(name, p.read_bytes()) for p in paths}) == 1
                different += not same
                print(f"{'same' if same else 'different'}: {label}: {name}")
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
