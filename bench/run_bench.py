"""Paired end-to-end numbers of two revisions of kgflow, written as one JSON file.

    python3 bench/run_bench.py --out BENCH_<n>.json [--base REV] [--pairs N] [--seed S]

The two sides are --base (HEAD by default) and the index (`git write-tree`),
so a staged change is measured against its parent before it is committed,
and a committed one with --base HEAD~1.  Each side is exported with
`git archive` into a fresh directory, so neither has a `__pycache__` or any
file git does not track.

Every workload in perfbench/workloads.py is run, each through the side's
own perfbench/run.py: one of its `Bench` objects per pair and side times
set-up as the whole `child.py --setup` process and runs operation i (seed
S) in a fresh interpreter that imports kgflow from that side's src, then
checks its output, so a failure here is what it is to perfbench.  The two
sides alternate: pair i runs base first for even i and head first for odd
i, both set-ups and then both operations.

The file holds, per workload and side, the median and quartiles
(statistics.quantiles, inclusive) of setup_s, wall_s and peak_rss_mb,
work_per_s as perfbench defines it (all operations' work over their
summed wall_s), the median and quartiles of each pair's own work /
wall_s (work_per_s_per_pair) and the failed count; per workload the
number of pairs in which head was lower on each metric and higher on
work per second, head's median over base's on each metric and its
pooled work_per_s over base's (median_ratio), and whether head's lower
pairs make a gain: lower in nine pairs of ten or more, by more than
base's quartile spread in the median; the machine facts and both
revisions.  Run it on an otherwise idle machine: the children run one at
a time.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

METRICS = ("setup_s", "wall_s", "peak_rss_mb")


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(tree: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "archive", "--format=tar", tree], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:  # Python before 3.11.4; the archive is git's own
            tar.extractall(dest)
    return dest


def _perfbench(root: Path):
    """root's perfbench/run.py as a module, bound to root's own workloads.py and src."""
    here = str(root / "perfbench")
    sys.path.insert(0, here)
    sys.modules.pop("workloads", None)
    try:
        spec = importlib.util.spec_from_file_location(f"perfbench_{root.name}",
                                                      root / "perfbench" / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(here)
        sys.modules.pop("workloads", None)
    return module


class Side:
    """One exported revision's samples of one workload, one per pair; None marks a failure."""

    def __init__(self, name: str, root: Path, workload: str, seed: int, out: Path):
        self.name = name
        self.run = _perfbench(root)
        self.workload = self.run.WORKLOADS[workload](root / "src" / "kgflow" / "data", False)
        self.seed = seed
        self.out = out / name
        self.out.mkdir(parents=True)
        self.samples = {metric: [] for metric in METRICS}
        self.works = []  # per pair; None marks a failure
        self.failed = 0

    def bench(self):
        """A fresh perfbench Bench, whose time limit then holds for one pair only."""
        return self.run.Bench(self.workload, self.seed, self.out)


def _spread(values) -> dict | None:
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _rates(side: Side) -> list:
    """Each pair's work / wall_s, None where the operation failed."""
    return [None if w is None else w / s for w, s in zip(side.works, side.samples["wall_s"])]


def _summary(side: Side) -> dict:
    summary = {metric: _spread(values) for metric, values in side.samples.items()}
    walls = [s for w, s in zip(side.works, side.samples["wall_s"]) if w is not None]
    summary["work_per_s"] = sum(w for w in side.works if w is not None) / sum(walls) if walls else None
    summary["work_per_s_per_pair"] = _spread(_rates(side))
    summary["failed"] = side.failed
    return summary


def _below(lows, highs) -> int:
    """The pairs in which the sample of lows is below that of highs, where both have one."""
    return sum(lo is not None and hi is not None and lo < hi for lo, hi in zip(lows, highs))


def _lower_pairs(base: Side, head: Side) -> dict:
    """Per metric, the pairs in which head's sample is below base's, where both have one."""
    return {metric: _below(head.samples[metric], base.samples[metric]) for metric in METRICS}


def _gain_met(base: dict, head: dict, lower: dict, pairs: int) -> dict:
    """Per metric, whether head is lower in nine pairs of ten or more, with a median
    below base's by more than base's quartile spread (q3 - q1)."""
    return {
        metric: bool(base[metric] and head[metric] and 10 * lower[metric] >= 9 * pairs
                     and base[metric]["median"] - head[metric]["median"]
                     > base[metric]["q3"] - base[metric]["q1"])
        for metric in METRICS
    }


def _median_ratios(base: dict, head: dict) -> dict:
    """Head's median over base's per metric, and head's pooled work_per_s over base's;
    None where a side has no figure."""
    figures = {m: (base[m] and base[m]["median"], head[m] and head[m]["median"]) for m in METRICS}
    figures["work_per_s"] = base["work_per_s"], head["work_per_s"]
    return {m: h / b if b and h is not None else None for m, (b, h) in figures.items()}


def bench(name: str, roots: dict, pairs: int, seed: int, out: Path):
    """Interleaved pairs of one workload; its JSON entry and the machine facts."""
    base, head = (Side(side, roots[side], name, seed, out / name) for side in ("base", "head"))
    machine = None
    for side in (base, head):  # untimed, as perfbench's first set-up
        machine = side.bench().child(["--setup", *side.workload.scenarios])["machine"]
    for i in range(pairs):
        order = (base, head) if i % 2 == 0 else (head, base)
        benches = {side.name: side.bench() for side in order}
        for side in order:
            side.samples["setup_s"].append(benches[side.name].setup())
        for side in order:
            result = benches[side.name].operation(i, traced=False)
            if result is None:
                side.failed += 1
                result = {"wall_s": None, "peak_rss_mb": None, "work": None}
            side.works.append(result["work"])
            for metric in ("wall_s", "peak_rss_mb"):
                side.samples[metric].append(result[metric])
        print(f"run_bench: {name} pair {i + 1}/{pairs}", file=sys.stderr)
    entry = {"argv_shape": head.workload.argv_shape, "base": _summary(base),
             "head": _summary(head), "head_lower_pairs": _lower_pairs(base, head),
             "head_higher_pairs": {"work_per_s": _below(_rates(base), _rates(head))}}
    entry["gain_met"] = _gain_met(entry["base"], entry["head"], entry["head_lower_pairs"], pairs)
    entry["median_ratio"] = _median_ratios(entry["base"], entry["head"])
    return entry, machine


def _machine(child_facts) -> dict:
    facts = dict(child_facts or {})
    facts.update(platform=platform.platform(), machine=platform.machine(),
                 cpu_count=os.cpu_count(),
                 python_dont_write_bytecode=bool(os.environ.get("PYTHONDONTWRITEBYTECODE")))
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        facts["cpu"] = models[0] if models else None
    except OSError:
        facts["cpu"] = None
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    parser.add_argument("--base", default="HEAD", help="revision measured as base (HEAD)")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    revisions = {
        "base": {"rev": args.base,
                 "commit": _git("rev-parse", "--verify", f"{args.base}^{{commit}}"),
                 "tree": _git("rev-parse", "--verify", f"{args.base}^{{tree}}")},
        "head": {"rev": "index", "commit": None, "tree": _git("write-tree"),
                 "index_on": _git("rev-parse", "HEAD")},
    }
    report = {"seed": args.seed, "pairs": args.pairs, **revisions, "workloads": {}}
    facts = None
    with tempfile.TemporaryDirectory(prefix="run_bench-") as tmp:
        tmp = Path(tmp)
        roots = {side: _export(rev["tree"], tmp / side) for side, rev in revisions.items()}
        for name in _perfbench(roots["head"]).WORKLOADS:
            report["workloads"][name], facts = bench(name, roots, args.pairs, args.seed,
                                                     tmp / "out")
    report["machine"] = _machine(facts)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    failed = sum(w[side]["failed"] for w in report["workloads"].values() for side in ("base", "head"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
