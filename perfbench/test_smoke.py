"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs once untraced and twice traced with one seed.  Every
metric that BENCHMARK.json names must come out with its unit, the
operations must pass their output checks, and the exact counts must be
identical in the two traced runs.  A copy of the benchmark without the
kgflow sources must exit nonzero and print no result.  Takes about a
minute, most of it in validate, whose size cannot shrink.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / SPEC["command"][1]), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def _units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload):
    plain = _result(_run(workload, 0))
    assert _units(plain) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = [_result(_run(workload, 1)) for _ in range(2)]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in traced:
        assert _units(result) == expected
    # the count metrics are the exact counts
    first, second = ({k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
                     for r in traced)
    assert first == second
    assert first["states.point_modes"] > 0


def test_bare_copy_exits_without_result():
    bare = ROOT / ".perfbench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
