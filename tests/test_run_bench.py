import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def run_bench():
    return _load("run_bench")


def _sides(run_bench, base_median, head_median, lower):
    # base quartiles 0.75 and 1.25, a spread of 0.5, on every metric; all exact in binary
    base = {m: {"median": base_median, "q1": 0.75, "q3": 1.25, "n": 20} for m in run_bench.METRICS}
    head = {m: {"median": head_median, "q1": 0.0, "q3": 1.0, "n": 20} for m in run_bench.METRICS}
    return base, head, dict.fromkeys(run_bench.METRICS, lower)


@pytest.mark.parametrize("lower, met", [(18, True), (17, False)])
def test_gain_needs_nine_pairs_in_ten(run_bench, lower, met):
    base, head, lowers = _sides(run_bench, 1.0, 0.25, lower)
    assert run_bench._gain_met(base, head, lowers, 20) == dict.fromkeys(run_bench.METRICS, met)


@pytest.mark.parametrize("head_median, met", [(0.5, False), (0.4375, True)])
def test_gain_needs_more_than_the_quartile_spread(run_bench, head_median, met):
    # a median gain of exactly q3 - q1 = 0.5 is not a gain; 0.5625 is
    base, head, lowers = _sides(run_bench, 1.0, head_median, 20)
    assert run_bench._gain_met(base, head, lowers, 20) == dict.fromkeys(run_bench.METRICS, met)


def test_gain_without_samples_is_not_met(run_bench):
    base, head, lowers = _sides(run_bench, 1.0, 0.25, 20)
    base["wall_s"] = None
    assert run_bench._gain_met(base, head, lowers, 20)["wall_s"] is False


def test_spread_needs_two_samples(run_bench):
    assert run_bench._spread([]) is None
    assert run_bench._spread([1.0]) is None
    assert run_bench._spread([None, 1.0, None]) is None


def test_spread_skips_failed_samples(run_bench):
    spread = run_bench._spread([3.0, None, 1.0, 2.0, None])
    assert spread == {"median": 2.0, "q1": 1.5, "q3": 2.5, "n": 3}


def test_lower_pairs_skip_failed_pairs(run_bench):
    def side(values):
        return SimpleNamespace(samples=dict.fromkeys(run_bench.METRICS, values))

    base = side([2.0, None, 2.0, 2.0, 1.0])
    head = side([1.0, 1.0, None, 3.0, 0.5])
    # pair 1 lost base's sample and pair 2 head's; of the rest, pairs 0 and 4 are lower
    assert run_bench._lower_pairs(base, head) == dict.fromkeys(run_bench.METRICS, 2)


def _side(run_bench, walls, works):
    samples = {m: list(walls) for m in run_bench.METRICS}
    return SimpleNamespace(samples=samples, works=list(works), failed=works.count(None))


def test_summary_pools_work_and_gives_each_pair_its_rate(run_bench):
    # pair rates 10, 40, 20 and 30 per s; the pooled figure is all work over all time
    side = _side(run_bench, [1.0, 0.5, 2.0, None, 1.0], [10, 20, 40, None, 30])
    summary = run_bench._summary(side)
    assert summary["work_per_s"] == 100 / 4.5
    assert summary["work_per_s_per_pair"] == {"median": 25.0, "q1": 17.5, "q3": 32.5, "n": 4}
    assert summary["wall_s"]["n"] == 4 and summary["failed"] == 1


def test_summary_of_failed_runs_has_no_rates(run_bench):
    summary = run_bench._summary(_side(run_bench, [None, 1.0], [None, 5]))
    assert summary["work_per_s"] == 5.0
    assert summary["work_per_s_per_pair"] is None
    summary = run_bench._summary(_side(run_bench, [None, None], [None, None]))
    assert summary["work_per_s"] is None and summary["failed"] == 2


def test_head_higher_rate_pairs_skip_failed_pairs(run_bench):
    base = _side(run_bench, [1.0, 1.0, 1.0, None], [10, 10, 10, None])
    head = _side(run_bench, [1.0, None, 2.0, 1.0], [20, None, 10, 30])
    # pair 0 is higher; pair 1 lost head's sample, pair 3 base's; pair 2 is lower
    assert run_bench._below(run_bench._rates(base), run_bench._rates(head)) == 1


def test_median_ratios_are_head_over_base(run_bench):
    base, head, _ = _sides(run_bench, 1.0, 0.25, 20)
    base["work_per_s"], head["work_per_s"] = 4.0, 5.0
    head["setup_s"] = None
    ratios = run_bench._median_ratios(base, head)
    assert ratios == {"setup_s": None, "wall_s": 0.25, "peak_rss_mb": 0.25, "work_per_s": 1.25}


def test_same_outputs_drops_only_the_seconds_of_a_report():
    same_outputs = _load("same_outputs")

    def report(seconds, value):
        checks = {name: {"pass": True, "seconds": seconds, "value": value} for name in "ab"}
        return json.dumps({"all_pass": True, "checks": checks}).encode()

    normalised = same_outputs.normalised
    name = "validation_report.json"
    assert normalised(name, report(0.5, 1e-13)) == normalised(name, report(0.25, 1e-13))
    assert normalised(name, report(0.5, 1e-13)) != normalised(name, report(0.5, 2e-13))
    assert b"seconds" not in normalised(name, report(0.5, 1e-13))
    # any other artifact is compared as written
    assert normalised("density.csv", b"x,j0\n0,1\n") == b"x,j0\n0,1\n"


def test_same_outputs_reports_each_sides_peak_rss(tmp_path):
    same_outputs = _load("same_outputs")
    # VmHWM comes in KiB, the figure in MB of 2^20 bytes, as perfbench's
    assert same_outputs.peak_rss_mb("40960\n") == 40.0
    assert same_outputs.peak_rss_mb("") is None
    # a command's child prints its own peak RSS after the command has run
    root, out = BENCH.parent, tmp_path / "out"
    argv = ["trajectories", "--scenario", "single_rest", "--seed=0,1", "--max-steps", "2",
            "--out", "DIR"]
    ok, rss = same_outputs._run(root, argv, out)
    assert ok and 10.0 < rss < 1000.0 and (out / "trajectories.csv").exists()
    labels = [label for label, _, _ in same_outputs.commands(root)]
    assert "trajectories s1_negative_density step 1e-6" in labels
