import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "run_bench.py"


@pytest.fixture(scope="module")
def run_bench():
    spec = importlib.util.spec_from_file_location("run_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
