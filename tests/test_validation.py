import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kgflow
from kgflow.conditional import outcome_probabilities, weighted_integrand_grid
from kgflow.current import current_grid
from kgflow.scenarios import build_ensemble, build_state
from kgflow.validation import (
    OUTCOME_RHO_FLOOR,
    _continuity_scan,
    _event_grid,
    _median,
    richardson_divergence,
)


def _scan_per_event(j_fn, events, length_scale, h=1e-3):
    # the event-by-event form of _continuity_scan, as the reference
    j_max = np.max([np.hypot(*j_fn(e.t, e.x)) for e in events], axis=0)
    est, r_h, r_h2 = map(np.array, zip(*[richardson_divergence(j_fn, e, h) for e in events]))
    rel = np.max(np.abs(est), axis=0) / (j_max / length_scale)
    resolved = np.abs(r_h2) > 1e-12 * j_max
    return float(np.max(rel)), float(np.median(np.abs(r_h[resolved]) / np.abs(r_h2[resolved])))


def _recording(j_fn):
    calls = []

    def recorded(t, x):
        j = j_fn(t, x)
        calls.append(np.stack(j, axis=-1))
        return j

    return recorded, calls


@pytest.mark.parametrize("kind", ["standard", "conditional"])
def test_continuity_scan_batches_events(s1_conditional_scenario, kind):
    state = build_state(s1_conditional_scenario)
    if kind == "standard":
        events = _event_grid(np.linspace(-1.25, 1.25, 5), np.linspace(-5.6, 5.6, 5))

        def j_fn(t, x):
            return current_grid(state, t, x)
    else:
        ens = build_ensemble(s1_conditional_scenario, state)
        rho = outcome_probabilities(state, ens)
        keep = np.nonzero(rho >= OUTCOME_RHO_FLOOR * rho.max())[0]
        a2 = np.abs(ens.amplitude_fi[keep]) ** 2
        events = _event_grid(np.array([0.4, 1.0, 1.6]), np.linspace(-4.2, 4.2, 3))

        def j_fn(t, x):
            w0, w1 = weighted_integrand_grid(state, ens, t, x)
            return w0[..., keep] / a2, w1[..., keep] / a2

    batched_fn, batched = _recording(j_fn)
    single_fn, single = _recording(j_fn)
    worst, order = _continuity_scan(batched_fn, events, 28.0)
    ref_worst, ref_order = _scan_per_event(single_fn, events, 28.0)
    # one call per stencil offset plus one for max|j|, each over every event
    n = len(events)
    assert len(batched) == 9 and len(single) == 9 * n
    for c, values in enumerate(batched):
        assert values.shape[0] == n
        # the reference asks max|j| for every event first, then 8 stencil points per event
        rows = [i if c == 0 else n + 8 * i + c - 1 for i in range(n)]
        ref = np.stack([single[r] for r in rows])
        peak = np.abs(ref).max(axis=0)
        assert np.all(np.abs(values - ref) <= 1e-13 * peak)
    # both estimates sit at rounding level, far below the check's tolerance
    assert worst < 1e-8 and ref_worst < 1e-8
    if kind == "standard":
        assert abs(order - 4.0) < 1e-3 and abs(ref_order - 4.0) < 1e-3


@pytest.mark.parametrize("size", [1, 2, 7, 10, 101, 256])
def test_median_matches_numpy(size):
    rng = np.random.default_rng(size)
    for values in (rng.normal(size=size), rng.exponential(size=size) * 1e3,
                   rng.integers(0, 3, size=size).astype(float)):
        expected = np.median(values)
        assert _median(values) == expected
        assert np.float64(_median(values)).tobytes() == np.float64(expected).tobytes()


def test_validate_does_not_import_numpy_ma(tmp_path):
    src = Path(kgflow.__file__).resolve().parent.parent
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from kgflow.cli import main\n"
        f"assert main(['validate', '--scenario', 's1_conditional', '--out', {str(tmp_path)!r}]) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'validate imported numpy.ma'\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
