import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from kgflow import CausalOrderError, load_scenario, states, validation
from kgflow._quad import gauss_panels, trapezoid_weights
from kgflow.conditional import outcome_probabilities, weighted_density_grid, weighted_integrand_grid
from kgflow.current import current_grid
from kgflow.newton_wigner import nw_density_grid
from kgflow.errors import ScenarioError
from kgflow.scenarios import build_ensemble, build_state, scenario_from_dict
from kgflow.states import uniform_lattice
from kgflow.validation import (
    OUTCOME_RHO_FLOOR,
    _continuity_scan,
    _event_grid,
    _median,
    conditional_normalization_defect,
    nw_parseval_defect,
    richardson_divergence,
    run_validation,
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
    # one call over every event at max|j|'s point and the 8 stencil offsets
    n = len(events)
    assert len(batched) == 1 and len(single) == 9 * n
    (stacked,) = batched
    assert stacked.shape[0] == 9 * n
    for c, values in enumerate(np.split(stacked, 9)):
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


def _spy_windows(monkeypatch):
    # records each (Lattice, weights) window the defect functions integrate over
    windows, real = [], validation._window

    def spy(*args):
        windows.append(real(*args))
        return windows[-1]

    monkeypatch.setattr(validation, "_window", spy)
    return windows


def _span(grid):
    # first and last position of a uniform_lattice
    return grid.dx[0], grid.dx[0] + (grid.n - 1) * (grid.x[1] - grid.x[0])


def _checked_outcomes(scenario):
    # the state, kept outcomes and normalization times that run_validation uses
    state = build_state(scenario)
    ens = build_ensemble(scenario, state)
    rho = np.abs(ens.amplitude_fi) ** 2
    kept = ens.rows(np.nonzero(rho >= OUTCOME_RHO_FLOOR * rho.max())[0])
    return state, kept, np.array([0.2, 0.5, 0.8]) * ens.T


@pytest.mark.parametrize("name", ["s1_conditional", "single_rest", "single_boosted"])
def test_window_defects_match_gauss_panels(monkeypatch, name):
    scenario = load_scenario(name)
    state, kept, times = _checked_outcomes(scenario)
    nw_times = (0.0, 0.5 * kept.T)
    windows = _spy_windows(monkeypatch)
    norm = conditional_normalization_defect(scenario, state, kept, times)
    parseval = nw_parseval_defect(scenario, state, nw_times)
    (norm_grid, _), (nw_grid, _) = windows
    # the reference: 16 Gauss nodes per panel at most 0.4 wide over the same windows
    lo, hi = _span(norm_grid)
    xs, w = gauss_panels(lo, hi, int(np.ceil((hi - lo) / 0.4)), 16)
    a2 = np.abs(kept.amplitude_fi) ** 2
    ref_norm = max(
        np.max(np.abs(w @ weighted_density_grid(state, kept, t, xs) / a2 - 1.0)) for t in times
    )
    lo, hi = _span(nw_grid)
    qs, w = gauss_panels(lo, hi, int(np.ceil((hi - lo) / 0.4)), 16)
    ref_parseval = max(abs(w @ nw_density_grid(state, qs, t) - 1.0) for t in nw_times)
    assert abs(norm - ref_norm) <= 1e-12 and abs(parseval - ref_parseval) <= 1e-12


def test_window_spacing_resolves_the_band_limit(monkeypatch, s1_conditional_scenario):
    state, kept, times = _checked_outcomes(s1_conditional_scenario)
    band = 2.0 * np.pi / (state.momenta[-1] - state.momenta[0])
    windows = _spy_windows(monkeypatch)
    within = conditional_normalization_defect(s1_conditional_scenario, state, kept, times)
    (grid, _), = windows
    assert grid.x[1] - grid.x[0] <= 0.5 * band and within < 1e-10
    # the same window at 1.5 times the band limit aliases
    lo, hi = _span(grid)
    n = int(np.ceil((hi - lo) / (1.5 * band))) + 1
    coarse = uniform_lattice(lo, hi, n), trapezoid_weights(n, (hi - lo) / (n - 1))
    monkeypatch.setattr(validation, "_window", lambda *args: coarse)
    assert conditional_normalization_defect(s1_conditional_scenario, state, kept, times) > 1e-3


def test_conditional_lattice_builds_its_points_once(monkeypatch, s1_conditional_scenario):
    # the kernel's causal-order and range checks read one flat copy of the window's points
    state, kept, times = _checked_outcomes(s1_conditional_scenario)
    windows = _spy_windows(monkeypatch)
    conditional_normalization_defect(s1_conditional_scenario, state, kept, times)
    (window, _), = windows
    calls, real = [], states._points
    monkeypatch.setattr(states, "_points", lambda t, xs: calls.append(xs) or real(t, xs))
    weighted_density_grid(state, kept, float(times[-1]), window)
    assert len(calls) == 1 and calls[0] is window
    with pytest.raises(CausalOrderError, match="lies after measurement time 2.0"):
        weighted_density_grid(state, kept, kept.T + 1e-9, window)
    assert len(calls) == 2


def _drawn_scenario(mass, packets, T):
    """A scenario around the drawn packets: grid, q window, n_q and box follow from them."""
    p_min = min(pc - 9.0 * pw for pc, pw, _, _ in packets)
    p_max = max(pc + 9.0 * pw for pc, pw, _, _ in packets)
    q_lo, q_hi, x_lo, x_hi = [], [], [], []
    for pc, pw, xc, _ in packets:
        spread = 7.0 / (2.0 * pw)  # PacketSpec.spread
        reach = abs(pc) / math.hypot(pc, mass) * T + spread
        q_lo.append(xc - reach)
        q_hi.append(xc + reach)
        x_lo.append(xc - spread)
        x_hi.append(xc + spread)
    q_lo, q_hi = min(q_lo) - 14.0 / mass, max(q_hi) + 14.0 / mass
    # a spacing of at most 0.8 of the band limit 2 pi / (p_max - p_min)
    n_q = math.ceil((q_hi - q_lo) * (p_max - p_min) / (0.8 * 2.0 * math.pi)) + 1
    return {
        "name": "drawn",
        "mass": mass,
        "packets": [
            {"p_center": pc, "p_width": pw, "x_center": xc, "coeff_re": c[0], "coeff_im": c[1]}
            for pc, pw, xc, c in packets
        ],
        "grid": {"p_min": p_min, "p_max": p_max, "panels": 8, "nodes_per_panel": 32},
        "box": {"t_lo": -1.0, "t_hi": 1.0, "x_lo": min(x_lo), "x_hi": max(x_hi)},
        "final": {"T": T, "q_lo": q_lo, "q_hi": q_hi, "n_q": n_q},
    }


_PACKETS = st.lists(
    st.tuples(
        st.floats(-3.0, 3.0),
        st.floats(0.1, 0.5),
        st.floats(-5.0, 5.0),
        st.tuples(st.floats(0.2, 1.5), st.floats(-1.0, 1.0)),
    ),
    min_size=1,
    max_size=2,
)


@given(
    mass=st.floats(0.5, 3.0),
    packets=_PACKETS,
    T=st.floats(0.0, 1.0).map(lambda u: 3e-4 * (5.0 / 3e-4) ** u),  # log-uniform
)
def test_drawn_scenarios_validate(mass, packets, T):
    # every scenario the loader takes, with an outcome window that holds its probability,
    # passes every check, down to measurement times far below the stencil step 1e-3
    try:
        scenario = scenario_from_dict(_drawn_scenario(mass, packets, T))
    except ScenarioError:
        assume(False)
    report = run_validation(scenario)
    assert report["all_pass"], {name: c["value"] for name, c in report["checks"].items()}
