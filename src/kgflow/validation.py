"""Cross-checks tying the package's conventions together for one scenario.

Each check certifies one analytic property numerically: conservation of
the standard and conditional currents, unit normalization of the
conditional density at intermediate times, the outcome decomposition of
the standard current, agreement of the equal-time position kernel with
its independent Bessel representation, and unit total Newton-Wigner
probability.  The divergence checks use Richardson-extrapolated central
differences: the residual at step h and h/2 confirms second-order
scaling of the raw estimator, and the extrapolated value estimates the
true divergence with the leading h^2 truncation term removed.  The two
unit integrals take the trapezoid rule at a spacing the momentum grid sets.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from ._quad import trapezoid_weights
from .conditional import conditional_current_grid, decompose_check, weighted_density_grid
from .current import _DIVERGENCE_OFFSETS, _divergence, central_divergence, current_grid
from .errors import ScenarioError
from .newton_wigner import KernelMode, bessel_k0, nw_density_grid, position_kernel
from .scenarios import Scenario, build_ensemble, build_state, truncation_defect
from .states import Event, Lattice, _packet_reach, uniform_lattice

TOLERANCES = {
    "momentum_truncation": 1e-8,
    "continuity_standard": 1e-6,
    "continuity_conditional": 1e-5,
    "conditional_normalization": 1e-3,
    "decomposition_l2": 1e-4,
    "kernel_vs_bessel": 1e-6,
    "nw_parseval": 1e-6,
}

OUTCOME_RHO_FLOOR = 1e-4  # outcomes below this fraction of peak rho are skipped


def richardson_divergence(j_fn, e: Event, h: float):
    """Extrapolated divergence estimate plus the raw residual pair.

    Returns (estimate, residual_h, residual_h2); the estimate removes
    the leading h^2 term of the central-difference error.
    """
    return _extrapolated(central_divergence(j_fn, e, h), central_divergence(j_fn, e, 0.5 * h))


def _extrapolated(r_h, r_h2):
    """(estimate, r_h, r_h2): the residuals at h and h/2 with the h^2 term removed."""
    return (4.0 * r_h2 - r_h) / 3.0, r_h, r_h2


def _median(values) -> float:
    """np.median of a nonempty 1-d array, without the numpy.ma import np.median pulls in."""
    s = np.sort(values)
    mid = s.size // 2
    return float(s[mid] if s.size % 2 else 0.5 * (s[mid - 1] + s[mid]))


def _continuity_scan(j_fn, events, length_scale: float, h: float = 1e-3):
    """Worst entrywise extrapolated divergence over max|j|/length, plus order ratios.

    One j_fn(t, lattice) call takes every event at once, each at the
    divergence offsets at step h and at h/2, and returns rows per point.
    """
    t, x = np.array([(e.t, e.x) for e in events], dtype=float).T
    # the events themselves, then the divergence offsets at step h and at h/2
    offsets = np.array(_DIVERGENCE_OFFSETS)
    dt, dx = np.vstack([(0.0, 0.0), h * offsets, 0.5 * h * offsets]).T
    j = j_fn(t, Lattice(x, dt, dx, dt.size * t.size))
    j0, j1 = (c.reshape((dt.size, t.size) + c.shape[1:]) for c in j)
    j_max = np.max(np.hypot(j0[0], j1[0]), axis=0)
    est, r_h, r_h2 = _extrapolated(
        _divergence(j0[1:5], j1[1:5], h), _divergence(j0[5:], j1[5:], 0.5 * h)
    )
    rel = np.max(np.abs(est), axis=0) / (j_max / length_scale)
    resolved = np.abs(r_h2) > 1e-12 * j_max
    ratios = np.abs(r_h[resolved]) / np.abs(r_h2[resolved])
    order = _median(ratios) if ratios.size else float("nan")
    return float(np.max(rel)), order


def _event_grid(t_vals, x_vals):
    return [Event(float(t), float(x)) for t in t_vals for x in x_vals]


def _centred(lo: float, hi: float, fraction: float, n: int):
    """n points spanning the centre of [lo, hi] plus and minus fraction of its half-width."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return np.linspace(mid - fraction * half, mid + fraction * half, n)


def run_validation(scenario: Scenario) -> dict:
    """Run every check for a scenario with a final block.

    Returns a JSON-ready report; "all_pass" reflects the documented
    tolerances.  The momentum-truncation check is reported rather than
    raised, so a deliberately clipped grid shows up as a failed check.
    """
    if scenario.final is None:
        raise ScenarioError("validation requires a scenario with a final block")
    if not scenario.final.T > 0:
        raise ScenarioError(f"validation requires final.T > 0, got {scenario.final.T:g}")

    checks = {}

    start = perf_counter()
    defect = truncation_defect(scenario)
    checks["momentum_truncation"] = _entry(defect, "momentum_truncation", start)

    state = build_state(scenario, check_truncation=False)
    box = scenario.box
    length = box.x_hi - box.x_lo

    std_events = _event_grid(
        _centred(box.t_lo, box.t_hi, 0.25, 5), _centred(box.x_lo, box.x_hi, 0.4, 5)
    )
    start = perf_counter()
    rel, order = _continuity_scan(lambda t, x: current_grid(state, t, x), std_events, length)
    checks["continuity_standard"] = _entry(rel, "continuity_standard", start, order_ratio=order)

    ensemble = build_ensemble(scenario, state)
    rho = np.abs(ensemble.amplitude_fi) ** 2
    kept = ensemble.rows(np.nonzero(rho >= OUTCOME_RHO_FLOOR * rho.max())[0])
    T = ensemble.T

    cond_events = _event_grid(
        np.array([0.2, 0.5, 0.8]) * T, _centred(box.x_lo, box.x_hi, 0.3, 3)
    )
    start = perf_counter()
    # the stencil's latest time 0.8 T + h stays at or before T
    worst_cond, _ = _continuity_scan(
        lambda t, x: conditional_current_grid(state, kept, t, x), cond_events, length,
        h=min(1e-3, 0.1 * T),
    )
    checks["continuity_conditional"] = _entry(
        worst_cond, "continuity_conditional", start, outcomes_checked=int(kept.q_value.size)
    )

    start = perf_counter()
    norm_defect = conditional_normalization_defect(
        scenario, state, kept, times=np.array([0.2, 0.5, 0.8]) * T
    )
    checks["conditional_normalization"] = _entry(
        norm_defect, "conditional_normalization", start, outcomes_checked=int(kept.q_value.size)
    )

    dec_events = _event_grid(
        np.array([0.0, 0.25, 0.5]) * T, _centred(box.x_lo, box.x_hi, 0.2, 3)
    )
    start = perf_counter()
    dec = decompose_check(state, ensemble, dec_events)
    checks["decomposition_l2"] = _entry(dec, "decomposition_l2", start)

    start = perf_counter()
    deltas = np.linspace(0.1, 5.0, 25) / scenario.mass  # m |delta| in 0.1..5
    mode = KernelMode(tag="relativistic")
    oracles = bessel_k0(scenario.mass * deltas) / np.pi
    kernel_err = np.max(np.abs(position_kernel(scenario.mass, deltas, mode) - oracles) / oracles)
    checks["kernel_vs_bessel"] = _entry(kernel_err, "kernel_vs_bessel", start)

    start = perf_counter()
    parseval = nw_parseval_defect(scenario, state, times=(0.0, 0.5 * T))
    checks["nw_parseval"] = _entry(parseval, "nw_parseval", start)

    return {
        "scenario": scenario.name,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks.values()),
    }


def _entry(value: float, name: str, start: float, **extras) -> dict:
    """A check's report entry; seconds is the perf_counter time since start."""
    entry = {
        "value": float(value),
        "tolerance": TOLERANCES[name],
        "pass": bool(value <= TOLERANCES[name]),
    }
    entry.update(extras)
    entry["seconds"] = perf_counter() - start
    return entry


def _support_bounds(scenario: Scenario, t_max: float, margin: float, points):
    """x-range holding every packet's mass up to |t| <= t_max, and the given points.

    Covers the drifted centers plus seven spatial sigmas per packet;
    margin adds the Compton-scale tail allowance on top.
    """
    los, his = list(points), list(points)
    for pk in scenario.packets:
        v = pk.p_center / np.hypot(pk.p_center, scenario.mass)
        lo, hi = _packet_reach(pk.x_center, pk.p_width)
        los.append(lo - abs(v) * t_max)
        his.append(hi + abs(v) * t_max)
    return min(los) - margin, max(his) + margin


def _window(state, lo: float, hi: float, t_max: float):
    """Trapezoid nodes (a Lattice) and weights on [lo, hi], clipped to the range rule at t_max.

    Products of two fields on the momentum grid are band-limited to p_K - p_1, so
    the trapezoid rule at a spacing below 2 pi / (p_K - p_1) is exact up to the
    window's truncation; this spacing is at most half that.  The clip leaves a
    relative 1e-12 of headroom, since the lattice's last point may round past hi.
    """
    room = (state._resolvable_range - t_max) * (1.0 - 1e-12)  # from the far end of the reach
    lo, hi = max(lo, state.reach[1] - room), min(hi, state.reach[0] + room)
    n = int(np.ceil((hi - lo) * (state.momenta[-1] - state.momenta[0]) / np.pi)) + 1
    return uniform_lattice(lo, hi, n), trapezoid_weights(n, (hi - lo) / (n - 1))


def conditional_normalization_defect(scenario, state, outcome, times) -> float:
    """Worst |integral of conditional density - 1| over a stacked outcome's rows and times."""
    # times after T raise CausalOrderError, so the packets drift for at most T
    lo, hi = _support_bounds(scenario, outcome.T, 16.0 / scenario.mass, outcome.q_value)
    xs, w = _window(state, lo, hi, float(np.max(np.abs(times))))
    a2 = np.abs(outcome.amplitude_fi) ** 2
    return max(
        float(np.max(np.abs(w @ weighted_density_grid(state, outcome, float(t), xs) / a2 - 1.0)))
        for t in times
    )


def nw_parseval_defect(scenario, state, times) -> float:
    """Worst |integral of Newton-Wigner density - 1| over the given times."""
    t_max = max(abs(float(t)) for t in times)
    lo, hi = _support_bounds(scenario, t_max, 14.0 / scenario.mass, ())
    qs, w = _window(state, lo, hi, t_max)
    return max(abs(float(np.dot(w, nw_density_grid(state, qs, float(t)))) - 1.0) for t in times)
