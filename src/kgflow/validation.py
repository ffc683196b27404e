"""Cross-checks tying the package's conventions together for one scenario.

Each check certifies one analytic property numerically: conservation of
the standard and conditional currents, unit normalization of the
conditional density at intermediate times, the outcome decomposition of
the standard current, agreement of the equal-time position kernel with
its independent Bessel representation, and unit total Newton-Wigner
probability.  The divergence checks use Richardson-extrapolated central
differences: the residual at step h and h/2 confirms second-order
scaling of the raw estimator, and the extrapolated value estimates the
true divergence with the leading h^2 truncation term removed.
"""

from __future__ import annotations

import numpy as np

from ._quad import gauss_panels
from .conditional import decompose_check, outcome_probabilities, weighted_integrand_grid
from .current import central_divergence, current_grid
from .errors import ScenarioError
from .newton_wigner import KernelMode, bessel_k0, nw_density_grid, position_kernel
from .scenarios import Scenario, build_ensemble, build_state, truncation_defect
from .states import Event

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
    r_h = central_divergence(j_fn, e, h)
    r_h2 = central_divergence(j_fn, e, 0.5 * h)
    return (4.0 * r_h2 - r_h) / 3.0, r_h, r_h2


def _continuity_scan(j_fn, events, length_scale: float, h: float = 1e-3):
    """Worst entrywise extrapolated divergence over max|j|/length, plus order ratios."""
    j_max = np.max([np.hypot(*j_fn(e.t, e.x)) for e in events], axis=0)
    est, r_h, r_h2 = map(np.array, zip(*[richardson_divergence(j_fn, e, h) for e in events]))
    rel = np.max(np.abs(est), axis=0) / (j_max / length_scale)
    resolved = np.abs(r_h2) > 1e-12 * j_max
    ratios = np.abs(r_h[resolved]) / np.abs(r_h2[resolved])
    order = float(np.median(ratios)) if ratios.size else float("nan")
    return float(np.max(rel)), order


def _event_grid(t_vals, x_vals):
    return [Event(float(t), float(x)) for t in t_vals for x in x_vals]


def run_validation(scenario: Scenario) -> dict:
    """Run every check for a scenario with a final block.

    Returns a JSON-ready report; "all_pass" reflects the documented
    tolerances.  The momentum-truncation check is reported rather than
    raised, so a deliberately clipped grid shows up as a failed check.
    """
    if scenario.final is None:
        raise ScenarioError("validation requires a scenario with a final block")

    checks = {}

    defect = truncation_defect(scenario)
    checks["momentum_truncation"] = _entry(defect, "momentum_truncation")

    state = build_state(scenario, check_truncation=False)
    box = scenario.box
    length = box.x_hi - box.x_lo

    std_events = _event_grid(
        np.linspace(0.25 * box.t_lo, 0.25 * box.t_hi, 5),
        np.linspace(0.4 * box.x_lo, 0.4 * box.x_hi, 5),
    )
    rel, order = _continuity_scan(lambda t, x: current_grid(state, t, x), std_events, length)
    checks["continuity_standard"] = _entry(rel, "continuity_standard", order_ratio=order)

    ensemble = build_ensemble(scenario, state)
    rho = outcome_probabilities(state, ensemble)
    keep = np.nonzero(rho >= OUTCOME_RHO_FLOOR * rho.max())[0]
    a2_keep = np.abs(ensemble.amplitude_fi[keep]) ** 2
    T = ensemble.T

    def j_cond(t, x):
        # pole-free form over the fixed outcome amplitudes, kept outcomes only
        w0, w1 = weighted_integrand_grid(state, ensemble, t, x)
        return w0[keep] / a2_keep, w1[keep] / a2_keep

    cond_events = _event_grid(
        np.array([0.2, 0.5, 0.8]) * T, np.linspace(0.3 * box.x_lo, 0.3 * box.x_hi, 3)
    )
    worst_cond, _ = _continuity_scan(j_cond, cond_events, length)
    checks["continuity_conditional"] = _entry(
        worst_cond, "continuity_conditional", outcomes_checked=int(keep.size)
    )

    norm_defect = conditional_normalization_defect(
        scenario, state, ensemble, keep, times=np.array([0.2, 0.5, 0.8]) * T
    )
    checks["conditional_normalization"] = _entry(
        norm_defect, "conditional_normalization", outcomes_checked=int(keep.size)
    )

    dec_events = _event_grid(
        np.array([0.0, 0.25, 0.5]) * T, np.linspace(0.2 * box.x_lo, 0.2 * box.x_hi, 3)
    )
    dec = decompose_check(state, ensemble, dec_events)
    checks["decomposition_l2"] = _entry(dec, "decomposition_l2")

    deltas = np.linspace(0.1, 5.0, 25)
    mode = KernelMode(tag="relativistic")
    oracles = [bessel_k0(scenario.mass * d) / np.pi for d in deltas]
    kernel_err = max(
        abs(position_kernel(scenario.mass, d, mode) - oracle) / oracle
        for d, oracle in zip(deltas, oracles)
    )
    checks["kernel_vs_bessel"] = _entry(kernel_err, "kernel_vs_bessel")

    parseval = nw_parseval_defect(scenario, state, times=(0.0, 0.5 * T))
    checks["nw_parseval"] = _entry(parseval, "nw_parseval")

    return {
        "scenario": scenario.name,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks.values()),
    }


def _entry(value: float, name: str, **extras) -> dict:
    entry = {
        "value": float(value),
        "tolerance": TOLERANCES[name],
        "pass": bool(value <= TOLERANCES[name]),
    }
    entry.update(extras)
    return entry


def _support_bounds(scenario: Scenario, t_max: float, margin: float):
    """x-range holding every packet's mass up to |t| <= t_max.

    Covers the drifted centers plus seven spatial sigmas per packet;
    margin adds the Compton-scale tail allowance on top.
    """
    los, his = [], []
    for pk in scenario.packets:
        v = pk.p_center / np.hypot(pk.p_center, scenario.mass)
        reach = abs(v) * t_max + 7.0 / (2.0 * pk.p_width)
        los.append(pk.x_center - reach)
        his.append(pk.x_center + reach)
    return min(los) - margin, max(his) + margin


def conditional_normalization_defect(scenario, state, ensemble, keep, times) -> float:
    """Worst |integral of conditional density - 1| over outcomes and times."""
    t_max = max(float(np.max(times)), ensemble.T)
    margin = 16.0 / scenario.mass
    lo, hi = _support_bounds(scenario, t_max, margin=margin)
    lo = min(lo, float(ensemble.q_grid.min()) - margin)
    hi = max(hi, float(ensemble.q_grid.max()) + margin)
    panels = max(96, int(np.ceil((hi - lo) / 0.5)))
    xs, w = gauss_panels(lo, hi, panels, 16)
    a2 = np.abs(ensemble.amplitude_fi[keep]) ** 2
    worst = 0.0
    for t in times:
        w0, _ = weighted_integrand_grid(state, ensemble, float(t), xs)
        totals = (w @ w0[:, keep]) / a2
        worst = max(worst, float(np.max(np.abs(totals - 1.0))))
    return worst


def nw_parseval_defect(scenario, state, times) -> float:
    """Worst |integral of Newton-Wigner density - 1| over the given times."""
    t_max = max(abs(float(t)) for t in times)
    lo, hi = _support_bounds(scenario, t_max, margin=14.0 / scenario.mass)
    panels = max(128, int(np.ceil((hi - lo) / 0.4)))
    qs, w = gauss_panels(lo, hi, panels, 16)
    worst = 0.0
    for t in times:
        total = float(np.dot(w, nw_density_grid(state, qs, float(t))))
        worst = max(worst, abs(total - 1.0))
    return worst
