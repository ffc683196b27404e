"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Tolerances are fixed here and mirror the validation suite
behind `kg-flow validate`.
"""

import numpy as np
import pytest

from kgflow import (
    Box,
    CausalClass,
    Event,
    FinalOutcome,
    FourVector,
    GridSpec,
    KernelMode,
    bessel_k0,
    boost,
    classify,
    conditional_current,
    current,
    decompose_check,
    inner,
    make_final_outcome,
    make_gaussian_packet,
    make_outcome_ensemble,
    position_kernel,
    rest_density,
    scan_negative_density,
    segment_stats,
    standard_field,
    trace,
)
from kgflow.conditional import _bilinear_grid, weighted_integrand_grid
from kgflow.current import current_grid
from kgflow.newton_wigner import nw_density_grid
from kgflow.scenarios import build_ensemble, build_state
from kgflow.states import evaluate_psi
from kgflow.validation import (
    nw_parseval_defect,
    richardson_divergence,
    run_validation,
)
from kgflow._quad import gauss_panels

from conftest import two_plane_wave_extrema


@pytest.fixture(scope="module")
def s1(bundled_states):
    return bundled_states["s1_negative_density"]


@pytest.fixture(scope="module")
def validation_report(s1_conditional_scenario):
    return run_validation(s1_conditional_scenario)


def report(num, name, detail):
    print(f"[acceptance] criterion {num:02d} {name}: PASS ({detail})")


def test_criterion_01_continuity_of_standard_current(s1, s1_scenario):
    def j_fn(t, x):
        j0, j1 = current_grid(s1, t, np.asarray([x]))
        return float(j0[0]), float(j1[0])

    events = [
        Event(t, x)
        for t in np.linspace(-0.5, 0.5, 5)
        for x in np.linspace(-4.0, 4.0, 5)
    ]
    length = s1_scenario.box.x_hi - s1_scenario.box.x_lo
    j_max = max(np.hypot(*j_fn(e.t, e.x)) for e in events)
    worst = 0.0
    for e in events:
        est, r_h, r_h2 = richardson_divergence(j_fn, e, 1e-3)
        worst = max(worst, abs(est))
        if abs(r_h2) > 1e-12 * j_max:
            # step halving confirms the second-order scaling of the raw
            # central differences that feed the extrapolation
            assert abs(r_h / r_h2) == pytest.approx(4.0, abs=1.0)
    rel = worst / (j_max / length)
    assert rel < 1e-6
    report(1, "continuity of the standard current", f"max divergence {rel:.2e} rel")


def test_criterion_02_positive_energy_negativity(s1, rest_scenario, bundled_states):
    intervals = scan_negative_density(s1, 0.0, -8.0, 8.0, 1601)
    assert len(intervals) >= 1
    deepest = min(iv.min_j0 for iv in intervals)
    # witness frozen from the two-plane-wave oracle: local amplitudes of
    # the packets at the common center predict the fringe extrema
    grid = GridSpec(-1.6, 4.6)
    a = make_gaussian_packet(1.0, 3.0, 0.15, 0.0, grid)
    b = make_gaussian_packet(1.0, 0.0, 0.15, 0.0, grid)
    overlap = float(np.real(np.sum(a.weights * np.conj(a.amplitudes) * b.amplitudes)))
    renorm = np.sqrt(1.0 + 2.25 + 3.0 * overlap)
    amp_a = abs(evaluate_psi(a, Event(0.0, 0.0))) / renorm
    amp_b = 1.5 * abs(evaluate_psi(b, Event(0.0, 0.0))) / renorm
    oracle_min, _ = two_plane_wave_extrema(amp_a, np.sqrt(10.0), 3.0, amp_b, 1.0, 0.0)
    assert oracle_min < 0
    assert 2.5 * oracle_min < deepest < 0.4 * oracle_min
    rest = bundled_states["single_rest"]
    assert scan_negative_density(rest, 0.0, -8.0, 8.0, 1601) == []
    report(2, "negativity from positive-energy packets",
           f"deepest {deepest:.4f} vs oracle {oracle_min:.4f}, none for single_rest")


def test_criterion_03_nw_positivity_and_normalization(
    bundled_states, s1_scenario, s1_conditional_scenario, rest_scenario, boosted_scenario
):
    scenarios = {
        sc.name: sc
        for sc in (s1_scenario, s1_conditional_scenario, rest_scenario, boosted_scenario)
    }
    worst = 0.0
    for name, sc in scenarios.items():
        state = bundled_states[name]
        for t in (0.0, 0.4 * sc.box.t_hi):
            xs = np.linspace(sc.box.x_lo, sc.box.x_hi, 401)
            assert np.all(nw_density_grid(state, xs, t) >= 0.0)
        worst = max(worst, nw_parseval_defect(sc, state, times=(0.0, 0.5)))
    assert worst < 1e-6
    report(3, "NW density positive and normalized", f"worst defect {worst:.2e}")


def test_criterion_04_position_kernel():
    mode = KernelMode(tag="relativistic")
    worst = 0.0
    for mass in (0.5, 1.0, 2.0):
        for delta in np.linspace(0.1, 5.0, 25):
            mine = position_kernel(mass, float(delta), mode)
            oracle = bessel_k0(mass * float(delta)) / np.pi
            worst = max(worst, abs(mine - oracle) / oracle)
    assert worst < 1e-6
    spot = position_kernel(1.0, 1.0, mode)
    assert spot == pytest.approx(0.134018, abs=2e-5)
    # nonrelativistic delta sequence against a smooth test function
    phi = lambda x: np.exp(-(x**2) / (2 * 0.3**2))
    xs, w = gauss_panels(-4.0, 4.0, 64, 16)
    nr = KernelMode(tag="nonrelativistic", cutoff=40.0)
    vals = np.array([position_kernel(1.0, float(0.4 - xp), nr) for xp in xs])
    defect = abs(float(np.dot(w, vals * phi(xs))) - phi(0.4))
    assert defect < 1e-3
    report(4, "equal-time position kernel", f"max rel err {worst:.2e}, "
           f"spot {spot:.6f}, delta-sequence defect {defect:.1e}")


def test_criterion_05_conditional_current_contract(
    s1_conditional_scenario, validation_report
):
    state = build_state(s1_conditional_scenario)
    ensemble = build_ensemble(s1_conditional_scenario, state)

    # reality: the collapse-case bilinear is purely imaginary before the
    # flow projection, and the quotient and pole-free forms agree
    collapse = FinalOutcome(
        q_value=0.0, T=2.0, backward_state=state, amplitude_fi=inner(state, state)
    )
    events = [Event(t, x) for t in (0.4, 1.0, 1.6) for x in (-2.0, 0.0, 2.0)]
    for e in events:
        e0, e1 = _bilinear_grid(state, collapse, e.t, np.asarray([e.x]))
        for z in (complex(e0[0]), complex(e1[0])):
            assert abs((z / collapse.amplitude_fi).real) < 1e-12 * abs(z)
    probe = make_final_outcome(1.0, 2.0, state)
    rho = abs(probe.amplitude_fi) ** 2
    for e in events:
        c = conditional_current(state, probe, e)
        w0, w1 = weighted_integrand_grid(state, probe, e.t, np.asarray([e.x]))
        scale = max(abs(c.v0), abs(c.v1))
        assert abs(float(w0[0]) / rho - c.v0) < 1e-12 * scale
        assert abs(float(w1[0]) / rho - c.v1) < 1e-12 * scale

    norm_defect = validation_report["checks"]["conditional_normalization"]["value"]
    assert norm_defect < 1e-3
    cont = validation_report["checks"]["continuity_conditional"]["value"]
    assert cont < 1e-5
    n_outcomes = validation_report["checks"]["continuity_conditional"]["outcomes_checked"]
    report(5, "conditional current contract",
           f"norm defect {norm_defect:.1e}, continuity {cont:.1e}, "
           f"{n_outcomes} outcomes above threshold")


def test_criterion_06_decomposition_identity(validation_report, bundled_states):
    base = validation_report["checks"]["decomposition_l2"]["value"]
    assert base < 1e-4
    events = [Event(t, x) for t in (0.0, 0.5, 1.0) for x in (-2.0, 0.0, 2.0)]
    cond_state = bundled_states["s1_conditional"]
    errs = [
        decompose_check(
            cond_state, make_outcome_ensemble(cond_state, 2.0, -16.0, 20.0, n), events
        )
        for n in (41, 81, 161)
    ]
    assert errs[0] < 1e-4 and errs[0] > errs[1] > errs[2]
    rest = bundled_states["single_rest"]
    rest_errs = [
        decompose_check(
            rest, make_outcome_ensemble(rest, 2.0, -13.0, 13.0, n), events
        )
        for n in (41, 81)
    ]
    assert rest_errs[0] < 1e-4 and rest_errs[1] < rest_errs[0]
    report(6, "outcome decomposition of the current",
           f"L2 {errs[0]:.2e} -> {errs[1]:.2e} -> {errs[2]:.2e} under refinement")


def test_criterion_07_collapse_identity(s1):
    collapse = FinalOutcome(
        q_value=0.0, T=5.0, backward_state=s1, amplitude_fi=inner(s1, s1)
    )
    worst = 0.0
    for e in [Event(t, x) for t in (-1.0, 0.0, 1.5) for x in (-2.0, 0.3, 2.0)]:
        cond = conditional_current(s1, collapse, e)
        direct = current(s1, e)
        scale = direct.euclidean_norm()
        worst = max(worst, abs(cond.v0 - direct.v0) / scale,
                    abs(cond.v1 - direct.v1) / scale)
    assert worst < 1e-12
    report(7, "collapse identity", f"max relative gap {worst:.1e}")


def test_criterion_08_trajectory_claims(s1, s1_scenario):
    field = standard_field(s1)
    traj = trace(field, Event(2.9, 9.45), 0.01, 4000, s1_scenario.box)
    stats = segment_stats(traj)
    assert len(traj.reversals) >= 1
    assert stats["fraction_backward"] > 0
    assert stats["fraction_spacelike"] > 0
    for k in traj.reversals:
        j_a = field(traj.events[k])
        j_b = field(traj.events[k + 1])
        assert j_a.v0 * j_b.v0 < 0

    drifting = make_gaussian_packet(1.0, 0.6, 0.5, 0.0, GridSpec(-5.5, 6.5, 12, 32))
    dfield = standard_field(drifting)
    wide = Box(-50.0, 50.0, -50.0, 50.0)

    def final_event(h):
        t = trace(dfield, Event(1.0, 1.2), h, int(round(6.0 / h)), wide)
        return np.array([t.events[-1].t, t.events[-1].x])

    d12 = np.linalg.norm(final_event(0.4) - final_event(0.2))
    d23 = np.linalg.norm(final_event(0.2) - final_event(0.1))
    ratio = d12 / d23
    assert 12.0 < ratio < 20.0
    report(8, "time-reversing current lines",
           f"{len(traj.reversals)} reversals, backward {stats['fraction_backward']:.3f}, "
           f"spacelike {stats['fraction_spacelike']:.3f}, RK4 ratio {ratio:.1f}")


def test_criterion_09_rest_frame_positivity(s1):
    rng = np.random.default_rng(20260810)
    samples = []
    while len(samples) < 100:
        e = Event(float(rng.uniform(-2, 2)), float(rng.uniform(-8, 8)))
        j = current(s1, e)
        if classify(j) in (CausalClass.TIMELIKE_FORWARD, CausalClass.TIMELIKE_BACKWARD):
            samples.append(j)
    # include field vectors from the backward-timelike wedge by the node
    xs = np.linspace(9.48, 9.56, 401)
    j0, j1 = current_grid(s1, 3.0, xs)
    wedge = np.nonzero((j0 < 0) & (j0 * j0 > j1 * j1))[0]
    assert wedge.size > 0
    samples.extend(FourVector(float(j0[i]), float(j1[i])) for i in wedge[:5])

    n_backward = 0
    for j in samples:
        rest = boost(j, j.v1 / j.v0)
        sq = j.minkowski_sq()
        scale = j.euclidean_norm()
        assert abs(rest.v1) < 1e-10 * scale
        assert abs(abs(rest.v0) - np.sqrt(sq)) < 1e-10 * scale
        assert abs(rest.minkowski_sq() - sq) < 1e-12 * max(sq, scale**2)
        density_rest = rest_density(j)
        assert density_rest > 0
        assert density_rest == pytest.approx(np.sqrt(sq), rel=1e-12)
        if j.v0 < 0:
            n_backward += 1
    assert n_backward >= 1
    report(9, "rest-frame positivity",
           f"{len(samples)} timelike samples, {n_backward} backward in lab frame")


def test_criterion_10_retrocausal_dependence(bundled_states):
    state = bundled_states["s1_conditional"]
    ens = make_outcome_ensemble(state, 2.0, -16.0, 20.0, 41)
    peak = float(np.max(np.abs(ens.amplitude_fi) ** 2))
    f1 = make_final_outcome(-2.0, 2.0, state)
    f2 = make_final_outcome(4.0, 2.0, state)
    for f in (f1, f2):
        assert abs(f.amplitude_fi) ** 2 >= 1e-4 * peak
    e = Event(0.0, 0.5)
    j1 = conditional_current(state, f1, e)
    j2 = conditional_current(state, f2, e)
    gap = np.hypot(j1.v0 - j2.v0, j1.v1 - j2.v1)
    rel = gap / max(j1.euclidean_norm(), j2.euclidean_norm())
    assert rel > 1e-3
    report(10, "retrocausal outcome dependence", f"relative gap {rel:.3f}")
