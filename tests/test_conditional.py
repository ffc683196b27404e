from dataclasses import replace

import numpy as np
import pytest

from kgflow import (
    CausalOrderError,
    CoverageError,
    DomainError,
    Event,
    FinalOutcome,
    GridSpec,
    ZeroProbabilityOutcomeError,
    conditional_current,
    current,
    decompose_check,
    inner,
    make_final_outcome,
    make_gaussian_packet,
    make_outcome_ensemble,
    nw_amplitude,
    outcome_probabilities,
    weighted_integrand,
)
from kgflow.conditional import (
    _bilinear_grid,
    conditional_current_grid,
    weighted_integrand_grid,
)
from kgflow.newton_wigner import nw_amplitude_grid, nw_density_grid
from kgflow.scenarios import build_ensemble, build_state
from kgflow.states import psi_grid
from kgflow._quad import gauss_panels

from conftest import gauss_lattice

EVENTS = [Event(t, x) for t in (0.0, 0.5, 1.0) for x in (-2.0, 0.0, 2.0)]


@pytest.fixture(scope="module")
def s1_ensemble(s1_state):
    return make_outcome_ensemble(s1_state, 2.0, -16.0, 20.0, 41)


def collapse_outcome(state, T=2.0):
    return FinalOutcome(
        q_value=0.0, T=T, backward_state=state, amplitude_fi=inner(state, state)
    )


def test_outcome_amplitude_equals_nw_amplitude(s1_state, s1_ensemble):
    f = make_final_outcome(1.3, 2.0, s1_state)
    assert abs(f.amplitude_fi - nw_amplitude(s1_state, 1.3, 2.0)) < 1e-10
    # over the whole ensemble grid: the Born weights are the NW density at T,
    # and both match the overlaps <f|i> of the backward states themselves
    rho = outcome_probabilities(s1_state, s1_ensemble)
    nw = nw_density_grid(s1_state, s1_ensemble.q_value, s1_ensemble.T)
    overlaps = [
        abs(inner(s1_ensemble.rows(k).backward_state, s1_state)) ** 2
        for k in range(s1_ensemble.q_value.size)
    ]
    np.testing.assert_allclose(rho, nw, rtol=1e-12, atol=0)
    np.testing.assert_allclose(rho, overlaps, rtol=1e-12, atol=0)


def test_final_outcome_owns_read_only_arrays(s1_state, s1_ensemble):
    q = np.array([0.0, 1.0])
    f = make_final_outcome(q, 2.0, s1_state)
    q[0] = 5.0  # the caller's array stays writable and the outcome keeps its copy
    np.testing.assert_array_equal(f.q_value, [0.0, 1.0])
    assert q.flags.writeable
    for arr in (f.q_value, f.amplitude_fi, s1_ensemble.q_value, s1_ensemble.weights,
                s1_ensemble.amplitude_fi, s1_ensemble.rows([0, 1]).q_value):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_outcome_state_localizes_at_q(s1_state):
    f = make_final_outcome(1.3, 2.0, s1_state)
    xs = np.linspace(-6.0, 9.0, 3001)
    profile = np.abs(psi_grid(f.backward_state, 2.0, xs))
    assert abs(xs[int(np.argmax(profile))] - 1.3) < 0.01


def test_distant_outcomes_nearly_orthogonal():
    # resolving exp(i p dq) at dq = 500 needs a dense momentum grid
    dense = make_gaussian_packet(1.0, 0.0, 0.15, 0.0, GridSpec(-1.6, 4.6, 400, 16))
    f1 = make_final_outcome(0.0, 2.0, dense)
    f2 = make_final_outcome(500.0, 2.0, dense)
    assert abs(inner(f1.backward_state, f2.backward_state)) < 1e-3


def test_outcome_beyond_grid_resolution_rejected(s1_state):
    for q in (500.0, np.nan, [0.0, np.nan]):
        with pytest.raises(DomainError, match="resolvable range"):
            make_final_outcome(q, 2.0, s1_state)


def test_collapse_identity(s1_state):
    f = collapse_outcome(s1_state)
    for e in EVENTS:
        cond = conditional_current(s1_state, f, e)
        direct = current(s1_state, e)
        scale = direct.euclidean_norm()
        assert abs(cond.v0 - direct.v0) < 1e-12 * scale
        assert abs(cond.v1 - direct.v1) < 1e-12 * scale


def test_collapse_case_imaginary_residue(s1_state):
    # before projecting out the flow, the collapse-case bilinear over the
    # overlap is purely imaginary; its real part probes the phase algebra
    f = collapse_outcome(s1_state)
    for e in EVENTS:
        e0, e1 = _bilinear_grid(s1_state, f, e.t, np.asarray([e.x]))
        for z in (complex(e0[0]), complex(e1[0])):
            ratio = z / f.amplitude_fi
            assert abs(ratio.real) < 1e-12 * abs(ratio)


def test_weighted_integrand_is_conditional_times_probability(s1_state):
    for q in (-3.0, 0.5, 4.0):
        f = make_final_outcome(q, 2.0, s1_state)
        rho = abs(f.amplitude_fi) ** 2
        assert rho > 1e-6
        for e in EVENTS[:4]:
            w = weighted_integrand(s1_state, f, e)
            c = conditional_current(s1_state, f, e)
            assert w.v0 == pytest.approx(c.v0 * rho, rel=1e-8, abs=1e-300)
            assert w.v1 == pytest.approx(c.v1 * rho, rel=1e-8, abs=1e-300)
            # the quotient form -Im(E^a / <f|i>) / 2, formed independently
            e0, e1 = _bilinear_grid(s1_state, f, e.t, np.asarray([e.x]))
            ref0, ref1 = (-0.5 * float(np.imag(z[0] / f.amplitude_fi)) for z in (e0, e1))
            assert c.v0 == pytest.approx(ref0, rel=1e-12, abs=0)
            assert c.v1 == pytest.approx(ref1, rel=1e-12, abs=0)


def test_weighted_integrand_finite_at_negligible_amplitude(s1_state):
    f = make_final_outcome(40.0, 2.0, s1_state)
    assert abs(f.amplitude_fi) < 1e-12
    w = weighted_integrand(s1_state, f, Event(0.0, 0.0))
    assert np.isfinite(w.v0) and np.isfinite(w.v1)
    with pytest.raises(ZeroProbabilityOutcomeError):
        conditional_current(s1_state, f, Event(0.0, 0.0))


def test_causal_order_enforced(s1_state):
    f = make_final_outcome(0.5, 2.0, s1_state)
    with pytest.raises(CausalOrderError):
        conditional_current(s1_state, f, Event(2.5, 0.0))
    with pytest.raises(CausalOrderError):
        weighted_integrand(s1_state, f, Event(2.5, 0.0))


def test_conditional_density_normalized(s1_state, s1_ensemble):
    rho = np.asarray(outcome_probabilities(s1_state, s1_ensemble))
    keep = np.nonzero(rho >= 1e-4 * rho.max())[0]
    xs, w = gauss_panels(-34.0, 38.0, 144, 16)
    for idx in keep[::6]:
        f = s1_ensemble.rows(idx)
        for t in (0.4, 1.0, 1.6):
            j0, _ = conditional_current_grid(s1_state, f, t, xs)
            assert abs(float(np.dot(w, j0)) - 1.0) < 1e-3


def test_conditional_continuity(s1_state):
    from kgflow.validation import richardson_divergence

    f = make_final_outcome(1.0, 2.0, s1_state)

    def j_fn(t, x):
        j0, j1 = conditional_current_grid(s1_state, f, t, np.asarray([x]))
        return float(j0[0]), float(j1[0])

    events = [Event(t, x) for t in (0.4, 1.0, 1.6) for x in (-3.0, 0.0, 3.0)]
    j_max = max(np.hypot(*j_fn(e.t, e.x)) for e in events)
    for e in events:
        est, _, _ = richardson_divergence(j_fn, e, 1e-3)
        assert abs(est) < 1e-5 * j_max / 20.0


def test_decomposition_identity(s1_state, s1_ensemble):
    assert decompose_check(s1_state, s1_ensemble, EVENTS) < 1e-4


def test_decomposition_single_packet(rest_packet):
    ens = make_outcome_ensemble(rest_packet, 2.0, -13.0, 13.0, 41)
    assert decompose_check(rest_packet, ens, EVENTS) < 1e-4


def test_decomposition_refines(s1_state):
    errors = [
        decompose_check(
            s1_state, make_outcome_ensemble(s1_state, 2.0, -16.0, 20.0, n), EVENTS
        )
        for n in (41, 81, 161)
    ]
    assert errors[0] > errors[1] > errors[2]


def test_outcome_probabilities(s1_state, s1_ensemble):
    rho = outcome_probabilities(s1_state, s1_ensemble)
    assert all(p >= 0 for p in rho)
    assert abs(float(np.dot(s1_ensemble.weights, rho)) - 1.0) < 1e-4


def test_outcome_distribution_symmetric_for_rest_packet():
    packet = make_gaussian_packet(1.0, 0.0, 0.25, 2.0, GridSpec(-3.0, 3.0))
    ens = make_outcome_ensemble(packet, 2.0, 2.0 - 12.0, 2.0 + 12.0, 49)
    rho = np.asarray(outcome_probabilities(packet, ens))
    assert np.max(np.abs(rho - rho[::-1])) < 1e-8


def test_ensemble_coverage_guard(s1_state, s1_ensemble):
    with pytest.raises(CoverageError):
        make_outcome_ensemble(s1_state, 2.0, -4.0, 4.0, 41)
    with pytest.raises(CoverageError):
        decompose_check(s1_state, replace(s1_ensemble, weights=0.5 * s1_ensemble.weights), EVENTS)


def test_retrocausal_dependence(s1_state):
    f1 = make_final_outcome(-2.0, 2.0, s1_state)
    f2 = make_final_outcome(4.0, 2.0, s1_state)
    for f in (f1, f2):
        assert abs(f.amplitude_fi) ** 2 > 1e-4 * 0.21
    e = Event(0.0, 0.5)
    j1 = conditional_current(s1_state, f1, e)
    j2 = conditional_current(s1_state, f2, e)
    gap = np.hypot(j1.v0 - j2.v0, j1.v1 - j2.v1)
    assert gap / max(j1.euclidean_norm(), j2.euclidean_norm()) > 1e-3


def test_weighted_sum_reality(s1_state, s1_ensemble):
    # the ensemble-summed bilinear collapses to 2i Im(...) in the
    # continuum; the leftover real part is outcome-quadrature error and
    # sits at the same scale as the decomposition gap
    for e in EVENTS[:3]:
        acc0 = 0.0 + 0.0j
        for k, w_q in enumerate(s1_ensemble.weights):
            f = s1_ensemble.rows(k)
            e0, _ = _bilinear_grid(s1_state, f, e.t, np.asarray([e.x]))
            acc0 += w_q * np.conj(f.amplitude_fi) * complex(e0[0])
        assert abs(acc0.real) < 1e-4 * abs(acc0)


def test_ensemble_batch_matches_single_outcomes(s1_conditional_scenario):
    # every outcome of the s1_conditional ensemble in one batched call,
    # against the single-outcome path as the reference
    state = build_state(s1_conditional_scenario)
    ens = build_ensemble(s1_conditional_scenario, state)
    assert isinstance(ens, FinalOutcome)
    # <f|i> is the Newton-Wigner amplitude, from the one kernel
    assert np.array_equal(ens.amplitude_fi, nw_amplitude_grid(state, ens.q_value, ens.T))
    back_peak = np.abs(ens.backward_state.amplitudes).max()
    amp_peak = np.abs(ens.amplitude_fi).max()
    for k, q in enumerate(ens.q_value):
        row, single = ens.rows(k), make_final_outcome(q, ens.T, state)
        gap = np.abs(row.backward_state.amplitudes - single.backward_state.amplitudes).max()
        assert gap <= 1e-15 * back_peak
        assert abs(row.amplitude_fi - single.amplitude_fi) <= 1e-15 * amp_peak
    xs = np.array([-3.0, 0.0, 2.5])
    for t in (0.0, 0.8, 1.6):
        w0, w1 = weighted_integrand_grid(state, ens, t, xs)
        assert w0.shape == w1.shape == (xs.size, ens.q_value.size)
        for k in range(ens.q_value.size):
            f = ens.rows(k)
            r0, r1 = weighted_integrand_grid(state, f, t, xs)
            scale = np.hypot(r0, r1)
            assert np.all(np.abs(w0[:, k] - r0) <= 1e-12 * scale)
            assert np.all(np.abs(w1[:, k] - r1) <= 1e-12 * scale)


def test_conditional_rejects_mismatched_grids(s1_state, rest_packet):
    from kgflow import GridMismatchError

    stranger = make_final_outcome(0.0, 2.0, rest_packet)
    with pytest.raises(GridMismatchError):
        conditional_current(s1_state, stranger, Event(0.0, 0.0))


def test_weighted_integrand_on_lattice_matches_array_path(s1_conditional_scenario):
    # 126 columns against 16 Gauss offsets, the product table
    state = build_state(s1_conditional_scenario)
    ens = build_ensemble(s1_conditional_scenario, state)
    grid, _ = gauss_lattice(-24.0, 26.0, 100, 16)
    xs = (grid.dx[:, None] + grid.x[None, :]).ravel()
    for t in (0.4, 1.6):
        w0, w1 = weighted_integrand_grid(state, ens, t, grid)
        r0, r1 = weighted_integrand_grid(state, ens, t, xs)
        assert w0.shape == r0.shape == (xs.size, ens.q_value.size)
        for got, ref in ((w0, r0), (w1, r1)):
            peak = np.abs(ref).max(axis=0)
            assert np.all(np.abs(got - ref).max(axis=0) <= 1e-13 * peak)


def _decompose_per_event(initial, ens, events):
    # the event-by-event form of decompose_check, as the reference
    num = den = 0.0
    for e in events:
        w0, w1 = weighted_integrand_grid(initial, ens, e.t, e.x)
        direct = current(initial, e)
        num += (ens.weights @ w0 - direct.v0) ** 2 + (ens.weights @ w1 - direct.v1) ** 2
        den += direct.v0**2 + direct.v1**2
    return float(np.sqrt(num / den))


def test_decompose_check_matches_per_event_loop(s1_state, s1_ensemble, rest_packet):
    rest_ens = make_outcome_ensemble(rest_packet, 2.0, -13.0, 13.0, 41)
    for state, ens in ((s1_state, s1_ensemble), (rest_packet, rest_ens)):
        batched = decompose_check(state, ens, EVENTS)
        reference = _decompose_per_event(state, ens, EVENTS)
        assert abs(batched - reference) <= 1e-10 * reference
    one = decompose_check(s1_state, s1_ensemble, EVENTS[4:5])
    assert abs(one - _decompose_per_event(s1_state, s1_ensemble, EVENTS[4:5])) <= 1e-10 * one
