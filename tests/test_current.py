import importlib

import numpy as np
import pytest

from kgflow import (
    CausalClass,
    DomainError,
    Event,
    FourVector,
    GridSpec,
    boost,
    classify,
    continuity_residual,
    current,
    density,
    make_gaussian_packet,
    rest_density,
    scan_negative_density,
)
from kgflow.current import DensityInterval, classify_many, current_grid
from kgflow.states import evaluate_dpsi, evaluate_psi
from kgflow._quad import gauss_panels

from conftest import two_plane_wave_extrema


def test_plane_wave_current_ratio(narrow_boosted):
    xs = np.linspace(-3.0, 3.0, 301)
    j0, j1 = current_grid(narrow_boosted, 0.0, xs)
    peak = int(np.argmax(j0))
    assert abs(j1[peak] / j0[peak] - 3.0 / np.sqrt(10.0)) < 0.01


def test_rest_packet_has_no_flux_at_center(rest_packet):
    assert abs(current(rest_packet, Event(0.0, 0.0)).v1) < 1e-10


def test_density_is_current_time_component(s1_state):
    e = Event(0.4, -1.2)
    assert density(s1_state, e) == current(s1_state, e).v0


def test_single_packet_density_positive(rest_packet, narrow_boosted):
    for state in (rest_packet, narrow_boosted):
        j0, _ = current_grid(state, 0.0, np.linspace(-8.0, 8.0, 801))
        assert np.all(j0 > 0)


def test_total_probability(s1_state, rest_packet):
    xs, w = gauss_panels(-40.0, 40.0, 200, 16)
    heavy = make_gaussian_packet(3.0, 0.0, 0.25, 0.0, GridSpec(-3.0, 3.0))
    for state in (s1_state, rest_packet, heavy):
        j0, _ = current_grid(state, 0.0, xs)
        assert abs(np.dot(w, j0) - 1.0) < 1e-4


def test_current_reality(s1_state):
    # the bidirectional bilinear is 2i times a real quantity; its real
    # part must cancel to rounding
    for e in (Event(0.0, 0.5), Event(0.7, -2.0), Event(-1.0, 3.3)):
        psi = evaluate_psi(s1_state, e)
        d0, d1 = evaluate_dpsi(s1_state, e)
        for d in (d0, d1):
            bilinear = np.conj(psi) * d - np.conj(d) * psi
            assert abs(bilinear.real) < 1e-12 * abs(bilinear)


def test_negative_density_needs_superposition(s1_state, rest_packet):
    assert scan_negative_density(rest_packet, 0.0, -8.0, 8.0, 801) == []
    intervals = scan_negative_density(s1_state, 0.0, -8.0, 8.0, 1601)
    assert len(intervals) >= 1
    for iv in intervals:
        assert iv.min_j0 < 0
        assert iv.x_lo < iv.x_hi
    for a, b in zip(intervals, intervals[1:]):
        assert a.x_hi <= b.x_lo


def test_negative_density_depth_matches_plane_wave_oracle(s1_state):
    # local plane-wave amplitudes of the two packets at the common center
    from kgflow import GridSpec, make_gaussian_packet

    grid = GridSpec(-1.6, 4.6)
    a = make_gaussian_packet(1.0, 3.0, 0.15, 0.0, grid)
    b = make_gaussian_packet(1.0, 0.0, 0.15, 0.0, grid)
    amp_a = abs(evaluate_psi(a, Event(0.0, 0.0)))
    amp_b = 1.5 * abs(evaluate_psi(b, Event(0.0, 0.0)))
    overlap = np.sum(a.weights * np.conj(a.amplitudes) * b.amplitudes)
    renorm = np.sqrt(1.0 + 1.5**2 + 2 * 1.5 * float(np.real(overlap)))
    lo, hi = two_plane_wave_extrema(
        amp_a / renorm, np.sqrt(10.0), 3.0, amp_b / renorm, 1.0, 0.0
    )
    assert lo < 0  # negativity is forced analytically
    intervals = scan_negative_density(s1_state, 0.0, -8.0, 8.0, 1601)
    deepest = min(iv.min_j0 for iv in intervals)
    # envelope variation attenuates the idealized depth; the witness
    # must land between 40% and 250% of the oracle value
    assert 2.5 * lo < deepest < 0.4 * lo
    j0, _ = current_grid(s1_state, 0.0, np.linspace(-8.0, 8.0, 1601))
    assert abs(j0.max() - hi) / hi < 0.05


def test_scan_runs_match_per_sample_walk(rest_packet, monkeypatch):
    # prescribed signs: runs at either end, one-sample runs, all negative, none
    module = importlib.import_module("kgflow.current")
    rng = np.random.default_rng(3)
    x_lo, x_hi = -2.0, 3.0
    for signs in ("--++-+--", "+-+-+-+", "-+", "+-", "------", "+++++", "+---+"):
        n = len(signs)
        neg = np.array([c == "-" for c in signs])
        j0 = np.where(neg, -1.0, 1.0) * rng.uniform(0.1, 2.0, n)
        monkeypatch.setattr(module, "current_grid", lambda state, t, x: (j0, np.zeros_like(j0)))
        xs = np.linspace(x_lo, x_hi, n)
        want, start = [], None
        for k in range(n):
            if neg[k] and start is None:
                start = k
            if start is not None and (k == n - 1 or not neg[k + 1]):
                lo = x_lo if start == 0 else 0.5 * (xs[start - 1] + xs[start])
                hi = x_hi if k == n - 1 else 0.5 * (xs[k] + xs[k + 1])
                min_j0 = float(j0[start : k + 1].min())
                want.append(DensityInterval(0.5, float(lo), float(hi), min_j0))
                start = None
        assert scan_negative_density(rest_packet, 0.5, x_lo, x_hi, n) == want


def test_scan_argument_errors(rest_packet):
    with pytest.raises(ValueError):
        scan_negative_density(rest_packet, 0.0, 1.0, -1.0, 100)
    with pytest.raises(ValueError):
        scan_negative_density(rest_packet, 0.0, -1.0, 1.0, 1)


def test_continuity_plane_wave_limit(narrow_boosted):
    resid = continuity_residual(narrow_boosted, Event(0.1, 0.4), 1e-3)
    assert abs(resid) < 1e-8


def test_continuity_second_order(rest_packet):
    e = Event(0.3, 1.7)
    r1 = continuity_residual(rest_packet, e, 2e-3)
    r2 = continuity_residual(rest_packet, e, 1e-3)
    assert abs(r1 / r2) == pytest.approx(4.0, abs=0.5)


def test_continuity_richardson_on_s1(s1_state):
    from kgflow.validation import richardson_divergence

    def j_fn(t, x):
        j0, j1 = current_grid(s1_state, t, np.asarray([x]))
        return float(j0[0]), float(j1[0])

    events = [Event(t, x) for t in np.linspace(-0.5, 0.5, 5)
              for x in np.linspace(-4.0, 4.0, 5)]
    j_max = max(np.hypot(*j_fn(e.t, e.x)) for e in events)
    for e in events:
        est, r_h, r_h2 = richardson_divergence(j_fn, e, 1e-3)
        assert abs(est) < 1e-6 * j_max / 20.0
        if abs(r_h2) > 1e-12 * j_max:
            assert abs(r_h / r_h2) == pytest.approx(4.0, abs=1.0)


def test_classify_examples():
    assert classify(FourVector(1.0, 0.0)) == CausalClass.TIMELIKE_FORWARD
    assert classify(FourVector(-1.0, 0.0)) == CausalClass.TIMELIKE_BACKWARD
    assert classify(FourVector(0.5, 1.0)) == CausalClass.SPACELIKE
    assert classify(FourVector(1.0, 1.0)) == CausalClass.LIGHTLIKE
    assert classify(FourVector(0.0, 0.0)) == CausalClass.NULL_VECTOR
    assert classify(FourVector(2.0, 1.0), tol=0.0) == CausalClass.TIMELIKE_FORWARD
    with pytest.raises(ValueError):
        classify(FourVector(1.0, 0.0), tol=-1.0)


def test_boost_identity_and_invariance():
    v = FourVector(2.0, 0.5)
    assert boost(v, 0.0) == v
    for u in (0.5, 0.9, 0.99):
        assert abs(boost(v, u).minkowski_sq() - v.minkowski_sq()) < 1e-12 * abs(
            v.minkowski_sq()
        ) + 1e-13
    with pytest.raises(ValueError):
        boost(v, 1.0)


def test_boost_to_rest_frame():
    j = FourVector(3.0, 1.2)
    rest = boost(j, j.v1 / j.v0)
    assert abs(rest.v1) < 1e-10
    assert abs(rest.v0 - np.sqrt(j.minkowski_sq())) < 1e-10


def test_rest_density_examples():
    assert rest_density(FourVector(2.0, 0.0)) == pytest.approx(2.0)
    assert rest_density(FourVector(-2.0, 0.0)) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        rest_density(FourVector(0.5, 1.0))


def test_density_interval_validation():
    from kgflow import DensityInterval

    with pytest.raises(ValueError):
        DensityInterval(t=0.0, x_lo=1.0, x_hi=0.0, min_j0=-1.0)
    with pytest.raises(ValueError):
        DensityInterval(t=0.0, x_lo=0.0, x_hi=1.0, min_j0=0.5)


def test_bundled_single_packet_scenarios_have_no_negativity(bundled_states):
    for name in ("single_rest", "single_boosted"):
        state = bundled_states[name]
        assert scan_negative_density(state, 0.0, -8.0, 8.0, 801) == []


def _classify_scalar(v0, v1):
    # reference: the band rule stated for one vector with Python scalars
    tol = 1e-9 * (1.0 + float(np.hypot(v0, v1)))
    s = v0 * v0 - v1 * v1
    if s > tol * tol:
        return CausalClass.TIMELIKE_FORWARD if v0 > 0 else CausalClass.TIMELIKE_BACKWARD
    if s < -tol * tol:
        return CausalClass.SPACELIKE
    if float(np.hypot(v0, v1)) > tol:
        return CausalClass.LIGHTLIKE
    return CausalClass.NULL_VECTOR


def test_classify_many_matches_scalar_rule():
    rng = np.random.default_rng(11)
    scale = 10.0 ** rng.uniform(-12, 3, 4000)
    v0, v1 = (rng.normal(size=(2, 4000)) * scale)
    # exactly lightlike, zero and tiny vectors, and points placed on the band
    # edges v.v = +-tol^2 (tol = 1e-9 (1 + |v|)) plus a few ulps either side
    a = 10.0 ** rng.uniform(-11, 1, 300)
    edge0, edge1 = [], []
    for sign in (1.0, -1.0):
        tol = 1e-9 * (1.0 + np.sqrt(2.0) * a)
        for _ in range(3):
            b = np.sqrt(np.maximum(a * a - sign * tol * tol, 0.0))
            tol = 1e-9 * (1.0 + np.hypot(a, b))
        for k in range(-3, 4):
            edge0.append(a)
            edge1.append(b + k * np.spacing(b))
    v0 = np.concatenate([v0, a, -a, [0.0, 1e-12, -1e-10, 0.0], *edge0, *edge0])
    v1 = np.concatenate([v1, a, a, [0.0, 0.0, 1e-10, -3e-10], *edge1, -np.concatenate(edge1)])
    v0 = np.concatenate([v0, -v0])
    v1 = np.concatenate([v1, v1])
    got = classify_many(v0, v1)
    assert got.shape == v0.shape
    expected = [_classify_scalar(a, b) for a, b in zip(v0.tolist(), v1.tolist())]
    assert list(got) == expected
    assert [classify(FourVector(a, b)) for a, b in zip(v0.tolist(), v1.tolist())] == expected
    assert all(type(c) is CausalClass for c in got)
    assert set(expected) == set(CausalClass)
    explicit = classify_many([2.0, 1.0, 0.0], [1.0, 1.0, 0.0], tol=0.0)
    assert list(explicit) == [CausalClass.TIMELIKE_FORWARD, CausalClass.LIGHTLIKE,
                              CausalClass.NULL_VECTOR]
