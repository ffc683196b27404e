import numpy as np
import pytest

from kgflow import (
    Box,
    CausalClass,
    CausalOrderError,
    Event,
    FourVector,
    GridSpec,
    NodeError,
    detect_closed,
    make_gaussian_packet,
    segment_stats,
    standard_field,
    trace,
    trace_many,
)
from kgflow.trajectories import conditional_field
from kgflow.conditional import conditional_current_grid, make_final_outcome

from conftest import max_turn_deg

WIDE = Box(-50.0, 50.0, -50.0, 50.0)


def constant_field(e):
    return FourVector(1.0, 0.0)


def circle_field(e):
    # integral curves are circles around the origin of the (t, x) plane
    return FourVector(e.x, -e.t)


@pytest.fixture(scope="module")
def s1_field(bundled_states):
    return standard_field(bundled_states["s1_negative_density"])


@pytest.fixture(scope="module")
def pocket_trajectory(s1_field, s1_scenario):
    # seeded at the deepest negative-density pocket at t = 0
    return trace(s1_field, Event(0.0, -1.05), 0.02, 3000, s1_scenario.box)


@pytest.fixture(scope="module")
def node_trajectory(s1_field, s1_scenario):
    # seeded next to a current node on the leading edge, where the field
    # direction winds through backward-in-time orientations
    return trace(s1_field, Event(2.9, 9.45), 0.01, 4000, s1_scenario.box)


def test_constant_field_vertical_line():
    traj = trace(constant_field, Event(0.0, 0.0), 0.1, 50, Box(-1.0, 1.0, -1.0, 1.0))
    assert traj.stop_reason == "box-exit"
    assert all(abs(e.x) < 1e-14 for e in traj.events)
    assert traj.arc[-1] == pytest.approx(traj.events[-1].t - traj.events[0].t)
    stats = segment_stats(traj)
    assert stats["fraction_forward"] == 1.0
    assert detect_closed(traj, 0.05) is None


def test_plane_wave_slope(narrow_boosted):
    field = standard_field(narrow_boosted)
    traj = trace(field, Event(0.0, 1.5), 0.1, 40, WIDE)
    slope = (traj.events[-1].x - traj.events[0].x) / (
        traj.events[-1].t - traj.events[0].t
    )
    assert abs(slope - 3.0 / np.sqrt(10.0)) < 0.01


def test_step_size_bound(pocket_trajectory):
    events = pocket_trajectory.events
    for a, b in zip(events, events[1:]):
        assert np.hypot(b.t - a.t, b.x - a.x) <= 2 * 0.02


def test_arc_is_monotone(node_trajectory):
    assert np.all(np.diff(np.asarray(node_trajectory.arc)) > 0)


def test_pocket_trajectory_records_reversal(pocket_trajectory, s1_field):
    assert len(pocket_trajectory.reversals) >= 1
    for k in pocket_trajectory.reversals:
        j_a = s1_field(pocket_trajectory.events[k])
        j_b = s1_field(pocket_trajectory.events[k + 1])
        assert j_a.v0 * j_b.v0 < 0


def test_node_trajectory_reverses_through_spacelike(node_trajectory):
    stats = segment_stats(node_trajectory)
    assert len(node_trajectory.reversals) >= 1
    assert stats["fraction_backward"] > 0
    assert stats["fraction_spacelike"] > 0
    assert sum(stats.values()) == pytest.approx(1.0, abs=1e-9)


def test_backward_steps_sit_in_negative_density(node_trajectory):
    found = 0
    for k, cls in enumerate(node_trajectory.classes):
        if cls == CausalClass.TIMELIKE_BACKWARD:
            found += 1
            assert node_trajectory.densities[k] < 0
            assert node_trajectory.densities[k + 1] < 0
    assert found > 0


def test_fractions_sum_to_one(pocket_trajectory, node_trajectory):
    for traj in (pocket_trajectory, node_trajectory):
        assert sum(segment_stats(traj).values()) == pytest.approx(1.0, abs=1e-9)


def test_tangent_continuity(pocket_trajectory, s1_field, s1_scenario):
    assert max_turn_deg(pocket_trajectory) < 30.0
    # near-node passes turn faster; halving the step reduces the turn
    coarse = trace(s1_field, Event(2.9, 9.45), 0.01, 4000, s1_scenario.box)
    fine = trace(s1_field, Event(2.9, 9.45), 0.005, 8000, s1_scenario.box)
    assert max_turn_deg(fine) < max_turn_deg(coarse)


def test_rk4_step_halving_order():
    # a drifting, dispersing packet bends the flow enough to measure the
    # global error order; a strict plane wave has constant direction and
    # no error at all
    state = make_gaussian_packet(1.0, 0.6, 0.5, 0.0, GridSpec(-5.5, 6.5, 12, 32))
    field = standard_field(state)
    seed, total_arc = Event(1.0, 1.2), 6.0

    def final_event(h):
        traj = trace(field, seed, h, int(round(total_arc / h)), WIDE)
        return np.array([traj.events[-1].t, traj.events[-1].x])

    d12 = np.linalg.norm(final_event(0.4) - final_event(0.2))
    d23 = np.linalg.norm(final_event(0.2) - final_event(0.1))
    assert 12.0 < d12 / d23 < 20.0


def test_circle_field_detected_as_closed():
    traj = trace(circle_field, Event(0.0, 1.0), 0.01, 1000, Box(-3.0, 3.0, -3.0, 3.0))
    idx = detect_closed(traj, 0.02)
    assert idx is not None
    assert traj.arc[idx] == pytest.approx(2 * np.pi, abs=0.05)


def test_trace_argument_errors(s1_field, s1_scenario):
    with pytest.raises(ValueError):
        trace(s1_field, Event(99.0, 0.0), 0.02, 100, s1_scenario.box)
    with pytest.raises(ValueError):
        trace(s1_field, Event(0.0, 0.0), -0.1, 100, s1_scenario.box)
    with pytest.raises(ValueError):
        trace(s1_field, Event(0.0, 0.0), 0.1, 0, s1_scenario.box)
    with pytest.raises(ValueError):
        trace(s1_field, Event(0.0, 0.0), float("inf"), 100, s1_scenario.box)


def test_node_error_at_dead_seed():
    def dead_field(e):
        return FourVector(0.0, 0.0)

    with pytest.raises(NodeError):
        trace(dead_field, Event(0.0, 0.0), 0.1, 10, WIDE)


def test_node_floor_termination():
    # field shrinks toward x = 2; an explicit floor stops the trace there
    def shrinking(e):
        return FourVector(max(2.0 - e.x, 0.0), max(2.0 - e.x, 0.0) * 0.5)

    traj = trace(
        shrinking, Event(0.0, 0.0), 0.05, 10000, WIDE, node_floor=1e-3
    )
    assert traj.stop_reason == "node"
    assert traj.events[-1].x < 2.0


def test_segment_stats_requires_steps():
    from kgflow.trajectories import Trajectory

    empty = Trajectory(
        events=(Event(0.0, 0.0),),
        arc=(0.0,),
        classes=(),
        densities=(1.0,),
        reversals=(),
        stop_reason="node",
    )
    with pytest.raises(ValueError):
        segment_stats(empty)


def test_conditional_field_traces(s1_state):
    outcome = make_final_outcome(1.5, 2.0, s1_state)
    field = conditional_field(s1_state, outcome)
    traj = trace(field, Event(0.0, 0.0), 0.01, 500, Box(-1.0, 1.9, -10.0, 10.0))
    assert len(traj.events) > 10
    assert sum(segment_stats(traj).values()) == pytest.approx(1.0, abs=1e-9)


def assert_same_line(batched, alone):
    assert len(batched.events) == len(alone.events)
    assert batched.stop_reason == alone.stop_reason
    assert batched.reversals == alone.reversals
    assert batched.classes == alone.classes
    events = [[(e.t, e.x) for e in line.events] for line in (batched, alone)]
    np.testing.assert_allclose(*events, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(batched.arc, alone.arc, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(batched.densities, alone.densities, rtol=0.0, atol=1e-12)


def test_trace_many_matches_trace(s1_field, bundled_states):
    # a tight box and few steps, so box-exit and max-steps lines share a batch
    box = Box(-1.0, 1.0, -3.0, 3.0)
    seeds = [Event(t, x) for t in (-0.6, 0.6) for x in np.linspace(-2.5, 2.5, 5)]
    lines = trace_many(s1_field, seeds, 0.05, 25, box)
    assert {line.stop_reason for line in lines} == {"box-exit", "max-steps"}
    assert any(line.reversals for line in lines)
    for seed, line in zip(seeds, lines):
        assert_same_line(line, trace(s1_field, seed, 0.05, 25, box))

    def shrinking(e):
        # elementwise; the field dies at x = 2, where the floor stops a line
        g = np.maximum(2.0 - e.x, 0.0)
        return FourVector(g, 0.5 * g)

    box = Box(-1.0, 3.0, -5.0, 5.0)
    seeds = [Event(0.0, 1.5), Event(2.5, 0.0), Event(0.0, -4.0)]
    lines = trace_many(shrinking, seeds, 0.05, 200, box, node_floor=1e-3)
    assert [line.stop_reason for line in lines] == ["node", "box-exit", "box-exit"]
    for seed, line in zip(seeds, lines):
        assert_same_line(line, trace(shrinking, seed, 0.05, 200, box, node_floor=1e-3))

    # seeds with distinct outcomes q trace in one batch through a stacked outcome
    state = bundled_states["s1_conditional"]
    qs = np.array([-2.0, 1.0, 4.0])
    seeds = [Event(0.0, -1.0), Event(0.5, 0.5), Event(-1.0, 2.0)]
    box = Box(-2.0, 2.0 - 0.02, -10.0, 10.0)
    stacked = conditional_field(state, make_final_outcome(qs, 2.0, state))
    lines = trace_many(stacked, seeds, 0.02, 150, box)
    for q, seed, line in zip(qs, seeds, lines):
        alone = conditional_field(state, make_final_outcome(q, 2.0, state))
        assert_same_line(line, trace(alone, seed, 0.02, 150, box))

    with pytest.raises(CausalOrderError):
        conditional_current_grid(
            state, make_final_outcome(1.0, 2.0, state), np.array([0.0, 2.5]), np.zeros(2)
        )
