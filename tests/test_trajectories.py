import math

import numpy as np
import pytest

from kgflow import (
    Box,
    CausalClass,
    CausalOrderError,
    DomainError,
    Event,
    FourVector,
    GridMismatchError,
    GridSpec,
    NodeError,
    ZeroProbabilityOutcomeError,
    classify,
    detect_closed,
    make_gaussian_packet,
    segment_stats,
    standard_field,
    superpose,
    trace,
    trace_many,
)
from kgflow import trajectories
from kgflow.current import current_grid
from kgflow.states import SpectralState, _phase_table
from kgflow.trajectories import JET_RADIUS, _Jets, _jet_plan, conditional_field
from kgflow.conditional import FinalOutcome, conditional_current_grid, make_final_outcome

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


def test_step_classes_are_classify_of_each_step(
    node_trajectory, s1_field, s1_scenario, monkeypatch
):
    events = node_trajectory.events
    assert isinstance(node_trajectory.classes, tuple)
    assert node_trajectory.classes == tuple(
        classify(FourVector(b.t - a.t, b.x - a.x)) for a, b in zip(events, events[1:])
    )
    assert all(type(c) is CausalClass for c in node_trajectory.classes)
    # the arrays are read-only, and events and classes are views of them
    n = len(node_trajectory.codes)
    for name, shape in (("points", (n + 1, 2)), ("arc", (n + 1,)),
                        ("densities", (n + 1,)), ("codes", (n,))):
        arr = getattr(node_trajectory, name)
        assert arr.shape == shape
        with pytest.raises(ValueError):
            arr[0] = 0
    assert [[e.t, e.x] for e in events] == node_trajectory.points.tolist()
    assert node_trajectory.classes == tuple(list(CausalClass)[c] for c in node_trajectory.codes)

    # the traced path makes no per-point Event or CausalClass until a view is read
    made = []

    class CountingEvent(Event):
        def __init__(self, t, x):
            made.append(1)
            super().__init__(t, x)

    monkeypatch.setattr(trajectories, "Event", CountingEvent)
    seeds = [Event(2.9, 9.45), Event(0.0, -1.05)]
    lines = trace_many(s1_field, seeds, 0.02, 200, s1_scenario.box)
    assert made == []
    assert all(not {"events", "classes"} & set(vars(line)) for line in lines)
    assert len(lines[0].events) == len(made) == len(lines[0].points)


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


def test_trace_many_without_seeds_returns_at_once():
    calls = []

    def counting(e):
        calls.append(1)
        return FourVector(1.0, 0.0)

    assert trace_many(counting, [], 0.1, 4000, WIDE) == []
    assert len(calls) <= 1


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
        points=np.zeros((1, 2)),
        arc=np.zeros(1),
        densities=np.ones(1),
        codes=np.zeros(0, dtype=int),
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


def test_standard_field_reads_table_as_current_grid(bundled_states):
    # the field's coefficient rows and reader, on degree-0 jets of the phase
    # table (psi, d0 psi and d1 psi themselves), give current_grid to rounding
    state = bundled_states["s1_negative_density"]
    field = standard_field(state)
    coeffs, read = field.coeffs, field.read
    rng = np.random.default_rng(7)
    t, x = rng.uniform(-5.0, 5.0, 33), rng.uniform(-14.0, 14.0, 33)
    jets = _Jets(state, 0)
    values = jets.at(jets.centre(_phase_table(state, t, x), coeffs), np.zeros((33, 2)), 0)
    for got, ref in zip(read(t, values).T, current_grid(state, t, x)):
        assert got.shape == ref.shape == (33,)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("n", [1, 5, 40])
def test_stacked_conditional_field_is_diagonal_of_grid(bundled_states, n):
    # row i against outcome i at linear cost, against the diagonal of the n x n grid
    state = bundled_states["s1_conditional"]
    rng = np.random.default_rng(n)
    t, x = rng.uniform(-1.5, 1.9, n), rng.uniform(-6.0, 6.0, n)
    outcome = make_final_outcome(rng.uniform(-4.0, 6.0, n), 2.0, state)
    got = conditional_field(state, outcome)(Event(t, x))
    full = conditional_current_grid(state, outcome, t, x)
    for column, grid in zip((got.v0, got.v1), full):
        ref = np.diagonal(grid)
        assert column.shape == ref.shape == (n,)
        assert np.all(np.abs(column - ref) <= 1e-12 * np.abs(ref).max())
    with pytest.raises(CausalOrderError):
        conditional_field(state, outcome)(Event(np.full(n, 2.5), x))
    with pytest.raises(ZeroProbabilityOutcomeError):
        conditional_field(state, outcome, amplitude_floor=1.0)(Event(t, x))


def test_conditional_field_checks_its_floor_when_made(bundled_states):
    # the floor is checked once, when the field is made, not at each call or trace;
    # one outcome below it stops the whole stack
    state = bundled_states["s1_conditional"]
    outcome = make_final_outcome([1.0, 40.0], 2.0, state)
    amp = np.abs(outcome.amplitude_fi)
    assert amp[1] < 1e-8 < amp[0]
    with pytest.raises(ZeroProbabilityOutcomeError, match="floor"):
        conditional_field(state, outcome)
    with pytest.raises(ZeroProbabilityOutcomeError, match="floor"):
        conditional_field(state, outcome.rows(0), amplitude_floor=2.0 * amp[0])
    field = conditional_field(state, outcome.rows(0), amplitude_floor=0.5 * amp[0])
    assert field.coeffs.shape[:2] == (2, 1)


def _counting_table_builders(monkeypatch):
    """Patch the tracer's exact table builder to record the rows of every table it builds."""
    built, exact_table = [], trajectories._phase_table

    def exact(state, t, x):
        built.append(np.size(x))
        return exact_table(state, t, x)

    monkeypatch.setattr(trajectories, "_phase_table", exact)
    return built


def test_tables_rotate_between_exact_anchors(bundled_states, monkeypatch):
    # No table is rotated any more: the count changed on purpose.  The seed and
    # every m-th accepted point are jet centres with an exact table, and at
    # m = 0 (one step past the jet radius) every evaluation is one
    state = bundled_states["s1_negative_density"]
    field = standard_field(state)
    seeds = [Event(-1.0, -2.0), Event(0.5, 0.3), Event(2.0, 4.0)]
    built = _counting_table_builders(monkeypatch)
    for step, n_steps in ((0.02, 140), (0.05, 60), (0.1, 30), (0.4, 8)):
        every, _ = _jet_plan(state, step, n_steps)
        built.clear()
        lines = trace_many(field, seeds, step, n_steps, WIDE)
        assert {line.stop_reason for line in lines} == {"max-steps"}
        tables = 1 + n_steps // every if every else 1 + 4 * n_steps
        assert built == [len(seeds)] * tables
    assert _jet_plan(state, 0.4, 8)[0] == 0 < _jet_plan(state, 0.1, 30)[0] < _jet_plan(
        state, 0.02, 140)[0]


def test_stopped_lines_stay_in_the_batch_as_frozen_rows(bundled_states, monkeypatch):
    # lines that stop at different steps: a node, two box exits and three
    # max-steps lines of the standard field, then a stacked conditional field
    standard = standard_field(bundled_states["s1_negative_density"])
    state = bundled_states["s1_conditional"]
    qs = [-2.0, 1.0, 4.0, 0.0, 5.0]
    stacked = conditional_field(state, make_final_outcome(qs, 2.0, state))
    batches = [
        ([standard] * 6, standard, Box(-1.0, 3.5, -4.0, 10.0), 1e-4,
         [(2.9, 9.45), (0.0, -1.05), (-0.5, 2.0), (3.0, -3.5), (0.5, 9.5), (-0.9, 0.0)],
         {"node", "box-exit", "max-steps"}),
        ([conditional_field(state, make_final_outcome(q, 2.0, state)) for q in qs], stacked,
         Box(-2.0, 2.0 - 0.02, -6.0, 6.0), None,
         [(0.0, -1.0), (0.5, 0.5), (-1.0, 2.0), (1.5, -5.5), (-0.3, 3.0)],
         {"box-exit", "max-steps"}),
    ]
    n_steps = 150
    for alone, field, box, floor, seeds, reasons in batches:
        seeds = [Event(*seed) for seed in seeds]
        built = _counting_table_builders(monkeypatch)
        lines = trace_many(field, seeds, 0.02, n_steps, box, node_floor=floor)
        monkeypatch.undo()
        stopped = [line.stop_reason != "max-steps" for line in lines]
        steps = np.array([len(line.codes) for line in lines])
        assert {line.stop_reason for line in lines} == reasons
        assert len(set(steps[stopped])) == sum(stopped) >= 2
        # the batch keeps one row per seed until its last line stops: each jet
        # centre, the seed and every m-th accepted point after it, builds a
        # table of every seed's row, a stopped line's frozen at its last point
        every = _jet_plan(field.state, 0.02, n_steps)[0]
        assert every > 1
        assert built == [len(seeds)] * (1 + steps.max() // every)
        for one, seed, line in zip(alone, seeds, lines):
            assert_same_line(line, trace(one, seed, 0.02, n_steps, box, node_floor=floor))

    # a plain callable still gets every seed's row, a stopped line's at its last point
    _, field, box, floor, seeds, _ = batches[0]
    calls = []

    def plain(e):
        calls.append(np.column_stack([e.t, e.x]))
        return field(e)

    lines = trace_many(plain, [Event(*seed) for seed in seeds], 0.02, n_steps, box, floor)
    assert {len(c) for c in calls} == {len(seeds)}
    for i, line in enumerate(lines):
        if line.stop_reason != "max-steps":
            assert np.array_equal(calls[-1][i], line.points[-1])


def test_chained_tables_follow_the_exact_node_line(node_trajectory, s1_field, s1_scenario):
    # the README node seed: 917 steps of step 0.01 round a current node
    def plain(e):
        return s1_field(e)

    seed, box = Event(2.9, 9.45), s1_scenario.box
    exact = trace(plain, seed, 0.01, 4000, box)
    assert node_trajectory.stop_reason == exact.stop_reason == "box-exit"
    assert len(node_trajectory.points) == len(exact.points) > 900
    assert node_trajectory.reversals == exact.reversals
    assert node_trajectory.classes == exact.classes
    # jet centres count steps from the seed, so a shorter trace is a prefix of
    # the longer one; over its first 300 steps the line agrees with the exact path
    head = trace(s1_field, seed, 0.01, 300, box)
    assert np.array_equal(head.points, node_trajectory.points[:301])
    assert_same_line(head, trace(plain, seed, 0.01, 300, box))
    # past that, each close pass by the node magnifies rounding: the exact
    # lines from the seed and from its neighbouring float part by about 2e-11
    shifted = trace(plain, Event(2.9, np.nextafter(9.45, 10.0)), 0.01, 4000, box)
    spread = np.abs(shifted.points - exact.points).max()
    assert spread > 1e-12
    assert np.abs(node_trajectory.points - exact.points).max() <= 10 * spread


def test_jet_plan_stops_at_the_trace_length(bundled_states):
    # a trace of max_steps steps reads spans up to max_steps + 1: a shorter
    # trace's plan is a prefix of a longer one's, and a tiny step plans no more
    state = bundled_states["s1_negative_density"]
    assert _jet_plan(state, 0.02, 4000) == (6, [0, 10, 12, 14, 15, 16, 17])
    for step in (1e-6, 0.02, 0.1):
        every, degrees = _jet_plan(state, step, 4000)
        for max_steps in (1, 2, 5, 300):
            short, head = _jet_plan(state, step, max_steps)
            assert short == min(every, max_steps + 1)
            assert head == degrees[: short + 1]
    # at a subnormal step JET_RADIUS / theta_h would overflow: no warning, no error
    assert _jet_plan(state, 1e-310, 2) == (3, [0, 0, 0, 0])


DRIFTING_GRID = GridSpec(-5.5, 6.5, 12, 32)  # criterion 08's RK4-order packet


@pytest.mark.parametrize(
    "name, step",
    [("s1_negative_density", 0.02), ("s1_negative_density", 0.05), ("s1_conditional", 0.1),
     ("s1_negative_density", 0.4), ("drifting", 0.4), ("drifting", 0.05)],
)
def test_jets_match_phase_table_over_the_radius(bundled_states, name, step):
    if name == "drifting":
        state = make_gaussian_packet(1.0, 0.6, 0.5, 0.0, DRIFTING_GRID)
    else:
        state = bundled_states[name]
    every, degrees = _jet_plan(state, step, 4000)  # the CLI's default max_steps
    rate = np.hypot(state.momenta, state.energies)
    assert len(degrees) == every + 1 and every * step * rate.max() <= JET_RADIUS
    if not every:  # one step passes the radius: every evaluation is its own centre
        assert step * rate.max() > JET_RADIUS
    jets = _Jets(state, degrees[-1])
    rng = np.random.default_rng(11)
    n = 300
    t, x = rng.uniform(-3.0, 3.0, n), rng.uniform(-10.0, 10.0, n)
    coeffs = standard_field(state).coeffs
    taylor = jets.centre(_phase_table(state, t, x), coeffs)
    fastest = np.argmax(rate)
    edge = np.array([-state.energies[fastest], state.momenta[fastest]]) / rate[fastest]
    for span, degree in enumerate(degrees):
        # the smallest degree whose truncation over span steps stays below 1e-17
        reach = span * step * rate.max()
        term = lambda n: reach ** (n + 1) / math.factorial(n + 1)  # noqa: E731
        assert term(degree) < 1e-17 and (degree == 0 or term(degree - 1) >= 1e-17)
        # random offsets up to span steps, the last along the fastest mode's
        # own direction, where |p dx - p0 dt| reaches reach
        angle = rng.uniform(0.0, 2.0 * np.pi, n)
        length = span * step * np.sqrt(rng.uniform(0.0, 1.0, n))
        length[-100:] = span * step
        offsets = length[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        offsets[-50:] = np.outer(rng.choice([-1.0, 1.0], 50), edge) * length[-50:, None]
        theta = offsets @ np.stack((-state.energies, state.momenta))
        assert np.abs(theta).max() == pytest.approx(reach, rel=1e-12, abs=0.0)
        got = jets.at(taylor, offsets, degree)[:, 0]
        ref = _phase_table(state, t + offsets[:, 0], x + offsets[:, 1]) @ state._psi_dpsi_columns
        peak = np.abs(ref).max(axis=0)
        assert np.all(np.abs(got - ref).max(axis=0) <= 1e-13 * peak)


@pytest.mark.parametrize("step", [0.02, 0.05, 0.1, 0.4, 5.0])
def test_jet_lines_follow_the_plain_callable(bundled_states, s1_scenario, step):
    # a plain callable builds an exact table at every evaluation; 5.0 crosses
    # most of the box in one step
    n_steps = max(2, round(3.0 / step))
    standard = standard_field(bundled_states["s1_negative_density"])
    seeds = [Event(-1.0, -2.0), Event(0.5, 0.3), Event(2.0, 4.0), Event(0.0, -1.05)]
    state = bundled_states["s1_conditional"]
    stacked = conditional_field(state, make_final_outcome([-2.0, 1.0, 4.0], 2.0, state))
    # stage times stay at or before T = 2: they reach at most one step past the box
    t_hi = 2.0 - step
    cond_seeds = [Event(t_hi - 2.0, -1.0), Event(t_hi - 1.5, 0.5), Event(t_hi - 3.0, 2.0)]
    cond_box = Box(t_hi - 4.0, t_hi, -10.0, 10.0)
    for field, seeds, box in ((standard, seeds, s1_scenario.box), (stacked, cond_seeds, cond_box)):
        lines = trace_many(field, seeds, step, n_steps, box)
        plain = trace_many(lambda e: field(e), seeds, step, n_steps, box)
        for line, exact in zip(lines, plain):
            assert_same_line(line, exact)
        if step == 5.0:
            assert {line.stop_reason for line in lines} == {"box-exit"}


@pytest.mark.parametrize("step", [0.02, 0.4])
def test_conditional_stage_past_T_raises(bundled_states, step):
    # the box reaches T itself, so the stages of a line near T pass it
    state = bundled_states["s1_conditional"]
    field = conditional_field(state, make_final_outcome([1.0, -2.0], 2.0, state))
    seeds = [Event(0.0, 1.0), Event(2.0 - 0.25 * step, 0.0)]
    with pytest.raises(CausalOrderError):
        trace_many(field, seeds, step, 50, Box(-2.0, 2.0, -10.0, 10.0))


def test_conditional_field_rejects_an_outcome_on_another_grid(bundled_states):
    state = bundled_states["s1_conditional"]
    other = make_gaussian_packet(1.0, 0.0, 0.15, 0.0, GridSpec(-1.5, 4.7))
    assert other.momenta.shape == state.momenta.shape
    with pytest.raises(GridMismatchError):
        conditional_field(state, make_final_outcome([1.0, -2.0], 2.0, other))


def test_tracer_raises_beyond_resolvable_range(s1_state):
    # a wide box lets a seed past the grid's bound of about 84 in; the jet centre's
    # phase table raises before the tracer reads noise
    box = Box(-1.0, 1.0, -200.0, 200.0)
    with pytest.raises(DomainError, match="resolvable range"):
        trace_many(standard_field(s1_state), [Event(0.0, 1.0), Event(0.0, 150.0)], 0.02, 10, box)
    field = conditional_field(s1_state, make_final_outcome(1.0, 2.0, s1_state))
    with pytest.raises(DomainError, match="resolvable range"):
        field(Event(0.0, 150.0))


def _towards_the_edge(grid):
    """A field whose packet runs right towards the range rule's edge at t = 0, and that edge.

    A rest packet at x = -20 sets the reach's left end lo = -20 - 7/(2 * 0.15); right of
    the reach's centre the rule reads x - lo + |t| <= bound, so its edge is x = lo + bound,
    about 40.6, where |x| + |t| lies far inside the bound.  The moving packet sits 2 short
    of it; the rest packet's field there, 60 from its centre, is below rounding.
    """
    anchor = make_gaussian_packet(1.0, 0.0, 0.15, -20.0, grid)
    edge = anchor.reach[0] + grid.resolvable_range
    packet = make_gaussian_packet(1.0, 3.0, 0.15, edge - 2.0, grid)
    return standard_field(superpose([packet, anchor], [1.0, 1.0])), edge


def test_accepted_points_past_the_resolvable_range_raise():
    # a packet sent towards the edge: the line crosses it at its second step and
    # stops before the next jet centre, so no exact table sees the crossing
    grid = GridSpec(-1.6, 4.6)
    field, edge = _towards_the_edge(grid)
    every = _jet_plan(field.state, 0.02, 4)[0]
    box, seed = Box(-1.0, 1.0, 0.0, 2.0 * edge), Event(0.0, edge - 0.03)
    assert every > 4
    (line,) = trace_many(field, [seed], 0.02, 1, box)
    assert (line.points[:, 1] + np.abs(line.points[:, 0])).max() <= edge
    for n_steps in (2, 4):
        with pytest.raises(DomainError, match="resolvable range"):
            trace_many(field, [seed], 0.02, n_steps, box)


def test_rk4_stages_past_the_resolvable_range_raise():
    # a seed 0.008 inside the edge: the first step leaves the box, so no accepted
    # point passes the edge, but its stages, read off the seed's jets, reach
    # x + |t| up to about edge + 0.02.  From a seed 0.04 inside it, with the box
    # 0.031 inside, the stages stay within it
    field, edge = _towards_the_edge(GridSpec(-1.6, 4.6))
    with pytest.raises(DomainError, match="resolvable range"):
        trace_many(field, [Event(0.0, edge - 0.008)], 0.02, 50, Box(-1.0, 1.0, 0.0, edge - 0.001))
    box = Box(-1.0, 1.0, 0.0, edge - 0.031)
    (line,) = trace_many(field, [Event(0.0, edge - 0.04)], 0.02, 50, box)
    assert line.stop_reason == "box-exit" and len(line.points) == 1


def test_stopped_conditional_lines_build_no_state(bundled_states, monkeypatch):
    # nine lines of a stacked fan leave the box at different steps; the field
    # pairs its outcome rows once, and a stopped line stays in the batch as a
    # frozen row, so trace_many constructs no SpectralState or FinalOutcome
    state = bundled_states["s1_conditional"]
    qs = np.linspace(-2.0, 5.0, 9)
    seeds = [Event(1.9 - 0.2 * i, -4.0 + i) for i in range(9)]
    box = Box(-2.0, 2.0 - 0.02, -6.0, 6.0)
    stacked = conditional_field(state, make_final_outcome(qs, 2.0, state))
    built = []
    for cls in (SpectralState, FinalOutcome):
        def counting(self, post_init=cls.__post_init__):
            built.append(type(self).__name__)
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    make_final_outcome(qs[:2], 2.0, state)
    assert built == ["SpectralState", "FinalOutcome"]  # the count sees constructions
    built.clear()
    lines = trace_many(stacked, seeds, 0.02, 150, box)
    monkeypatch.undo()
    assert built == []
    stops = {len(line.codes) for line in lines if line.stop_reason != "max-steps"}
    assert len(stops) >= 4
    for q, seed, line in zip(qs, seeds, lines):
        alone = conditional_field(state, make_final_outcome(q, 2.0, state))
        assert_same_line(line, trace(alone, seed, 0.02, 150, box))


def test_stacked_conditional_field_checks_its_seed_count(bundled_states):
    # three outcomes take three seeds or event rows; a lone outcome serves any number
    state = bundled_states["s1_conditional"]
    field = conditional_field(state, make_final_outcome([0.0, 1.0, 2.0], 2.0, state))
    box = Box(-1.0, 1.9, -6.0, 6.0)
    for n in (1, 4):
        seeds = [Event(0.0, 0.5 * i) for i in range(n)]
        with pytest.raises(ValueError, match=f"stacked over 3 outcomes .* not {n}$"):
            trace_many(field, seeds, 0.02, 5, box)
    with pytest.raises(ValueError, match="stacked over 3 outcomes .* not 1$"):
        field(Event(0.0, 0.0))
    assert len(trace_many(field, [Event(0.0, 0.5 * i) for i in range(3)], 0.02, 5, box)) == 3
    lone = conditional_field(state, make_final_outcome(1.0, 2.0, state))
    assert len(trace_many(lone, [Event(0.0, 0.5 * i) for i in range(4)], 0.02, 5, box)) == 4
    assert np.shape(lone(Event(np.zeros(4), np.arange(4.0))).v0) == (4,)
