import json

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from kgflow import (
    Box, DomainError, GridSpec, ScenarioError, TruncationError, load_scenario, make_final_outcome,
)
from kgflow._quad import gauss_panels
from kgflow.current import current_grid
from kgflow.scenarios import (
    BUNDLED_NAMES,
    PacketSpec,
    Scenario,
    build_ensemble,
    build_state,
    scenario_from_dict,
    truncation_defect,
)
from kgflow.states import _packet_reach, _require_resolvable

GOOD = {
    "name": "probe",
    "mass": 1.0,
    "packets": [
        {"p_center": 0.0, "p_width": 0.25, "x_center": 0.0, "coeff_re": 1.0, "coeff_im": 0.0}
    ],
    "grid": {"p_min": -3.0, "p_max": 3.0, "panels": 8, "nodes_per_panel": 32},
    "box": {"t_lo": -1.0, "t_hi": 1.0, "x_lo": -8.0, "x_hi": 8.0},
}


def clone(**overrides):
    raw = json.loads(json.dumps(GOOD))
    raw.update(overrides)
    return raw


def test_bundled_scenarios_load_and_build():
    for name in BUNDLED_NAMES:
        sc = load_scenario(name)
        assert sc.name == name
        state = build_state(sc)
        assert state.mass == sc.mass
        if sc.final is not None:
            ens = build_ensemble(sc, state)
            assert ens.q_value.size == sc.final.n_q


def test_unknown_scenario_name_rejected(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario("no_such_scenario")
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(bad)


def test_unknown_fields_rejected_everywhere():
    with pytest.raises(ScenarioError, match="unknown"):
        scenario_from_dict(clone(extra=1))
    raw = clone()
    raw["packets"][0]["p_sigma"] = 0.1
    with pytest.raises(ScenarioError, match="unknown"):
        scenario_from_dict(raw)
    raw = clone()
    raw["grid"]["n_nodes"] = 64
    with pytest.raises(ScenarioError, match="unknown"):
        scenario_from_dict(raw)
    raw = clone()
    raw["box"]["margin"] = 1.0
    with pytest.raises(ScenarioError, match="unknown"):
        scenario_from_dict(raw)
    raw = clone(final={"T": 2.0, "q_lo": -5.0, "q_hi": 5.0, "n_q": 11, "dq": 0.1})
    with pytest.raises(ScenarioError, match="unknown"):
        scenario_from_dict(raw)


def test_missing_and_invalid_fields_rejected():
    raw = clone()
    del raw["mass"]
    with pytest.raises(ScenarioError, match="missing"):
        scenario_from_dict(raw)
    with pytest.raises(ScenarioError):
        scenario_from_dict(clone(mass=-2.0))
    with pytest.raises(ScenarioError):
        scenario_from_dict(clone(mass="heavy"))
    with pytest.raises(ScenarioError):
        scenario_from_dict(clone(name="bad name/with spaces"))
    with pytest.raises(ScenarioError):
        scenario_from_dict(clone(packets=[]))
    raw = clone()
    raw["grid"]["p_min"] = 5.0
    with pytest.raises(ScenarioError):
        scenario_from_dict(raw)


def test_truncated_grid_flagged_and_enforced(tmp_path):
    raw = clone()
    raw["packets"][0]["p_width"] = 0.6  # needs roughly +/- 5.1, grid is +/- 3
    raw["grid"]["p_min"], raw["grid"]["p_max"] = -3.7, 3.7
    sc = scenario_from_dict(raw)
    assert truncation_defect(sc) > 1e-8
    with pytest.raises(TruncationError):
        build_state(sc)
    state = build_state(sc, check_truncation=False)
    assert np.isfinite(state.amplitudes).all()


def test_reach_beyond_resolvable_range_rejected():
    bound = GridSpec(**GOOD["grid"]).resolvable_range
    gaps = np.diff(gauss_panels(-3.0, 3.0, 8, 32)[0])
    assert bound == pytest.approx(np.pi / gaps.max(), rel=1e-15)
    # the rule measures from the packet's reach, x_center +/- 14, not from x = 0.  With the
    # packet at +/-40, a box corner or an outcome at |t| = 2 loads 1e-9 inside the edge
    # |x - x_center| + |t| + 14 = bound, though its |x| + |t| passes the bound by 24, and
    # 1e-9 past the edge the loader refuses it; the kernel draws the same line
    for sign in (1.0, -1.0):
        packets = [dict(GOOD["packets"][0], x_center=40.0 * sign)]
        state = build_state(scenario_from_dict(clone(packets=packets)))
        edge = sign * (40.0 + bound - 16.0)
        for inset in (1e-9, -1e-9):
            end = edge - sign * inset
            box = {"t_lo": -2.0, "t_hi": 1.0, "x_lo": min(end, 0.0), "x_hi": max(end, 0.0)}
            final = {"T": 2.0, "q_lo": min(end, 0.0), "q_hi": max(end, 0.0), "n_q": 9}
            for block, what in (({"box": box}, "box"), ({"final": final}, "final outcome")):
                raw = clone(packets=packets, **block)
                if inset > 0:
                    scenario_from_dict(raw)
                else:
                    with pytest.raises(ScenarioError, match=rf"packets\[0\]: {what} reach "):
                        scenario_from_dict(raw)
            if inset > 0:
                make_final_outcome([end], 2.0, state)
            else:
                with pytest.raises(DomainError, match="beyond resolvable range 86.7"):
                    make_final_outcome([end], 2.0, state)
    # the bundled scenarios' grids resolve about 84 and 87
    for name in BUNDLED_NAMES:
        expected = 83.9 if name.startswith("s1_") else 86.7
        assert load_scenario(name).grid.resolvable_range == pytest.approx(expected, abs=0.05)


def test_packet_reach_beyond_resolvable_range_rejected():
    # a packet's sum resolves |x - x_center| + |t| plus its spread 7/(2 p_width) = 14
    bound = GridSpec(**GOOD["grid"]).resolvable_range
    edge = bound - 14.0 - 1.0  # the farther end of the box from the packet, at |t| = 1
    for x_center, end, sign in ((0.0, "x_hi", 1.0), (30.0, "x_lo", -1.0)):
        raw = clone(packets=[dict(GOOD["packets"][0], x_center=x_center)])
        box = dict(GOOD["box"], **{end: x_center + sign * (edge - 1e-9)})
        assert scenario_from_dict(dict(raw, box=box)).box == Box(**box)
        box[end] += sign * 2e-9
        with pytest.raises(ScenarioError, match=r"packets\[0\]: box reach .* beyond resolvable"):
            scenario_from_dict(dict(raw, box=box))
    # the final outcomes, at T = 2, measured from the second packet
    packets = [GOOD["packets"][0], dict(GOOD["packets"][0], x_center=-40.0)]
    final = {"T": 2.0, "q_lo": -8.0, "q_hi": bound - 14.0 - 2.0 - 40.0 - 1e-9, "n_q": 9}
    scenario_from_dict(clone(packets=packets, final=final))
    final["q_hi"] += 2e-9
    with pytest.raises(ScenarioError, match=r"packets\[1\]: final outcome reach"):
        scenario_from_dict(clone(packets=packets, final=final))
    # the bundled scenarios reach at most 45.3, s1_conditional's outcomes, of 83.9
    for name in BUNDLED_NAMES:
        sc = load_scenario(name)
        t_box = max(-sc.box.t_lo, sc.box.t_hi)
        for pk in sc.packets:
            lo, hi = _packet_reach(pk.x_center, pk.p_width)
            assert max(hi - sc.box.x_lo, sc.box.x_hi - lo) + t_box <= 42.4
            if sc.final is not None:
                assert max(hi - sc.final.q_lo, sc.final.q_hi - lo) + abs(sc.final.T) <= 45.4


def test_corner_past_the_bound_from_origin_loads_and_resolves():
    # with a packet at x = 40 the loader refused a box corner at (t, x) = (+/-2, bound - 1.5),
    # whose |x| + |t| passes the bound; its sum there agrees with 64 panels'
    bound = GridSpec(**GOOD["grid"]).resolvable_range
    box = {"t_lo": -2.0, "t_hi": 2.0, "x_lo": -8.0, "x_hi": bound - 1.5}
    raw = clone(packets=[dict(GOOD["packets"][0], x_center=40.0)], box=box)
    state = build_state(scenario_from_dict(raw))
    ref = build_state(scenario_from_dict(dict(raw, grid=dict(GOOD["grid"], panels=64))))
    peak = np.abs(current_grid(ref, 2.0, np.linspace(20.0, 60.0, 401))[0]).max()
    for t in (-2.0, 2.0):
        corner = zip(current_grid(state, t, bound - 1.5), current_grid(ref, t, bound - 1.5))
        for got, want in corner:
            assert abs(got - want) <= 1e-13 * peak


_SPANS = st.tuples(st.floats(-80.0, 80.0), st.floats(-80.0, 80.0)).map(sorted)


@given(
    packets=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.1, 0.2), st.floats(-20.0, 20.0)),
                     min_size=1, max_size=2),
    panels=st.sampled_from([4, 8, 16]),
    t=_SPANS.map(lambda ends: [0.25 * e for e in ends]),
    x=_SPANS,
    final=st.none() | st.tuples(st.floats(-10.0, 10.0), _SPANS),
)
def test_loader_and_kernel_share_one_range_rule(packets, panels, t, x, final):
    # the loader takes a scenario exactly when the kernel's rule, on the state it builds,
    # takes the box corners and the outcome ends at T
    assume(t[0] < t[1] and x[0] < x[1] and (final is None or final[1][0] < final[1][1]))
    specs = tuple(PacketSpec(pc, pw, xc, 1.0, 0.0) for pc, pw, xc in packets)
    grid = dict(GOOD["grid"], panels=panels)
    box = Box(t[0], t[1], x[0], x[1])
    raw = clone(packets=[vars(pk) for pk in specs], grid=grid, box=vars(box))
    if final is not None:
        raw["final"] = {"T": final[0], "q_lo": final[1][0], "q_hi": final[1][1], "n_q": 9}
    state = build_state(Scenario("drawn", 1.0, specs, GridSpec(**grid), box, None))
    try:
        _require_resolvable(state, [t[0], t[0], t[1], t[1]], [x[0], x[1], x[0], x[1]])
        if final is not None:
            _require_resolvable(state, final[0], list(final[1]))
        kernel_takes = True
    except DomainError:
        kernel_takes = False
    try:
        scenario_from_dict(raw)
        loader_takes = True
    except ScenarioError as err:
        assert "beyond resolvable range" in str(err)
        loader_takes = False
    assert loader_takes == kernel_takes


def test_build_ensemble_requires_final(rest_scenario, s1_scenario):
    state = build_state(s1_scenario)
    with pytest.raises(ScenarioError):
        build_ensemble(s1_scenario, state)


def test_scenario_file_roundtrip(tmp_path):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(GOOD))
    sc = load_scenario(path)
    assert sc.name == "probe"
    assert sc.final is None
    assert sc.grid.n_nodes == 256


def test_nodes_per_panel_bounded_at_one_hundred():
    raw = clone()
    raw["grid"]["nodes_per_panel"] = 101
    with pytest.raises(ScenarioError, match="nodes_per_panel"):
        scenario_from_dict(raw)
    raw["grid"].update(nodes_per_panel=100, panels=1)
    assert scenario_from_dict(raw).grid.nodes_per_panel == 100


FINAL = {"T": 2.0, "q_lo": -5.0, "q_hi": 5.0, "n_q": 11}


@pytest.mark.parametrize("keys, value, message", [
    (("mass",), float("inf"), "{ctx}.mass must be finite"),
    (("mass",), "heavy", "{ctx}.mass must be a number"),
    (("mass",), True, "{ctx}.mass must be a number"),
    (("grid", "panels"), 8.0, "{ctx}.grid.panels must be an integer"),
    (("final", "n_q"), True, "{ctx}.final.n_q must be an integer"),
    (("name",), 3, "{ctx}.name must be a string"),
    (("packets",), {}, "{ctx}.packets must be a list"),
    (("grid",), [], "{ctx}.grid must be an object"),
    (("final",), 1.0, "{ctx}.final must be an object"),
    (("packets", 0), 1.0, "{ctx}.packets[0] must be an object"),
    (("extra",), 1, "unknown field(s) ['extra'] in {ctx}"),
    (("packets", 0, "p_sigma"), 0.1, "unknown field(s) ['p_sigma'] in {ctx}.packets[0]"),
    (("name",), "a b", "scenario name must be nonempty and filesystem-safe"),
    (("mass",), 0.0, "mass must be positive"),
    (("packets",), [], "scenario needs at least one packet"),
    (("packets", 0, "p_width"), 0.0, "packets[0].p_width must be positive"),
    (("grid", "p_min"), 3.0, "grid.p_min must be below grid.p_max"),
    (("grid", "panels"), 0, "grid needs at least 1 panel and 2 nodes per panel"),
    (("grid", "nodes_per_panel"), 1, "grid needs at least 1 panel and 2 nodes per panel"),
    (("grid", "nodes_per_panel"), 101, "{ctx}.grid.nodes_per_panel must be at most 100"),
    (("grid",), dict(GOOD["grid"], panels=1, nodes_per_panel=8),
     "grid must carry at least 16 nodes"),
    (("box", "t_hi"), -1.0, "box must have positive extent on both axes"),
    (("box", "x_lo"), 8.0, "box must have positive extent on both axes"),
    (("box", "x_hi"), 90.0, "packets[0]: box reach |t| + |x - far end of [-14, 14]| = 105 "
                            "is beyond resolvable range 86.7"),
    (("final", "q_lo"), 5.0, "final.q_lo must be below final.q_hi"),
    (("final", "n_q"), 1, "final.n_q must be at least 2"),
    (("final", "q_hi"), 85.0, "packets[0]: final outcome reach |t| + |x - far end of [-14, 14]| "
                              "= 101 is beyond resolvable range 86.7"),
    ((), [GOOD], "{ctx} must contain a JSON object"),
])
def test_loader_errors_keep_their_messages(tmp_path, keys, value, message):
    # GOOD with a final block and the value at keys; read from a file, so the
    # non-object JSON reaches load_scenario and each message carries the path
    raw = clone(final=dict(FINAL))
    if not keys:
        raw = value
    else:
        *parents, last = keys
        target = raw
        for key in parents:
            target = target[key]
        target[last] = value
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert type(err.value) is ScenarioError
    assert str(err.value) == message.format(ctx=path)
