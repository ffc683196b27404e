import json

import numpy as np
import pytest

from kgflow import (
    Box, GridSpec, ScenarioError, TruncationError, load_scenario, make_final_outcome,
)
from kgflow._quad import gauss_panels
from kgflow.scenarios import (
    BUNDLED_NAMES,
    build_ensemble,
    build_state,
    scenario_from_dict,
    truncation_defect,
)

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
    # max|x| + max|t| of the box, with either end the farther one; the packet sits
    # toward that end, so that the box's own reach is what counts
    for x_center, box in ((40.0, {"t_lo": -1.0, "t_hi": 2.0, "x_lo": -8.0, "x_hi": bound - 1.5}),
                          (-40.0, {"t_lo": -2.0, "t_hi": 1.0, "x_lo": 1.5 - bound, "x_hi": 8.0})):
        raw = clone(packets=[dict(GOOD["packets"][0], x_center=x_center)])
        with pytest.raises(ScenarioError, match="resolvable range"):
            scenario_from_dict(dict(raw, box=box))
        box = dict(box, t_lo=-1.0, t_hi=1.0)
        assert scenario_from_dict(dict(raw, box=box)).box == Box(**box)
    # the ensemble evaluates every q at T = 2, so max|q| + |T| must stay within the bound
    for q_lo, q_hi in ((-1.0, bound - 1.5), (1.5 - bound, 1.0)):
        with pytest.raises(ScenarioError, match="resolvable range"):
            scenario_from_dict(clone(final={"T": 2.0, "q_lo": q_lo, "q_hi": q_hi, "n_q": 9}))
    for edge in (2.0 - bound, bound - 2.0):
        final = {"T": 2.0, "q_lo": min(edge, 0.0), "q_hi": max(edge, 0.0), "n_q": 9}
        packet = dict(GOOD["packets"][0], x_center=np.copysign(40.0, edge))
        sc = scenario_from_dict(clone(packets=[packet], final=final))
        assert max(-sc.final.q_lo, sc.final.q_hi) == bound - 2.0
        # the kernel accepts the loader's edge outcomes
        make_final_outcome([sc.final.q_lo, sc.final.q_hi], sc.final.T, build_state(sc))
    # the bundled scenarios reach 11 to 19 on grids that resolve about 84 and 87
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
        with pytest.raises(ScenarioError, match=r"packets\[0\]: box reach .* exceeds the grid's"):
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
            reach = max(pk.x_center - sc.box.x_lo, sc.box.x_hi - pk.x_center) + t_box
            assert reach + pk.spread <= 42.4
            if sc.final is not None:
                reach = max(pk.x_center - sc.final.q_lo, sc.final.q_hi - pk.x_center)
                assert reach + abs(sc.final.T) + pk.spread <= 45.4


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
    (("box", "x_hi"), 90.0, "box reach max|x| + max|t| = 91 exceeds the grid's resolvable "
                            "range 86.7"),
    (("final", "q_lo"), 5.0, "final.q_lo must be below final.q_hi"),
    (("final", "n_q"), 1, "final.n_q must be at least 2"),
    (("final", "q_hi"), 85.0, "final outcome range [-5, 85] at T = 2 exceeds the grid's "
                              "resolvable range 86.7"),
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
