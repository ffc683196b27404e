import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kgflow
from kgflow import CausalClass, Event, build_ensemble, load_scenario, make_final_outcome
from kgflow._csv import write_csv
from kgflow.cli import main
from kgflow.current import current_grid
from kgflow.newton_wigner import nw_density_grid
from kgflow.states import Lattice
from kgflow.trajectories import (
    Box, conditional_field, segment_stats, standard_field, trace_many,
)

TRUNCATED = {
    "name": "truncated_probe",
    "mass": 1.0,
    "packets": [
        {"p_center": 0.0, "p_width": 0.6, "x_center": 0.0, "coeff_re": 1.0, "coeff_im": 0.0}
    ],
    "grid": {"p_min": -3.7, "p_max": 3.7, "panels": 8, "nodes_per_panel": 32},
    "box": {"t_lo": -1.0, "t_hi": 1.0, "x_lo": -8.0, "x_hi": 8.0},
    "final": {"T": 2.0, "q_lo": -11.0, "q_hi": 11.0, "n_q": 31},
}

HEAVY_REST = {
    "name": "heavy_rest",
    "mass": 5.0,
    "packets": [
        {"p_center": 0.0, "p_width": 0.3, "x_center": 0.0, "coeff_re": 1.0, "coeff_im": 0.0}
    ],
    "grid": {"p_min": -3.0, "p_max": 3.0, "panels": 8, "nodes_per_panel": 32},
    "box": {"t_lo": -1.0, "t_hi": 1.0, "x_lo": -10.0, "x_hi": 10.0},
    "final": {"T": 2.0, "q_lo": -13.0, "q_hi": 13.0, "n_q": 41},
}

# a rest packet far off the origin: its integration windows reach past the
# grid's resolvable range unless clipped, and checks placed about x = 0 miss it
OFF_CENTRE = {
    "name": "off_centre",
    "mass": 1.0,
    "packets": [
        {"p_center": 0.0, "p_width": 0.25, "x_center": 60.0, "coeff_re": 1.0, "coeff_im": 0.0}
    ],
    "grid": {"p_min": -3.0, "p_max": 3.0, "panels": 8, "nodes_per_panel": 32},
    "box": {"t_lo": -1.0, "t_hi": 1.0, "x_lo": 50.0, "x_hi": 70.0},
    "final": {"T": 2.0, "q_lo": 45.0, "q_hi": 75.0, "n_q": 41},
}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_density_csv_contract(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "density", "--scenario", "s1_negative_density", "--out", str(out),
        "--t", "0", "--n-x", "301",
    ])
    assert rc == 0
    rows = read_csv(out / "density.csv")
    assert len(rows) == 301
    assert list(rows[0].keys()) == ["x", "j0", "j1", "nw_density"]
    j0 = np.array([float(r["j0"]) for r in rows])
    nw = np.array([float(r["nw_density"]) for r in rows])
    assert (j0 < 0).any()
    assert (nw >= 0).all()


def test_density_single_packet_positive(tmp_path):
    out = tmp_path / "out"
    assert main(["density", "--scenario", "single_rest", "--out", str(out)]) == 0
    rows = read_csv(out / "density.csv")
    assert len(rows) == 401
    assert all(float(r["j0"]) > 0 for r in rows)


@pytest.mark.parametrize("args, files", [
    (["density", "--scenario", "single_rest", "--n-x", "101"], ["density.csv"]),
    (["trajectories", "--scenario", "s1_conditional", "--max-steps", "100",
      "--seed=0,-1", "--seed=0.5,2", "--seed=0,-1,-2", "--seed=-1,2,4"],
     ["trajectories.csv", "trajectories_summary.json"]),
], ids=["density", "trajectories"])
def test_density_deterministic_across_threads(tmp_path, args, files):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_trajectories_summary(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "trajectories", "--scenario", "s1_negative_density", "--out", str(out),
        "--step", "0.01", "--max-steps", "1500",
        "--seed", "2.9,9.45", "--seed", "0.0,-1.05",
    ])
    assert rc == 0
    summary = json.loads((out / "trajectories_summary.json").read_text())
    assert len(summary["trajectories"]) == 2
    for entry in summary["trajectories"]:
        assert sum(entry["fractions"].values()) == pytest.approx(1.0, abs=1e-9)
    assert summary["trajectories"][0]["reversals"] >= 1
    rows = read_csv(out / "trajectories.csv")
    assert list(rows[0].keys()) == ["traj_id", "s", "t", "x", "class"]
    assert rows[0]["class"] == ""
    assert rows[1]["class"] != ""


def test_trajectories_zero_probability_outcome(tmp_path, capsys):
    rc = main([
        "trajectories", "--scenario", "s1_conditional",
        "--out", str(tmp_path / "out"), "--seed", "0,0,40",
    ])
    assert rc == 3
    assert "floor" in capsys.readouterr().err


def test_density_beyond_resolvable_range_is_domain_error(tmp_path, capsys):
    # past pi / (max node gap) of the grid, 86.71, the sum would sample aliasing noise.  The
    # rule measures from the packet's reach [-14, 14], so the box's max|x| = 10 takes |t| up
    # to 86.71 - 24 = 62.71; -76, which |x| + |t| let pass, is refused
    out = tmp_path / "out"
    for t in ("1e9", "-76", "-62.72"):
        rc = main(["density", "--scenario", "single_rest", "--out", str(out), f"--t={t}"])
        assert rc == 3
        assert "resolvable range 86.7" in capsys.readouterr().err
        assert not (out / "density.csv").exists()
    rc = main(["density", "--scenario", "single_rest", "--out", str(out), "--t=-62.7"])
    assert rc == 0


def test_kernel_beyond_resolvable_range_is_domain_error(tmp_path, capsys):
    # single_boosted's box is x in [-8, 10] and its density lattice's last coarse row sits at
    # 9.955; its packet's reach is [-14, 14]: at this t only the points past that row reach
    # beyond the bound
    bound = load_scenario("single_boosted").grid.resolvable_range
    out = tmp_path / "out"
    rc = main(["density", "--scenario", "single_boosted", "--out", str(out),
               f"--t={9.98 + 14.0 - bound!r}"])
    assert rc == 3
    assert "resolvable range" in capsys.readouterr().err
    assert not (out / "density.csv").exists()
    # an outcome q = 500 at T = 2 lies far past the bound of about 84
    rc = main(["trajectories", "--scenario", "s1_conditional", "--out", str(out),
               "--seed", "0,0,500"])
    assert rc == 3
    assert "resolvable range" in capsys.readouterr().err
    assert not (out / "trajectories.csv").exists()


def test_conditional_seed_step_past_measurement_time(tmp_path, capsys):
    rc = main([
        "trajectories", "--scenario", "s1_conditional", "--out", str(tmp_path / "out"),
        "--seed=0,0,1", "--step", "10",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--step 10" in err and "T = 2" in err


def test_conditional_seed_without_final_block(tmp_path, capsys):
    # a T,X,Q seed needs the scenario's measurement time T
    out = tmp_path / "out"
    rc = main(["trajectories", "--scenario", "s1_negative_density", "--out", str(out),
               "--seed=0,0.5,1.0"])
    assert rc == 2
    assert "has no final block" in capsys.readouterr().err
    assert not (out / "trajectories.csv").exists()


def test_trajectories_default_seed_fan(tmp_path, s1_scenario):
    # no --seed: nine unconditional seeds across the box at t = 0
    out = tmp_path / "out"
    rc = main(["trajectories", "--scenario", "s1_negative_density", "--out", str(out),
               "--max-steps", "20"])
    assert rc == 0
    lines = json.loads((out / "trajectories_summary.json").read_text())["trajectories"]
    box = s1_scenario.box
    xs = box.x_lo + (box.x_hi - box.x_lo) * np.linspace(0.1, 0.9, 9)
    assert [(e["seed"]["t"], e["seed"]["x"], e["outcome_q"]) for e in lines] == [
        (0.0, x, None) for x in xs.tolist()
    ]
    assert {r["traj_id"] for r in read_csv(out / "trajectories.csv")} == {
        str(i) for i in range(9)
    }


@pytest.mark.parametrize("args, message", [
    (["density", "--n-x", "1"], "--n-x must be at least 2"),
    (["kernel", "--n", "0"], "--n must be at least 1"),
])
def test_too_few_samples_exit_code(tmp_path, capsys, args, message):
    rc = main(args + ["--scenario", "single_rest", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"kg-flow: {message}\n"
    assert not any((tmp_path / "out").iterdir())


def test_unallocatable_input_is_an_input_error(tmp_path, capsys):
    # numpy refuses the lattice's exabyte arrays before it touches any memory
    rc = main(["density", "--scenario", "s1_negative_density", "--n-x", "1" + "0" * 36,
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("kg-flow: Unable to allocate") and err.count("\n") == 1
    assert not any((tmp_path / "out").iterdir())


def test_trajectories_seed_outside_box(tmp_path):
    rc = main([
        "trajectories", "--scenario", "s1_negative_density",
        "--out", str(tmp_path / "out"), "--seed", "99,0",
    ])
    assert rc == 2


def test_trajectories_bad_seed_syntax(tmp_path, capsys):
    for seed in ("1;2", "0,0,nan", "0,inf", "1,x"):
        rc = main([
            "trajectories", "--scenario", "s1_conditional",
            "--out", str(tmp_path / "out"), "--seed", seed,
        ])
        assert rc == 2
        assert f"seed {seed!r}" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["s1_conditional", "heavy_rest", "off_centre"])
def test_validate_bundled_scenario_passes(tmp_path, scenario):
    # heavy_rest, mass 5: the current's normalization and kernel range
    written = {"heavy_rest": HEAVY_REST, "off_centre": OFF_CENTRE}
    if scenario in written:
        path = tmp_path / f"{scenario}.json"
        path.write_text(json.dumps(written[scenario]))
        scenario = path
    out = tmp_path / "out"
    rc = main(["validate", "--scenario", str(scenario), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "validation_report.json").read_text())
    assert report["all_pass"] is True
    assert set(report["checks"]) == {
        "momentum_truncation",
        "continuity_standard",
        "continuity_conditional",
        "conditional_normalization",
        "decomposition_l2",
        "kernel_vs_bessel",
        "nw_parseval",
    }
    for check in report["checks"].values():
        assert check["value"] <= check["tolerance"]
        assert np.isfinite(check["seconds"]) and check["seconds"] >= 0.0


def test_validate_flags_truncated_grid(tmp_path):
    path = tmp_path / "truncated.json"
    path.write_text(json.dumps(TRUNCATED))
    out = tmp_path / "out"
    rc = main(["validate", "--scenario", str(path), "--out", str(out)])
    assert rc == 1
    report = json.loads((out / "validation_report.json").read_text())
    assert report["checks"]["momentum_truncation"]["pass"] is False


def test_validate_requires_final_block(tmp_path):
    rc = main([
        "validate", "--scenario", "s1_negative_density", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2


def _s1_conditional_with(tmp_path, **final):
    """s1_conditional with its final block updated, written to a file; returns the path."""
    raw = json.loads((Path(kgflow.__file__).parent / "data" / "s1_conditional.json").read_text())
    raw["final"].update(final)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(raw))
    return path


def test_validate_early_measurement_time_passes(tmp_path):
    # at T = 0.004 a conditional stencil step of 1e-3 reached 0.8 T + h = 0.0042, past T
    out = tmp_path / "out"
    rc = main(["validate", "--scenario", str(_s1_conditional_with(tmp_path, T=0.004)),
               "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "validation_report.json").read_text())["all_pass"] is True


@pytest.mark.parametrize("final", [{"T": 0.0}, {"T": -2.0, "q_lo": -20.0, "q_hi": 16.0}],
                         ids=["zero", "negative"])
def test_validate_requires_positive_measurement_time(tmp_path, capsys, final):
    # the loader takes any T; validate's checks sit at times in (0, T]
    out = tmp_path / "out"
    rc = main(["validate", "--scenario", str(_s1_conditional_with(tmp_path, **final)),
               "--out", str(out)])
    assert rc == 2
    assert "final.T > 0" in capsys.readouterr().err
    assert not (out / "validation_report.json").exists()


def test_conditional_trace_with_narrow_outcome_window(tmp_path):
    # q in [-4, 8] holds 0.887 of the outcome probability: the amplitude floor reads the
    # window's peak and the trace never needs the ensemble's coverage
    out = tmp_path / "out"
    rc = main(["trajectories", "--scenario",
               str(_s1_conditional_with(tmp_path, q_lo=-4.0, q_hi=8.0)), "--out", str(out),
               "--seed=0.0,1.0,1.0"])
    assert rc == 0
    (line,) = json.loads((out / "trajectories_summary.json").read_text())["trajectories"]
    assert line["outcome_q"] == 1.0 and line["n_events"] > 1


def test_kernel_table(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "kernel", "--scenario", "single_rest", "--out", str(out), "--n", "25",
    ])
    assert rc == 0
    rows = read_csv(out / "kernel.csv")
    assert len(rows) == 25
    kernels = [float(r["kernel"]) for r in rows]
    assert all(a > b for a, b in zip(kernels, kernels[1:]))
    assert max(float(r["rel_err"]) for r in rows) < 1e-6


def test_kernel_nonrelativistic_blank_oracle(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "kernel", "--scenario", "single_rest", "--out", str(out),
        "--mode", "nonrelativistic", "--n", "5",
    ])
    assert rc == 0
    rows = read_csv(out / "kernel.csv")
    assert all(r["oracle"] == "" and r["rel_err"] == "" for r in rows)


def test_kernel_bad_range(tmp_path):
    rc = main([
        "kernel", "--scenario", "single_rest", "--out", str(tmp_path / "o"),
        "--delta-lo", "3", "--delta-hi", "1",
    ])
    assert rc == 2


@pytest.mark.parametrize("args, flag", [
    (["density", "--t=nan"], "--t"),
    (["density", "--t=inf"], "--t"),
    (["density", "--t=-inf"], "--t"),
    (["kernel", "--delta-lo", "nan"], "--delta-lo"),
    (["kernel", "--delta-hi", "inf"], "--delta-hi"),
], ids=["t-nan", "t-inf", "t-minus-inf", "delta-lo-nan", "delta-hi-inf"])
def test_non_finite_float_flags_rejected(tmp_path, capsys, args, flag):
    out = tmp_path / "o"
    rc = main(args + ["--scenario", "single_rest", "--out", str(out)])
    assert rc == 2
    assert f"{flag} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_trajectories_cells_are_the_traced_lines(tmp_path, s1_conditional_scenario,
                                                 bundled_states):
    # standard and conditional seeds mixed; trace_many draws the same lines
    scenario, step = s1_conditional_scenario, 0.02
    state = bundled_states[scenario.name]
    seeds = [(0.0, -1.0, None), (0.5, 2.0, 1.5), (-1.0, 2.0, 4.0), (0.3, -3.0, None)]
    out = tmp_path / "out"
    argv = ["trajectories", "--scenario", scenario.name, "--out", str(out), "--max-steps", "150"]
    argv += ["--seed=" + ",".join(str(v) for v in seed if v is not None) for seed in seeds]
    assert main(argv) == 0

    box, T = scenario.box, scenario.final.T
    standard = [i for i, seed in enumerate(seeds) if seed[2] is None]
    conditional = [i for i, seed in enumerate(seeds) if seed[2] is not None]
    peak = float(np.abs(build_ensemble(scenario, state).amplitude_fi).max())
    outcomes = make_final_outcome([seeds[i][2] for i in conditional], T, state)
    lines = dict(zip(standard, trace_many(
        standard_field(state), [Event(*seeds[i][:2]) for i in standard], step, 150, box)))
    lines.update(zip(conditional, trace_many(
        conditional_field(state, outcomes, 1e-8 * peak),
        [Event(*seeds[i][:2]) for i in conditional], step, 150,
        Box(box.t_lo, min(box.t_hi, T - step), box.x_lo, box.x_hi))))

    rows = read_csv(out / "trajectories.csv")
    summary = json.loads((out / "trajectories_summary.json").read_text())["trajectories"]
    assert len(summary) == len(seeds)
    for tid, entry in enumerate(summary):
        line = lines[tid]
        mine = [row for row in rows if row["traj_id"] == str(tid)]
        assert len(mine) == len(line.points) == entry["n_events"]
        for k, row in enumerate(mine):
            assert [row["s"], row["t"], row["x"]] == [
                "%.17g" % v for v in (line.arc[k], *line.points[k])
            ]
            assert row["class"] == ("" if k == 0 else list(CausalClass)[line.codes[k - 1]].value)
        assert entry["arc_length"] == line.arc[-1]
        assert entry["reversals"] == len(line.reversals)
        assert entry["stop_reason"] == line.stop_reason
        assert entry["fractions"] == segment_stats(line)


def test_unknown_scenario_exit_code(tmp_path, capsys):
    rc = main(["density", "--scenario", "missing.json", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "missing.json" in capsys.readouterr().err


def test_unknown_field_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    raw = json.loads(json.dumps(TRUNCATED))
    raw["surprise"] = 1
    path.write_text(json.dumps(raw))
    rc = main(["density", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("command", ["density", "trajectories", "validate", "kernel"])
def test_packet_beyond_resolvable_range_exit_code(tmp_path, capsys, command):
    # on the s1 grid (range 83.9) a packet centred at x = 200 gave j0(0, 0) = 0.0986
    # where 64 panels give 0.0820, and validate blamed the outcome grid's coverage
    raw = json.loads((Path(kgflow.__file__).parent / "data" / "s1_conditional.json").read_text())
    raw["packets"][0]["x_center"] = 200.0
    path = tmp_path / "far.json"
    path.write_text(json.dumps(raw))
    assert main([command, "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "packets[0]: box reach" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["warp", "--scenario", "single_rest", "--out", "/tmp/x"])
    assert exc.value.code == 2


def test_write_csv_matches_per_cell_join(tmp_path):
    columns = [
        [0.1, np.float64(1 / 3), 2.5e17, 1.0000000000000002, 0.1],
        [-0.0, 7, np.int64(-2), True, 1e22],  # int and bool cells in a float column
        [float("inf"), float("-inf"), float("nan"), 5e-324, -1.7976931348623157e308],
        ["", "lightlike", "x,y", "100%", "timelike-forward"],
        np.float32([0.1, 1e-30, -3.5, 1e30, 0.0]),
        [3, -1, 0, 2**53, 12],
        [1e-300, 1.7976931348623157e308, 2.2250738585072014e-308, -1e-310, 9.999999999999999e-5],
        ["", "null-vector", "%.17g", "µ,ν", "%s"],  # non-ASCII cells are UTF-8
    ]
    header = ["a", "b", "c", "d", "e", "f", "g", "h"]
    write_csv(tmp_path / "new.csv", header, columns)
    # the per-cell writer the array formatter replaces
    text = ",".join(header) + "\n" + "".join(
        ",".join(c if isinstance(c, str) else f"{float(c):.17g}" for c in row) + "\n"
        for row in zip(*columns)
    )
    assert (tmp_path / "new.csv").read_bytes() == text.encode("utf-8")


def _per_row_csv(header, rows):
    """A per-row writer: one %-format per row from its cell types."""
    return ",".join(header) + "\n" + "".join(
        ",".join("%s" if isinstance(c, str) else "%.17g" for c in row) % tuple(row) + "\n"
        for row in rows
    )


def test_write_csv_matches_per_row_writer(tmp_path):
    header = ["id", "a", "b", "c"]
    columns = [
        [3, 3, np.int64(5), 12, 7],
        [0.1, 1 / 3, float("nan"), np.float32(0.1), 1e-300],
        [-0.0, 2.5e17, 5e-324, -1.7976931348623157e308, float("inf")],
        ["", "lightlike", "a,b", "x%y", "timelike-forward"],
    ]
    path = tmp_path / "rows.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == _per_row_csv(header, zip(*columns)).encode("utf-8")
    # no rows: the header alone
    write_csv(path, header, [[], [], [], np.array([], dtype=str)])
    assert path.read_bytes() == b"id,a,b,c\n"
    # a file of a single row
    write_csv(path, header, [[4], [0.25], [1e22], [""]])
    assert path.read_bytes() == _per_row_csv(header, [(4, 0.25, 1e22, "")]).encode("utf-8")


def _per_cell_csv(header, columns):
    """The CSV bytes with every number written as '%.17g' % x and strings as they are."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return (",".join(header) + "\n" + "".join(
        ",".join(c if isinstance(c, str) else "%.17g" % c for c in row) + "\n" for row in rows
    )).encode("utf-8")


@pytest.mark.parametrize(
    "argv",
    [
        *(["density", "--scenario", "s1_negative_density", "--n-x", n, f"--t={t}"]
          for n in ("401", "20001") for t in ("0", "-5", "5")),
        ["trajectories", "--scenario", "s1_negative_density", "--max-steps", "300"],
        ["trajectories", "--scenario", "s1_conditional", "--max-steps", "300",
         "--seed=0,1,3", "--seed=0.1,0.5", "--seed=0.5,2,6"],
        ["kernel", "--scenario", "single_rest", "--n", "60"],
        ["kernel", "--scenario", "single_rest", "--mode", "nonrelativistic", "--n", "60"],
    ],
    ids=" ".join,
)
def test_csv_bytes_are_per_cell_percent_format(tmp_path, monkeypatch, argv):
    """Each CLI table is written as formatting every cell with '%.17g' % x would write it."""
    import kgflow.cli

    written = []

    def capture(path, header, columns):
        written.append((path, header, columns))
        write_csv(path, header, columns)

    monkeypatch.setattr(kgflow.cli, "write_csv", capture)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    [(path, header, columns)] = written
    assert path.read_bytes() == _per_cell_csv(header, columns)


def test_density_csv_matches_grid_evaluation(tmp_path, s1_scenario, bundled_states):
    out = tmp_path / "out"
    box = s1_scenario.box
    assert main(["density", "--scenario", s1_scenario.name, "--out", str(out),
                 "--t=2.5", "--n-x", "20001"]) == 0
    lines = (out / "density.csv").read_text(encoding="utf-8").splitlines()[1:]
    xs = np.linspace(box.x_lo, box.x_hi, 20001)
    assert [line.split(",")[0] for line in lines] == ["%.17g" % x for x in xs]
    table = np.array([[float(c) for c in line.split(",")] for line in lines])
    rows = np.r_[0:20001:997, 20000]
    state = bundled_states[s1_scenario.name]
    j0, j1 = current_grid(state, 2.5, xs[rows])
    nw = nw_density_grid(state, xs[rows], 2.5)
    for col, ref in enumerate((j0, j1, nw), start=1):
        peak = np.abs(table[:, col]).max()
        assert np.abs(table[rows, col] - ref).max() <= 1e-13 * peak


def test_kernel_below_float_range_is_domain_error(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["kernel", "--scenario", "single_rest", "--out", str(out),
               "--delta-lo", "1e-300", "--delta-hi", "2e-300", "--n", "2"])
    assert rc == 3
    assert "separation 1e-300" in capsys.readouterr().err
    assert not (out / "kernel.csv").exists()


def test_kernel_beyond_resolved_separation_is_domain_error(tmp_path, capsys):
    # m|delta| up to 30 at mass 1: past 20 the kernel's relative error climbs from
    # about 4e-8 towards 1.1e-4 at 30, so it raises instead
    out = tmp_path / "out"
    rc = main(["kernel", "--scenario", "single_rest", "--out", str(out),
               "--delta-lo", "25", "--delta-hi", "30", "--n", "3"])
    assert rc == 3
    assert "m|delta|" in capsys.readouterr().err
    assert not (out / "kernel.csv").exists()


def test_cli_reaches_the_public_evaluators(tmp_path, monkeypatch, s1_state):
    """kg-flow density and the standard field's handle call the public evaluators.

    The benchmark counts work by wrapping public functions from outside, so
    a path that stops calling them drops out of its per-layer figures.  For
    the same reason TableField.evaluate goes through current_grid until
    the kernel counts its own work (ROADMAP item 3).
    """
    import kgflow.cli
    import kgflow.trajectories

    calls = []

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args):
            calls.append((name, args))
            return inner(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(kgflow.cli, "current_grid")
    counted(kgflow.cli, "nw_density_grid")
    assert main(["density", "--scenario", "s1_negative_density", "--out", str(tmp_path),
                 "--n-x", "301"]) == 0
    assert sorted(name for name, _ in calls) == ["current_grid", "nw_density_grid"]
    lattices = [[a for a in args if isinstance(a, Lattice)] for _, args in calls]
    assert all(len(found) == 1 and found[0].n == 301 for found in lattices)

    calls.clear()
    counted(kgflow.trajectories, "current_grid")
    standard_field(s1_state)(Event(0.5, 1.0))
    assert [name for name, _ in calls] == ["current_grid"]


def test_subcommands_do_not_import_numpy_ma_or_polynomial(tmp_path):
    # np.median imports numpy.ma and leggauss imports numpy.polynomial, each a few
    # milliseconds on every run; the package uses neither
    src = Path(kgflow.__file__).resolve().parent.parent
    runs = [
        ["validate", "--scenario", "s1_conditional"],
        ["density", "--scenario", "s1_negative_density", "--n-x", "101"],
        ["trajectories", "--scenario", "s1_conditional", "--max-steps", "20",
         "--seed=0.1,0.5", "--seed=-0.2,1.0,0.5"],
        ["kernel", "--scenario", "single_rest", "--n", "5"],
    ]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from kgflow.cli import main\n"
        f"for argv in {runs!r}:\n"
        f"    assert main(argv + ['--out', {str(tmp_path)!r}]) == 0, argv\n"
        "for name in ('numpy.ma', 'numpy.polynomial'):\n"
        "    assert name not in sys.modules, f'kg-flow imported {name}'\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
