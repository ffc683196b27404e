import csv
import json

import numpy as np
import pytest

from kgflow.cli import main

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
    # --threads is accepted and has no effect
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1), "--threads", "1"]) == 0
    assert main(args + ["--out", str(out2), "--threads", "4"]) == 0
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


def test_trajectories_seed_outside_box(tmp_path):
    rc = main([
        "trajectories", "--scenario", "s1_negative_density",
        "--out", str(tmp_path / "out"), "--seed", "99,0",
    ])
    assert rc == 2


def test_trajectories_bad_seed_syntax(tmp_path):
    rc = main([
        "trajectories", "--scenario", "s1_negative_density",
        "--out", str(tmp_path / "out"), "--seed", "1;2",
    ])
    assert rc == 2


def test_validate_bundled_scenario_passes(tmp_path):
    out = tmp_path / "out"
    rc = main(["validate", "--scenario", "s1_conditional", "--out", str(out)])
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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["warp", "--scenario", "single_rest", "--out", "/tmp/x"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["density", "trajectories", "validate", "kernel"])
def test_threads_below_one_rejected(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", "s1_conditional", "--out", str(tmp_path / "o"),
              "--threads", "0"])
    assert exc.value.code == 2
