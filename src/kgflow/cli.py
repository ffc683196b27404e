"""Scenario-driven command line: kg-flow <density|trajectories|validate|kernel>.

Every run reads a scenario file (or a bundled scenario name), performs
one analysis, and writes CSV/JSON artifacts under --out.  Float cells
use 17 significant digits and newline-terminated rows, so identical
inputs produce byte-identical files.  Exit codes: 0 success, 1
validation failure, 2 usage or input error, 3 domain error such as
conditioning on a zero-probability outcome.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .conditional import make_final_outcome
from .errors import DomainError
from .newton_wigner import KernelMode, bessel_k0, density_profile, position_kernel
from .scenarios import Scenario, build_ensemble, build_state, load_scenario
from .states import Event
from .trajectories import Box, conditional_field, segment_stats, standard_field, trace_many
from .validation import run_validation


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def _write_csv(path: Path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
            fh.write("\n")


def _write_json(path: Path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kg-flow",
        description="Relativistic probability-current analyses over scenario files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario file or bundled name")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility; has no effect (N >= 1)")

    p_density = sub.add_parser("density", help="sample j0, j1 and the NW density on an x-grid")
    common(p_density)
    p_density.add_argument("--t", type=float, default=0.0, help="evaluation time")
    p_density.add_argument("--n-x", type=int, default=401, help="number of x samples")

    p_traj = sub.add_parser("trajectories", help="trace current lines from seeds")
    common(p_traj)
    p_traj.add_argument("--step", type=float, default=0.02, help="arc-length step")
    p_traj.add_argument("--max-steps", type=int, default=4000)
    p_traj.add_argument(
        "--seed",
        action="append",
        default=None,
        metavar="T,X[,Q]",
        help="seed event; with Q present the field is conditioned on the "
        "final outcome q = Q (repeatable)",
    )

    p_val = sub.add_parser("validate", help="run the invariant suite and write a report")
    common(p_val)

    p_ker = sub.add_parser("kernel", help="tabulate the equal-time position kernel")
    common(p_ker)
    p_ker.add_argument("--mode", choices=["relativistic", "nonrelativistic"],
                       default="relativistic")
    p_ker.add_argument("--delta-lo", type=float, default=0.1)
    p_ker.add_argument("--delta-hi", type=float, default=5.0)
    p_ker.add_argument("--n", type=int, default=50)
    p_ker.add_argument("--cutoff", type=float, default=40.0,
                       help="momentum cutoff in nonrelativistic mode")

    return parser


def _run_density(args, scenario: Scenario, out: Path) -> int:
    if args.n_x < 2:
        raise ValueError("--n-x must be at least 2")
    state = build_state(scenario)
    xs = np.linspace(scenario.box.x_lo, scenario.box.x_hi, args.n_x)
    rows = zip(xs, *density_profile(state, args.t, xs))
    _write_csv(out / "density.csv", ["x", "j0", "j1", "nw_density"], rows)
    return 0


def _parse_seeds(raw_seeds, scenario: Scenario):
    if raw_seeds is None:
        t0 = min(max(0.0, scenario.box.t_lo), scenario.box.t_hi)
        span = scenario.box.x_hi - scenario.box.x_lo
        xs = scenario.box.x_lo + span * np.linspace(0.1, 0.9, 9)
        return [(Event(t0, float(x)), None) for x in xs]
    seeds = []
    for text in raw_seeds:
        parts = text.split(",")
        if len(parts) not in (2, 3):
            raise ValueError(f"seed {text!r} must look like T,X or T,X,Q")
        try:
            values = [float(p) for p in parts]
        except ValueError as err:
            raise ValueError(f"seed {text!r} has a non-numeric component") from err
        q = values[2] if len(values) == 3 else None
        seeds.append((Event(values[0], values[1]), q))
    return seeds


def _run_trajectories(args, scenario: Scenario, out: Path) -> int:
    state = build_state(scenario)
    seeds = _parse_seeds(args.seed, scenario)

    traced = {}
    for conditional in (False, True):
        group = [i for i, (_, q) in enumerate(seeds) if (q is not None) == conditional]
        if not group:
            continue
        field, box = standard_field(state), scenario.box
        if conditional:
            peak = float(np.abs(build_ensemble(scenario, state).amplitude_fi).max())
            outcomes = make_final_outcome([seeds[i][1] for i in group], scenario.final.T, state)
            field = conditional_field(state, outcomes, 1e-8 * peak)
            # stop before T: RK4 stages reach at most one step past an event
            box = Box(box.t_lo, min(box.t_hi, scenario.final.T - args.step), box.x_lo, box.x_hi)
        lines = trace_many(field, [seeds[i][0] for i in group], args.step, args.max_steps, box)
        traced.update(zip(group, lines))

    rows = []
    summaries = []
    for tid, (seed, q) in enumerate(seeds):
        traj = traced[tid]
        for k, (e, s) in enumerate(zip(traj.events, traj.arc)):
            cls = traj.classes[k - 1].value if k > 0 else ""
            rows.append((_fmt(tid), _fmt(s), _fmt(e.t), _fmt(e.x), cls))
        if len(traj.events) > 1:
            stats = segment_stats(traj)
        else:
            # the very first step left the box or hit a node
            kinds = ("forward", "backward", "spacelike", "lightlike")
            stats = {f"fraction_{kind}": 0.0 for kind in kinds}
        summaries.append(
            {
                "id": tid,
                "seed": {"t": seed.t, "x": seed.x},
                "outcome_q": q,
                "n_events": len(traj.events),
                "arc_length": traj.arc[-1],
                "reversals": len(traj.reversals),
                "stop_reason": traj.stop_reason,
                "fractions": stats,
            }
        )
    _write_csv(out / "trajectories.csv", ["traj_id", "s", "t", "x", "class"], rows)
    _write_json(
        out / "trajectories_summary.json",
        {
            "scenario": scenario.name,
            "step": args.step,
            "max_steps": args.max_steps,
            "trajectories": summaries,
        },
    )
    return 0


def _run_validate(args, scenario: Scenario, out: Path) -> int:
    report = run_validation(scenario)
    _write_json(out / "validation_report.json", report)
    return 0 if report["all_pass"] else 1


def _run_kernel(args, scenario: Scenario, out: Path) -> int:
    if not 0 < args.delta_lo < args.delta_hi:
        raise ValueError("need 0 < --delta-lo < --delta-hi")
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    mode = KernelMode(tag=args.mode, cutoff=args.cutoff)
    deltas = np.linspace(args.delta_lo, args.delta_hi, args.n)
    rows = []
    for d in deltas:
        k = position_kernel(scenario.mass, float(d), mode)
        if args.mode == "relativistic":
            oracle = bessel_k0(scenario.mass * float(d)) / np.pi
            rows.append((d, k, oracle, abs(k - oracle) / abs(oracle)))
        else:
            rows.append((d, k, "", ""))
    _write_csv(out / "kernel.csv", ["delta", "kernel", "oracle", "rel_err"], rows)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        parser.error("--threads must be at least 1")
    handlers = {
        "density": _run_density,
        "trajectories": _run_trajectories,
        "validate": _run_validate,
        "kernel": _run_kernel,
    }
    try:
        scenario = load_scenario(args.scenario)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return handlers[args.command](args, scenario, out)
    except DomainError as err:
        print(f"kg-flow: domain error: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"kg-flow: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
