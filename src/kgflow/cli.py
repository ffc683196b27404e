"""Scenario-driven command line: kg-flow <density|trajectories|validate|kernel>.

Every run reads a scenario file (or a bundled scenario name), performs
one analysis, and writes CSV/JSON artifacts under --out.  Float cells
use 17 significant digits and newline-terminated rows, so identical
inputs produce byte-identical files.  Exit codes: 0 success, 1
validation failure, 2 usage or input error (an input too large to
allocate among them), 3 domain error such as conditioning on a
zero-probability outcome.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from ._csv import write_csv
from .conditional import DEFAULT_AMPLITUDE_FLOOR, make_final_outcome
from .current import _CLASS_VALUES, current_grid
from .errors import DomainError
from .newton_wigner import (
    KernelMode, bessel_k0, nw_amplitude_grid, nw_density_grid, position_kernel,
)
from .scenarios import Scenario, _final_block, build_state, load_scenario
from .states import Event, uniform_lattice
from .trajectories import (
    FRACTION_KEYS, Box, conditional_field, segment_stats, standard_field, trace_many,
)
from .validation import run_validation


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
    """density.csv over the box at --t; a --t out of the grid's range is a DomainError."""
    if args.n_x < 2:
        raise ValueError("--n-x must be at least 2")
    lo, hi = scenario.box.x_lo, scenario.box.x_hi
    state = build_state(scenario)
    xs = uniform_lattice(lo, hi, args.n_x)
    columns = [np.linspace(lo, hi, args.n_x), *current_grid(state, args.t, xs)]
    columns.append(nw_density_grid(state, xs, args.t))
    write_csv(out / "density.csv", ["x", "j0", "j1", "nw_density"], columns)
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
        if not np.isfinite(values).all():
            raise ValueError(f"seed {text!r} has a non-finite component")
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
            # the peak outcome amplitude on the final block's q grid, as its ensemble has it,
            # without the ensemble's coverage check
            f = _final_block(scenario)
            qs = np.linspace(f.q_lo, f.q_hi, f.n_q)
            peak = float(np.abs(nw_amplitude_grid(state, qs, f.T)).max())
            outcomes = make_final_outcome([seeds[i][1] for i in group], f.T, state)
            field = conditional_field(state, outcomes, DEFAULT_AMPLITUDE_FLOOR * peak)
            # stop before T: RK4 stages reach at most one step past an event
            t_hi = min(box.t_hi, f.T - args.step)
            if not box.t_lo < t_hi:
                raise ValueError(
                    f"--step {args.step:g} leaves no time to trace conditional seeds: they "
                    f"stop one step before the measurement time T = {f.T:g}, "
                    f"and the box starts at t = {box.t_lo:g}"
                )
            box = Box(box.t_lo, t_hi, box.x_lo, box.x_hi)
        lines = trace_many(field, [seeds[i][0] for i in group], args.step, args.max_steps, box)
        traced.update(zip(group, lines))

    trajs = [traced[tid] for tid in range(len(seeds))]
    # a line's first event ends no step, so it has no class: code -1 picks the blank
    labels = np.append(_CLASS_VALUES, "").astype(str)
    codes = np.concatenate([np.r_[-1, traj.codes] for traj in trajs])
    write_csv(
        out / "trajectories.csv",
        ["traj_id", "s", "t", "x", "class"],
        [
            np.repeat(np.arange(len(trajs)), [len(traj.arc) for traj in trajs]),
            np.concatenate([traj.arc for traj in trajs]),
            *np.concatenate([traj.points for traj in trajs]).T,
            labels[codes],
        ],
    )
    summaries = []
    for tid, ((seed, q), traj) in enumerate(zip(seeds, trajs)):
        # a line whose very first step left the box or hit a node has no fractions
        stats = segment_stats(traj) if traj.codes.size else dict.fromkeys(FRACTION_KEYS, 0.0)
        summaries.append(
            {
                "id": tid,
                "seed": {"t": seed.t, "x": seed.x},
                "outcome_q": q,
                "n_events": len(traj.points),
                "arc_length": float(traj.arc[-1]),
                "reversals": len(traj.reversals),
                "stop_reason": traj.stop_reason,
                "fractions": stats,
            }
        )
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
    kernel = position_kernel(scenario.mass, deltas, mode)
    if args.mode == "relativistic":
        oracle = bessel_k0(scenario.mass * deltas) / np.pi
        checks = [oracle, np.abs(kernel - oracle) / np.abs(oracle)]
    else:
        checks = [[""] * args.n] * 2
    header = ["delta", "kernel", "oracle", "rel_err"]
    write_csv(out / "kernel.csv", header, [deltas, kernel, *checks])
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "density": _run_density,
        "trajectories": _run_trajectories,
        "validate": _run_validate,
        "kernel": _run_kernel,
    }
    try:
        # argparse's float() takes nan and inf; no float flag has a use for them
        for name, value in vars(args).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"--{name.replace('_', '-')} must be finite")
        scenario = load_scenario(args.scenario)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return handlers[args.command](args, scenario, out)
    except DomainError as err:
        print(f"kg-flow: domain error: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as err:
        print(f"kg-flow: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
