"""Integral curves of a current field through 1+1 spacetime.

Curves are parametrized by Euclidean arc length in the (t, x) plane
rather than by coordinate time: current lines can bend backwards in t,
and exactly there a t-parametrization would break down.  At each step
the unit tangent is the normalized field with its sign chosen to stay
aligned with the previous tangent, so the traced line passes smoothly
through density-sign reversals, where the field direction swings
through spacelike orientations.

All seeds of a call advance in lockstep, one field call per RK4 stage.
So a field handle maps an Event whose t and x are equal-length arrays to
a FourVector evaluated elementwise, row i belonging to seed i; scalar
components broadcast, so a constant field may return plain floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NodeError
from .current import CausalClass, classify, current_grid
from .conditional import FinalOutcome, conditional_current_grid
from .states import Event, FourVector, SpectralState

FieldHandle = Callable[[Event], FourVector]


@dataclass(frozen=True)
class Box:
    """Rectangular spacetime region t in [t_lo, t_hi], x in [x_lo, x_hi]."""

    t_lo: float
    t_hi: float
    x_lo: float
    x_hi: float

    def __post_init__(self):
        if not (self.t_lo < self.t_hi and self.x_lo < self.x_hi):
            raise ValueError("box must have positive extent on both axes")

    def contains(self, e: Event) -> bool:
        return self.t_lo <= e.t <= self.t_hi and self.x_lo <= e.x <= self.x_hi


@dataclass(frozen=True)
class Trajectory:
    """A traced current line.

    events are the visited spacetime points, arc the cumulative
    Euclidean curve parameter (same length), classes the causal class
    of each step displacement (one fewer entry), densities the field
    time component at each event, reversals the step indices whose
    endpoints carry opposite-sign densities, and stop_reason one of
    "box-exit", "node", or "max-steps".
    """

    events: tuple
    arc: tuple
    classes: tuple
    densities: tuple
    reversals: tuple
    stop_reason: str


def standard_field(state: SpectralState) -> FieldHandle:
    """Field handle for the unconditional current of a state."""

    def field(e: Event) -> FourVector:
        return FourVector(*current_grid(state, e.t, e.x))

    return field


def conditional_field(
    initial: SpectralState, outcome: FinalOutcome, amplitude_floor: float = 1e-8
) -> FieldHandle:
    """Field handle for the current conditioned on a final outcome.

    A stacked outcome (make_final_outcome with an array of q) conditions row
    i of each event on outcome i, the diagonal of one ensemble evaluation.
    """

    def field(e: Event) -> FourVector:
        j0, j1 = conditional_current_grid(initial, outcome, e.t, e.x, amplitude_floor)
        if outcome.backward_state.amplitudes.ndim > 1:
            j0, j1 = np.diagonal(j0), np.diagonal(j1)
        return FourVector(j0, j1)

    return field


def trace(
    field: FieldHandle,
    seed: Event,
    step: float,
    max_steps: int,
    box: Box,
    node_floor: float | None = None,
) -> Trajectory:
    """The current line from one seed: trace_many with a batch of one."""
    return trace_many(field, [seed], step, max_steps, box, node_floor)[0]


def trace_many(
    field: FieldHandle,
    seeds,
    step: float,
    max_steps: int,
    box: Box,
    node_floor: float | None = None,
) -> list[Trajectory]:
    """Fourth-order Runge-Kutta integration of de/ds = j(e)/|j(e)| from every seed.

    The normalization uses the Euclidean norm of (j0, j1): the Minkowski
    norm vanishes on lightlike stretches, exactly where the interesting
    turning happens.  Stage directions are sign-aligned with the
    incoming tangent so the field orientation never flips inside a
    step.  A line stops on box exit, node (|j| below node_floor, default
    1e-10 of the field scale at its seed), or after max_steps.

    All lines advance in lockstep, one field call per stage for every seed;
    a stopped line keeps its row, frozen, and its stage values are discarded.
    """
    if not 0 < step < np.inf:
        raise ValueError("step must be positive and finite")
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    for seed in seeds:
        if not box.contains(seed):
            raise ValueError(f"seed {seed} lies outside the box")

    def evaluate(p):
        v = field(Event(p[:, 0], p[:, 1]))
        j = np.empty_like(p)
        j[:, 0], j[:, 1] = v.v0, v.v1
        return j

    def direction(j, ref):
        # unit rows sign-aligned with ref, zero rows where |j| is at the floor
        n = np.hypot(j[:, 0], j[:, 1])
        ok = n > floor
        d = j / np.where(ok, n, np.inf)[:, None]
        return np.where(((d * ref).sum(axis=1) < 0.0)[:, None], -d, d), ok

    pos = np.array([(s.t, s.x) for s in seeds], dtype=float).reshape(-1, 2)
    j = evaluate(pos)
    scale = np.hypot(j[:, 0], j[:, 1])
    floor = 1e-10 * scale if node_floor is None else float(node_floor)
    if np.any((scale <= floor) | (scale == 0.0)):
        raise NodeError(f"field magnitude {scale.min():.3e} at the seed is below the floor")
    tangent = j / scale[:, None]
    lo, hi = np.array([box.t_lo, box.x_lo]), np.array([box.t_hi, box.x_hi])
    live = np.ones(len(pos), dtype=bool)
    n_steps = np.full(len(pos), max_steps)
    stop = np.full(len(pos), "max-steps", dtype=object)
    path, densities, deltas = [pos], [j[:, 0]], []

    for k in range(max_steps):
        k1, ok1 = direction(j, tangent)
        k2, ok2 = direction(evaluate(pos + 0.5 * step * k1), tangent)
        k3, ok3 = direction(evaluate(pos + 0.5 * step * k2), tangent)
        k4, ok4 = direction(evaluate(pos + step * k3), tangent)
        delta = (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        deltas.append(delta)
        norm = np.hypot(delta[:, 0], delta[:, 1])
        new = pos + delta
        # a zero delta means the stages cancelled pairwise; only possible hard against a node
        ok = ok1 & ok2 & ok3 & ok4 & (norm > 0.0)
        ended = live & ~(ok & ((lo <= new) & (new <= hi)).all(axis=1))
        if ended.any():
            stop[ended] = np.where(ok[ended], "box-exit", "node")
            n_steps[ended] = k
            live &= ~ended
            if not live.any():
                break
        pos = np.where(live[:, None], new, pos)
        j = evaluate(pos)
        np.divide(delta, norm[:, None], out=tangent, where=live[:, None])
        path.append(pos)
        densities.append(j[:, 0])

    path, densities, deltas = np.stack(path), np.stack(densities), np.stack(deltas)
    arcs = np.cumsum(np.hypot(deltas[..., 0], deltas[..., 1]), axis=0)
    flips = densities[:-1] * densities[1:] < 0
    return [
        Trajectory(
            events=tuple(Event(t, x) for t, x in path[: n + 1, i].tolist()),
            arc=(0.0, *arcs[:n, i].tolist()),
            classes=tuple(classify(FourVector(a, b)) for a, b in deltas[:n, i].tolist()),
            densities=tuple(densities[: n + 1, i].tolist()),
            reversals=tuple(np.flatnonzero(flips[:n, i]).tolist()),
            stop_reason=str(stop[i]),
        )
        for i, n in enumerate(n_steps.tolist())
    ]


def segment_stats(traj: Trajectory) -> dict:
    """Arc-length-weighted fractions of each causal step class.

    The four fractions sum to one; a curve that reverses its time
    direction necessarily spends arc length on spacelike steps in
    between, since the tangent turns continuously.
    """
    if len(traj.events) < 2:
        raise ValueError("trajectory has no steps")
    lengths = np.diff(np.asarray(traj.arc))
    total = float(lengths.sum())
    acc = dict.fromkeys(CausalClass, 0.0)
    for cls, ds in zip(traj.classes, lengths):
        acc[cls] += float(ds)
    return {
        "fraction_forward": acc[CausalClass.TIMELIKE_FORWARD] / total,
        "fraction_backward": acc[CausalClass.TIMELIKE_BACKWARD] / total,
        "fraction_spacelike": acc[CausalClass.SPACELIKE] / total,
        "fraction_lightlike": acc[CausalClass.LIGHTLIKE] / total,
    }


def detect_closed(traj: Trajectory, tol: float):
    """First index whose event returns near the seed with similar tangent.

    Skips an initial stretch of arc length max(4 tol, 5 mean step) so
    the departure neighborhood cannot trigger a match; requires the
    unit tangents to agree within 45 degrees.  Returns None for open
    curves.
    """
    if len(traj.events) < 3:
        return None
    p = np.array([(e.t, e.x) for e in traj.events])
    d = np.diff(p, axis=0)
    norm = np.hypot(d[:, 0], d[:, 1])
    arc = np.asarray(traj.arc)
    skip = max(4.0 * tol, 5.0 * arc[-1] / (len(p) - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = (d / norm[:, None]) @ (d[0] / norm[0])
    near = np.hypot(p[1:, 0] - p[0, 0], p[1:, 1] - p[0, 1]) <= tol
    hit = (arc[1:] >= skip) & near & (cos >= np.cos(np.pi / 4))
    return int(np.argmax(hit)) + 1 if hit.any() else None
