"""Integral curves of a current field through 1+1 spacetime.

Curves are parametrized by Euclidean arc length in the (t, x) plane
rather than by coordinate time: current lines can bend backwards in t,
and exactly there a t-parametrization would break down.  At each step
the unit tangent is the normalized field with its sign chosen to stay
aligned with the previous tangent, so the traced line passes smoothly
through density-sign reversals, where the field direction swings
through spacelike orientations.

All seeds of a call advance in lockstep, one field evaluation per RK4
stage.  So a field handle maps an Event whose t and x are equal-length
arrays to a FourVector evaluated elementwise, row i belonging to seed i;
scalar components broadcast, so a constant field may return plain floats.
Each line comes back as a Trajectory of arrays, whose events and classes
are built only when read.

The handles of standard_field and conditional_field are TableFields,
which can also read the field off the phase table exp(-i(p0 t - p x)).
The tracer builds that table exactly only at each accepted point and
gets the three off-point stage tables by rotating it through
exp(i(p dx - p0 dt)), from real Taylor polynomials instead of
exponentials.  Those cover |p dx - p0 dt| <= states.ROTATION_RANGE
(0.25); a stage offset is at most one step long, so a step beyond
ROTATION_RANGE / max sqrt(p^2 + p0^2) (0.038 on the bundled s1 grids)
makes every stage build its own table instead, decided once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import NodeError
from .current import _CLASS_CODES, _class_codes, _current_from, current_grid
from .conditional import FinalOutcome, conditional_current_rows
from .states import (
    ROTATION_RANGE,
    Event,
    FourVector,
    SpectralState,
    _phase_table,
    _rotate_table,
    _table_sum,
)

FieldHandle = Callable[[Event], FourVector]
# segment_stats keys in CausalClass code order; null-vector steps count in none
FRACTION_KEYS = tuple(f"fraction_{k}" for k in ("forward", "backward", "spacelike", "lightlike"))


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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A traced current line of n steps, held as read-only arrays.

    points (n+1, 2) are the visited (t, x), arc the cumulative Euclidean
    curve parameter at each point, densities the field time component
    at each point, and codes (n) the causal class of each step
    displacement as its index in CausalClass definition order.
    reversals are the step indices whose endpoints carry opposite-sign
    densities, and stop_reason one of "box-exit", "node", or "max-steps".
    """

    points: np.ndarray
    arc: np.ndarray
    densities: np.ndarray
    codes: np.ndarray
    reversals: tuple
    stop_reason: str

    def __post_init__(self):
        for arr in (self.points, self.arc, self.densities, self.codes):
            arr.setflags(write=False)

    @cached_property
    def events(self) -> tuple:
        """The points as a tuple of Events."""
        return tuple(Event(t, x) for t, x in self.points.tolist())

    @cached_property
    def classes(self) -> tuple:
        """The codes as a tuple of CausalClass, one per step."""
        return tuple(_CLASS_CODES[self.codes])


@dataclass(frozen=True)
class TableField:
    """A field handle that can also read the field off a phase table of state.

    Calling it evaluates evaluate(t, x), so it keeps the field(e)
    protocol; from_table(t, table) gives the same (j0, j1) at the rows of
    table, the phase table of state at times t.  trace_many builds that
    table only at accepted points and rotates it to the RK4 stages.
    """

    state: SpectralState
    evaluate: Callable
    from_table: Callable

    def __call__(self, e: Event) -> FourVector:
        return FourVector(*self.evaluate(e.t, e.x))


def standard_field(state: SpectralState) -> FieldHandle:
    """Field handle for the unconditional current of a state."""

    def from_table(t, table):
        out = _table_sum(state, table, state._psi_dpsi_columns)
        return _current_from(state.mass, out[..., 0], out[..., 1], out[..., 2])

    return TableField(state, lambda t, x: current_grid(state, t, x), from_table)


def conditional_field(
    initial: SpectralState, outcome: FinalOutcome, amplitude_floor: float = 1e-8
) -> FieldHandle:
    """Field handle for the current conditioned on a final outcome.

    A stacked outcome (make_final_outcome with an array of q) conditions row
    i of each event on outcome i, at cost linear in the number of rows.
    """

    def from_table(t, table):
        return conditional_current_rows(initial, outcome, t, table, amplitude_floor)

    return TableField(initial, lambda t, x: from_table(t, _phase_table(initial, t, x)), from_table)


def _stage_evaluator(field: FieldHandle, step: float):
    """evaluate(p) -> (j, near): the field at the rows of p, and near(d), the field at p + d.

    The one adapter between a field handle and the RK4 loop, where d is a
    stage offset at most one step long.  A TableField builds the exact
    phase table at p and rotates it to p + d (states._rotate_table) when
    one step keeps |theta| within ROTATION_RANGE; past that range every
    stage builds its own table.  A plain callable is called at p + d.
    """
    if not isinstance(field, TableField):

        def at(p):
            # a plain callable may return scalar components, which broadcast
            v, j = field(Event(p[:, 0], p[:, 1])), np.empty_like(p)
            j[:, 0], j[:, 1] = v.v0, v.v1
            return j

        return lambda p: (at(p), lambda d: at(p + d))

    state, from_table = field.state, field.from_table
    rotate = step * np.hypot(state.momenta, state.energies).max() <= ROTATION_RANGE

    def evaluate(p):
        table = _phase_table(state, p[:, 0], p[:, 1])

        def near(d):
            t, x = (p + d).T
            stage = _rotate_table(state, table, d) if rotate else _phase_table(state, t, x)
            return np.column_stack(from_table(t, stage))

        return np.column_stack(from_table(p[:, 0], table)), near

    return evaluate


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
    pos = np.array([(s.t, s.x) for s in seeds], dtype=float).reshape(-1, 2)
    if not len(pos):
        return []
    lo, hi = np.array([box.t_lo, box.x_lo]), np.array([box.t_hi, box.x_hi])
    inside = ((lo <= pos) & (pos <= hi)).all(axis=1)
    if not inside.all():
        raise ValueError(f"seed {Event(*pos[np.argmin(inside)].tolist())} lies outside the box")

    evaluate = _stage_evaluator(field, step)

    def direction(j, ref):
        # unit rows sign-aligned with ref, zero rows where |j| is at the floor
        n = np.hypot(j[:, 0], j[:, 1])
        ok = n > floor
        d = j / np.where(ok, n, np.inf)[:, None]
        return np.where(((d * ref).sum(axis=1) < 0.0)[:, None], -d, d), ok

    j, near = evaluate(pos)
    scale = np.hypot(j[:, 0], j[:, 1])
    floor = 1e-10 * scale if node_floor is None else float(node_floor)
    if np.any((scale <= floor) | (scale == 0.0)):
        raise NodeError(f"field magnitude {scale.min():.3e} at the seed is below the floor")
    tangent = j / scale[:, None]
    live = np.ones(len(pos), dtype=bool)
    n_steps = np.full(len(pos), max_steps)
    stop = np.full(len(pos), "max-steps", dtype=object)
    path, densities, deltas = [pos], [j[:, 0]], []

    for k in range(max_steps):
        k1, ok1 = direction(j, tangent)
        k2, ok2 = direction(near(0.5 * step * k1), tangent)
        k3, ok3 = direction(near(0.5 * step * k2), tangent)
        k4, ok4 = direction(near(step * k3), tangent)
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
        j, near = evaluate(pos)
        np.divide(delta, norm[:, None], out=tangent, where=live[:, None])
        path.append(pos)
        densities.append(j[:, 0])

    del near  # the last accepted table; the lines need only the arrays
    path, densities, deltas = np.stack(path), np.stack(densities), np.stack(deltas)
    arcs = np.cumsum(np.hypot(deltas[..., 0], deltas[..., 1]), axis=0)
    flips = densities[:-1] * densities[1:] < 0
    codes = _class_codes(deltas[..., 0], deltas[..., 1])
    return [
        Trajectory(
            points=path[: n + 1, i],
            arc=np.r_[0.0, arcs[:n, i]],
            densities=densities[: n + 1, i],
            codes=codes[:n, i],
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
    if traj.codes.size == 0:
        raise ValueError("trajectory has no steps")
    lengths = np.diff(traj.arc)
    acc = np.bincount(traj.codes, weights=lengths, minlength=len(_CLASS_CODES)) / lengths.sum()
    return dict(zip(FRACTION_KEYS, acc.tolist()))


def detect_closed(traj: Trajectory, tol: float):
    """First index whose event returns near the seed with similar tangent.

    Skips an initial stretch of arc length max(4 tol, 5 mean step) so
    the departure neighborhood cannot trigger a match; requires the
    unit tangents to agree within 45 degrees.  Returns None for open
    curves.
    """
    p, arc = traj.points, traj.arc
    if len(p) < 3:
        return None
    d = np.diff(p, axis=0)
    norm = np.hypot(d[:, 0], d[:, 1])
    skip = max(4.0 * tol, 5.0 * arc[-1] / (len(p) - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = (d / norm[:, None]) @ (d[0] / norm[0])
    near = np.hypot(p[1:, 0] - p[0, 0], p[1:, 1] - p[0, 1]) <= tol
    hit = (arc[1:] >= skip) & near & (cos >= np.cos(np.pi / 4))
    return int(np.argmax(hit)) + 1 if hit.any() else None
