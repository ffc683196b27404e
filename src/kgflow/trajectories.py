"""Integral curves of a current field through 1+1 spacetime.

Curves are parametrized by Euclidean arc length in the (t, x) plane
rather than by coordinate time: current lines can bend backwards in t,
and exactly there a t-parametrization would break down.  At each step
the unit tangent is the normalized field with its sign chosen to stay
aligned with the previous tangent, so the traced line passes smoothly
through density-sign reversals, where the field direction swings
through spacelike orientations.

All live lines of a call advance in lockstep, one field evaluation per
RK4 stage, and a line that stops leaves the batch.  A field handle maps
an Event whose t and x are equal-length arrays to a FourVector evaluated
elementwise, row i belonging to seed i, a stopped line's row frozen at
its last point; scalar components broadcast, so a constant field may
return plain floats.  Each line comes back as a Trajectory of arrays,
whose events and classes are built only when read.

The handles of standard_field and conditional_field are TableFields,
which can also read the field off the phase table exp(-i(p0 t - p x)),
for the live lines' rows alone.  The tracer builds that table exactly
only at the seed and at every states._ANCHOR_STEPS-th (64th) accepted
point.  Every other table, of an RK4 stage or of the next accepted
point, is the last accepted one rotated through exp(i(p dx - p0 dt))
(states._rotate_table), at any step length.  Rounding grows along a
chain of rotations, and the anchors keep it near that of one rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import NodeError
from .current import _CLASS_CODES, _class_codes, _current_from, current_grid
from .conditional import FinalOutcome, _outcome_rows, conditional_current_rows
from .states import (
    _ANCHOR_STEPS,
    Event,
    FourVector,
    SpectralState,
    _phase_table,
    _rotate_table,
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
    table, the phase table of state at times t, row i for seed i.
    rows(seeds) gives that reader for a table whose rows are those of
    the seed indices seeds alone, in that order, as trace_many's table
    is once lines have stopped.
    """

    state: SpectralState
    evaluate: Callable
    from_table: Callable
    rows: Callable

    def __call__(self, e: Event) -> FourVector:
        return FourVector(*self.evaluate(e.t, e.x))


def standard_field(state: SpectralState) -> FieldHandle:
    """Field handle for the unconditional current of a state."""

    def from_table(t, table):
        out = table @ state._psi_dpsi_columns
        return _current_from(state.mass, out[..., 0], out[..., 1], out[..., 2])

    return TableField(
        state, lambda t, x: current_grid(state, t, x), from_table, lambda seeds: from_table
    )


def conditional_field(
    initial: SpectralState, outcome: FinalOutcome, amplitude_floor: float = 1e-8
) -> FieldHandle:
    """Field handle for the current conditioned on a final outcome.

    A stacked outcome (make_final_outcome with an array of q) conditions row
    i of each event on outcome i, at cost linear in the number of rows.
    """

    def reader(f):
        return lambda t, table: conditional_current_rows(initial, f, t, table, amplitude_floor)

    def rows(seeds):
        if np.size(outcome.q_value) == 1:  # one outcome pairs with every row
            return reader(outcome)
        return reader(_outcome_rows(outcome, seeds))

    from_table = reader(outcome)
    return TableField(
        initial, lambda t, x: from_table(t, _phase_table(initial, t, x)), from_table, rows
    )


class _TableStages:
    """A TableField along the live lines, from the phase table at their accepted points.

    The RK4 stages and the next accepted point rotate that table by their
    offsets (states._rotate_table); the seed and every _ANCHOR_STEPS-th
    step, counted from the seed so that no line depends on its batch,
    build it exactly.
    """

    def __init__(self, field: TableField):
        self.state, self.read, self.rows = field.state, field.from_table, field.rows

    def accept(self, pos, delta, k):
        """The field at the accepted points pos, delta past the previous ones, after k steps."""
        if k % _ANCHOR_STEPS:
            self.table = _rotate_table(self.state, self.table, delta)
        else:
            self.table = _phase_table(self.state, pos[:, 0], pos[:, 1])
        self.pos = pos
        return np.column_stack(self.read(pos[:, 0], self.table))

    def near(self, d):
        """The field at pos + d, d a stage offset."""
        t = self.pos[:, 0] + d[:, 0]
        return np.column_stack(self.read(t, _rotate_table(self.state, self.table, d)))

    def keep(self, live, seeds):
        """Drop the rows of stopped lines; seeds are the seed indices of the rest."""
        self.table = self.table[live]
        self.read = self.rows(seeds)


class _PlainStages:
    """A plain callable along the live lines, called with every seed's row.

    Row i of each call is seed i, so an elementwise field needs no row
    bookkeeping; a stopped line's row stays at its last accepted point.
    Scalar components broadcast.
    """

    def __init__(self, field: FieldHandle, n: int):
        self.field, self.frozen, self.seeds = field, np.zeros((n, 2)), np.arange(n)

    def _at(self, p):
        full = self.frozen.copy()
        full[self.seeds] = p
        v, j = self.field(Event(full[:, 0], full[:, 1])), np.empty_like(full)
        j[:, 0], j[:, 1] = v.v0, v.v1
        return j[self.seeds]

    def accept(self, pos, delta, k):
        self.pos = pos
        self.frozen[self.seeds] = pos
        return self._at(pos)

    def near(self, d):
        return self._at(self.pos + d)

    def keep(self, live, seeds):
        self.seeds = seeds


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

    All live lines advance in lockstep, one field evaluation per stage;
    a line that stops leaves the batch, and each step's results are
    scattered back to the rows of their seeds.  A plain callable still
    gets every seed's row, a stopped line's frozen at its last point.
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

    n_seeds = len(pos)
    if isinstance(field, TableField):
        stages = _TableStages(field)
    else:
        stages = _PlainStages(field, n_seeds)

    def direction(j, ref):
        # unit rows sign-aligned with ref, zero rows where |j| is at the floor
        n = np.hypot(j[:, 0], j[:, 1])
        ok = n > floor
        d = j / np.where(ok, n, np.inf)[:, None]
        return np.where(((d * ref).sum(axis=1) < 0.0)[:, None], -d, d), ok

    j = stages.accept(pos, None, 0)
    scale = np.hypot(j[:, 0], j[:, 1])
    floor = 1e-10 * scale if node_floor is None else np.full(n_seeds, float(node_floor))
    if np.any((scale <= floor) | (scale == 0.0)):
        raise NodeError(f"field magnitude {scale.min():.3e} at the seed is below the floor")
    tangent = j / scale[:, None]
    rows = np.arange(n_seeds)  # the seed index of each live line
    n_steps = np.full(n_seeds, max_steps)
    stop = np.full(n_seeds, "max-steps", dtype=object)
    path, densities, deltas = [pos], [j[:, 0]], []

    for k in range(max_steps):
        k1, ok1 = direction(j, tangent)
        k2, ok2 = direction(stages.near(0.5 * step * k1), tangent)
        k3, ok3 = direction(stages.near(0.5 * step * k2), tangent)
        k4, ok4 = direction(stages.near(step * k3), tangent)
        delta = (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        norm = np.hypot(delta[:, 0], delta[:, 1])
        new = pos + delta
        # a zero delta means the stages cancelled pairwise; only possible hard against a node
        ok = ok1 & ok2 & ok3 & ok4 & (norm > 0.0)
        live = ok & ((lo <= new) & (new <= hi)).all(axis=1)
        step_deltas = np.zeros((n_seeds, 2))
        step_deltas[rows] = delta
        deltas.append(step_deltas)
        if not live.all():
            ended = rows[~live]
            stop[ended] = np.where(ok[~live], "box-exit", "node")
            n_steps[ended] = k
            rows = rows[live]
            if not rows.size:
                break
            new, delta, norm = new[live], delta[live], norm[live]
            floor = floor[live]
            stages.keep(live, rows)
        pos = new
        j = stages.accept(pos, delta, k + 1)
        tangent = delta / norm[:, None]
        path.append(path[-1].copy())
        path[-1][rows] = pos
        densities.append(densities[-1].copy())
        densities[-1][rows] = j[:, 0]

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
