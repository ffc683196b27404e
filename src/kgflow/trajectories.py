"""Integral curves of a current field through 1+1 spacetime.

Curves are parametrized by Euclidean arc length in the (t, x) plane
rather than by coordinate time: current lines can bend backwards in t,
and exactly there a t-parametrization would break down.  At each step
the unit tangent is the normalized field with its sign chosen to stay
aligned with the previous tangent, so the traced line passes smoothly
through density-sign reversals, where the field direction swings
through spacelike orientations.

All lines of a call advance in lockstep, one field evaluation per RK4
stage, and the batch keeps one row per seed for the whole call: a line
that stops is a frozen row, held at its last accepted point.  A field
handle maps an Event whose t and x are equal-length arrays to a
FourVector evaluated elementwise, row i belonging to seed i; scalar
components broadcast, so a constant field may return plain floats.
Each line comes back as a Trajectory of arrays, whose events and
classes are built only when read.

The handles of standard_field and conditional_field are TableFields,
whose field the tracer reads off Taylor jets of psi in (dt, dx)
(_JetStages): jets centred on an exact phase table at the seed and at
every m-th accepted point, and a polynomial in its offset from the
centre at each RK4 stage and accepted point between.  The points and
stages read off jets are range-checked before trace_many returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import NodeError
from .current import _CLASS_CODES, _class_codes, _current_from, current_grid
from .conditional import (
    DEFAULT_AMPLITUDE_FLOOR, FinalOutcome, _bilinear, _checked_probability, _weighted_from,
)
from .states import (
    Event, FourVector, SpectralState, _phase_table, _require_before, _require_resolvable,
    _require_same_grid,
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
    """A field handle whose field the tracer can also read off Taylor jets of its states.

    Calling it evaluates evaluate(t, x), so it keeps the field(e) protocol.
    rows() gives the weighted mode coefficients (S, rows or 1, K) of the S
    states whose psi, d0 psi and d1 psi make the field, row i serving seed
    i, and a reader read(t, values) of the field (rows, 2), (j0, j1) per
    row, from their values (rows, S, 3) at times t.
    """

    state: SpectralState
    evaluate: Callable
    rows: Callable

    def __call__(self, e: Event) -> FourVector:
        return FourVector(*self.evaluate(e.t, e.x))


def standard_field(state: SpectralState) -> FieldHandle:
    """Field handle for the unconditional current of a state."""
    coeffs = state._psi_dpsi_columns[None, None, :, 0]  # the weighted amplitudes

    def read(t, values):
        return np.column_stack(_current_from(*values[:, 0].T))

    return TableField(state, lambda t, x: current_grid(state, t, x), lambda: (coeffs, read))


def conditional_field(
    initial: SpectralState, outcome: FinalOutcome, amplitude_floor=DEFAULT_AMPLITUDE_FLOOR
) -> FieldHandle:
    """Field handle for the current conditioned on a final outcome.

    A stacked outcome (make_final_outcome with an array of q) conditions row
    i of each event on outcome i, at cost linear in the number of rows; an
    event or a set of seeds needs one row per outcome (ValueError otherwise).
    The field pairs the weighted amplitudes of the initial and backward
    states once (a lone outcome's row serves every seed), and rows() checks
    the amplitude floor of every outcome once per trace, not per evaluation.
    """
    _require_same_grid(initial, outcome.backward_state)
    own = initial._psi_dpsi_columns[..., 0]  # the weighted amplitudes
    theirs = outcome.backward_state._psi_dpsi_columns[..., 0].T.reshape(-1, own.size)
    coeffs = np.stack(np.broadcast_arrays(own, theirs))
    amplitudes = np.reshape(outcome.amplitude_fi, -1)

    def rows():
        a2 = _checked_probability(amplitudes, amplitude_floor)[:, None]

        def read(t, values):
            _require_before(t, outcome.T)
            w = _weighted_from(amplitudes, _bilinear(values[:, 0], values[:, 1]))
            return np.column_stack(w) / a2

        return coeffs, read

    def evaluate(t, x):
        t, x = np.broadcast_arrays(np.asarray(t, float), np.asarray(x, float))
        (coeffs, read), jets = rows(), _Jets(initial, 0)  # each event a centre
        _require_row_count(coeffs, t.size)
        taylor = jets.centre(_phase_table(initial, t.ravel(), x.ravel()), coeffs)
        values = jets.at(taylor, np.zeros((t.size, 2)), 0)
        return tuple(j.reshape(t.shape)[()] for j in read(t.ravel(), values).T)

    return TableField(initial, evaluate, rows)


def _require_row_count(coeffs, n: int):
    """ValueError unless coeffs (S, rows, K) have one row per seed or event, or one for all n."""
    if coeffs.shape[1] not in (1, n):
        raise ValueError(
            f"a field stacked over {coeffs.shape[1]} outcomes takes one seed or event per "
            f"outcome, not {n}"
        )


# the phase |p dx - p0 dt| that one centre's jets cover
JET_RADIUS = 0.8


def _jet_plan(state: SpectralState, step: float):
    """(m, degrees): accepted steps from one jet centre to the next, and the degree per span.

    theta_h = step max_k |(p_k, p0_k)| bounds |p dx - p0 dt| over a step
    (Cauchy-Schwarz).  Evaluations lie within m = floor(JET_RADIUS / theta_h)
    steps of their centre; s steps from it, the jets are read to degrees[s],
    the smallest N with (s theta_h)^(N+1) / (N+1)! < 1e-17.  At m = 0 every
    evaluation is its own centre."""
    theta = step * np.hypot(state.momenta, state.energies).max()
    every, degrees = int(JET_RADIUS // theta), []
    for reach in theta * np.arange(every + 1):
        degree, term = 0, reach  # term = reach^(N+1) / (N+1)!
        while term >= 1e-17:
            degree += 1
            term *= reach / (degree + 1)
        degrees.append(degree)
    return every, degrees


class _Jets:
    """Taylor jets of psi in (dt, dx) to degree N, on one state's momentum grid.

    psi(t + dt, x + dx) = sum_k c_k table_k exp(-i p0_k dt) exp(i p_k dx)
    = sum_(a, b) J_ab dt^a dx^b, so one product J = (table o c) @ M with
    M[k, (a, b)] = (-i p0_k)^a (i p_k)^b / (a! b!), a + b <= N + 1, gives
    the jets at each row of the table, its centre.  d0 psi = d psi / dt and
    d1 psi = -d psi / dx come off J by an index shift, to degree N.
    """

    def __init__(self, state: SpectralState, degree: int):
        # monomial dt^a dx^b in column (a + b)(a + b + 1) / 2 + a: by degree, then by a
        a, b = np.array([(a, n - a) for n in range(degree + 2) for a in range(n + 1)]).T
        fact = np.array([math.factorial(k) for k in range(degree + 2)], dtype=float)
        size = state.energies[:, None] ** a * state.momenta[:, None] ** b / (fact[a] * fact[b])
        self.matrix = np.array([1, 1j, -1, -1j])[(b - a) % 4] * size  # (-i)^a i^b = i^(b - a)
        a, b = self.a, self.b = a[a + b <= degree], b[a + b <= degree]
        # J's column (a, b) as floats, real then imaginary part, for each jet
        column = lambda a, b: (a + b) * (a + b + 1) + 2 * a  # noqa: E731
        take = np.stack([column(a, b), column(a + 1, b), column(a, b + 1)])
        self.take = (take[:, None] + [[0], [1]]).ravel()
        self.scale = np.repeat([np.ones(len(a)), a + 1.0, -(b + 1.0)], 2, axis=0).ravel()

    def centre(self, table, coeffs):
        """Jets (rows, 6 S, monomials) at table's rows of the states of coeffs (S, rows or 1, K).

        Per state: the real and imaginary parts of psi's, d0 psi's and d1 psi's jets."""
        rows, s = len(table), len(coeffs)
        j = ((table * coeffs).reshape(rows * s, -1) @ self.matrix).view(float)
        j = np.take(j.reshape(s, rows, -1), self.take, axis=2)
        j *= self.scale
        return np.ascontiguousarray(j.transpose(1, 0, 2)).reshape(rows, 6 * s, -1)

    def at(self, jets, offsets, degree):
        """(psi, d0 psi, d1 psi) (rows, S, 3) at offsets (rows, 2) (dt, dx), jets read to degree."""
        n = (degree + 1) * (degree + 2) // 2
        powers = np.ones((degree + 1,) + offsets.shape)
        powers[1:] = offsets
        np.multiply.accumulate(powers, axis=0, out=powers)
        powers = powers.transpose(1, 2, 0)  # (rows, 2, N + 1): dt^n and dx^n
        monomials = powers[:, 0, self.a[:n]] * powers[:, 1, self.b[:n]]
        values = np.matmul(jets[..., :n], monomials[:, :, None])
        return values.reshape(len(jets), -1, 3, 2).view(complex)[..., 0]


class _JetStages:
    """A TableField along every seed's row, read off Taylor jets of its states.

    The seed and every m-th accepted point after it, counted from the seed
    so that no line's centres depend on its batch, are centres: each takes
    an exact phase table and from it the jets, off which the accepted points
    and RK4 stages up to the next centre are read (m from _jet_plan).
    """

    def __init__(self, field: TableField, step: float, n: int):
        self.state = field.state
        self.every, self.degrees = _jet_plan(self.state, step)
        self.jets = _Jets(self.state, self.degrees[-1])
        self.coeffs, self.read = field.rows()
        _require_row_count(self.coeffs, n)

    def _centre(self, p):
        table = _phase_table(self.state, p[:, 0], p[:, 1])
        self.centres, self.taylor = p, self.jets.centre(table, self.coeffs)

    def _at(self, p, span):
        return self.read(p[:, 0], self.jets.at(self.taylor, p - self.centres, self.degrees[span]))

    def accept(self, pos, k):
        """The field at the accepted points pos, after k steps."""
        self.span = k % max(self.every, 1)  # accepted steps since the centre
        if not self.span:
            self._centre(pos)
        self.pos = pos
        return self._at(pos, self.span)

    def near(self, d):
        """The field at pos + d, d a stage offset."""
        p = self.pos + d
        if not self.every:  # one step passes the radius: every stage is a centre
            self._centre(p)
        return self._at(p, min(self.span + 1, self.every))


class _PlainStages:
    """A plain callable along the lines, called with every seed's row.

    Row i of each call is seed i, so an elementwise field needs no row
    bookkeeping; a stopped line's row stays at its last accepted point.
    Scalar components broadcast.
    """

    def __init__(self, field: FieldHandle):
        self.field = field

    def _at(self, p):
        v, j = self.field(Event(p[:, 0], p[:, 1])), np.empty_like(p)
        j[:, 0], j[:, 1] = v.v0, v.v1
        return j

    def accept(self, pos, k):
        self.pos = pos
        return self._at(pos)

    def near(self, d):
        return self._at(self.pos + d)


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

    All lines advance in lockstep, one field evaluation per stage, and
    the batch keeps its shape until no line is live: a line that stops
    is a frozen row, whose node floor becomes +inf, so its stages and
    steps are zero and its row stays at its last accepted point, as a
    plain callable sees it.  For a TableField the points and RK4 stages
    read off jets are checked against the resolvable range on return
    (DomainError): a stage lies within sqrt(2) step, in |x| + |t|, of
    the point its step starts from.
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
    stages = (_JetStages(field, step, n_seeds) if isinstance(field, TableField)
              else _PlainStages(field))

    def direction(j, ref):
        # unit rows sign-aligned with ref, zero rows where |j| is at the floor
        n = np.hypot(j[:, 0], j[:, 1])
        ok = n > floor
        d = j / np.where(ok, n, np.inf)[:, None]
        return np.where(((d * ref).sum(axis=1) < 0.0)[:, None], -d, d), ok

    j = stages.accept(pos, 0)
    scale = np.hypot(j[:, 0], j[:, 1])
    floor = 1e-10 * scale if node_floor is None else np.full(n_seeds, float(node_floor))
    if np.any((scale <= floor) | (scale == 0.0)):
        raise NodeError(f"field magnitude {scale.min():.3e} at the seed is below the floor")
    tangent = j / scale[:, None]
    live = np.ones(n_seeds, dtype=bool)
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
        # a zero delta means the stages cancelled pairwise; only possible hard against a node.
        # A frozen row is never ok: its floor is +inf
        ok = ok1 & ok2 & ok3 & ok4 & (norm > 0.0)
        now = ok & ((lo <= new) & (new <= hi)).all(axis=1)
        ended, live = live & ~now, now
        deltas.append(delta)
        if ended.any():
            stop[ended] = np.where(ok[ended], "box-exit", "node")
            n_steps[ended] = k
            if not live.any():
                break
            floor[ended] = np.inf
            new[ended] = pos[ended]
        pos = new
        j = stages.accept(pos, k + 1)
        tangent = delta / np.where(live, norm, np.inf)[:, None]  # zero on frozen rows
        path.append(pos)
        densities.append(j[:, 0])

    path, densities, deltas = np.stack(path), np.stack(densities), np.stack(deltas)
    if isinstance(field, TableField):  # the points and stages read off jets took no table's check
        # every point but a max-steps line's last starts a step, whose stages lie within
        # sqrt(2) step of it in |x| + |t|; a frozen row's stages sit on its point
        margin = np.full(path.shape[:2], math.sqrt(2) * step)
        margin[-1, stop == "max-steps"] = 0.0
        _require_resolvable(field.state, np.abs(path[..., 0]) + margin, path[..., 1])
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
