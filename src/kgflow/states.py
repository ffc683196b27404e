"""Positive-energy Klein-Gordon states sampled in momentum space.

Conventions, used consistently across the package: natural units
(hbar = c = 1), metric signature (+, -), so p.x = p0*t - p*x.  Plane waves
enter position amplitudes as <x|p> = (2*pi)**-0.5 * exp(-i p.x) and
momentum amplitudes are normalized against the invariant measure dp/p0,
i.e. <p|p'> = p0 * delta(p - p').  Quadrature weights stored on a state
already include the 1/p0 factor, so the invariant norm is sum(w |a|^2).

Time evolution is exact in momentum space: amplitudes are static and the
phase exp(-i p0 t) enters only when a position amplitude is evaluated.
Every position-space quantity in the package (psi and its derivatives,
the Newton-Wigner amplitude, the conditional bilinear for one outcome or
a whole ensemble) is one call of `_plane_wave_sum`: a phase table at
time t times a coefficient matrix built from the amplitudes with the
quadrature weights w (2 pi)^-1/2 already in it (`_kernel_matrix`).  The
tracer builds exact tables only at its jet centres and reads the points
between off Taylor jets of psi (trajectories._Jets); the public
evaluators take positions, never a table.  One factored form of the
positions keeps the table small: a Lattice, events each shifted by the
same spacetime offsets (a uniform x-grid, or validation's finite
differences), builds one table for the events and one for the offsets,
since exp(-i(p0 t - p x)) splits over sums.  A table, and so any
evaluation, raises DomainError past the grid's resolvable range, and a
conditioned one CausalOrderError at a time after its measurement time T.
States are immutable after construction; every evaluation is a pure
function of (state, event) and safe to call from any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._quad import gauss_panels
from .errors import (
    CausalOrderError, DegenerateStateError, DomainError, GridMismatchError, TruncationError,
)

INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# endpoint amplitude above this fraction of the peak means the grid
# truncates the packet
TRUNCATION_TOL = 1e-8


@dataclass(frozen=True)
class Event:
    """A spacetime point (t, x)."""

    t: float
    x: float


@dataclass(frozen=True)
class FourVector:
    """Contravariant components (v0, v1) under metric (+, -)."""

    v0: float
    v1: float

    def minkowski_sq(self) -> float:
        """Invariant square v.v = v0^2 - v1^2."""
        return self.v0 * self.v0 - self.v1 * self.v1

    def euclidean_norm(self) -> float:
        """Plain 2-norm of the component pair."""
        return float(np.hypot(self.v0, self.v1))


@dataclass(frozen=True)
class GridSpec:
    """Composite Gauss-Legendre momentum grid on [p_min, p_max]."""

    p_min: float
    p_max: float
    panels: int = 8
    nodes_per_panel: int = 32

    @property
    def n_nodes(self) -> int:
        return self.panels * self.nodes_per_panel

    @property
    def resolvable_range(self) -> float:
        """The largest |x| + |t| at which a plane-wave sum on this grid resolves."""
        return _resolvable_range(
            gauss_panels(self.p_min, self.p_max, self.panels, self.nodes_per_panel)[0]
        )


def _resolvable_range(momenta) -> float:
    """pi / (largest node gap): beyond it the quadrature returns aliasing noise.

    The phase p x - p0 t must advance by less than pi between adjacent
    nodes.  Its derivative in p is x - v t with |v| < 1, so
    |x| + |t| <= pi / max gap covers every time.
    """
    return float(np.pi / np.diff(momenta).max())


@dataclass(frozen=True)
class SpectralState:
    """A positive-energy state as sampled momentum amplitudes.

    Attributes
    ----------
    mass : particle mass, > 0.
    momenta : strictly increasing quadrature nodes p_k.
    amplitudes : complex a(p_k) on the last axis; a leading axis stacks
        states that share the grid (an outcome ensemble's backward states).
    weights : quadrature weights including the invariant 1/p0 factor.

    The energies p0_k = sqrt(p_k^2 + mass^2) are derived, never given.
    """

    mass: float
    momenta: np.ndarray
    amplitudes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not 0 < self.mass < np.inf:
            raise ValueError("mass must be positive and finite")
        if np.any(np.diff(self.momenta) <= 0):
            raise ValueError("momenta must be strictly increasing")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be strictly positive")
        for arr in (self.momenta, self.amplitudes, self.weights):
            if not np.all(np.isfinite(arr.view(float))):
                raise ValueError("state arrays must be finite")
            arr.setflags(write=False)

    @cached_property
    def energies(self) -> np.ndarray:
        """p0_k = sqrt(p_k^2 + mass^2) at the nodes, read-only."""
        energies = np.sqrt(self.momenta * self.momenta + self.mass * self.mass)
        energies.setflags(write=False)
        return energies

    @cached_property
    def _resolvable_range(self) -> float:
        return _resolvable_range(self.momenta)

    @cached_property
    def _psi_dpsi_columns(self):
        """Kernel matrix (K, ..., 3) of psi, d^0 psi, d^1 psi: a, -i p0 a, -i p a, weighted.

        Spectral differentiation: d^0 = d/dt and d^1 = -d/dx (metric (+, -)).
        """
        a = self.amplitudes
        cols = np.stack([a, -1j * self.energies * a, -1j * self.momenta * a], axis=-1)
        return _kernel_matrix(self, np.moveaxis(cols, -2, 0))


def _kernel_matrix(state: SpectralState, coeffs):
    """Mode coefficients coeffs (K, ...) times the kernel's weights w (2 pi)^-1/2, contiguous."""
    k = state.momenta.size
    weights = (INV_SQRT_2PI * state.weights)[:, None]
    return (weights * coeffs.reshape(k, -1)).reshape(coeffs.shape)


def _freeze(mass, momenta, amplitudes, weights) -> SpectralState:
    return SpectralState(
        mass=float(mass),
        momenta=np.array(momenta, dtype=float),
        amplitudes=np.array(amplitudes, dtype=complex),
        weights=np.array(weights, dtype=float),
    )


def invariant_norm(state: SpectralState) -> float:
    """Norm under the invariant measure, sqrt(sum w |a|^2)."""
    return float(np.sqrt(np.sum(state.weights * np.abs(state.amplitudes) ** 2)))


def _edge_envelope(p_center: float, p_width: float, grid: GridSpec) -> float:
    """The larger of exp(-(p - p_center)^2 / (4 p_width^2)) at the grid's two ends p."""
    ends = (grid.p_min, grid.p_max)
    return max(float(np.exp(-((p - p_center) ** 2) / (4 * p_width**2))) for p in ends)


def make_gaussian_packet(
    mass: float,
    p_center: float,
    p_width: float,
    x_center: float,
    grid: GridSpec,
    check_truncation: bool = True,
) -> SpectralState:
    """Build a normalized Gaussian wave packet in momentum space.

    The amplitude is a(p) = exp(-(p - p_center)^2 / (4 p_width^2))
    * exp(-i p x_center), normalized to unit invariant norm.  Raises
    TruncationError when the grid endpoints clip the envelope above
    1e-8 of its peak (disable with check_truncation=False).
    """
    if not mass > 0:
        raise ValueError("mass must be positive")
    if not p_width > 0:
        raise ValueError("p_width must be positive")
    if grid.n_nodes < 16:
        raise ValueError("grid must carry at least 16 nodes")
    if grid.p_min > p_center - 6 * p_width or grid.p_max < p_center + 6 * p_width:
        raise ValueError(
            "grid [%g, %g] must contain p_center +/- 6 p_width" % (grid.p_min, grid.p_max)
        )
    if check_truncation:
        defect = _edge_envelope(p_center, p_width, grid)
        if defect > TRUNCATION_TOL:
            raise TruncationError(
                f"endpoint amplitude {defect:.3e} of peak exceeds {TRUNCATION_TOL:.0e}; "
                "widen the momentum grid"
            )
    p, gl_w = gauss_panels(grid.p_min, grid.p_max, grid.panels, grid.nodes_per_panel)
    p0 = np.sqrt(p * p + mass * mass)
    w = gl_w / p0
    a = np.exp(-((p - p_center) ** 2) / (4 * p_width**2)) * np.exp(-1j * p * x_center)
    a /= np.sqrt(np.sum(w * np.abs(a) ** 2))
    return _freeze(mass, p, a, w)


def _require_same_grid(a: SpectralState, b: SpectralState):
    if a.mass != b.mass:
        raise GridMismatchError("states have different masses")
    if a.momenta is b.momenta and a.weights is b.weights:
        return  # one grid shared, as by an outcome ensemble and its prepared state
    if a.momenta.shape != b.momenta.shape or not (
        np.array_equal(a.momenta, b.momenta) and np.array_equal(a.weights, b.weights)
    ):
        raise GridMismatchError("states live on different momentum grids")


def superpose(states, coeffs) -> SpectralState:
    """Combine states on a shared grid, then renormalize.

    Amplitudes become sum_j c_j a_j(p) scaled back to unit invariant
    norm, so only the relative coefficients matter.
    """
    if len(states) == 0:
        raise ValueError("need at least one state")
    if len(states) != len(coeffs):
        raise ValueError("one coefficient per state required")
    first = states[0]
    acc = np.zeros_like(first.amplitudes)
    for st, c in zip(states, coeffs):
        _require_same_grid(first, st)
        acc = acc + complex(c) * st.amplitudes
    norm_sq = np.sum(first.weights * np.abs(acc) ** 2)
    if norm_sq < 1e-24:
        raise DegenerateStateError("superposition cancelled to the zero state")
    acc /= np.sqrt(norm_sq)
    return _freeze(first.mass, first.momenta, acc, first.weights)


def inner(a: SpectralState, b: SpectralState) -> complex:
    """Invariant-measure inner product <a|b> = sum w conj(a) b."""
    _require_same_grid(a, b)
    return complex(np.sum(a.weights * np.conj(a.amplitudes) * b.amplitudes))


class Lattice(NamedTuple):
    """The first n points (t + dt[j], x[i] + dx[j]) of events x at time t, offset-major.

    Point j x.size + i is event i shifted by offset j; x, dt and dx are
    1-d arrays and t, the evaluation's t, is a scalar or one per event.
    """

    x: np.ndarray
    dt: np.ndarray
    dx: np.ndarray
    n: int

    @property
    def size(self) -> int:
        """Number of points, which is what np.size reports for a Lattice."""
        return self.n


def _points(t, xs):
    """The evaluation's flat (times, positions): a Lattice's n points, or t and xs as given."""
    if not isinstance(xs, Lattice):
        return t, xs
    x, dt, dx, n = xs
    if np.ndim(t) and np.shape(t) != x.shape:
        raise ValueError("a lattice takes a scalar t or one t per event")
    if not 0 < n <= dt.size * x.size:
        raise ValueError("a lattice holds at most len(dt) len(x) points, and n >= 1")
    positions = x + dx[:, None]
    times = np.empty_like(positions)
    times[:] = t + dt[:, None]  # cheaper than np.broadcast_arrays at validate's sizes
    return times.ravel()[:n], positions.ravel()[:n]


def _require_before(times, T: float):
    """CausalOrderError unless every evaluation time is at or before the measurement time T."""
    t_last = np.max(times)
    if t_last > T:
        raise CausalOrderError(f"evaluation time {t_last} lies after measurement time {T}")


def _require_resolvable(state: SpectralState, t, xs, T: float | None = None):
    """DomainError unless each |x| + |t| is in the state's range; CausalOrderError first past T."""
    if T is not None:
        _require_before(t, T)
    reach, bound = np.abs(xs) + np.abs(t), state._resolvable_range
    if not np.all(reach <= bound):  # a NaN position fails here too
        raise DomainError(f"|x| + |t| = {np.max(reach):g} is beyond resolvable range {bound:.1f}")


def _phase_table(state: SpectralState, t, xs):
    """_phase_table_core at positions xs, which must pass _require_resolvable."""
    _require_resolvable(state, t, xs)
    return _phase_table_core(state, t, xs)


def _phase_table_core(state: SpectralState, t, xs):
    """The phase table exp(-i(p0 t - p x)), shape xs.shape + (K,); t broadcasts against xs.

    The real phase theta = x p - t p0, built in the table's imaginary part,
    goes through np.cos and np.sin into the table's two parts, which is
    cheaper than a complex exponential and needs no second buffer.
    """
    xs = np.asarray(xs, dtype=float)[..., None]
    table = np.empty(xs.shape[:-1] + state.momenta.shape, dtype=complex)
    theta = np.multiply(xs, state.momenta, out=table.imag)
    theta -= np.asarray(t, dtype=float)[..., None] * state.energies
    np.cos(theta, out=table.real)
    np.sin(theta, out=theta)
    return table


def _table_product(table, matrix):
    """A phase table (..., K) times a kernel matrix (K, ...), shaped as _plane_wave_sum returns."""
    flat = matrix.reshape(table.shape[-1], -1)
    return (table @ flat).reshape(table.shape[:-1] + matrix.shape[1:])


def _plane_wave_sum(state: SpectralState, t: float, xs, matrix, T: float | None = None):
    """The evaluation kernel: sum_k <x|p_k> c_k at time t for every x, as table @ matrix.

    matrix (K, ...) holds mode coefficients on the state's grid with the
    weights w_k (2 pi)^-1/2 already in them (_kernel_matrix); the result
    has shape xs.shape + matrix.shape[1:]; t is a scalar or broadcasts
    against xs (one time per position).  The (n_x, K) phase table is built
    in place once and multiplies the (K, m) matrix.  A conditioned
    evaluation passes its measurement time T: an evaluation time after T
    raises CausalOrderError, checked before the range.

    xs may instead be a Lattice of events at m offsets; the result then
    has its n points as rows.  exp(-i(p0 (t + dt) - p (x + dx))) splits
    into an (m, K) offset table A and an (n_e, K) event table B, and
    _factored_product takes it from there.  A scalar t goes into A and a
    per-event t into B.
    """
    _require_resolvable(state, *_points(t, xs), T)
    if not isinstance(xs, Lattice):
        return _table_product(_phase_table_core(state, t, xs), matrix)
    x, dt, dx, n = xs
    t_a, t_b = (dt, t) if np.ndim(t) else (t + dt, 0.0)
    tables = _phase_table_core(state, t_a, dx), _phase_table_core(state, t_b, x)
    flat = matrix.reshape(state.momenta.size, -1)
    return _factored_product(*tables, flat, n).reshape((n,) + matrix.shape[1:])


def _factored_product(a_table, b_table, flat, n: int):
    """Rows a n_b + b < n of the table A[a] B[b] times flat (K, m), from A (n_a, K) and B (n_b, K).

    (n_a + n_b) K exponentials build A and B instead of n_a n_b K.  A
    narrow matrix (m < n_b) takes the fold: A goes into the matrix (n_a K m
    multiplies) and one product B @ C builds no n x K table.  A wide one
    takes the product table A[a] B[b], n K complex multiplies, times the
    matrix.
    """
    k = flat.shape[0]
    if flat.shape[1] >= b_table.shape[0]:
        return (a_table[:, None, :] * b_table[None, :, :]).reshape(-1, k)[:n] @ flat
    folded = np.multiply(a_table.T[:, :, None], flat[:, None, :], order="C")  # (K, n_a, m)
    out = (b_table @ folded.reshape(k, -1)).reshape(b_table.shape[0], a_table.shape[0], -1)
    return out.transpose(1, 0, 2).reshape(-1, flat.shape[1])[:n]


def uniform_lattice(lo: float, hi: float, n: int) -> Lattice:
    """The positions np.linspace(lo, hi, n) as a Lattice, to a few ulps.

    ceil(sqrt(n)) fine offsets and ceil(n / n_fine) coarse rows at
    linspace's own points; the kernel evaluates the last row's surplus
    points past hi and drops them.  The fine offsets are the events, the
    coarse rows the offsets, at zero dt.
    """
    if n < 2:
        raise ValueError("a uniform lattice needs at least 2 points")
    n_b = math.isqrt(n - 1) + 1
    n_a = -(-n // n_b)
    step = (hi - lo) / (n - 1)
    coarse = np.arange(0, n_a * n_b, n_b) * step + lo
    return Lattice(np.arange(n_b) * step, np.zeros(n_a), coarse, n)


def evaluate_psi(state: SpectralState, e: Event) -> complex:
    """Position amplitude <x|state> at the event, psi(t, x)."""
    return complex(psi_grid(state, e.t, e.x))


def evaluate_dpsi(state: SpectralState, e: Event):
    """Contravariant derivatives (d^0 psi, d^1 psi) at the event."""
    _, d0, d1 = psi_dpsi_grid(state, e.t, e.x)
    return complex(d0), complex(d1)


def psi_grid(state: SpectralState, t: float, xs):
    """Vectorized psi(t, x) over an array of positions."""
    # contiguous, as BLAS takes it: a strided column rounds one point's sum differently
    return _plane_wave_sum(state, t, xs, np.ascontiguousarray(state._psi_dpsi_columns[..., 0]))


def psi_dpsi_grid(state: SpectralState, t: float, xs):
    """Vectorized (psi, d0 psi, d1 psi) over an array of positions.

    A stacked state's rows come out on a trailing axis of each result.
    """
    out = _plane_wave_sum(state, t, xs, state._psi_dpsi_columns)
    return out[..., 0], out[..., 1], out[..., 2]
