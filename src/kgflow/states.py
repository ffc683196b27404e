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
time t times a coefficient matrix whose columns are built from the
amplitudes.  States are immutable after construction; every evaluation
is a pure function of (state, event) and safe to call from any thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._quad import gauss_panels
from .errors import DegenerateStateError, GridMismatchError, TruncationError

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
    energies : p0_k = sqrt(p_k^2 + mass^2).
    """

    mass: float
    momenta: np.ndarray
    amplitudes: np.ndarray
    weights: np.ndarray
    energies: np.ndarray

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        if np.any(np.diff(self.momenta) <= 0):
            raise ValueError("momenta must be strictly increasing")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be strictly positive")
        for arr in (self.momenta, self.amplitudes, self.weights, self.energies):
            if not np.all(np.isfinite(arr.view(float))):
                raise ValueError("state arrays must be finite")
            arr.setflags(write=False)

    @cached_property
    def _psi_dpsi_columns(self):
        """Kernel coefficients (K, ..., 3) of psi, d^0 psi, d^1 psi: a, -i p0 a, -i p a.

        Spectral differentiation: d^0 = d/dt and d^1 = -d/dx (metric (+, -)).
        """
        a = self.amplitudes
        cols = np.stack([a, -1j * self.energies * a, -1j * self.momenta * a], axis=-1)
        return np.ascontiguousarray(np.moveaxis(cols, -2, 0))


def _freeze(mass, momenta, amplitudes, weights) -> SpectralState:
    energies = np.sqrt(momenta * momenta + mass * mass)
    return SpectralState(
        mass=float(mass),
        momenta=np.array(momenta, dtype=float),
        amplitudes=np.array(amplitudes, dtype=complex),
        weights=np.array(weights, dtype=float),
        energies=energies,
    )


def invariant_norm(state: SpectralState) -> float:
    """Norm under the invariant measure, sqrt(sum w |a|^2)."""
    return float(np.sqrt(np.sum(state.weights * np.abs(state.amplitudes) ** 2)))


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
        defect = max(
            np.exp(-((grid.p_min - p_center) ** 2) / (4 * p_width**2)),
            np.exp(-((grid.p_max - p_center) ** 2) / (4 * p_width**2)),
        )
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


def _plane_wave_sum(state: SpectralState, t: float, xs, coeffs):
    """The evaluation kernel: sum_k w_k <x|p_k> c_k at time t for every x.

    coeffs (K, ...) holds mode coefficients on the state's grid; the result
    has shape xs.shape + coeffs.shape[1:]; t is a scalar or broadcasts against
    xs (one time per position).  The (n_x, K) phase table is built in place
    once and multiplies the (K, m) coefficient matrix.
    """
    table = np.asarray(xs, dtype=float)[..., None] * (1j * state.momenta)
    table -= (1j * np.asarray(t))[..., None] * state.energies
    np.exp(table, out=table)
    matrix = (INV_SQRT_2PI * state.weights)[:, None] * coeffs.reshape(state.momenta.size, -1)
    return (table @ matrix).reshape(table.shape[:-1] + coeffs.shape[1:])


def evaluate_psi(state: SpectralState, e: Event) -> complex:
    """Position amplitude <x|state> at the event, psi(t, x)."""
    return complex(psi_grid(state, e.t, e.x))


def evaluate_dpsi(state: SpectralState, e: Event):
    """Contravariant derivatives (d^0 psi, d^1 psi) at the event."""
    _, d0, d1 = psi_dpsi_grid(state, e.t, e.x)
    return complex(d0), complex(d1)


def psi_grid(state: SpectralState, t: float, xs):
    """Vectorized psi(t, x) over an array of positions."""
    return _plane_wave_sum(state, t, xs, state.amplitudes.T)


def psi_dpsi_grid(state: SpectralState, t: float, xs):
    """Vectorized (psi, d0 psi, d1 psi) over an array of positions.

    A stacked state's rows come out on a trailing axis of each result.
    """
    out = _plane_wave_sum(state, t, xs, state._psi_dpsi_columns)
    return out[..., 0], out[..., 1], out[..., 2]
