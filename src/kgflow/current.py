"""Conserved probability 4-current of the scalar relativistic wave equation.

The current is the bidirectional-derivative bilinear of the wavefunction,
j^a = Im(conj(d^a psi) * psi), oriented so that a forward-propagating
plane wave carries j^a = + p^a |psi|^2; a normalized state carries total
charge 1 at every mass.  The zeroth component plays the role of a density
but is not positive definite: superpositions of purely positive-energy
packets develop pockets of negative density.  The divergence
d_t j^0 + d_x j^1 vanishes identically for solutions, which the
finite-difference residual here probes without reusing the spectral
derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .states import Event, FourVector, SpectralState, psi_dpsi_grid


class CausalClass(str, Enum):
    """Causal character of a 4-vector under metric (+, -)."""

    TIMELIKE_FORWARD = "timelike-forward"
    TIMELIKE_BACKWARD = "timelike-backward"
    SPACELIKE = "spacelike"
    LIGHTLIKE = "lightlike"
    NULL_VECTOR = "null-vector"


@dataclass(frozen=True)
class DensityInterval:
    """A maximal x-interval of negative density at fixed time."""

    t: float
    x_lo: float
    x_hi: float
    min_j0: float

    def __post_init__(self):
        if not self.x_lo < self.x_hi:
            raise ValueError("x_lo must be below x_hi")
        if not self.min_j0 < 0:
            raise ValueError("min_j0 must be negative")


def _current_from(psi, d0, d1):
    """j^a = Im(conj(d^a psi) psi), elementwise."""
    return np.imag(np.conj(d0) * psi), np.imag(np.conj(d1) * psi)


def current_grid(state: SpectralState, t: float, xs):
    """Vectorized (j0, j1) over an array of positions or a Lattice at fixed t."""
    return _current_from(*psi_dpsi_grid(state, t, xs))


def current(state: SpectralState, e: Event) -> FourVector:
    """The 4-current j^a at an event."""
    j0, j1 = current_grid(state, e.t, e.x)
    return FourVector(float(j0), float(j1))


def density(state: SpectralState, e: Event) -> float:
    """Zeroth (time) component of the current; real, sign-indefinite."""
    return current(state, e).v0


# the central difference's points (dt, dx) about an event per unit step, in _divergence's order
_DIVERGENCE_OFFSETS = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))


def _divergence(j0, j1, h: float):
    """d_t j0 + d_x j1 at step h from j0[r], j1[r], the current at _DIVERGENCE_OFFSETS[r]."""
    return (j0[0] - j0[1]) / (2 * h) + (j1[2] - j1[3]) / (2 * h)


def central_divergence(j_fn, e: Event, h: float):
    """Central-difference d_t j0 + d_x j1 at e from j_fn(t, x) -> (j0, j1).

    Second order in h; elementwise in whatever j_fn returns (a batch of
    currents, one per outcome, is differenced in the same four calls).
    """
    j0, j1 = zip(*(j_fn(e.t + dt * h, e.x + dx * h) for dt, dx in _DIVERGENCE_OFFSETS))
    return _divergence(j0, j1, h)


def continuity_residual(state: SpectralState, e: Event, h: float) -> float:
    """Central-difference estimate of d_t j0 + d_x j1 at the event.

    Second order in h.  Deliberately avoids the spectral time
    derivative so it checks the evaluator instead of restating it.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    return float(central_divergence(lambda t, x: current_grid(state, t, x), e, h))


def scan_negative_density(
    state: SpectralState, t: float, x_lo: float, x_hi: float, n: int
):
    """Maximal sign-connected intervals with j0 < 0 on a sampled grid.

    Interval edges sit at midpoints between the last nonnegative sample
    and the first negative one (or at the scan boundary), so reported
    intervals are disjoint and each carries its sampled minimum.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    if not x_lo < x_hi:
        raise ValueError("x_lo must be below x_hi")
    xs = np.linspace(x_lo, x_hi, n)
    j0, _ = current_grid(state, t, xs)
    edges = np.r_[x_lo, 0.5 * (xs[:-1] + xs[1:]), x_hi]  # sample k spans edges[k : k + 2]
    # the padded mask changes value at each run's first sample and one past its last
    starts, stops = np.flatnonzero(np.diff(np.r_[False, j0 < 0, False])).reshape(-1, 2).T
    return [
        DensityInterval(
            t=float(t), x_lo=float(edges[a]), x_hi=float(edges[b]), min_j0=float(j0[a:b].min())
        )
        for a, b in zip(starts.tolist(), stops.tolist())
    ]


# CausalClass and its values in definition order: forward, backward, spacelike, lightlike, null
_CLASS_CODES = np.array(list(CausalClass), dtype=object)
_CLASS_VALUES = np.array([cls.value for cls in CausalClass], dtype=object)


def _class_codes(v0, v1, tol=None):
    """Causal character of every (v0[i], v1[i]), coded by its index in CausalClass.

    A scale-aware lightlike band separates the classes:
    timelike-forward/backward for v.v > tol^2 split on sign(v0),
    spacelike for v.v < -tol^2, lightlike within the band when the
    vector itself is not negligible, null-vector otherwise.  tol defaults
    to 1e-9 (1 + |v|) per vector.
    """
    v0, v1 = np.asarray(v0, dtype=float), np.asarray(v1, dtype=float)
    norm = np.hypot(v0, v1)
    if tol is None:
        tol = 1e-9 * (1.0 + norm)
    elif np.any(np.asarray(tol) < 0):
        raise ValueError("tol must be nonnegative")
    s, band = v0 * v0 - v1 * v1, tol * tol
    return np.select([s > band, s < -band, norm > tol], [np.where(v0 > 0, 0, 1), 2, 3], 4)


def classify_many(v0, v1, tol=None):
    """_class_codes as an object array of CausalClass (one CausalClass for scalars)."""
    return _CLASS_CODES[_class_codes(v0, v1, tol)]


def classify(v: FourVector, tol: float | None = None) -> CausalClass:
    """Causal character of one 4-vector: classify_many on a single pair."""
    return classify_many(v.v0, v.v1, tol)


def boost(v: FourVector, velocity: float) -> FourVector:
    """Lorentz boost of a 4-vector; preserves the Minkowski square."""
    if not abs(velocity) < 1:
        raise ValueError("|velocity| must be below 1")
    gamma = 1.0 / np.sqrt(1.0 - velocity * velocity)
    return FourVector(
        float(gamma * (v.v0 - velocity * v.v1)),
        float(gamma * (v.v1 - velocity * v.v0)),
    )


def rest_density(v: FourVector) -> float:
    """Density sqrt(v.v) seen in the frame co-moving with the current.

    Positive for any timelike current, whichever way it points in
    coordinate time.  Raises DomainError for non-timelike input.
    """
    cls = classify(v)
    if cls not in (CausalClass.TIMELIKE_FORWARD, CausalClass.TIMELIKE_BACKWARD):
        raise DomainError(f"rest density undefined for {cls.value} current")
    return float(np.sqrt(v.minkowski_sq()))
