"""Probability current conditioned on a later position-measurement outcome.

Given a prepared state and the recorded Newton-Wigner position q at a
later time T, the flow at intermediate events is described by a
current built from both boundary states,

    j^a(x|f)  ~  Im[ (<f|x> d^a<x|i> - d^a<f|x> <x|i>) / <f|i> ] / (2m),

oriented to agree with the unconditional current when the conditioning
state is the evolved prepared state itself.  Averaging over all
outcomes with Born weights |<f|i>|^2 reproduces the unconditional
current exactly; `weighted_integrand` supplies the pole-free product
j^a(x|f) |<f|i>|^2 used in that average, finite even at outcomes of
vanishing probability.

An ensemble keeps its outcomes' backward amplitudes as the rows of one
state, so one kernel call evaluates both boundary states for every
outcome and ensemble sums contract the outcome axis; a lone
FinalOutcome is the one-row case of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .current import current
from .errors import CausalOrderError, CoverageError, ZeroProbabilityOutcomeError
from .newton_wigner import nw_density_grid
from .states import (
    INV_SQRT_2PI,
    Event,
    FourVector,
    SpectralState,
    _plane_wave_sum,
    _require_same_grid,
)

COVERAGE_TOL = 1e-4
DEFAULT_AMPLITUDE_FLOOR = 1e-8


@dataclass(frozen=True)
class FinalOutcome:
    """A recorded Newton-Wigner position q_value at measurement time T.

    backward_state holds the momentum representation <p|f> of the
    outcome projector on the same grid as the prepared state (it is not
    unit-normalized); amplitude_fi caches <f|i> against that state.
    """

    q_value: float
    T: float
    backward_state: SpectralState
    amplitude_fi: complex


@dataclass(frozen=True)
class OutcomeEnsemble:
    """Uniform grid of final outcomes with trapezoid quadrature weights.

    backward_state holds the rows <p|f> (n_q, K) and amplitude_fi each
    <f|i>, so an ensemble stands in for a FinalOutcome in evaluations.
    """

    q_grid: np.ndarray
    weights: np.ndarray
    T: float
    backward_state: SpectralState
    amplitude_fi: np.ndarray

    def __post_init__(self):
        for arr in (self.q_grid, self.weights, self.amplitude_fi):
            arr.setflags(write=False)

    @cached_property
    def outcomes(self) -> tuple:
        """One FinalOutcome per q, each viewing its row of backward_state."""
        b = self.backward_state
        return tuple(
            FinalOutcome(float(q), self.T, replace(b, amplitudes=row), complex(amp))
            for q, row, amp in zip(self.q_grid, b.amplitudes, self.amplitude_fi)
        )


def _outcome_states(template: SpectralState, qs, T: float):
    """Backward states <p|f> for positions qs at time T, and each <f|i>.

    The amplitudes <p|f> = (2 pi)^-1/2 sqrt(p0) exp(-i (p q - p0 T)), one
    row per q, give position amplitudes at t = T concentrated near x = q.
    The overlaps <f|i> = sum w conj(<p|f>) a are taken against the
    template, which is the prepared state.

    q is limited to the range the template's momentum grid can resolve:
    the phase p*q must advance by less than pi between adjacent nodes,
    or the quadrature returns aliasing noise instead of amplitudes.
    """
    q_bound = np.pi / float(np.diff(template.momenta).max())
    q_far = float(np.max(np.abs(qs)))
    if q_far > q_bound:
        raise ValueError(
            f"outcome position {q_far} is beyond the grid's resolvable range "
            f"|q| <= {q_bound:.1f}"
        )
    p0 = template.energies
    phase = np.multiply.outer(qs, template.momenta) - p0 * T
    b = INV_SQRT_2PI * np.sqrt(p0) * np.exp(-1j * phase)
    overlaps = np.conj(b) @ (template.weights * template.amplitudes)
    return replace(template, amplitudes=b), overlaps


def make_final_outcome(q, T: float, template: SpectralState) -> FinalOutcome:
    """Build the outcome state for position q measured at time T.

    An array q stacks one backward row per entry, as conditional_field takes.
    """
    q = np.asarray(q, dtype=float)[()]  # a float, or the array of outcome positions
    return FinalOutcome(q, float(T), *_outcome_states(template, q, T))


def _bilinear_grid(initial: SpectralState, f, t: float, xs):
    """Both-sided combination E^a = g d^a psi - d^a g psi; one kernel call for all of f."""
    back = f.backward_state
    _require_same_grid(initial, back)
    both = [s._psi_dpsi_columns.reshape(initial.momenta.size, -1, 3) for s in (initial, back)]
    out = _plane_wave_sum(initial, t, xs, np.concatenate(both, axis=1))  # (..., 1 + n_q, 3)
    psi, d0, d1 = out[..., :1, 0], out[..., :1, 1], out[..., :1, 2]
    g, dg0, dg1 = np.conj(out[..., 1:, 0]), np.conj(out[..., 1:, 1]), np.conj(out[..., 1:, 2])
    shape = np.shape(xs) + back.amplitudes.shape[:-1]
    return (g * d0 - dg0 * psi).reshape(shape), (g * d1 - dg1 * psi).reshape(shape)


def conditional_current_grid(
    initial: SpectralState,
    f: FinalOutcome,
    t: float,
    xs,
    amplitude_floor: float = DEFAULT_AMPLITUDE_FLOOR,
):
    """Vectorized conditional (j0, j1) over positions at fixed t."""
    amplitude = np.abs(f.amplitude_fi).min()
    if amplitude <= amplitude_floor:
        raise ZeroProbabilityOutcomeError(
            f"outcome amplitude {amplitude:.3e} at or below floor {amplitude_floor:.3e}"
        )
    t_last = np.asarray(t).max()
    if t_last > f.T:
        raise CausalOrderError(f"evaluation time {t_last} lies after measurement time {f.T}")
    e0, e1 = _bilinear_grid(initial, f, t, xs)
    scale = -0.5 / initial.mass
    j0 = scale * np.imag(e0 / f.amplitude_fi)
    j1 = scale * np.imag(e1 / f.amplitude_fi)
    return j0, j1


def conditional_current(
    initial: SpectralState,
    f: FinalOutcome,
    e: Event,
    amplitude_floor: float = DEFAULT_AMPLITUDE_FLOOR,
) -> FourVector:
    """Conditional 4-current at an event given a final outcome.

    Real and normalized over x by construction; divergence-free because
    both boundary states solve the wave equation.  Raises
    ZeroProbabilityOutcomeError below the amplitude floor and
    CausalOrderError for e.t > T.
    """
    j0, j1 = conditional_current_grid(initial, f, e.t, e.x, amplitude_floor)
    return FourVector(float(j0), float(j1))


def weighted_integrand_grid(initial: SpectralState, f, t: float, xs):
    """Vectorized pole-free j^a(x|f) |<f|i>|^2; an ensemble f adds an outcome axis."""
    t_last = np.asarray(t).max()
    if t_last > f.T:
        raise CausalOrderError(f"evaluation time {t_last} lies after measurement time {f.T}")
    e0, e1 = _bilinear_grid(initial, f, t, xs)
    scale = -0.5 / initial.mass
    amp_bar = np.conj(f.amplitude_fi)
    return scale * np.imag(amp_bar * e0), scale * np.imag(amp_bar * e1)


def weighted_integrand(initial: SpectralState, f: FinalOutcome, e: Event) -> FourVector:
    """Conditional current weighted by the outcome probability.

    Algebraically equal to conditional_current(...) * |<f|i>|^2 wherever
    the quotient form exists, but finite for every outcome, so ensemble
    averages never divide by a small amplitude.
    """
    j0, j1 = weighted_integrand_grid(initial, f, e.t, e.x)
    return FourVector(float(j0), float(j1))


def make_outcome_ensemble(
    initial: SpectralState,
    T: float,
    q_lo: float,
    q_hi: float,
    n_q: int,
    coverage_tol: float = COVERAGE_TOL,
) -> OutcomeEnsemble:
    """Uniform outcome grid over [q_lo, q_hi] with trapezoid weights.

    Validates that the grid captures the outcome distribution: the
    weighted Born probabilities must sum to 1 within coverage_tol.
    """
    if n_q < 2:
        raise ValueError("need at least two outcomes")
    if not q_lo < q_hi:
        raise ValueError("q_lo must be below q_hi")
    qs = np.linspace(q_lo, q_hi, n_q)
    dq = qs[1] - qs[0]
    weights = np.full(n_q, dq)
    weights[0] = weights[-1] = 0.5 * dq
    backward, overlaps = _outcome_states(initial, qs, T)
    ens = OutcomeEnsemble(qs, weights, float(T), backward, overlaps)
    total = float(np.dot(weights, outcome_probabilities(initial, ens)))
    if abs(total - 1.0) > coverage_tol:
        raise CoverageError(
            f"ensemble captures probability {total:.6f}, outside 1 +/- {coverage_tol}"
        )
    return ens


def outcome_probabilities(initial: SpectralState, ens: OutcomeEnsemble):
    """Born probability density at each ensemble outcome.

    <f|i> at q is the Newton-Wigner amplitude at (q, T): one kernel call.
    """
    _require_same_grid(initial, ens.backward_state)
    return nw_density_grid(initial, ens.q_grid, ens.T)


def decompose_check(initial: SpectralState, ens: OutcomeEnsemble, events) -> float:
    """Relative L2 gap between the outcome-averaged and direct currents.

    Sums the pole-free weighted integrand over the ensemble at each
    event and compares against the unconditional current; by
    completeness of the outcome basis the gap measures quadrature error
    only.  Each event evaluates every outcome in one kernel call.
    """
    rho = outcome_probabilities(initial, ens)
    covered = float(np.dot(ens.weights, rho))
    if covered < 1.0 - COVERAGE_TOL:
        raise CoverageError(
            f"ensemble captures probability {covered:.6f}, below 1 - {COVERAGE_TOL}"
        )
    num = 0.0
    den = 0.0
    for e in events:
        w0, w1 = weighted_integrand_grid(initial, ens, e.t, e.x)
        direct = current(initial, e)
        num += (ens.weights @ w0 - direct.v0) ** 2 + (ens.weights @ w1 - direct.v1) ** 2
        den += direct.v0**2 + direct.v1**2
    return float(np.sqrt(num / den))
