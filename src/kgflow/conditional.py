"""Probability current conditioned on a later position-measurement outcome.

Given a prepared state and the recorded Newton-Wigner position q at a
later time T, the flow at intermediate events is described by a
current built from both boundary states,

    j^a(x|f)  ~  Im[ (<f|x> d^a<x|i> - d^a<f|x> <x|i>) / <f|i> ] / 2,

oriented to agree with the unconditional current when the conditioning
state is the evolved prepared state itself.  Averaging over all
outcomes with Born weights |<f|i>|^2 reproduces the unconditional
current exactly; that average is taken over the pole-free product
j^a(x|f) |<f|i>|^2 (`weighted_integrand`), finite even at outcomes of
vanishing probability, and the conditional current is that product over
|<f|i>|^2.

A stacked FinalOutcome keeps its outcomes' backward amplitudes as the
rows of one state, so one kernel call evaluates both boundary states for
every outcome and ensemble sums contract the outcome axis; that call
raises CausalOrderError at any evaluation time after T.  An
OutcomeEnsemble is a stacked outcome with quadrature weights, and a lone
outcome is the one-row case of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from ._quad import trapezoid_weights
from .current import current_grid
from .errors import CoverageError, ZeroProbabilityOutcomeError
from .newton_wigner import _nw_matrix, nw_density_grid
from .states import (
    INV_SQRT_2PI,
    Event,
    FourVector,
    SpectralState,
    _phase_table,
    _plane_wave_sum,
    _require_same_grid,
    _table_product,
)

COVERAGE_TOL = 1e-4
DEFAULT_AMPLITUDE_FLOOR = 1e-8


@dataclass(frozen=True)
class FinalOutcome:
    """A recorded Newton-Wigner position q_value at measurement time T.

    backward_state holds the momentum representation <p|f> of the
    outcome projector on the same grid as the prepared state (it is not
    unit-normalized); amplitude_fi caches <f|i>, the Newton-Wigner
    amplitude of the prepared state at (q_value, T).  An array q_value
    stacks outcomes: it, the rows of backward_state and amplitude_fi share
    the leading outcome axis.  Array fields are read-only.
    """

    q_value: float | np.ndarray
    T: float
    backward_state: SpectralState
    amplitude_fi: complex | np.ndarray

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def rows(self, idx) -> FinalOutcome:
        """The outcomes at index idx of a stacked outcome, stacked (one outcome for an int)."""
        back = self.backward_state
        return FinalOutcome(
            self.q_value[idx], self.T, replace(back, amplitudes=back.amplitudes[idx]),
            self.amplitude_fi[idx],
        )


@dataclass(frozen=True)
class OutcomeEnsemble(FinalOutcome):
    """A stacked FinalOutcome on a uniform q grid, with trapezoid quadrature weights."""

    weights: np.ndarray


def _outcome_states(template: SpectralState, qs, T: float):
    """Backward states <p|f> for positions qs at time T, and each <f|i>.

    The amplitudes <p|f> = (2 pi)^-1/2 sqrt(p0) exp(-i (p q - p0 T)), one
    row per q, are the conjugated phase table: position amplitudes at
    t = T concentrated near x = q.  Against the template, which is the
    prepared state, <f|i> is its Newton-Wigner amplitude at (q, T), read
    off the same table.  A q past the template's range rule, or a NaN q, raises DomainError.
    """
    table = _phase_table(template, T, qs)
    b = INV_SQRT_2PI * np.sqrt(template.energies) * np.conj(table)
    return replace(template, amplitudes=b), _table_product(table, _nw_matrix(template))[()]


def make_final_outcome(q, T: float, template: SpectralState) -> FinalOutcome:
    """Build the outcome state for position q measured at time T.

    An array q stacks one backward row per entry, as conditional_field takes.
    """
    q = np.array(q, dtype=float)[()]  # a float, or a copy of the outcome positions
    return FinalOutcome(q, float(T), *_outcome_states(template, q, T))


def _bilinear(own, theirs):
    """E^a = g d^a psi - d^a g psi from (psi, d0[, d1]) columns and the conjugated outcome's.

    One E^a per derivative column, so (psi, d0) columns give (E^0,) alone.
    """
    psi, g = own[..., 0], np.conj(theirs[..., 0])
    return tuple(g * own[..., a] - np.conj(theirs[..., a]) * psi for a in range(1, own.shape[-1]))


def _bilinear_grid(initial: SpectralState, f, t: float, xs, columns: int = 3):
    """Both-sided combination E^a at every position for every outcome of f; one kernel call.

    columns=2 evaluates only psi and d0 of each state and returns (E^0,).
    """
    back = f.backward_state
    _require_same_grid(initial, back)
    k = initial.momenta.size
    both = [s._psi_dpsi_columns.reshape(k, -1, 3)[..., :columns] for s in (initial, back)]
    out = _plane_wave_sum(initial, t, xs, np.concatenate(both, 1), f.T)  # (..., 1 + n_q, columns)
    shape = out.shape[:-2] + back.amplitudes.shape[:-1]
    return tuple(e.reshape(shape) for e in _bilinear(out[..., :1, :], out[..., 1:, :]))


def _weighted_from(amplitude_fi, bilinear):
    """The pole-free products w^a = -Im(conj(<f|i>) E^a) / 2, one per E^a of bilinear."""
    amp_bar = np.conj(amplitude_fi)
    return tuple(-0.5 * np.imag(amp_bar * e) for e in bilinear)


def _checked_probability(amplitude_fi, amplitude_floor):
    """|<f|i>|^2 of every outcome amplitude <f|i>, after the amplitude-floor check."""
    amplitude = np.abs(amplitude_fi)
    if amplitude.min() <= amplitude_floor:
        raise ZeroProbabilityOutcomeError(
            f"outcome amplitude {amplitude.min():.3e} at or below floor {amplitude_floor:.3e}"
        )
    return amplitude**2


def conditional_current_grid(
    initial: SpectralState,
    f: FinalOutcome,
    t: float,
    xs,
    amplitude_floor: float = DEFAULT_AMPLITUDE_FLOOR,
):
    """Vectorized conditional (j0, j1) over positions at fixed t: w^a / |<f|i>|^2."""
    a2 = _checked_probability(f.amplitude_fi, amplitude_floor)
    return tuple(w / a2 for w in weighted_integrand_grid(initial, f, t, xs))


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
    """Vectorized pole-free j^a(x|f) |<f|i>|^2; a stacked f adds an outcome axis."""
    return _weighted_from(f.amplitude_fi, _bilinear_grid(initial, f, t, xs))


def weighted_density_grid(initial: SpectralState, f, t: float, xs):
    """The time component of weighted_integrand_grid alone, from psi and d0 columns only."""
    (w0,) = _weighted_from(f.amplitude_fi, _bilinear_grid(initial, f, t, xs, columns=2))
    return w0


def weighted_integrand(initial: SpectralState, f: FinalOutcome, e: Event) -> FourVector:
    """Conditional current weighted by the outcome probability.

    Algebraically equal to conditional_current(...) * |<f|i>|^2 wherever
    the quotient form exists, but finite for every outcome, so ensemble
    averages never divide by a small amplitude.
    """
    j0, j1 = weighted_integrand_grid(initial, f, e.t, e.x)
    return FourVector(float(j0), float(j1))


def make_outcome_ensemble(
    initial: SpectralState, T: float, q_lo: float, q_hi: float, n_q: int
) -> OutcomeEnsemble:
    """Uniform outcome grid over [q_lo, q_hi] with trapezoid weights.

    Validates that the grid captures the outcome distribution: the
    weighted Born probabilities must sum to 1 within COVERAGE_TOL.
    """
    if n_q < 2:
        raise ValueError("need at least two outcomes")
    if not q_lo < q_hi:
        raise ValueError("q_lo must be below q_hi")
    qs = np.linspace(q_lo, q_hi, n_q)
    weights = trapezoid_weights(n_q, qs[1] - qs[0])
    backward, overlaps = _outcome_states(initial, qs, T)
    total = float(np.dot(weights, np.abs(overlaps) ** 2))
    if abs(total - 1.0) > COVERAGE_TOL:
        raise CoverageError(
            f"ensemble captures probability {total:.6f}, outside 1 +/- {COVERAGE_TOL}"
        )
    return OutcomeEnsemble(qs, float(T), backward, overlaps, weights)


def outcome_probabilities(initial: SpectralState, ens: OutcomeEnsemble):
    """Born probability density at each ensemble outcome.

    <f|i> at q is the Newton-Wigner amplitude at (q, T): one kernel call.
    """
    _require_same_grid(initial, ens.backward_state)
    return nw_density_grid(initial, ens.q_value, ens.T)


def decompose_check(initial: SpectralState, ens: OutcomeEnsemble, events) -> float:
    """Relative L2 gap between the outcome-averaged and direct currents.

    Sums the pole-free weighted integrand over the ensemble at each
    event and compares against the unconditional current; by
    completeness of the outcome basis the gap measures quadrature error
    only.  The integrand at every event for every outcome is one kernel
    call, and the direct current one more.
    """
    _require_same_grid(initial, ens.backward_state)
    rho = np.abs(ens.amplitude_fi) ** 2
    covered = float(np.dot(ens.weights, rho))
    if covered < 1.0 - COVERAGE_TOL:
        raise CoverageError(
            f"ensemble captures probability {covered:.6f}, below 1 - {COVERAGE_TOL}"
        )
    t, x = np.array([(e.t, e.x) for e in events], dtype=float).T
    w0, w1 = weighted_integrand_grid(initial, ens, t, x)
    j0, j1 = current_grid(initial, t, x)
    num = np.sum((w0 @ ens.weights - j0) ** 2 + (w1 @ ens.weights - j1) ** 2)
    return float(np.sqrt(num / np.sum(j0**2 + j1**2)))
