"""Newton-Wigner position amplitudes and equal-time position kernels.

Under the invariant measure dp/p0 the plane-wave basis <x|p> is not
orthogonal: the equal-time overlap of two position states is a smooth
kernel rather than a delta function, falling off like a modified Bessel
function K0(m |dx|).  Rescaling the basis by sqrt(p0) restores an
orthonormal, positive-density position observable (Newton-Wigner); the
price is that its eigenstates are spread over a Compton-scale region
and are tied to one frame.

`position_kernel` computes the equal-time overlap integral directly in
momentum space; `bessel_k0` provides the independent cross-check through
the exponential integral representation K0(z) = int_0^inf exp(-z cosh u) du.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quad import _legendre_rule, gauss_panels, gauss_panels_edges
from .errors import DomainError
from .states import GridSpec, SpectralState, _kernel_matrix, _plane_wave_sum


@dataclass(frozen=True)
class KernelMode:
    """Selects the equal-time kernel flavor.

    tag "relativistic" integrates exp(i p dx)/p0 over the full line;
    tag "nonrelativistic" integrates exp(i p dx) up to a hard momentum
    cutoff (Dirichlet kernel), which is the delta-sequence analogue.
    """

    tag: str
    cutoff: float = 40.0

    def __post_init__(self):
        if self.tag not in ("relativistic", "nonrelativistic"):
            raise ValueError(f"unknown kernel mode {self.tag!r}")
        if self.tag == "nonrelativistic" and not (
            np.isfinite(self.cutoff) and self.cutoff > 0
        ):
            raise ValueError("nonrelativistic mode needs a finite positive cutoff")


def nw_amplitude(state: SpectralState, q: float, t: float) -> complex:
    """Amplitude onto the Newton-Wigner position q at time t.

    Same integral as the position amplitude but with an extra sqrt(p0)
    on each mode, which is exactly what makes the q-basis orthonormal
    under the invariant measure.
    """
    return complex(nw_amplitude_grid(state, q, t))


def nw_amplitude_grid(state: SpectralState, qs, t: float):
    """Vectorized Newton-Wigner amplitude over an array of q values or a Lattice."""
    coeffs = (np.sqrt(state.energies) * state.amplitudes).T
    return _plane_wave_sum(state, t, qs, _kernel_matrix(state, coeffs))


def nw_density(state: SpectralState, q: float, t: float) -> float:
    """Probability density |<q|state>|^2; nonnegative by construction."""
    return float(np.abs(nw_amplitude(state, q, t)) ** 2)


def nw_density_grid(state: SpectralState, qs, t: float):
    """Vectorized Newton-Wigner density over an array of q values or a Lattice."""
    return np.abs(nw_amplitude_grid(state, qs, t)) ** 2


# The head below is an alternating sum of half-period pieces smaller than
# 1/2, so it has an absolute rounding floor of about 1e-16, while the
# kernel K0(m|delta|)/pi falls like exp(-m|delta|) and depends on m|delta| alone.
# Against scipy.special.k0 the relative error is at most 5e-14 for
# m|delta| <= 5, 1.6e-11 up to 10 and 4.7e-7 up to 20; it is 5.3e-5 at 25 and
# 5.0e-3 at 30, and at 40 the sign is wrong: past this bound the quadrature no
# longer resolves the kernel to the digits the checks ask of it.
MAX_MASS_SEPARATION = 20.0


def _kernel_relativistic(mass: float, delta: float) -> float:
    """(1/2pi) int exp(i p delta)/p0 dp over the real line.

    Even in delta, so computed as the half-line cosine transform, with
    a 16-node Gauss-Legendre rule on every panel.  Near p = 0, where
    1/p0 curves, the panels grow geometrically until they are half an
    oscillation period wide.  From there the head is laid out in phase
    theta = p delta as panels exactly pi wide, so every panel shares the
    16 cosines of the first one up to the sign (-1)^j, and the head
    becomes an alternating series of half-period pieces (Longman, Proc.
    Camb. Phil. Soc. 52, 764, 1956).  Only the last partial panel up to P
    takes cos at a large phase.  The slowly decaying tail beyond P is
    summed by repeated integration by parts, whose fourth-order
    remainder is negligible with P*delta >= 3000.  The head's rounding
    floor bounds m|delta| by MAX_MASS_SEPARATION; beyond it the kernel
    raises DomainError.
    """
    d = abs(delta)
    if d == 0:
        raise DomainError("equal-time kernel diverges logarithmically at zero separation")
    if mass * d > MAX_MASS_SEPARATION:
        raise DomainError(
            f"separation {delta:g} at mass {mass:g} puts m|delta| = {mass * d:g} beyond "
            f"{MAX_MASS_SEPARATION:g}, where the quadrature's rounding floor is no longer small "
            "against K0(m|delta|)/pi"
        )
    big_p = max(3000.0 / d, 30.0 * mass + 10.0)

    # integration-by-parts corrections for int_P^inf cos(p d) f(p) dp; below
    # d ~ 1e-81 the powers of P and d leave the float range and the sum is not finite
    with np.errstate(all="ignore"):
        u = big_p * big_p + mass * mass
        f = u**-0.5
        fp = -big_p * u**-1.5
        fpp = (2 * big_p * big_p - mass * mass) * u**-2.5
        fppp = 3 * big_p * (3 * mass * mass - 2 * big_p * big_p) * u**-3.5
        s, c = np.sin(big_p * d), np.cos(big_p * d)
        tail = -s * f / d - c * fp / d**2 + s * fpp / d**3 + c * fppp / d**4
    if not np.isfinite(tail):
        raise DomainError(f"separation {delta:g} is too small for the kernel's tail expansion")

    # geometric run e -> 1.5 e + 0.5 m near p = 0, while the growth is below half a period
    w_osc = np.pi / d
    edges = [0.0]
    while edges[-1] < big_p and 0.5 * (mass + edges[-1]) < w_osc:
        edges.append(1.5 * edges[-1] + 0.5 * mass)
    head = 0.0
    direct = [edges]  # runs of panel edges that take cos(p d) directly
    if edges[-1] < big_p:
        # arithmetic run in phase theta = p d: panels exactly pi wide from theta0,
        # so cos theta = (-1)^j cos(theta0 + (1 + x_i) pi/2) on panel j
        theta0 = edges[-1] * d
        n = int((big_p * d - theta0) / np.pi)
        # when the n-th panel rounds to end at or past P, stop one short: the
        # partial panel up to P must not be empty
        if n and (theta0 + n * np.pi) / d >= big_p:
            n -= 1
        start = edges[-1]
        if n:
            x, w = _legendre_rule(16)
            offset = theta0 + (1.0 + x) * (0.5 * np.pi)
            p = (offset + np.pi * np.arange(n)[:, None]) / d
            inv_p0 = 1.0 / np.sqrt(p * p + mass * mass)
            # pair the panels first, so the running sum adds small positive terms
            pairs = inv_p0[0 : n - 1 : 2] - inv_p0[1:n:2]
            alternating = pairs.sum(axis=0) + (inv_p0[-1] if n % 2 else 0.0)
            head = 0.5 * np.pi / d * float(np.sum(w * np.cos(offset) * alternating))
            start = (theta0 + n * np.pi) / d
        direct.append([start, big_p])
    else:
        edges[-1] = big_p
    for run in direct:
        if len(run) > 1:
            p, w = gauss_panels_edges(run, 16)
            head += float(np.sum(w * np.cos(p * d) / np.sqrt(p * p + mass * mass)))
    return (head + tail) / np.pi


def _kernel_dirichlet(cutoff: float, delta: float) -> float:
    """(1/2pi) int_{-c}^{c} exp(i p delta) dp = sin(c delta)/(pi delta)."""
    return float(cutoff / np.pi * np.sinc(cutoff * delta / np.pi))


def position_kernel(mass: float, delta: float, mode: KernelMode) -> float:
    """Equal-time overlap of two position states separated by delta.

    Real by symmetry of the integrand.  delta must be finite.  In
    relativistic mode it must also be nonzero; in nonrelativistic mode
    the Dirichlet value cutoff/pi is returned at delta = 0.
    """
    if not mass > 0:
        raise ValueError("mass must be positive")
    if not np.isfinite(delta):
        raise ValueError(f"separation must be finite, got {delta}")
    if mode.tag == "relativistic":
        return _kernel_relativistic(mass, delta)
    return _kernel_dirichlet(mode.cutoff, delta)


def bessel_k0(z):
    """Modified Bessel function K0 via int_0^inf exp(-z cosh u) du.

    Elementwise over an array of arguments; a scalar gives a float.
    """
    z = np.asarray(z, dtype=float)
    bad = z[~((0 < z) & (z < np.inf))]
    if bad.size:
        raise ValueError(f"argument must be positive and finite, got {bad[0]}")
    u_max = np.arccosh(np.maximum(750.0 / z, 2.0))
    u, w = gauss_panels(0.0, u_max, 64, 16)
    k0 = np.sum(w * np.exp(-z[..., None] * np.cosh(u)), axis=-1)
    return float(k0) if k0.ndim == 0 else k0


def nw_gram_check(q_grid, mass: float, grid: GridSpec, basis: str = "newton-wigner") -> float:
    """Largest off-diagonal Gram entry relative to the diagonal scale.

    Builds G_jk = int conj(<q_j|p>) <q_k|p> dp/p0 over the truncated
    momentum range for the chosen position basis.  basis
    "newton-wigner" carries the sqrt(p0) factor and comes out close to
    diagonal; basis "position" drops it and the off-diagonal saturates
    at the equal-time kernel profile.
    """
    if basis not in ("newton-wigner", "position"):
        raise ValueError(f"unknown basis {basis!r}")
    qs = np.unique(np.asarray(q_grid, dtype=float))
    if qs.size < 2:
        return 0.0
    span = grid.p_max - grid.p_min
    max_dq = float(qs.max() - qs.min())
    panels = max(grid.panels, int(np.ceil(span * max_dq / (2 * np.pi))) + 1)
    p, w = gauss_panels(grid.p_min, grid.p_max, panels, 16)
    p0 = np.sqrt(p * p + mass * mass)
    base = w / (2 * np.pi) * (np.ones_like(p0) if basis == "newton-wigner" else 1.0 / p0)
    modes = np.exp(1j * np.multiply.outer(qs, p))
    gram = (modes * base) @ modes.conj().T
    mags = np.abs(gram)
    diag_scale = float(np.mean(np.diag(mags)))
    off = mags - np.diag(np.diag(mags))
    return float(off.max() / diag_scale)
