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

from ._quad import _alternating_weights, _legendre_rule, gauss_panels, panel_rule
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


def _nw_matrix(state: SpectralState):
    """Kernel matrix of the Newton-Wigner amplitude: sqrt(p0) a, weighted."""
    return _kernel_matrix(state, (np.sqrt(state.energies) * state.amplitudes).T)


def nw_amplitude_grid(state: SpectralState, qs, t: float):
    """Vectorized Newton-Wigner amplitude over an array of q values or a Lattice."""
    return _plane_wave_sum(state, t, qs, _nw_matrix(state))


def nw_density(state: SpectralState, q: float, t: float) -> float:
    """Probability density |<q|state>|^2; nonnegative by construction."""
    return float(np.abs(nw_amplitude(state, q, t)) ** 2)


def _squared_modulus(amplitudes):
    """|a|^2 of the kernel's Newton-Wigner amplitudes, the read of nw_density_grid."""
    return np.abs(amplitudes) ** 2


def nw_density_grid(state: SpectralState, qs, t: float):
    """Vectorized Newton-Wigner density over an array of q values or a Lattice."""
    return _plane_wave_sum(state, t, qs, _nw_matrix(state), read=_squared_modulus)


# The kernel adds pieces of up to about 1/2, so its absolute rounding floor is
# about 1e-16, while K0(m|delta|)/pi falls like exp(-m|delta|).  Against
# scipy.special.k0 (masses 0.5 to 5) the relative error is at most 6e-14 for
# m|delta| <= 5, 2e-12 up to 10 and 4e-8 up to 20; it is 1.1e-6 at 25, 1.1e-4 at
# 30, and at 40 the kernel is 4.6 times too large; past 20 it raises.
MAX_MASS_SEPARATION = 20.0

# The sum itself resolves |delta| down to about 1e-153, where p^2 overflows at the
# geometric run's last nodes; 1e-81 is where the integration-by-parts tail of
# earlier versions overflowed, kept so that the kernel's domain stays as documented.
MIN_SEPARATION = 1e-81

# the smallest n with 2 (3 + sqrt 8)^-n < 1e-17
_PHASE_PANELS = int(np.ceil(np.log(2e17) / np.log(3.0 + np.sqrt(8.0))))

# entries per block of _blockwise: separations per call of _kernel_relativistic,
# which share its longest geometric run (about 455 panels of 16 nodes at
# |delta| = 1e-80 and m = 1), and arguments per block of bessel_k0's 1024 nodes
_KERNEL_BLOCK = 64


def _blockwise(fn, values):
    """fn, elementwise, over blocks of _KERNEL_BLOCK entries of values; a float for a scalar."""
    out, flat = np.empty(values.size), values.ravel()
    for lo in range(0, values.size, _KERNEL_BLOCK):
        out[lo : lo + _KERNEL_BLOCK] = fn(flat[lo : lo + _KERNEL_BLOCK])
    return float(out[0]) if values.ndim == 0 else out.reshape(values.shape)


def _kernel_relativistic(mass: float, d):
    """(1/2pi) int exp(i p delta)/p0 dp over the real line, at separations d = |delta| > 0.

    The half-line cosine transform, with 16 Gauss-Legendre nodes per
    panel.  Near p = 0 the panels grow geometrically until they are half
    an oscillation period wide; separation i takes the first K_i panels
    of one run, whose edges depend on m alone.  After them, panels pi
    wide in theta = p delta share the 16 cosines of the first up to the
    sign (-1)^j, an alternating series (Longman, Proc. Camb. Phil. Soc.
    52, 764, 1956) whose first _PHASE_PANELS terms, weighted as Cohen,
    Rodriguez Villegas and Zagier (Experimental Math. 9, 3, 2000), sum
    it whole: no tail is left.  Each value depends on its own separation.
    """
    x, w = _legendre_rule(16)
    # geometric run e -> 1.5 e + 0.5 m near p = 0, while the growth is below half a period
    w_max = np.pi / d.min()
    edges = [0.0]
    while 0.5 * (mass + edges[-1]) < w_max:
        edges.append(1.5 * edges[-1] + 0.5 * mass)
    edges = np.array(edges)
    panels = np.searchsorted(0.5 * (mass + edges), np.pi / d)  # K_i
    p, w_p = panel_rule(edges, 16)
    terms = np.multiply(d[:, None, None], p)
    np.cos(terms, out=terms)
    terms *= w_p / np.sqrt(p * p + mass * mass)
    # running[i, k] sums the first k panels, so the panels past K_i do not touch column K_i
    running = np.zeros((d.size, edges.size))
    np.cumsum(np.sum(terms, axis=-1), axis=-1, out=running[:, 1:])
    head = running[np.arange(d.size), panels]
    # phase run from theta0: cos theta = (-1)^j cos(theta0 + (1 + x_i) pi/2) on panel j,
    # and dp/p0 = dtheta / hypot(theta, m delta)
    offset = (edges[panels] * d)[:, None] + (1.0 + x) * (0.5 * np.pi)
    theta = offset[:, None, :] + np.pi * np.arange(_PHASE_PANELS)[:, None]
    r = np.sqrt(theta * theta + np.square(mass * d)[:, None, None])
    pieces = np.sum((w * np.cos(offset))[:, None, :] / r, axis=-1)
    return head / np.pi + 0.5 * np.sum(_alternating_weights(_PHASE_PANELS) * pieces, axis=-1)


def position_kernel(mass: float, delta, mode: KernelMode):
    """Equal-time overlap of two position states separated by delta.

    Real by symmetry of the integrand; elementwise over an array, a float
    for a scalar.  delta must be finite.  In relativistic mode |delta|
    must be at least MIN_SEPARATION and m|delta| at most
    MAX_MASS_SEPARATION, and blocks of _KERNEL_BLOCK separations bound
    the memory of one call; in nonrelativistic mode the Dirichlet value
    cutoff/pi is returned at delta = 0.  Errors name the first bad entry.
    """
    if not mass > 0:
        raise ValueError("mass must be positive")
    delta = np.asarray(delta, dtype=float)
    bad = delta[~np.isfinite(delta)]
    if bad.size:
        raise ValueError(f"separation must be finite, got {bad[0]}")
    if mode.tag == "nonrelativistic":
        # (1/2pi) int_{-c}^{c} exp(i p delta) dp = sin(c delta)/(pi delta)
        kernel = mode.cutoff / np.pi * np.sinc(mode.cutoff * delta / np.pi)
        return float(kernel) if kernel.ndim == 0 else kernel
    d = np.abs(delta)
    if np.any(d < MIN_SEPARATION):
        raise DomainError(f"separation {delta[d < MIN_SEPARATION][0]:g} is below "
                          f"{MIN_SEPARATION:g}; the kernel diverges at zero separation")
    if np.any(mass * d > MAX_MASS_SEPARATION):
        raise DomainError(f"separation {delta[mass * d > MAX_MASS_SEPARATION][0]:g} at mass "
                          f"{mass:g} puts m|delta| beyond {MAX_MASS_SEPARATION:g}, where the "
                          "rounding floor is no longer small against K0(m|delta|)/pi")
    return _blockwise(lambda block: _kernel_relativistic(mass, block), d)


def bessel_k0(z):
    """Modified Bessel function K0 via int_0^inf exp(-z cosh u) du.

    Elementwise over an array of arguments, in blocks of _KERNEL_BLOCK,
    which bound the memory of one call; a scalar gives a float.
    """
    z = np.asarray(z, dtype=float)
    bad = z[~((0 < z) & (z < np.inf))]
    if bad.size:
        raise ValueError(f"argument must be positive and finite, got {bad[0]}")

    def k0(block):
        u, w = gauss_panels(0.0, np.arccosh(np.maximum(750.0 / block, 2.0)), 64, 16)
        return np.sum(w * np.exp(-block[:, None] * np.cosh(u)), axis=-1)

    return _blockwise(k0, z)


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
