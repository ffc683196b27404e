import tracemalloc

import numpy as np
import pytest
from scipy.special import k0 as scipy_k0

from kgflow import (
    DomainError,
    GridSpec,
    KernelMode,
    bessel_k0,
    make_gaussian_packet,
    nw_amplitude,
    nw_density,
    nw_gram_check,
    position_kernel,
    superpose,
)
from kgflow.newton_wigner import _KERNEL_BLOCK, nw_amplitude_grid, nw_density_grid
from kgflow.current import current_grid
from kgflow.states import psi_grid
from kgflow._quad import _alternating_weights, _legendre_rule, gauss_panels

REL = KernelMode(tag="relativistic")


def test_bessel_oracle_against_scipy():
    for z in np.linspace(0.05, 40.0, 80):
        assert abs(bessel_k0(z) - scipy_k0(z)) < 1e-12 * scipy_k0(z)


def test_parseval_unit_probability(rest_packet, s1_state):
    qs, w = gauss_panels(-40.0, 40.0, 200, 16)
    for state in (rest_packet, s1_state):
        for t in (0.0, 1.0):
            total = float(np.dot(w, nw_density_grid(state, qs, t)))
            assert abs(total - 1.0) < 1e-6


def test_rest_packet_profile_even(rest_packet):
    qs = np.linspace(-6.0, 6.0, 121)
    mags = np.abs(nw_amplitude_grid(rest_packet, qs, 0.0))
    assert np.max(np.abs(mags - mags[::-1])) < 1e-10
    assert int(np.argmax(mags)) == 60


def test_large_mass_limit_approaches_position_amplitude():
    big = make_gaussian_packet(100.0, 0.0, 1.0, 0.0, GridSpec(-10.0, 10.0))
    qs = np.linspace(-1.0, 1.0, 21)
    nw = nw_amplitude_grid(big, qs, 0.3)
    ps = psi_grid(big, 0.3, qs)
    scale = ps[10] / nw[10]  # single global factor, fixed at the peak
    assert np.max(np.abs(scale * nw - ps)) / np.max(np.abs(ps)) < 0.01
    # the global factor is sqrt(p0) ~ sqrt(m) up to packet corrections
    assert abs(abs(scale) - 1.0 / np.sqrt(100.0)) < 1e-3


def test_density_nonnegative_even_in_negative_j0_regions(s1_state):
    xs = np.linspace(-8.0, 8.0, 801)
    j0, _ = current_grid(s1_state, 0.0, xs)
    nw = nw_density_grid(s1_state, xs, 0.0)
    assert np.all(nw >= 0.0)
    assert np.any(j0 < 0)  # the contrast: indefinite j0, definite NW density
    assert nw_density(s1_state, 1.05, 0.0) >= 0.0


def test_relativistic_kernel_matches_bessel():
    for mass in (0.5, 1.0, 2.0):
        for delta in np.linspace(0.1, 5.0, 23):
            mine = position_kernel(mass, float(delta), REL)
            oracle = bessel_k0(mass * float(delta)) / np.pi
            assert abs(mine - oracle) < 1e-6 * oracle


def test_kernel_spot_value():
    assert position_kernel(1.0, 1.0, REL) == pytest.approx(
        bessel_k0(1.0) / np.pi, rel=1e-6
    )


def test_kernel_even_and_positive():
    for delta in (0.1, 0.7, 2.0, 5.0):
        plus = position_kernel(1.0, delta, REL)
        minus = position_kernel(1.0, -delta, REL)
        assert plus == minus
        assert plus > 0


def test_kernel_diverges_at_zero_separation():
    with pytest.raises(DomainError):
        position_kernel(1.0, 0.0, REL)


@pytest.mark.parametrize("delta", [1e-100, 1e-200, np.float64(1e-300)])
def test_kernel_below_float_range_raises(delta):
    # below MIN_SEPARATION = 1e-81 the kernel raises (the sum itself would hold to
    # about 1e-153, where p^2 overflows); warnings are errors here
    with pytest.raises(DomainError, match="separation"):
        position_kernel(1.0, delta, REL)
    mine = position_kernel(1.0, 1e-80, REL)
    assert abs(mine - bessel_k0(1e-80) / np.pi) < 1e-12 * mine


def test_kernel_compton_decay():
    # exponential falloff against the large-argument Bessel form
    for mass, delta in ((5.0, 2.0), (6.0, 2.0), (10.0, 2.0)):
        z = mass * delta
        asym = np.sqrt(np.pi / (2 * z)) * np.exp(-z) / np.pi
        assert position_kernel(mass, delta, REL) == pytest.approx(asym, rel=0.05)


def test_kernel_raises_beyond_resolved_separation():
    # the rounding floor of about 1e-16 leaves up to 4e-8 relative error at
    # m|delta| = 20, 1.1e-6 at 25 and 1.1e-4 at 30, so the kernel stops at 20
    assert position_kernel(1.0, 20.0, REL) > 0
    with pytest.raises(DomainError, match="m\\|delta\\|"):
        position_kernel(1.0, 20.5, REL)


@pytest.mark.parametrize("mass", [0.5, 1.0, 2.0, 5.0])
def test_kernel_accuracy_against_scipy(mass):
    # the accelerated phase series keeps the absolute error near 1e-16; from
    # m|delta| = 2 pi on (mass 5, delta = 4 among them) there is no geometric run
    # and the pi-wide phase panels start at p = 0
    bands = (
        (np.linspace(0.1, 5.0, 99), 1e-13),
        (np.linspace(5.0, 10.0, 26), 5e-12),
        (np.linspace(10.0, 20.0, 51), 1e-7),
    )
    for zs, bound in bands:
        for z in zs:
            oracle = scipy_k0(z) / np.pi
            assert abs(position_kernel(mass, float(z / mass), REL) - oracle) <= bound * oracle


@pytest.mark.parametrize("mode", [REL, KernelMode(tag="nonrelativistic")])
@pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf])
def test_kernel_rejects_non_finite_separation(mode, delta):
    with pytest.raises(ValueError, match="finite"):
        position_kernel(1.0, delta, mode)


@pytest.mark.parametrize("z", [np.nan, np.inf])
def test_bessel_rejects_non_finite_argument(z):
    with pytest.raises(ValueError, match="finite"):
        bessel_k0(z)


def test_kernel_phase_run_ending_on_big_p():
    # three geometric panels end at p = 2.375 m, so theta0 = 2.375 m|delta|, and
    # 3000 - theta0 is 953 pi to rounding: a kernel that sums its phase panels out
    # to P|delta| = 3000 and adds a tail from P has its last panel end on P here
    centre = (3000.0 - 953.0 * np.pi) / 2.375
    for delta in centre + np.spacing(centre) * np.arange(-4, 5):
        oracle = scipy_k0(delta) / np.pi
        assert abs(position_kernel(1.0, float(delta), REL) - oracle) <= 1e-13 * oracle


def test_kernel_dense_sweep_positive_and_decreasing():
    for mass in (1.0, 3.0):
        vals = [position_kernel(mass, float(z / mass), REL) for z in np.linspace(0.05, 20.0, 400)]
        assert min(vals) > 0
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_dirichlet_mode_delta_sequence():
    # convolving a narrow smooth function reproduces it as the cutoff grows
    phi = lambda x: np.exp(-(x**2) / (2 * 0.3**2))
    xs, w = gauss_panels(-4.0, 4.0, 64, 16)
    errors = []
    for cutoff in (10.0, 20.0, 40.0):
        mode = KernelMode(tag="nonrelativistic", cutoff=cutoff)
        vals = np.array([position_kernel(1.0, float(0.4 - xp), mode) for xp in xs])
        errors.append(abs(float(np.dot(w, vals * phi(xs))) - phi(0.4)))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 1e-3


def test_dirichlet_mode_finite_at_zero():
    mode = KernelMode(tag="nonrelativistic", cutoff=25.0)
    assert position_kernel(1.0, 0.0, mode) == pytest.approx(25.0 / np.pi)


def test_kernel_mode_validation():
    with pytest.raises(ValueError):
        KernelMode(tag="newtonian")
    with pytest.raises(ValueError):
        KernelMode(tag="nonrelativistic", cutoff=-1.0)
    with pytest.raises(ValueError):
        position_kernel(-1.0, 1.0, REL)


def test_gram_orthogonality_of_energy_weighted_basis():
    grid = GridSpec(-30.0, 30.0)
    assert nw_gram_check([0.0, 40.0, 80.0], 1.0, grid) < 1e-3
    assert nw_gram_check([3.0], 1.0, grid) == 0.0


def test_gram_bare_basis_shows_kernel_profile():
    grid = GridSpec(-200.0, 200.0, 16, 32)
    ratio = nw_gram_check([0.0, 1.0], 1.0, grid, basis="position")
    # expected profile: off-diagonal ~ (1/pi) K0(m dq), diagonal
    # ~ (1/pi) asinh(p_max / m); the finite range leaves a ~1% tail
    expected = (bessel_k0(1.0) / np.pi) / (np.arcsinh(200.0) / np.pi)
    assert ratio == pytest.approx(expected, rel=0.03)
    assert ratio > 0.05
    with pytest.raises(ValueError):
        nw_gram_check([0.0, 1.0], 1.0, grid, basis="momentum")


def test_nw_amplitude_scalar_matches_grid(rest_packet):
    q, t = 0.7, 0.4
    assert nw_amplitude(rest_packet, q, t) == pytest.approx(
        complex(nw_amplitude_grid(rest_packet, np.asarray([q]), t)[0])
    )


def test_legendre_rule_cached_read_only():
    x, w = _legendre_rule(16)
    assert _legendre_rule(16)[0] is x
    # the port reproduces numpy's rule up to the scenario loader's cap of 100 nodes
    for n in (2, 3, 16, 32, 64, 100):
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        x_n, w_n = _legendre_rule(n)
        assert np.array_equal(x_n, ref_x) and np.array_equal(w_n, ref_w)
    with pytest.raises(ValueError):
        x[0] = 0.0


@pytest.mark.parametrize("zs", [np.linspace(0.1, 5.0, 25), np.array([1e-3, 30.0, 700.0])])
def test_bessel_array_matches_scalar_calls(zs):
    values = bessel_k0(zs)
    assert values.shape == zs.shape
    assert values.tobytes() == np.array([bessel_k0(float(z)) for z in zs]).tobytes()


def test_bessel_scalar_returns_float():
    assert type(bessel_k0(1.0)) is float and type(bessel_k0(np.float64(2.0))) is float


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_bessel_array_rejects_one_bad_entry(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        bessel_k0(np.array([0.5, bad, 2.0]))


@pytest.mark.parametrize("deltas", [np.linspace(0.1, 5.0, 25), np.array([1e-80])])
def test_kernel_array_matches_scalar_calls(deltas):
    values = position_kernel(1.0, deltas, REL)
    assert values.shape == deltas.shape
    scalars = np.array([position_kernel(1.0, float(d), REL) for d in deltas])
    assert values.tobytes() == scalars.tobytes()


def test_kernel_nonrelativistic_elementwise():
    mode = KernelMode(tag="nonrelativistic", cutoff=25.0)
    deltas = np.array([0.0, 0.3, -1.2])
    values = position_kernel(1.0, deltas, mode)
    assert values.tobytes() == np.array([position_kernel(1.0, d, mode) for d in deltas]).tobytes()
    assert values[0] == pytest.approx(25.0 / np.pi)


def test_kernel_scalar_returns_float():
    for mode in (REL, KernelMode(tag="nonrelativistic")):
        assert type(position_kernel(1.0, 1.0, mode)) is float
        assert type(position_kernel(1.0, np.float64(2.0), mode)) is float


@pytest.mark.parametrize(
    "bad, error",
    [(0.0, DomainError), (25.0, DomainError), (1e-90, DomainError),
     (np.nan, ValueError), (np.inf, ValueError)],
)
def test_kernel_array_rejects_one_bad_entry(bad, error):
    with pytest.raises(error, match=f"separation {bad:g}" if error is DomainError else "finite"):
        position_kernel(1.0, np.array([0.5, bad, 2.0]), REL)


def test_kernel_memory_bounded_by_block():
    # a call shares the longest geometric run of a block, about 455 panels at 1e-80,
    # so the blocks bound its memory whatever the number of separations
    def peak(n):
        tracemalloc.start()
        try:
            position_kernel(1.0, np.geomspace(1e-80, 20.0, n), REL)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(_KERNEL_BLOCK)  # fill the rule caches outside the measurement
    assert peak(4 * _KERNEL_BLOCK) <= 1.1 * peak(_KERNEL_BLOCK)


def test_alternating_weights_sum_known_series():
    c = _alternating_weights(23)
    k = np.arange(23)
    assert abs(np.dot(c, 1.0 / (k + 1)) - np.log(2.0)) <= 1e-15
    assert abs(np.dot(c, 1.0 / (2 * k + 1)) - np.pi / 4) <= 1e-15
    assert _alternating_weights(23) is c
    with pytest.raises(ValueError):
        c[0] = 0.0


def test_nonrelativistic_limit_of_the_density():
    # Two packets at p = +-1.  At t = 0 the NW density is the Schroedinger density
    # |phi_S|^2 of the amplitudes a / sqrt(p0), and j0 differs from it only in its pair
    # kernel: (p0_k + p0_l) / 2 against sqrt(p0_k p0_l), an excess of relative size
    # (p_k^2 - p_l^2)^2 / (32 m^4).  So ||j0 - rho_S||_1 falls like m^-4, 16 per mass
    # doubling; the window (12, 20) is criterion 08's for its own factor 16, and it
    # excludes the neighbouring orders m^-3 (8) and m^-5 (32) with room for the
    # O(m^-2) correction to the rate (15.6 and 15.9 measured from m = 10).
    grid = GridSpec(-4.0, 4.0, 8, 32)
    p, gl = gauss_panels(grid.p_min, grid.p_max, grid.panels, grid.nodes_per_panel)
    xs = np.linspace(-20.0, 20.0, 4001)
    waves = np.exp(1j * np.outer(xs, p)) / np.sqrt(2.0 * np.pi)
    l1 = []
    for m in (10.0, 20.0, 40.0):
        state = superpose([make_gaussian_packet(m, q, 0.3, 0.0, grid) for q in (1.0, -1.0)], [1, 1])
        rho_s = np.abs(waves @ (gl * state.amplitudes / np.sqrt(np.hypot(p, m)))) ** 2
        assert np.abs(nw_density_grid(state, xs, 0.0) - rho_s).max() <= 1e-14
        l1.append(np.abs(current_grid(state, 0.0, xs)[0] - rho_s).sum() * (xs[1] - xs[0]))
    ratios = np.array(l1[:-1]) / l1[1:]
    assert np.all((12.0 < ratios) & (ratios < 20.0))
