import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgflow import (
    CausalOrderError,
    DegenerateStateError,
    DomainError,
    Event,
    GridMismatchError,
    GridSpec,
    TruncationError,
    evaluate_dpsi,
    evaluate_psi,
    inner,
    invariant_norm,
    make_final_outcome,
    make_gaussian_packet,
    superpose,
)
from kgflow._quad import gauss_panels
from kgflow.conditional import conditional_current_grid, weighted_integrand_grid
from kgflow.current import current_grid
from kgflow.newton_wigner import nw_density_grid
from kgflow.states import (
    Lattice,
    SpectralState,
    _phase_table,
    _plane_wave_sum,
    _require_same_grid,
    psi_grid,
    uniform_lattice,
)

from conftest import gauss_lattice


def test_packet_unit_norm(rest_packet):
    assert abs(invariant_norm(rest_packet) - 1.0) < 1e-10


def test_translation_is_pure_momentum_phase():
    grid = GridSpec(-3.0, 3.0)
    s0 = make_gaussian_packet(1.0, 0.0, 0.25, 0.0, grid)
    s2 = make_gaussian_packet(1.0, 0.0, 0.25, 2.0, grid)
    assert np.allclose(np.abs(s0.amplitudes), np.abs(s2.amplitudes), rtol=0, atol=1e-14)
    phase = s2.amplitudes / s0.amplitudes
    assert np.allclose(phase, np.exp(-2j * s0.momenta), rtol=0, atol=1e-12)


def test_narrow_packet_mean_energy_matches_plane_wave(narrow_boosted):
    mean = float(
        np.sum(narrow_boosted.weights * np.abs(narrow_boosted.amplitudes) ** 2
               * narrow_boosted.energies)
    )
    assert abs(mean - np.sqrt(10.0)) / np.sqrt(10.0) < 0.01
    # oracle: the same mean on a twice-refined quadrature
    fine = make_gaussian_packet(1.0, 3.0, 0.05, 0.0, GridSpec(2.5, 3.5, 16, 32))
    mean_fine = float(np.sum(fine.weights * np.abs(fine.amplitudes) ** 2 * fine.energies))
    assert abs(mean - mean_fine) < 1e-10


def test_packet_argument_errors():
    grid = GridSpec(-3.0, 3.0)
    with pytest.raises(ValueError):
        make_gaussian_packet(-1.0, 0.0, 0.25, 0.0, grid)
    with pytest.raises(ValueError):
        make_gaussian_packet(1.0, 0.0, -0.25, 0.0, grid)
    with pytest.raises(ValueError):
        make_gaussian_packet(1.0, 0.0, 0.25, 0.0, GridSpec(-3.0, 3.0, 1, 8))
    with pytest.raises(ValueError):
        # grid does not contain p_center + 6 widths
        make_gaussian_packet(1.0, 2.9, 0.25, 0.0, grid)


def test_packet_truncation_error():
    with pytest.raises(TruncationError):
        make_gaussian_packet(1.0, 0.0, 0.5, 0.0, GridSpec(-3.1, 3.1))
    # same packet on a wide enough grid is fine
    make_gaussian_packet(1.0, 0.0, 0.5, 0.0, GridSpec(-4.5, 4.5))


def test_superpose_identity_and_scale(rest_packet):
    one = superpose([rest_packet], [1.0])
    assert np.allclose(one.amplitudes, rest_packet.amplitudes, rtol=0, atol=1e-14)
    two = superpose([rest_packet], [2.0 + 0.0j])
    assert np.allclose(two.amplitudes, rest_packet.amplitudes, rtol=0, atol=1e-14)


def test_superpose_well_separated_packets():
    grid = GridSpec(-6.0, 6.0)
    left = make_gaussian_packet(1.0, -3.0, 0.25, 0.0, grid)
    right = make_gaussian_packet(1.0, 3.0, 0.25, 0.0, grid)
    assert abs(inner(left, right)) < 1e-8
    combined = left.amplitudes + right.amplitudes
    pre_norm = np.sqrt(np.sum(left.weights * np.abs(combined) ** 2))
    assert abs(pre_norm - np.sqrt(2.0)) < 1e-6
    both = superpose([left, right], [1.0, 1.0])
    assert abs(invariant_norm(both) - 1.0) < 1e-10


def test_superpose_errors(rest_packet):
    other = make_gaussian_packet(1.0, 0.0, 0.25, 0.0, GridSpec(-4.0, 4.0))
    with pytest.raises(GridMismatchError):
        superpose([rest_packet, other], [1.0, 1.0])
    heavier = make_gaussian_packet(2.0, 0.0, 0.25, 0.0, GridSpec(-3.0, 3.0))
    with pytest.raises(GridMismatchError):
        superpose([rest_packet, heavier], [1.0, 1.0])
    with pytest.raises(DegenerateStateError):
        superpose([rest_packet, rest_packet], [1.0, -1.0])
    with pytest.raises(ValueError):
        superpose([], [])


def test_inner_product_properties(rest_packet, s1_state):
    assert abs(inner(rest_packet, rest_packet) - 1.0) < 1e-10
    grid = GridSpec(-6.0, 6.0)
    a = make_gaussian_packet(1.0, -3.0, 0.25, 1.0, grid)
    b = make_gaussian_packet(1.0, 3.0, 0.25, -0.5, grid)
    assert inner(a, b) == pytest.approx(np.conj(inner(b, a)), abs=1e-15)
    assert abs(inner(a, b)) < 1e-8
    with pytest.raises(GridMismatchError):
        inner(rest_packet, a)


def test_same_grid_check_shares_arrays_and_still_rejects_mismatches(s1_state):
    # outcome states share the prepared state's grid arrays, so the check passes by identity
    outcome = make_final_outcome(np.array([0.0, 1.0]), 2.0, s1_state).backward_state
    assert outcome.momenta is s1_state.momenta and outcome.weights is s1_state.weights
    _require_same_grid(s1_state, outcome)
    shifted = make_gaussian_packet(1.0, 0.0, 0.15, 0.0, GridSpec(-1.5, 4.7))
    assert shifted.momenta.shape == s1_state.momenta.shape
    with pytest.raises(GridMismatchError):
        _require_same_grid(s1_state, shifted)


def test_phase_table_is_cos_and_sin_of_the_real_phase(s1_state):
    # the table's two parts come from np.cos and np.sin of theta = x p - t p0;
    # the complex exponential of the same phase agrees to rounding
    rng = np.random.default_rng(12)
    t, x = rng.uniform(-5.0, 5.0, 64), rng.uniform(-14.0, 14.0, 64)
    for t in (t, 1.25):
        table = _phase_table(s1_state, t, x)
        theta = np.multiply.outer(x, s1_state.momenta) - np.multiply.outer(t, s1_state.energies)
        ref = np.exp(1j * theta)
        assert table.shape == (64, s1_state.momenta.size)
        assert np.abs(table - ref).max() <= 1e-13
    assert _phase_table(s1_state, 0.0, 2.0).shape == s1_state.momenta.shape


def test_evaluators_raise_beyond_resolvable_range(bundled_states):
    # single_rest resolves |x| + |t| <= 86.7; at x = 150 the sum returned aliasing
    # noise of about 1e-4 of the peak j0
    state = bundled_states["single_rest"]
    evaluators = (psi_grid, current_grid, lambda s, t, xs: nw_density_grid(s, xs, t))
    for evaluate in evaluators:
        for xs in (np.array([0.0, 150.0]), uniform_lattice(0.0, 150.0, 5)):
            with pytest.raises(DomainError, match="resolvable range 86.7"):
                evaluate(state, 0.0, xs)
        with pytest.raises(DomainError, match="resolvable range 86.7"):
            evaluate(state, 80.0, 10.0)


def test_lattice_range_check_reads_positions_not_offsets(bundled_states):
    # the fine offsets (0, 100) span more than the bound of 86.7, yet both positions,
    # -50 and 50, lie inside it
    state = bundled_states["single_rest"]
    lattice = current_grid(state, 0.0, uniform_lattice(-50.0, 50.0, 2))
    direct = current_grid(state, 0.0, np.array([-50.0, 50.0]))
    peak = current_grid(state, 0.0, 0.0)[0]
    for got, ref in zip(lattice, direct):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15 * peak)


def test_lattice_range_check_reads_every_position(s1_state):
    # positions 0, 150, 10: the first and the n-th lie within the bound of 83.9, the second not
    lattice = Lattice(np.array([0.0, 150.0]), np.zeros(2), np.array([0.0, 10.0]), 3)
    for evaluate in (current_grid, lambda s, t, xs: nw_density_grid(s, xs, t)):
        with pytest.raises(DomainError, match="150 is beyond resolvable range 83.9"):
            evaluate(s1_state, 0.0, lattice)


def test_psi_real_positive_at_origin(rest_packet):
    val = evaluate_psi(rest_packet, Event(0.0, 0.0))
    assert val.real > 0
    assert abs(val.imag) < 1e-14 * val.real


def test_psi_translation_identity():
    grid = GridSpec(-3.0, 3.0)
    s0 = make_gaussian_packet(1.0, 0.0, 0.25, 0.0, grid)
    s2 = make_gaussian_packet(1.0, 0.0, 0.25, 2.0, grid)
    for x in (-1.0, 0.3, 2.0, 4.5):
        lhs = evaluate_psi(s2, Event(0.0, x))
        rhs = evaluate_psi(s0, Event(0.0, x - 2.0))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_psi_even_profile(rest_packet):
    xs = np.linspace(-5.0, 5.0, 101)
    mags = np.abs(psi_grid(rest_packet, 0.0, xs))
    assert np.max(np.abs(mags - mags[::-1])) < 1e-10


def test_dpsi_plane_wave_ratio(narrow_boosted):
    e = Event(0.0, 0.0)
    psi = evaluate_psi(narrow_boosted, e)
    d0, _ = evaluate_dpsi(narrow_boosted, e)
    ratio = d0 / psi
    assert abs(ratio - (-1j * np.sqrt(10.0))) < 0.01 * np.sqrt(10.0)


def test_dpsi_matches_finite_differences(s1_state):
    h = 1e-4
    for e in (Event(0.3, -0.7), Event(-0.2, 1.1), Event(0.0, 0.0), Event(0.5, 2.0)):
        d0, d1 = evaluate_dpsi(s1_state, e)
        fd_t = (
            evaluate_psi(s1_state, Event(e.t + h, e.x))
            - evaluate_psi(s1_state, Event(e.t - h, e.x))
        ) / (2 * h)
        fd_x = (
            evaluate_psi(s1_state, Event(e.t, e.x + h))
            - evaluate_psi(s1_state, Event(e.t, e.x - h))
        ) / (2 * h)
        # d^0 = d/dt, d^1 = -d/dx
        assert abs(d0 - fd_t) / abs(d0) < 1e-6
        assert abs(d1 - (-fd_x)) / abs(d1) < 1e-6


def test_dpsi_rest_packet_odd_integrand(rest_packet):
    _, d1 = evaluate_dpsi(rest_packet, Event(0.0, 0.0))
    assert abs(d1) < 1e-10


def test_norm_is_time_independent(rest_packet):
    # amplitudes carry no time dependence; the momentum-space norm is static
    before = invariant_norm(rest_packet)
    _ = evaluate_psi(rest_packet, Event(5.0, 1.0))
    assert invariant_norm(rest_packet) == before


def test_states_are_immutable(rest_packet):
    with pytest.raises(ValueError):
        rest_packet.amplitudes[0] = 0.0
    with pytest.raises(ValueError):
        rest_packet.weights[0] = 1.0


def test_energies_are_derived_and_read_only(rest_packet, s1_state):
    for state in (rest_packet, s1_state):
        p = state.momenta
        assert np.array_equal(state.energies, np.sqrt(p * p + state.mass * state.mass))
        with pytest.raises(ValueError):
            state.energies[0] = 1.0
    with pytest.raises(TypeError):
        SpectralState(rest_packet.mass, rest_packet.momenta, rest_packet.amplitudes,
                      rest_packet.weights, energies=2.0 * rest_packet.energies)


@pytest.mark.parametrize("field, value, message", [
    ("mass", 0.0, "mass must be positive"),
    ("mass", np.inf, "mass must be positive"),
    ("momenta", np.linspace(1.0, -1.0, 4), "momenta must be strictly increasing"),
    ("weights", np.array([1.0, 0.0, 1.0, 1.0]), "weights must be strictly positive"),
    ("amplitudes", np.array([1.0, np.nan, 1.0, 1.0], dtype=complex), "must be finite"),
    ("weights", np.array([1.0, np.inf, 1.0, 1.0]), "must be finite"),
])
def test_state_constructor_rejects_bad_arrays(field, value, message):
    arrays = dict(mass=1.0, momenta=np.linspace(-1.0, 1.0, 4),
                  amplitudes=np.ones(4, dtype=complex), weights=np.ones(4))
    arrays[field] = value
    with pytest.raises(ValueError, match=message):
        SpectralState(**arrays)


def test_superposition_stays_positive_energy(s1_state):
    assert float(s1_state.energies.min()) >= s1_state.mass > 0


def test_concurrent_evaluation_is_pure(s1_state):
    from concurrent.futures import ThreadPoolExecutor

    events = [Event(0.1 * k, 0.05 * k - 1.0) for k in range(40)]
    serial = [evaluate_psi(s1_state, e) for e in events]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda e: evaluate_psi(s1_state, e), events))
    assert serial == threaded


def _lattice_columns(state, m):
    # m coefficient columns built from the state: psi, its derivatives, the NW row
    cols = [state.amplitudes, -1j * state.energies * state.amplitudes,
            -1j * state.momenta * state.amplitudes, np.sqrt(state.energies) * state.amplitudes,
            state.momenta * state.amplitudes, state.energies * state.amplitudes]
    return np.stack(cols[:m], axis=-1)


@pytest.mark.parametrize("m", [1, 3, 6])
@pytest.mark.parametrize("n", [2, 97, 400, 20001])
def test_lattice_kernel_matches_array_path(s1_state, n, m):
    coeffs = _lattice_columns(s1_state, m)
    grid = uniform_lattice(-8.0, 8.0, n)
    fine, _, coarse, _ = grid
    assert np.size(grid) == n > (coarse.size - 1) * fine.size
    xs = (coarse[:, None] + fine[None, :]).ravel()[:n]
    np.testing.assert_allclose(xs, np.linspace(-8.0, 8.0, n), rtol=0, atol=1e-14)
    for t in (0.0, 2.5):
        lattice = _plane_wave_sum(s1_state, t, grid, coeffs)
        direct = _plane_wave_sum(s1_state, t, xs, coeffs)
        assert lattice.shape == direct.shape == (n, m)
        peak = np.abs(direct).max(axis=0)
        assert np.all(np.abs(lattice - direct).max(axis=0) <= 1e-13 * peak)


def _stencil(x, dt, dx):
    """Every event x shifted by every offset (dt, dx): a Lattice of all its points."""
    return Lattice(x, dt, dx, dt.size * x.size)


def _stencil_points(t, stencil):
    """The stencil's points as flat (times, positions), offset-major."""
    t, x, dt, dx = np.broadcast_to(t, stencil.x.shape), stencil.x, stencil.dt, stencil.dx
    return (t + dt[:, None]).ravel(), (x + dx[:, None]).ravel()


@pytest.mark.parametrize("t", [np.array([-1.0, 0.0, 0.5, 1.5, 1.9]), 0.7])
def test_stencil_matches_array_path(s1_state, t):
    # Richardson-sized offsets and two wide ones, about events across the packets
    stencil = _stencil(np.array([-4.0, 0.3, 2.0, 6.0, -0.5]), np.array([0.0, 1e-3, 0.0, 0.3, -0.8]),
                       np.array([0.0, 0.0, -5e-4, -0.7, 1.1]))
    ts, xs = _stencil_points(t, stencil)
    assert np.size(stencil) == stencil.size == ts.size == 25
    outcome = make_final_outcome(np.linspace(-2.0, 4.0, 5), 3.0, s1_state)
    for evaluate, shape in ((current_grid, (25,)), (
            lambda s, t, xs: conditional_current_grid(s, outcome, t, xs), (25, 5))):
        for got, ref in zip(evaluate(s1_state, t, stencil), evaluate(s1_state, ts, xs)):
            assert got.shape == ref.shape == shape
            assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref).max(axis=0))


def test_stencil_checks_every_point(s1_state):
    outcome = make_final_outcome(np.array([0.0, 1.0]), 2.0, s1_state)
    t, x = np.array([1.9, 0.0]), np.array([80.0, -1.0])
    # every point lies within the resolvable range of 83.9 and at or before T = 2,
    # though the largest |x|, |dx|, |t| and |dt| add up past the range
    inside = _stencil(x, np.array([0.0, 0.05, -0.3]), np.array([0.0, -5.0, 2.0]))
    assert 80.0 + 5.0 + 1.9 + 0.3 > 83.9
    current_grid(s1_state, t, inside)
    conditional_current_grid(s1_state, outcome, t, inside)
    # only an offset's point passes the range: x = 80 + 4.5 at t = 1.9
    with pytest.raises(DomainError, match="beyond resolvable range 83.9"):
        current_grid(s1_state, t, _stencil(x, np.zeros(2), np.array([0.0, 4.5])))
    # only an offset's point passes T: t = 1.9 + 0.2
    late = _stencil(np.array([0.0, -1.0]), np.array([0.0, 0.2]), np.zeros(2))
    with pytest.raises(CausalOrderError, match="after measurement time 2.0"):
        conditional_current_grid(s1_state, outcome, t, late)


def _floats(lo, hi, size):
    return st.lists(st.floats(lo, hi), min_size=size, max_size=size).map(np.array)


@st.composite
def _lattices(draw):
    """(t, Lattice) near s1's packets: events within them, offsets that may pass T or the range."""
    n_e, n_off = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    x = draw(_floats(-6.0, 6.0, n_e))
    dt, dx = draw(_floats(-2.5, 2.5, n_off)), draw(_floats(-90.0, 90.0, n_off))
    # the first offset is the events themselves, which hold the evaluation's peak
    lattice = Lattice(x, np.r_[0.0, dt], np.r_[0.0, dx], draw(st.integers(1, (n_off + 1) * n_e)))
    t = draw(st.floats(-2.0, 2.0) | _floats(-2.0, 2.0, n_e))
    return t, lattice


def _raised(evaluate):
    """evaluate()'s result, or the type of the DomainError or CausalOrderError it raised."""
    try:
        return evaluate()
    except (DomainError, CausalOrderError) as err:
        return type(err)


@pytest.fixture(scope="module")
def s1_outcomes(s1_state):
    # two outcomes at T = 2, which a lattice's offsets may pass
    return make_final_outcome(np.array([-1.0, 2.0]), 2.0, s1_state)


# one column folds into the offset table (m < n_e); six take the product table
@pytest.mark.parametrize("m", [1, 6])
@given(drawn=_lattices())
def test_lattice_evaluates_its_points(s1_state, s1_outcomes, m, drawn):
    t, lattice = drawn
    ts, xs = _stencil_points(t, lattice)
    ts, xs = ts[: lattice.n], xs[: lattice.n]
    coeffs = _lattice_columns(s1_state, m)
    for evaluate in (lambda t, xs: _plane_wave_sum(s1_state, t, xs, coeffs),
                     lambda t, xs: weighted_integrand_grid(s1_state, s1_outcomes, t, xs)):
        got, ref = _raised(lambda: evaluate(t, lattice)), _raised(lambda: evaluate(ts, xs))
        if isinstance(ref, type) or isinstance(got, type):
            assert got is ref
            continue
        for got, ref in zip(got, ref) if isinstance(ref, tuple) else [(got, ref)]:
            assert got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref).max(axis=0))


def test_lattice_kernel_gauss_panels(s1_state):
    grid, w = gauss_lattice(-30.0, 34.0, 160, 16)
    xs, w_ref = gauss_panels(-30.0, 34.0, 160, 16)
    # one common half-width against half-widths of rounded linspace edges
    np.testing.assert_allclose(w, w_ref, rtol=1e-13, atol=0)
    offsets, _, mid, n = grid
    assert n == np.size(grid) == xs.size
    np.testing.assert_allclose((mid[:, None] + offsets[None, :]).ravel(), xs, rtol=0, atol=1e-13)
    coeffs = _lattice_columns(s1_state, 1)[:, 0]
    lattice = _plane_wave_sum(s1_state, 1.5, grid, coeffs)
    direct = _plane_wave_sum(s1_state, 1.5, xs, coeffs)
    assert lattice.shape == direct.shape == xs.shape
    assert np.abs(lattice - direct).max() <= 1e-13 * np.abs(direct).max()
    with pytest.raises(ValueError, match="scalar t or one t per event"):
        _plane_wave_sum(s1_state, np.array([0.0, 1.0]), grid, coeffs)
    for size in (n + 1, 0):  # an empty lattice has no n-th position to range-check
        with pytest.raises(ValueError, match="at most"):
            _plane_wave_sum(s1_state, 1.5, grid._replace(n=size), coeffs)
    with pytest.raises(ValueError, match="at least 2"):
        uniform_lattice(0.0, 1.0, 1)
    # a plain tuple is still a sequence of positions
    assert np.array_equal(psi_grid(s1_state, 1.5, (0.5, 2.0)), psi_grid(s1_state, 1.5, [0.5, 2.0]))


@pytest.mark.parametrize("m", [16, 126])
@pytest.mark.parametrize("n", [2, 97, 2640])
def test_lattice_product_table_matches_array_path(s1_state, n, m):
    # 16 fine offsets never exceed m, so every case takes the product table;
    # n = 2640 fills 165 panels exactly, 97 and 2 leave 15 and 14 surplus points
    grid = gauss_lattice(-30.0, 34.0, -(-n // 16), 16)[0]._replace(n=n)
    fine, _, coarse, _ = grid
    assert fine.size <= m and coarse.size * fine.size - n == {2: 14, 97: 15, 2640: 0}[n]
    xs = (coarse[:, None] + fine[None, :]).ravel()[:n]
    # the columns: m outcome rows peaked across the lattice's own span
    outcomes = make_final_outcome(np.linspace(xs[0], xs[-1], m), 2.0, s1_state)
    coeffs = outcomes.backward_state.amplitudes.T
    for t in (0.0, 1.5):
        lattice = _plane_wave_sum(s1_state, t, grid, coeffs)
        direct = _plane_wave_sum(s1_state, t, xs, coeffs)
        assert lattice.shape == direct.shape == (n, m)
        peak = np.abs(direct).max(axis=0)
        assert np.all(np.abs(lattice - direct).max(axis=0) <= 1e-13 * peak)
