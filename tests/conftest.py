import numpy as np
import pytest
from hypothesis import settings

from kgflow import GridSpec, load_scenario, make_gaussian_packet, superpose
from kgflow._quad import _legendre_rule
from kgflow.scenarios import build_state
from kgflow.states import Lattice

# property tests draw the same examples on every run, keep no example
# database, and have no per-example deadline on a loaded machine
settings.register_profile("kgflow", derandomize=True, database=None, deadline=None)
settings.load_profile("kgflow")


@pytest.fixture(scope="session")
def rest_packet():
    return make_gaussian_packet(1.0, 0.0, 0.25, 0.0, GridSpec(-3.0, 3.0))


@pytest.fixture(scope="session")
def narrow_boosted():
    # p_width / p0 = 0.016, deep in the plane-wave regime
    return make_gaussian_packet(1.0, 3.0, 0.05, 0.0, GridSpec(2.5, 3.5))


@pytest.fixture(scope="session")
def s1_state():
    grid = GridSpec(-1.6, 4.6)
    a = make_gaussian_packet(1.0, 3.0, 0.15, 0.0, grid)
    b = make_gaussian_packet(1.0, 0.0, 0.15, 0.0, grid)
    return superpose([a, b], [1.0, 1.5])


@pytest.fixture(scope="session")
def s1_scenario():
    return load_scenario("s1_negative_density")


@pytest.fixture(scope="session")
def s1_conditional_scenario():
    return load_scenario("s1_conditional")


@pytest.fixture(scope="session")
def rest_scenario():
    return load_scenario("single_rest")


@pytest.fixture(scope="session")
def boosted_scenario():
    return load_scenario("single_boosted")


@pytest.fixture(scope="session")
def bundled_states(s1_scenario, s1_conditional_scenario, rest_scenario, boosted_scenario):
    return {
        sc.name: build_state(sc)
        for sc in (s1_scenario, s1_conditional_scenario, rest_scenario, boosted_scenario)
    }


def gauss_lattice(lo, hi, panels, nodes_per_panel):
    """gauss_panels(lo, hi, panels, nodes_per_panel) as (Lattice, w).

    Equal panels share one half-width h, so the nodes are the panel
    midpoints plus the common offsets h x_i: a Lattice whose events are
    the offsets h x_i, shifted in x by each midpoint; nodes and weights
    match gauss_panels' to a few ulps.
    """
    base_x, base_w = _legendre_rule(nodes_per_panel)
    half = 0.5 * (hi - lo) / panels
    mid = lo + half * np.arange(1, 2 * panels, 2)
    lattice = Lattice(half * base_x, np.zeros(panels), mid, panels * nodes_per_panel)
    return lattice, np.tile(half * base_w, panels)


def two_plane_wave_extrema(amp1, e1, p1, amp2, e2, p2):
    """Density extrema of a two-plane-wave superposition over the relative phase.

    For psi = A1 exp(-i(E1 t - p1 x)) + A2 exp(-i(E2 t - p2 x)) the density is
    A1^2 E1 + A2^2 E2 + A1 A2 (E1 + E2) cos(phase), so the extrema follow
    from cos(phase) = -1 and +1.
    """
    cross = amp1 * amp2 * (e1 + e2)
    base = amp1 * amp1 * e1 + amp2 * amp2 * e2
    return base - cross, base + cross


def max_turn_deg(traj):
    events = traj.events
    worst = 0.0
    for k in range(1, len(events) - 1):
        d1 = np.array([events[k].t - events[k - 1].t, events[k].x - events[k - 1].x])
        d2 = np.array([events[k + 1].t - events[k].t, events[k + 1].x - events[k].x])
        d1 /= np.linalg.norm(d1)
        d2 /= np.linalg.norm(d2)
        worst = max(worst, float(np.degrees(np.arccos(np.clip(d1 @ d2, -1.0, 1.0)))))
    return worst
