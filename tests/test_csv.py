from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from kgflow import _csv


def g17(values):
    """format_g17's cells for a flat list of floats, one a line."""
    cells = _csv.format_g17(np.asarray(values, dtype=np.float64).reshape(-1, 1), b"\n").ravel()
    return cells[cells != 0].tobytes()


def percent(values):
    return "".join("%.17g\n" % x for x in np.asarray(values, dtype=np.float64).tolist()).encode()


def neighbours(values, ulps=3):
    """Each value and the ulps doubles on either side of it."""
    out = [np.asarray(values, dtype=np.float64)]
    for direction in (0.0, np.inf):
        step = out[0]
        for _ in range(ulps):
            step = np.nextafter(step, direction)
            out.append(step)
    return np.concatenate(out)


def powers_of_ten(lo, hi):
    # float("1e-5") is the double nearest 10^-5; 10.0 ** -5 need not be
    return np.array([float(f"1e{k}") for k in range(lo, hi + 1)])


def test_every_binary_exponent():
    rng = np.random.default_rng(22)
    exps = np.arange(-1074, 1024)
    for _ in range(8):
        values = np.ldexp(1.0 + rng.random(exps.size), exps) * rng.choice([-1.0, 1.0], exps.size)
        assert g17(values) == percent(values)


def test_powers_of_ten_and_their_neighbours():
    values = neighbours(powers_of_ten(-30, 30))
    assert g17(values) == percent(values)
    assert g17(-values) == percent(-values)


def test_notation_switch_points():
    # %g turns to the exponent form below 1e-4 and from 1e17 on
    values = neighbours([1e-5, 1e-4, 1e16, 1e17], ulps=20)
    assert g17(values) == percent(values)
    assert g17(-values) == percent(-values)


def test_digits_that_carry_into_the_next_decade():
    # each double lies below its power of ten by less than half a unit in the
    # 17th digit, so its 17 correctly rounded digits carry to 1e+k; the
    # array path certifies such cells only where longdouble holds 10^30 exactly
    exps = [-305, -243, -176, -79, -73, -70, -14, 98, 129, 153, 220]
    carried = [float(f"1e{k}") for k in exps]
    assert all(Fraction(x) < Fraction(10) ** k for x, k in zip(carried, exps))
    assert g17(carried) == b"".join(b"1e%+03d\n" % k for k in exps)
    values = neighbours(np.r_[carried, powers_of_ten(-12, 18)], ulps=12)
    assert g17(values) == percent(values)
    assert g17(-values) == percent(-values)


def test_special_values():
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
              1.7976931348623157e308, -1.7976931348623157e308, np.nan, np.inf, -np.inf,
              1e15 + 0.25, 1e15 + 0.75, 0.5, 2.5, 2.0**53, 2.0**53 + 2, *range(-20, 101)]
    assert g17(values) == percent(values)


@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_any_float(values):
    assert g17(values) == percent(values)


def test_columns_take_their_separators():
    values = np.array([[0.5, -2e-7, np.nan], [1e300, 3.0, 1 / 3]])
    cells = _csv.format_g17(values, b",;\n").ravel()
    assert cells[cells != 0].tobytes() == (
        b"0.5,-1.9999999999999999e-07;nan\n1.0000000000000001e+300,3;0.33333333333333331\n"
    )


def _templates_of_padding(monkeypatch):
    """Lay out every cell the array path certifies as no bytes, its separator included."""
    pad = _csv._TEMPLATES[0, -1]
    monkeypatch.setattr(_csv, "_TEMPLATES", np.full_like(_csv._TEMPLATES, pad))


def test_most_cells_take_the_array_path(monkeypatch):
    values = np.random.default_rng(7).standard_normal(4096)
    _templates_of_padding(monkeypatch)
    # 0.2-0.4% of unit normals fall back: the product 10^k |x|, whose ulp is 2^-10
    # to 2^-7, lands on W + 1/2 once in 1024 to 128 cells
    assert g17(values).count(b"\n") <= 0.01 * values.size


def test_forced_fallback_is_exact(monkeypatch):
    """With the array path off every cell is Python's own, as where longdouble is float64."""
    rng = np.random.default_rng(8)
    values = np.r_[rng.standard_normal(2000), neighbours(powers_of_ten(-12, 18)), 0.0, np.nan]
    monkeypatch.setattr(_csv, "_ARRAY_PATH", False)
    _templates_of_padding(monkeypatch)
    assert g17(values) == percent(values)

