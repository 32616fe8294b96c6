import numpy as np
import pytest
from hypothesis import given, strategies as st

from jamlab import GridSpec


def test_basic_layout():
    g = GridSpec(half_width=10.0, num_points=256)
    assert g.dx == pytest.approx(20.0 / 256)
    assert g.domega == pytest.approx(np.pi / 10.0)
    assert g.x[128] == 0.0
    assert g.omega[128] == 0.0


@given(st.sampled_from([64, 128, 256, 1024, 4096]),
       st.floats(0.1, 1e3, allow_nan=False))
def test_grids_symmetric_about_zero(n, L):
    g = GridSpec(half_width=L, num_points=n)
    assert g.x[n // 2] == 0.0
    # every point except the leftmost has its mirror on the grid
    np.testing.assert_allclose(g.x[1:], -g.x[1:][::-1], atol=1e-12 * L)
    np.testing.assert_allclose(g.omega[1:], -g.omega[1:][::-1], atol=1e-12)
    assert g.dx * n == pytest.approx(2 * L)
    # frequency grid is dual to the signal grid
    assert g.domega * g.dx == pytest.approx(2 * np.pi / n)


@pytest.mark.parametrize("n", [32, 63, 100, 4095])
def test_rejects_bad_point_counts(n):
    with pytest.raises(ValueError):
        GridSpec(half_width=1.0, num_points=n)


def test_rejects_bad_half_width():
    with pytest.raises(ValueError):
        GridSpec(half_width=0.0)
    with pytest.raises(ValueError):
        GridSpec(half_width=-3.0)


def test_arrays_immutable():
    g = GridSpec(half_width=1.0, num_points=64)
    with pytest.raises(ValueError):
        g.x[0] = 99.0


@given(st.sampled_from([64, 256, 1024, 4096, 8192]),
       st.floats(0.1, 1e3, allow_nan=False),
       st.integers(0, 2**32 - 1))
def test_lookup_matches_interp(n, L, seed):
    g = GridSpec(half_width=L, num_points=n)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
    x = rng.uniform(g.x[0], g.x[-1], size=1000)
    np.testing.assert_allclose(g.lookup(x, values), np.interp(x, g.x, values),
                               rtol=0, atol=1e-14 * np.max(np.abs(values)))


@given(st.sampled_from([64, 1024, 8192]), st.floats(0.1, 1e3, allow_nan=False),
       st.floats(1.0, 1e6, allow_nan=False))
def test_lookup_end_values_exact(n, L, beyond):
    g = GridSpec(half_width=L, num_points=n)
    values = np.cos(g.x / L) + g.x / L
    x = np.array([-L, -L * beyond, -np.inf, L, L * beyond, np.inf])
    out = g.lookup(x, values)
    assert np.all(out[:3] == values[0])
    assert np.all(out[3:] == values[-1])


@given(st.sampled_from([64, 1024, 8192]), st.floats(0.1, 1e3, allow_nan=False))
def test_lookup_propagates_nan(n, L):
    g = GridSpec(half_width=L, num_points=n)
    values = np.tanh(g.x)
    out = g.lookup(np.array([np.nan, 0.0, np.nan]), values)
    assert np.isnan(out[0]) and np.isnan(out[2])
    assert out[1] == values[n // 2]
