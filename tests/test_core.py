import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprec.core import Grid, dft2_forward, dft2_inverse, require_finite


def random_series(grid, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return data


class TestGrid:
    def test_valid(self):
        g = Grid(4, 6, 3, dt=10.0)
        assert g.shape == (4, 6, 3)

    @pytest.mark.parametrize("kwargs", [
        dict(p=0, q=4, t=3),
        dict(p=4, q=0, t=3),
        dict(p=4, q=4, t=1),
        dict(p=4, q=4, t=3, dt=0.0),
        dict(p=4, q=4, t=3, dt=-1.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Grid(**kwargs)

    def test_echo_times(self):
        g = Grid(4, 4, 12, dt=10.0)
        te = g.echo_times()
        assert te[0] == 10.0 and te[-1] == 120.0 and len(te) == 12


class TestDft:
    def test_constant_frame(self):
        g = Grid(4, 4, 2)
        k = dft2_forward(np.ones(g.shape))
        frame = k[:, :, 0]
        assert frame[0, 0] == pytest.approx(4.0)
        off = frame.copy()
        off[0, 0] = 0
        assert np.abs(off).max() < 1e-14

    def test_impulse(self):
        g = Grid(4, 4, 2)
        data = np.zeros(g.shape)
        data[0, 0, :] = 1.0
        k = dft2_forward(data)
        assert np.allclose(k, 0.25, atol=1e-14)

    def test_inverse_of_dc(self):
        g = Grid(4, 4, 2)
        data = np.zeros(g.shape, dtype=complex)
        data[0, 0, :] = 4.0
        x = dft2_inverse(data)
        assert np.allclose(x, 1.0, atol=1e-14)

    def test_round_trip(self):
        g = Grid(8, 8, 3)
        x = random_series(g, seed=1)
        back = dft2_inverse(dft2_forward(x))
        err = np.linalg.norm(back - x) / np.linalg.norm(x)
        assert err < 1e-12

    def test_linearity_of_inverse(self):
        g = Grid(6, 5, 3)
        rng = np.random.default_rng(2)
        u = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        v = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        a, b = 1.7 - 0.3j, -0.4 + 2.2j
        lhs = dft2_inverse(a * u + b * v)
        rhs = a * dft2_inverse(u) + b * dft2_inverse(v)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(2, 9), st.integers(2, 9), st.integers(2, 5),
        st.integers(0, 2**31 - 1),
    )
    def test_round_trip_and_parseval_property(self, p, q, t, seed):
        g = Grid(p, q, t)
        x = random_series(g, seed=seed)
        k = dft2_forward(x)
        back = dft2_inverse(k)
        assert np.linalg.norm(back - x) <= 1e-12 * np.linalg.norm(x)
        for n in range(t):
            ex = np.linalg.norm(x[:, :, n]) ** 2
            ek = np.linalg.norm(k[:, :, n]) ** 2
            assert abs(ex - ek) <= 1e-10 * ex

    def test_rejects_non_finite_with_index(self):
        g = Grid(4, 4, 2)
        data = np.ones(g.shape, dtype=complex)
        data[2, 1, 1] = np.nan
        with pytest.raises(ValueError, match=r"series contains a non-finite value .*\(2, 1, 1\)"):
            require_finite("series", data)
