"""GFT/I-GFT and quantizer contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srgc.spectral import LocalGraph, eigendecompose, laplacian
from srgc.transform import gft, igft, quantize


def ring_basis(n, seed=0):
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % n) for i in range(n)]
    extra = {(int(a), int(b)) for a, b in rng.integers(0, n, size=(n, 2)) if a != b}
    all_edges = sorted({(min(a, b), max(a, b)) for a, b in edges} | {
        (min(a, b), max(a, b)) for a, b in extra
    })
    g = LocalGraph(n=n, edges=np.array(all_edges, dtype=np.int64))
    return eigendecompose(laplacian(g))


class TestGft:
    def test_constant_signal_is_dc_only(self):
        n = 10
        basis = ring_basis(n)
        c = gft(basis, np.full(n, 5.0))
        assert c[0] == pytest.approx(5.0 * np.sqrt(n), abs=1e-9)
        assert np.abs(c[1:]).max() < 1e-9

    def test_zero_signal(self):
        basis = ring_basis(6)
        assert np.abs(gft(basis, np.zeros(6))).max() == 0.0

    def test_parseval(self):
        rng = np.random.default_rng(5)
        basis = ring_basis(16, seed=2)
        for _ in range(20):
            f = rng.normal(size=16)
            c = gft(basis, f)
            assert np.linalg.norm(c) == pytest.approx(
                np.linalg.norm(f), abs=1e-9
            )

    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        basis = ring_basis(12, seed=3)
        f = rng.normal(size=12) * 100
        back = igft(basis, gft(basis, f))
        assert np.abs(back - f).max() <= 1e-9 * max(1.0, np.abs(f).max())

    def test_unit_coefficient_gives_constant(self):
        n = 9
        basis = ring_basis(n, seed=4)
        e0 = np.zeros(n)
        e0[0] = 1.0
        f = igft(basis, e0)
        assert f == pytest.approx(np.full(n, 1 / np.sqrt(n)), abs=1e-9)

    def test_cross_basis_differs(self):
        rng = np.random.default_rng(7)
        a = ring_basis(8, seed=5)
        b = ring_basis(8, seed=6)
        f = rng.normal(size=8)
        cross = igft(a, gft(b, f))
        same = igft(b, gft(b, f))
        assert np.abs(same - f).max() < 1e-9
        assert np.abs(cross - f).max() > 1e-6  # generally a real prediction error

    def test_dimension_mismatch(self):
        basis = ring_basis(5)
        with pytest.raises(ValueError):
            gft(basis, np.zeros(4))
        with pytest.raises(ValueError):
            igft(basis, np.zeros(4))


class TestQuantize:
    def test_half_up(self):
        levels = quantize(np.array([7.6]), 2.0)
        assert levels.tolist() == [4]
        assert (levels * 2.0).tolist() == [8.0]

    def test_half_away_from_zero(self):
        levels = quantize(np.array([-1.0]), 2.0)
        assert levels.tolist() == [-1]
        assert (levels * 2.0).tolist() == [-2.0]

    def test_error_bound_large_sample(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1e4, 1e4, size=100_000)
        for q in (0.5, 1.0, 3.7):
            err = np.abs(quantize(x, q) * q - x)
            assert err.max() <= q / 2 + 1e-12

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=32),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_error_bound_property(self, xs, q):
        x = np.array(xs)
        err = np.abs(quantize(x, q) * q - x)
        assert err.max() <= q / 2 + 1e-9 * max(1.0, np.abs(x).max())

    def test_bad_step(self):
        with pytest.raises(ValueError):
            quantize(np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            quantize(np.zeros(3), -1.0)
