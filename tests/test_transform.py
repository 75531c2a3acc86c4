"""GFT/I-GFT and quantizer contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srgc.spectral import EigenBasis, LocalGraph, eigendecompose, laplacian
from srgc.transform import gft, igft, predict_signal, quantize
from srgc.util import round_half_away_int


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


def _layouts(n, rng):
    """One orthonormal n x n matrix in three memory layouts: its own
    C-ordered array, rows gathered from a larger array, and the transpose
    of a C-ordered array (Fortran order)."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    big = rng.normal(size=(2 * n, n))
    big[::2] = q
    return {
        "own": q.copy(),
        "gathered": big[np.arange(0, 2 * n, 2)],
        "transposed": np.ascontiguousarray(q.T).T,
    }


class TestStackedTransforms:
    """A (k, n) stack runs one gemv per vector: every row has the bits of
    the per-vector products ``V.T @ f`` and ``V @ c``, never those of one
    matrix product over the stack."""

    @pytest.mark.parametrize("n", [*range(1, 71), 128, 255, 256, 511])
    def test_bit_equal_to_per_vector_calls(self, n):
        rng = np.random.default_rng(n)
        for vectors in _layouts(n, rng).values():
            basis = EigenBasis(eigenvalues=np.zeros(n), vectors=vectors)
            for k in (1, 3, 9):
                f = rng.normal(size=(k, n)) * 100
                c = rng.normal(size=(k, n)) * 100 + 128
                coeffs, synth = gft(basis, f), igft(basis, c)
                predicted = predict_signal(basis, c, 255)
                assert coeffs.shape == synth.shape == predicted.shape == (k, n)
                for i in range(k):
                    assert np.array_equal(coeffs[i], vectors.T @ f[i])
                    assert np.array_equal(coeffs[i], gft(basis, f[i]))
                    assert np.array_equal(synth[i], vectors @ c[i])
                    want = np.clip(round_half_away_int(vectors @ c[i]), 0, 255)
                    assert np.array_equal(predicted[i], want)
                    assert np.array_equal(predicted[i], predict_signal(basis, c[i], 255))

    def test_stack_shape_checked(self):
        basis = ring_basis(5)
        for bad in (np.zeros((3, 4)), np.zeros((3, 6)), np.zeros((2, 3, 5)), np.zeros(())):
            with pytest.raises(ValueError, match="does not match basis dim 5"):
                gft(basis, bad)
            with pytest.raises(ValueError, match="does not match basis dim 5"):
                igft(basis, bad)
            with pytest.raises(ValueError, match="does not match basis dim 5"):
                predict_signal(basis, bad, 255)
        assert gft(basis, np.zeros((0, 5))).shape == (0, 5)


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
