"""Graph Fourier transform, 1-D DCT and uniform scalar quantization.

All transforms are orthonormal so one quantizer step means the same thing
for GFT and DCT coefficients.  Rounding is half-away-from-zero.
"""

import numpy as np
from scipy.fft import dct as _scipy_dct, idct as _scipy_idct

from .util import round_half_away_int


def gft(basis, f) -> np.ndarray:
    """Forward transform: project a graph signal onto the eigenbasis."""
    f = np.asarray(f, dtype=np.float64)
    n = basis.vectors.shape[0]
    if f.shape != (n,):
        raise ValueError(f"signal length {f.shape} does not match basis dim {n}")
    return basis.vectors.T @ f


def igft(basis, coeffs) -> np.ndarray:
    """Inverse transform: synthesize a signal from coefficients."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n = basis.vectors.shape[0]
    if coeffs.shape != (n,):
        raise ValueError(f"coefficient length {coeffs.shape} does not match basis dim {n}")
    return basis.vectors @ coeffs


def dct1d(x) -> np.ndarray:
    """Orthonormal DCT-II of a 1-D vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("dct1d expects a non-empty 1-D vector")
    return _scipy_dct(x, type=2, norm="ortho")


def idct1d(x) -> np.ndarray:
    """Orthonormal DCT-III (inverse of :func:`dct1d`)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("idct1d expects a non-empty 1-D vector")
    return _scipy_idct(x, type=2, norm="ortho")


def quantize(x, q) -> np.ndarray:
    """Uniform scalar quantization: the int64 levels round-half-away(x / q);
    ``q`` is one step or an array of per-entry steps."""
    q = np.asarray(q, dtype=np.float64)
    if (q <= 0).any():
        raise ValueError("quantizer step must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return round_half_away_int(x / q)


def predict_signal(basis, coeffs, sample_max):
    """Round-and-clamp inverse transform used on both codec sides."""
    return np.clip(round_half_away_int(igft(basis, coeffs)), 0, sample_max)
