"""Graph Fourier transform, 1-D DCT and uniform scalar quantization.

All transforms are orthonormal so one quantizer step means the same thing
for GFT and DCT coefficients.  Rounding is half-away-from-zero.
"""

import numpy as np

from .entropy import SYMBOL_LIMIT
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
    """Orthonormal DCT-II of a 1-D vector, by ``scipy.fft``, which is
    imported here so that only streams with DCT residuals load scipy."""
    from scipy.fft import dct

    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("dct1d expects a non-empty 1-D vector")
    return dct(x, type=2, norm="ortho")


def idct1d(x) -> np.ndarray:
    """Orthonormal DCT-III (inverse of :func:`dct1d`), by ``scipy.fft``,
    imported on first use like in :func:`dct1d`."""
    from scipy.fft import idct

    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("idct1d expects a non-empty 1-D vector")
    return idct(x, type=2, norm="ortho")


def quantize(x, q) -> np.ndarray:
    """Uniform scalar quantization: the int64 levels round-half-away(x / q);
    ``q`` is one step or an array of per-entry steps.  Raises ValueError,
    naming the step, before any level is cast when a level would not be
    finite or would reach the entropy coder's limit of 2**49."""
    q = np.asarray(q, dtype=np.float64)
    if (q <= 0).any():
        raise ValueError("quantizer step must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    with np.errstate(over="ignore"):
        ratio = x / q
    # |ratio| >= limit - 0.5 rounds to a level of magnitude >= limit; NaN fails too
    bad = ~(np.abs(ratio) < SYMBOL_LIMIT - 0.5)
    if bad.any():
        step = np.broadcast_to(q, ratio.shape)[bad][0]
        raise ValueError(f"quantizer step {step:g} gives levels of magnitude 2**49 or more")
    return round_half_away_int(ratio)


def predict_signal(basis, coeffs, sample_max):
    """Round-and-clamp inverse transform used on both codec sides."""
    return np.clip(round_half_away_int(igft(basis, coeffs)), 0, sample_max)
