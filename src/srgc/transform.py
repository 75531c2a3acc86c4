"""Graph Fourier transform and uniform scalar quantization.

The eigenbases are orthonormal, so one quantizer step bounds the error of
every coefficient alike.  Rounding is half-away-from-zero.  Grouped
members are always coded as integer residuals against
:func:`predict_signal`, which reconstruct their coded signals exactly.
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
