"""Graph Fourier transform and uniform scalar quantization.

The eigenbases are orthonormal, so one quantizer step bounds the error of
every coefficient alike.  Rounding is half-away-from-zero.  Grouped
members are always coded as integer residuals against
:func:`predict_signal`, which reconstruct their coded signals exactly.

Each vector's transform and inverse transform is one BLAS matrix-vector
product (gemv) with its basis, so encoder and decoder round it alike.  A
(k, n) stack of vectors runs as one ``np.matmul`` over (k, n, 1) columns,
one gemv per vector, bit-equal to k separate calls.  Folding the vectors
into one matrix product (gemm, ``V @ F.T``) is not allowed: it rounds
differently at almost every n (71 of 75 sizes from 1 to 511 measured).
"""

import numpy as np

from .entropy import SYMBOL_LIMIT
from .util import round_half_away_int


def _apply(matrix, x, what):
    """``matrix @ v`` for an n x n ``matrix`` and a vector v of length n,
    or for every row v of a (k, n) stack, as one ``np.matmul``."""
    x = np.asarray(x, dtype=np.float64)
    n = matrix.shape[0]
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise ValueError(f"{what} length {x.shape} does not match basis dim {n}")
    return np.matmul(matrix, x[..., None])[..., 0]


def gft(basis, f) -> np.ndarray:
    """Forward transform: project a graph signal, or each row of a (k, n)
    stack of them, onto the eigenbasis."""
    return _apply(basis.vectors.T, f, "signal")


def igft(basis, coeffs) -> np.ndarray:
    """Inverse transform: synthesize a signal from coefficients, or one
    per row of a (k, n) stack of them."""
    return _apply(basis.vectors, coeffs, "coefficient")


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
    """Round-and-clamp inverse transform used on both codec sides, of one
    coefficient vector or of each row of a (k, n) stack."""
    rec = round_half_away_int(igft(basis, coeffs))
    return np.minimum(np.maximum(rec, 0, out=rec), sample_max, out=rec)
