"""Small numeric helpers shared across the codec.

The rounding convention is round-half-away-from-zero everywhere; medians
are lower medians.  Both are fixed so that an encoder and a decoder built
from this source always agree bit for bit.
"""

import math

import numpy as np


def round_half_away(x):
    """Round a scalar to the nearest int, halves away from zero."""
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def round_half_away_int(x):
    """Array variant of :func:`round_half_away` returning int64."""
    a = np.asarray(x, dtype=np.float64)
    return (np.sign(a) * np.floor(np.abs(a) + 0.5)).astype(np.int64)


def lower_median(values):
    """Lower statistical median: for even counts the smaller of the two
    middle values, so the result is always an observed value."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0:
        raise ValueError("median of empty sequence")
    return float(v[(v.size - 1) // 2])


def quantize_eighth(d):
    """Snap a disparity to 1/8-pixel precision (transmission precision)."""
    return round_half_away(float(d) * 8.0) / 8.0
