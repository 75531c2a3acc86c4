"""Coarsened super-ray grouping: pairwise coefficient MSE, histogram
threshold, threshold-graph components, main selection, prediction.

The grouping walk:

1. Every pair of coarsened coefficient vectors gets an MSE weight
   (mean over the common dimension).
2. A fixed-width histogram of the weights picks the threshold: the upper
   edge of the lowest bin attaining the maximum pair count.
3. Pairs with mse <= threshold are the edges of a graph over the m
   indices; each index's 1-level set is its closed neighbourhood.
4. The groups are the connected components of that graph (1-level sets
   merged transitively), isolated indices dropped: listed by smallest
   member, members ascending.
5. Each group's main member is the one nearest (L2) to the elementwise
   lower-median signal, ties to the smallest index.

Only the encoder runs steps 1-5 (``codec.encode`` calls
:func:`derive_group_members` and :func:`select_main`); the stream carries
the groups and their mains, so the decoder derives nothing.  Grouped
members are reconstructed through the main member's eigenbasis; the
integer residual against the rounded cross-basis prediction makes that
reconstruction exact.
"""

from dataclasses import dataclass

import numpy as np

from .transform import predict_signal
from .util import component_roots, round_half_away_int

_BIN_LIMIT = 2.0**62  # histogram bin indices stay well inside int64


@dataclass
class SuperRayGroup:
    members: tuple
    main_index: int


@dataclass
class GroupSet:
    groups: list
    ungrouped: tuple
    mse_threshold: float      # None where the groups were read from a stream

    @classmethod
    def over(cls, groups, m, threshold):
        """The GroupSet of ``groups`` over positions 0..m-1: ``ungrouped``
        lists, ascending, the positions that belong to no group."""
        grouped = {i for g in groups for i in g.members}
        ungrouped = tuple(i for i in range(m) if i not in grouped)
        return cls(groups=groups, ungrouped=ungrouped, mse_threshold=threshold)


def pairwise_mse(coeff_vectors) -> np.ndarray:
    """MSE between every pair of equal-length coefficient vectors, as the
    condensed upper triangle over the C(m, 2) index pairs: the pair i < j
    sits at i*m - i*(i+1)/2 + (j - i - 1)."""
    arrays = [np.asarray(c, dtype=np.float64) for c in coeff_vectors]
    m = len(arrays)
    if m == 0:
        return np.zeros(0)
    n = arrays[0].size
    for a in arrays:
        if a.size != n:
            raise ValueError(
                "coefficient vectors must share one dimension "
                f"(got {a.size} vs {n}); coarsening contract violated"
            )
    x = np.stack(arrays)
    out = np.empty(m * (m - 1) // 2, dtype=np.float64)
    pos = 0
    for i in range(m - 1):
        d = x[i + 1 :] - x[i]
        out[pos : pos + m - 1 - i] = (d * d).mean(axis=1)
        pos += m - 1 - i
    return out


def select_threshold(weights, bin_width) -> float:
    """Histogram rule over :func:`pairwise_mse`'s ``weights``: fixed bins
    [k*w, (k+1)*w); the threshold is the upper edge of the lowest-index
    bin with the maximum pair count.  Raises ValueError when a pair's bin
    index is not finite or reaches 2**62, before any index is cast to
    int64."""
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    if weights.size == 0:
        raise ValueError("threshold needs at least one pair")
    with np.errstate(over="ignore"):
        quotients = weights / bin_width
    if not (quotients < _BIN_LIMIT).all():
        raise ValueError(
            f"bin width {bin_width:g} puts a pair MSE of {weights.max():.3g} "
            "in a bin of index 2**62 or more"
        )
    bins = np.floor(quotients).astype(np.int64)
    occupied, counts = np.unique(bins, return_counts=True)
    best = int(occupied[counts == counts.max()].min())  # lowest bin wins ties
    return float((best + 1) * bin_width)


def select_main(group, signals) -> int:
    """Member whose signal is L2-nearest to the elementwise lower median of
    the group's signals; ties to the smallest index."""
    members = sorted(group)
    if len(members) < 2:
        raise ValueError("main selection needs at least 2 members")
    stack = np.stack([np.asarray(signals[i], dtype=np.float64) for i in members])
    srt = np.sort(stack, axis=0)
    median = srt[(len(members) - 1) // 2]
    dists = np.linalg.norm(stack - median, axis=1)
    return members[int(np.argmin(dists))]  # argmin: first (smallest index) wins


def predict_and_residual(main_basis, member_coeffs, member_signal, sample_max):
    """Cross-basis prediction and its exact integer residual.

    predicted = clamp(round(U_main @ coeffs)); residual = signal - predicted.
    """
    coeffs = np.asarray(member_coeffs, dtype=np.float64)
    signal = np.asarray(member_signal)
    n = main_basis.vectors.shape[0]
    if coeffs.shape != (n,) or signal.shape != (n,):
        raise ValueError("prediction dimension mismatch")
    predicted = predict_signal(main_basis, coeffs, sample_max)
    residual = round_half_away_int(signal) - predicted
    return predicted, residual


def derive_group_members(coeffs, bin_width=5.0):
    """Membership half of the grouping pass: (groups, threshold).

    The groups are the connected components of the graph whose edges are
    the pairs with mse <= threshold, isolated indices dropped, ordered by
    smallest member with members ascending.  Only the linked condensed
    indices become edges: index k lies in row i of the upper triangle,
    whose row starts at i*m - i*(i+1)/2.
    """
    m = len(coeffs)
    if m < 2:
        return [], 0.0
    weights = pairwise_mse(coeffs)
    threshold = select_threshold(weights, bin_width)
    k = np.flatnonzero(weights <= threshold)
    rows = np.arange(m)
    starts = rows * m - rows * (rows + 1) // 2
    i = np.searchsorted(starts, k, side="right") - 1
    j = k - starts[i] + i + 1
    linked = np.flatnonzero(np.bincount(np.concatenate([i, j]), minlength=m))
    if not linked.size:
        return [], threshold
    # a stable sort of the ascending linked indices by their component's
    # smallest member lists the groups in order, members ascending
    key = component_roots(m, i, j)[linked]
    order = np.argsort(key, kind="stable")
    cuts = np.flatnonzero(np.diff(key[order])) + 1
    return [tuple(g.tolist()) for g in np.split(linked[order], cuts)], threshold
