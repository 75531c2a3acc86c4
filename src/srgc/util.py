"""Small numeric helpers shared across the codec.

The rounding convention is round-half-away-from-zero everywhere, fixed so
that an encoder and a decoder built from this source always agree bit for
bit.
"""

import math

import numpy as np


def round_half_away(x):
    """Round a scalar to the nearest int, halves away from zero."""
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def round_half_away_int(x):
    """Array variant of :func:`round_half_away` returning int64."""
    a = np.asarray(x, dtype=np.float64)
    return np.copysign(np.floor(np.abs(a) + 0.5), a).astype(np.int64)


def ranges(starts, lengths):
    """The runs ``starts[i] + arange(lengths[i])`` of every i, back to back,
    as one int array."""
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(np.asarray(starts) - ends + lengths, lengths)


def forest_roots(parent):
    """Every node's root in a pointer forest, where ``parent`` is an int
    array and each root is its own parent: pointer jumping, each round
    replacing every pointer by its parent's until nothing moves."""
    parent = np.asarray(parent)
    up = parent[parent]
    while not np.array_equal(up, parent):
        parent, up = up, up[up]
    return parent


def component_roots(n, a, b):
    """Smallest vertex of every vertex's connected component in the graph
    on 0..n-1 with edges (a[k], b[k]).

    Union-find in array rounds (Shiloach & Vishkin 1982): each round hooks
    the larger root of every edge that still joins two trees onto the
    smallest root it meets, compresses every path with
    :func:`forest_roots`, and drops the edges inside one tree.  Hooks only
    point to smaller vertices, so each component's root is its smallest
    vertex, and the trees of a component at least halve per round.
    """
    root = np.arange(n)
    while a.size:
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        root = forest_roots(root)
        a, b = root[a], root[b]
        joins = a != b
        a, b = a[joins], b[joins]
    return root
