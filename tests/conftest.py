"""Shared scene builders for codec tests."""

import numpy as np
import pytest

from srgc.lightfield import DisparityMap, LightField, View, SceneSpec, Patch, synthesize_light_field


def make_lf(arrays, angular_dims, bit_depth=8):
    """LightField from a list of per-view 2D (or list-of-plane) arrays."""
    views = []
    dtype = np.uint8 if bit_depth == 8 else np.uint16
    for a in arrays:
        planes = a if isinstance(a, list) else [a]
        views.append(View(planes=[np.asarray(p, dtype=dtype) for p in planes]))
    return LightField(views=views, angular_dims=angular_dims, bit_depth=bit_depth)


def random_lf(s, t, w, h, bit_depth=8, seed=0, channels=1):
    rng = np.random.default_rng(seed)
    maxval = (1 << bit_depth) - 1
    arrays = [
        [rng.integers(0, maxval, size=(h, w), endpoint=True) for _ in range(channels)]
        for _ in range(s * t)
    ]
    return make_lf(arrays, (s, t), bit_depth)


def four_patch_scene(size=64, views=3, patch=16, seed=11):
    """The eigen-count gate scene: four identical noise patches aligned to
    the corner cells of a 4x4 SLIC grid on a flat background."""
    spec = SceneSpec(
        angular_dims=(views, views),
        spatial_dims=(size, size),
        bit_depth=8,
        background=64,
        seed=seed,
    )
    hi = size - patch
    for x0, y0 in ((0, 0), (hi, 0), (0, hi), (hi, hi)):
        spec.patches.append(
            Patch(
                shape="rect",
                params=(x0, y0, patch, patch),
                disparity=0.0,
                texture=("noise", 140, 230, 555),
            )
        )
    return synthesize_light_field(spec)


def connected_components(n, edges):
    """Oracle: flood-fill component labels (0-based, by smallest vertex),
    the reference count for zero-eigenvalue multiplicity checks."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[int(a)].append(int(b))
        adj[int(b)].append(int(a))
    comp = np.full(n, -1, dtype=np.int64)
    cid = 0
    for start in range(n):
        if comp[start] >= 0:
            continue
        stack = [start]
        comp[start] = cid
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if comp[u] < 0:
                    comp[u] = cid
                    stack.append(u)
        cid += 1
    return comp, cid


@pytest.fixture
def flat_dmap():
    def _make(w, h, value=0.0):
        return DisparityMap(values=np.full((h, w), value))

    return _make
