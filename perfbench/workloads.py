"""Seeded light-field workloads for the benchmark.

Each workload is a scene generator plus the codec settings it runs with.
The codec only ever sees the generated ``LightField`` and
``DisparityMap``; the seed picks the scene, never the code path.

Layouts, shapes, disparities and texture patterns are fixed.  The seed
draws one brightness offset that is added to the background and to every
patch.  A shift of the whole scene keeps every contrast, so segmentation,
graphs and groups come out the same on every seed.  The stream differs
only in how the shifted DC coefficients code, by a few bytes, and
``psnr_y`` by under 0.3%.  A seeded noise pattern instead moved the gate
scene's ``bpp`` by 3% in the quartiles, and some seeds changed the
parallax segmentation and put 13% on its ``bpp``.  Offsets below
``OFFSETS[0]`` code the DC in fewer bits and moved ``partition``'s ``bpp``
by up to 2%.
"""

from dataclasses import dataclass

import numpy as np

from srgc import CodecConfig, synthesize_light_field
from srgc.lightfield import Patch, SceneSpec

DISPARITIES = (0.0, 0.5, 1.0, 1.5, 2.0)

# The parallax canvas: SIZE x SIZE pixels cut into CELLS x CELLS cells, one
# per SLIC seed, so CELLS**2 is the slic_k of the workloads that use it.
SIZE = 24
CELLS = 3

OFFSETS = (24, 40)       # lowest and highest brightness offset
NOISE_SEED = 1


def brightness_offset(seed):
    """The seed's brightness offset, within ``OFFSETS``."""
    lo, hi = OFFSETS
    return int(np.random.default_rng(seed).integers(lo, hi, endpoint=True))


def gate_scene(seed, size=32, views=3, patch=8):
    """The eigen-count gate scene: four identical noise patches at disparity
    0, one per corner cell of a 4x4 SLIC grid, on a flat background, all
    shifted by the seed's brightness offset."""
    offset = brightness_offset(seed)
    spec = SceneSpec(
        angular_dims=(views, views),
        spatial_dims=(size, size),
        bit_depth=8,
        background=64 + offset,
        seed=seed,
    )
    hi = size - patch
    for x0, y0 in ((0, 0), (hi, 0), (0, hi), (hi, hi)):
        spec.patches.append(
            Patch(
                shape="rect",
                params=(x0, y0, patch, patch),
                disparity=0.0,
                texture=("noise", 140 + offset, 160 + offset, NOISE_SEED),
            )
        )
    return synthesize_light_field(spec)


def parallax_scene(seed, views=5):
    """A textured scene of rect and ellipse patches with const, gradient and
    noise textures at disparities drawn from ``DISPARITIES``.

    The canvas is a ``CELLS`` x ``CELLS`` grid that matches the SLIC seed
    grid of ``CELLS**2`` super-pixels.  Two cells in five hold a patch that
    fills the cell; the rest show the flat background.  Every seed leaves
    the same holes for label projection to fill, keeps the same flat units
    that grouping can merge, and builds the same graphs; the seed picks the
    brightness offset, as it does in the gate scene.
    """
    offset = brightness_offset(seed)
    spec = SceneSpec(
        angular_dims=(views, views),
        spatial_dims=(SIZE, SIZE),
        bit_depth=8,
        background=64 + offset,
        seed=seed,
    )
    cell = SIZE // CELLS
    slots = [i for i in range(CELLS * CELLS) if i % 5 in (0, 2)]
    for k, i in enumerate(slots):
        x0, y0 = (i % CELLS) * cell, (i // CELLS) * cell
        if k % 2 == 0:
            shape, params = "rect", (x0, y0, cell, cell)
        else:
            r = (cell - 1) / 2
            shape, params = "ellipse", (x0 + r, y0 + r, r, r)
        kind = ("const", "gradient", "noise")[k % 3]
        if kind == "const":
            texture = ("const", 120 + 10 * k + offset)
        elif kind == "gradient":
            texture = ("gradient", 110.0 + 5 * k + offset, 4.0, -4.0)
        else:
            texture = ("noise", 140 + offset, 156 + offset, NOISE_SEED + k)
        spec.patches.append(
            Patch(shape=shape, params=params,
                  disparity=DISPARITIES[k % len(DISPARITIES)], texture=texture)
        )
    return synthesize_light_field(spec)


def partition_scene(seed):
    """The parallax generator on a 3x3 grid of views."""
    return parallax_scene(seed, views=3)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scene: object      # seed -> (LightField, DisparityMap)
    config: CodecConfig
    grouped: bool      # True: groups must form; False: partition mode


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gate",
            why=(
                "Eigen-count gate: 16 coarsened units fall into 2 groups, so "
                "the decoder runs 2 eigensolves instead of 16 (grouping does "
                "the most work)."
            ),
            scene=gate_scene,
            config=CodecConfig(q_gft=16.0, slic_k=16, n_target=64, threads=1),
            grouped=True,
        ),
        Workload(
            name="parallax",
            why=(
                "Disparities 0-1.5 px leave holes for label projection; 25 "
                "views give fine graphs, so graph building and coarsening "
                "dominate and only some units group."
            ),
            scene=parallax_scene,
            config=CodecConfig(q_gft=16.0, slic_k=CELLS**2, n_target=64, threads=1),
            grouped=True,
        ),
        Workload(
            name="partition",
            why=(
                "q_gft below q_switch: recursive partitioning bypasses "
                "grouping, every part is eigendecomposed on both sides, most "
                "coefficient symbols."
            ),
            scene=partition_scene,
            config=CodecConfig(q_gft=8.0, slic_k=CELLS**2, max_vertices=64, threads=1),
            grouped=False,
        ),
    )
}
