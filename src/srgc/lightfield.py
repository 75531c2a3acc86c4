"""Light-field data model, view I/O and synthetic scene generation.

A light field is a 2D angular grid of views indexed by (s, t), each view a
2D image of W x H samples with 1 (luma) or 3 (RGB) channels.  Views are
stored on disk as binary PGM/PPM files named ``view_{s:02d}_{t:02d}.pgm``
(or ``.ppm``), with maxval 255/1023/65535 for 8/10/16-bit depth.

Disparity maps travel as ``.lfdm`` files: a 16-byte header (magic ``LFDM``,
u32 width, u32 height, u32 reserved) followed by row-major little-endian
float32 values, aligned to the reference view.  Disparity is the horizontal
pixel shift per unit angular step.

Synthetic scenes are described by a line-oriented text format (see
``docs/scene_format.md``) listing textured rectangular/elliptic patches
with constant disparities; rendering is deterministic given the seed and
the returned disparity map is exact ground truth.
"""

import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyLightFieldError,
    IncompleteGridError,
    InconsistentViewsError,
    PatchOutOfBoundsError,
    SceneSpecError,
    SrgcError,
)
from .util import round_half_away, round_half_away_int

_MAXVAL_BY_DEPTH = {8: 255, 10: 1023, 16: 65535}
_DEPTH_BY_MAXVAL = {v: k for k, v in _MAXVAL_BY_DEPTH.items()}

LFDM_MAGIC = b"LFDM"

# BT.709 luma weights for RGB -> Y conversion.
_BT709 = (0.2126, 0.7152, 0.0722)


@dataclass
class View:
    """One sub-aperture image: per-channel 2D integer sample planes."""

    planes: list

    def __post_init__(self):
        if not self.planes:
            raise InconsistentViewsError("view with no sample planes")
        shape = self.planes[0].shape
        for p in self.planes:
            if p.ndim != 2 or p.shape != shape:
                raise InconsistentViewsError("view planes disagree on shape")

    @property
    def height(self):
        return self.planes[0].shape[0]

    @property
    def width(self):
        return self.planes[0].shape[1]

    @property
    def channels(self):
        return len(self.planes)


@dataclass
class LightField:
    """Angular grid of views plus sample metadata.

    Views are stored in raster (s, t) order: index v = s * T + t.
    """

    views: list
    angular_dims: tuple
    bit_depth: int

    def __post_init__(self):
        s_count, t_count = self.angular_dims
        if s_count <= 0 or t_count <= 0 or len(self.views) != s_count * t_count:
            raise InconsistentViewsError(
                f"view count {len(self.views)} does not match angular dims "
                f"{self.angular_dims}"
            )
        if self.bit_depth not in _MAXVAL_BY_DEPTH:
            raise InconsistentViewsError(f"unsupported bit depth {self.bit_depth}")
        ref = self.views[0]
        if ref.channels not in (1, 3):
            raise InconsistentViewsError(f"unsupported channel count {ref.channels}")
        maxval = self.max_value
        for v in self.views:
            if (v.width, v.height, v.channels) != (ref.width, ref.height, ref.channels):
                raise InconsistentViewsError("inconsistent views: dimensions differ")
            for p in v.planes:
                if not np.issubdtype(p.dtype, np.integer):
                    raise InconsistentViewsError(f"samples of dtype {p.dtype} are not integers")
                if p.min(initial=0) < 0:
                    raise InconsistentViewsError("negative sample")
                if p.max(initial=0) > maxval:
                    raise InconsistentViewsError(
                        f"sample exceeds bit depth {self.bit_depth}"
                    )

    @property
    def spatial_dims(self):
        return (self.views[0].width, self.views[0].height)

    @property
    def channels(self):
        return self.views[0].channels

    @property
    def max_value(self):
        return _MAXVAL_BY_DEPTH[self.bit_depth]

    def view(self, s, t):
        return self.views[s * self.angular_dims[1] + t]

    def luma_planes(self):
        """Per-view luma plane as int64 arrays (BT.709 for RGB input)."""
        out = []
        for v in self.views:
            if v.channels == 1:
                out.append(v.planes[0].astype(np.int64))
            else:
                r, g, b = (p.astype(np.float64) for p in v.planes)
                y = _BT709[0] * r + _BT709[1] * g + _BT709[2] * b
                out.append(
                    np.clip(round_half_away_int(y), 0, self.max_value)
                )
        return out

    def channel_planes(self, c):
        return [v.planes[c].astype(np.int64) for v in self.views]


@dataclass
class DisparityMap:
    """Per-pixel horizontal shift (pixels per unit angular step), aligned
    to the reference view."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise SrgcError("disparity map must be 2D")
        if not np.all(np.isfinite(self.values)):
            raise SrgcError("disparity map contains non-finite values")


def _sample_dtype(bit_depth):
    return np.uint8 if bit_depth == 8 else np.uint16


# ---------------------------------------------------------------------------
# PGM / PPM view files
# ---------------------------------------------------------------------------

def _write_pnm(path, planes, maxval):
    channels = len(planes)
    h, w = planes[0].shape
    magic = b"P5" if channels == 1 else b"P6"
    if channels == 1:
        data = planes[0]
    else:
        data = np.stack(planes, axis=-1)
    if maxval > 255:
        raw = data.astype(">u2").tobytes()
    else:
        raw = data.astype(np.uint8).tobytes()
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n%d\n" % (w, h, maxval))
        f.write(raw)


def _read_pnm_tokens(f, count):
    """Read `count` whitespace-separated ASCII tokens, skipping # comments."""
    tokens = []
    while len(tokens) < count:
        ch = f.read(1)
        if not ch:
            raise SrgcError("truncated PNM header")
        if ch in b" \t\r\n":
            continue
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        tok = ch
        while True:
            ch = f.read(1)
            if not ch or ch in b" \t\r\n":
                break
            tok += ch
        tokens.append(tok)
    return tokens


def _read_pnm(path):
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic not in (b"P5", b"P6"):
            raise SrgcError(f"{path}: not a binary PGM/PPM file")
        w, h, maxval = (int(t) for t in _read_pnm_tokens(f, 3))
        if maxval not in _DEPTH_BY_MAXVAL:
            raise SrgcError(f"{path}: unsupported maxval {maxval}")
        channels = 1 if magic == b"P5" else 3
        n = w * h * channels
        if maxval > 255:
            raw = np.frombuffer(f.read(2 * n), dtype=">u2")
        else:
            raw = np.frombuffer(f.read(n), dtype=np.uint8)
        if raw.size != n:
            raise SrgcError(f"{path}: truncated sample data")
    depth = _DEPTH_BY_MAXVAL[maxval]
    data = raw.astype(_sample_dtype(depth))
    if channels == 1:
        planes = [data.reshape(h, w)]
    else:
        data = data.reshape(h, w, 3)
        planes = [data[:, :, c].copy() for c in range(3)]
    return View(planes=planes), depth


def view_filename(s, t, channels):
    ext = "pgm" if channels == 1 else "ppm"
    return f"view_{s:02d}_{t:02d}.{ext}"


def save_light_field(lf, dir_path):
    """Write all views as PGM/PPM files readable by :func:`load_light_field`."""
    if not lf.views:
        raise EmptyLightFieldError("empty light field")
    os.makedirs(dir_path, exist_ok=True)
    maxval = lf.max_value
    s_count, t_count = lf.angular_dims
    for s in range(s_count):
        for t in range(t_count):
            v = lf.view(s, t)
            path = os.path.join(dir_path, view_filename(s, t, lf.channels))
            try:
                _write_pnm(path, v.planes, maxval)
            except OSError as e:
                raise SrgcError(f"failed to write {path}: {e}") from e


def load_light_field(dir_path):
    """Load a view directory into a LightField.

    The grid shape is inferred from the ``view_SS_TT`` filenames present;
    any missing member of the implied rectangle is an incomplete grid.
    """
    try:
        names = sorted(os.listdir(dir_path))
    except OSError as e:
        raise SrgcError(f"cannot read light-field directory {dir_path}: {e}") from e
    pat = re.compile(r"^view_(\d{2})_(\d{2})\.(pgm|ppm)$")
    coords = {}
    for name in names:
        m = pat.match(name)
        if m:
            coords[(int(m.group(1)), int(m.group(2)))] = name
    if not coords:
        raise EmptyLightFieldError(f"no view files found in {dir_path}")
    s_count = max(s for s, _ in coords) + 1
    t_count = max(t for _, t in coords) + 1
    views = []
    depth = None
    ref_shape = None
    for s in range(s_count):
        for t in range(t_count):
            if (s, t) not in coords:
                raise IncompleteGridError(s, t, dir_path)
            view, d = _read_pnm(os.path.join(dir_path, coords[(s, t)]))
            if depth is None:
                depth, ref_shape = d, (view.width, view.height, view.channels)
            elif d != depth or (view.width, view.height, view.channels) != ref_shape:
                raise InconsistentViewsError(
                    f"inconsistent views: view ({s},{t}) differs from reference"
                )
            views.append(view)
    return LightField(views=views, angular_dims=(s_count, t_count), bit_depth=depth)


# ---------------------------------------------------------------------------
# Disparity map files (.lfdm)
# ---------------------------------------------------------------------------

def save_disparity(dmap, path):
    h, w = dmap.values.shape
    header = LFDM_MAGIC + np.array([w, h, 0], dtype="<u4").tobytes()
    with open(path, "wb") as f:
        f.write(header)
        f.write(dmap.values.astype("<f4").tobytes())


def load_disparity(path):
    with open(path, "rb") as f:
        header = f.read(16)
        if len(header) < 16 or header[:4] != LFDM_MAGIC:
            raise SrgcError(f"{path}: not an LFDM disparity file")
        w, h, _ = np.frombuffer(header[4:], dtype="<u4")
        raw = np.frombuffer(f.read(4 * int(w) * int(h)), dtype="<f4")
    if raw.size != int(w) * int(h):
        raise SrgcError(f"{path}: truncated disparity data")
    return DisparityMap(values=raw.reshape(int(h), int(w)).astype(np.float64))


# ---------------------------------------------------------------------------
# Scene synthesis
# ---------------------------------------------------------------------------

@dataclass
class Patch:
    shape: str          # 'rect' | 'ellipse'
    params: tuple       # rect: (x, y, w, h); ellipse: (cx, cy, rx, ry)
    disparity: float
    texture: tuple      # ('const', v) | ('gradient', v0, dvx, dvy) | ('noise', lo, hi, seed)


@dataclass
class SceneSpec:
    angular_dims: tuple = (3, 3)
    spatial_dims: tuple = (32, 32)
    bit_depth: int = 8
    background: int = 0
    seed: int = 0
    patches: list = field(default_factory=list)


def parse_scene_spec(text):
    """Parse the line-oriented scene grammar (see docs/scene_format.md)."""
    spec = SceneSpec()
    patch_index = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0].lower()
        try:
            if key == "angular":
                spec.angular_dims = (int(parts[1]), int(parts[2]))
            elif key == "spatial":
                spec.spatial_dims = (int(parts[1]), int(parts[2]))
            elif key in ("bitdepth", "bit_depth"):
                spec.bit_depth = int(parts[1])
            elif key == "background":
                spec.background = int(parts[1])
            elif key == "seed":
                spec.seed = int(parts[1])
            elif key == "patch":
                shape = parts[1].lower()
                if shape not in ("rect", "ellipse"):
                    raise ValueError(f"unknown patch shape {shape!r}")
                geom = tuple(float(p) for p in parts[2:6])
                disparity = float(parts[6])
                texture = _parse_texture(parts[7:], spec.seed, patch_index)
                patch = Patch(shape=shape, params=geom, disparity=disparity, texture=texture)
                _check_patch(patch)
                spec.patches.append(patch)
                patch_index += 1
            else:
                raise ValueError(f"unknown directive {key!r}")
        except (IndexError, ValueError) as e:
            raise SceneSpecError(f"scene spec line {lineno}: {e}") from e
    return spec


def _parse_texture(parts, scene_seed, patch_index):
    kind = parts[0].lower()
    if kind == "const":
        return ("const", int(parts[1]))
    if kind == "gradient":
        return ("gradient", float(parts[1]), float(parts[2]), float(parts[3]))
    if kind == "noise":
        lo, hi = int(parts[1]), int(parts[2])
        seed = int(parts[3]) if len(parts) > 3 else scene_seed * 9973 + patch_index
        return ("noise", lo, hi, seed)
    raise ValueError(f"unknown texture {kind!r}")


def _check_patch(patch):
    """Raise ValueError for a patch no canvas can draw: a number or box
    edge that is not finite, a size or radius that is not positive, a
    disparity beyond float32 (the disparity file's type), an empty noise
    range or a gradient that is not finite over the patch box."""
    a, b, c, d = patch.params
    if not all(math.isfinite(v) for v in (a - c, a + c, b - d, b + d, patch.disparity)):
        raise ValueError("patch geometry and disparity must be finite")
    if min(c, d) <= 0:
        raise ValueError(f"{patch.shape} sizes must be positive")
    if abs(patch.disparity) > float(np.finfo(np.float32).max):
        raise ValueError(f"disparity {patch.disparity:g} does not fit in float32")
    kind, *args = patch.texture
    if kind == "noise" and args[0] > args[1]:
        raise ValueError(f"noise range [{args[0]}, {args[1]}] is empty")
    if kind == "gradient":
        _, _, bw, bh = _patch_bbox(patch)
        if not math.isfinite(abs(args[0]) + abs(args[1]) * bw + abs(args[2]) * bh):
            raise ValueError("gradient is not finite over the patch")


def _patch_bbox(patch):
    if patch.shape == "rect":
        x, y, w, h = patch.params
        return int(x), int(y), int(w), int(h)
    cx, cy, rx, ry = patch.params
    x0 = int(np.floor(cx - rx))
    y0 = int(np.floor(cy - ry))
    x1 = int(np.ceil(cx + rx))
    y1 = int(np.ceil(cy + ry))
    return x0, y0, x1 - x0 + 1, y1 - y0 + 1


def _patch_mask(patch, bw, bh):
    if patch.shape == "rect":
        return np.ones((bh, bw), dtype=bool)
    cx, cy, rx, ry = patch.params
    x0, y0, _, _ = _patch_bbox(patch)
    ys, xs = np.mgrid[0:bh, 0:bw]
    return ((xs + x0 - cx) / rx) ** 2 + ((ys + y0 - cy) / ry) ** 2 <= 1.0


def _patch_texture(patch, bw, bh, maxval):
    kind = patch.texture[0]
    if kind == "const":
        return np.full((bh, bw), np.clip(patch.texture[1], 0, maxval), dtype=np.int64)
    if kind == "gradient":
        _, v0, dvx, dvy = patch.texture
        ys, xs = np.mgrid[0:bh, 0:bw]
        # clipped before the integer cast: the same samples, and no overflow
        return round_half_away_int(np.clip(v0 + dvx * xs + dvy * ys, 0, maxval))
    _, lo, hi, seed = patch.texture
    if lo > maxval or hi < 0:
        raise SceneSpecError(f"noise range [{lo}, {hi}] misses the samples 0..{maxval}")
    rng = np.random.default_rng(seed)
    return rng.integers(max(0, lo), min(maxval, hi), size=(bh, bw), endpoint=True)


def synthesize_light_field(spec):
    """Render a SceneSpec into (LightField, ground-truth DisparityMap).

    Each patch is drawn at its reference position shifted by
    (-round(d*t), -round(d*s)) in view (s, t); later patches paint over
    earlier ones, and the disparity map records the visible patch's value
    (background disparity is 0).
    """
    s_count, t_count = spec.angular_dims
    w, h = spec.spatial_dims
    if s_count <= 0 or t_count <= 0 or w <= 0 or h <= 0:
        raise SceneSpecError("angular and spatial dims must be positive")
    maxval = _MAXVAL_BY_DEPTH.get(spec.bit_depth)
    if maxval is None:
        raise SceneSpecError(f"unsupported bit depth {spec.bit_depth}")

    rendered = []
    for patch in spec.patches:
        x0, y0, bw, bh = _patch_bbox(patch)
        if x0 < 0 or y0 < 0 or x0 + bw > w or y0 + bh > h:
            raise PatchOutOfBoundsError(
                f"patch out of bounds: bbox ({x0},{y0},{bw},{bh}) vs canvas {w}x{h}"
            )
        mask = _patch_mask(patch, bw, bh)
        tex = _patch_texture(patch, bw, bh, maxval)
        rendered.append((patch, x0, y0, mask, tex))

    dtype = _sample_dtype(spec.bit_depth)
    bg = int(np.clip(spec.background, 0, maxval))
    views = []
    for s in range(s_count):
        for t in range(t_count):
            canvas = np.full((h, w), bg, dtype=np.int64)
            for patch, x0, y0, mask, tex in rendered:
                dx = round_half_away(patch.disparity * t)
                dy = round_half_away(patch.disparity * s)
                px, py = x0 - dx, y0 - dy
                # clip the shifted bbox against the canvas
                sx0, sy0 = max(0, -px), max(0, -py)
                tx0, ty0 = max(0, px), max(0, py)
                cw = min(px + tex.shape[1], w) - tx0
                ch = min(py + tex.shape[0], h) - ty0
                if cw <= 0 or ch <= 0:
                    continue
                sub_mask = mask[sy0 : sy0 + ch, sx0 : sx0 + cw]
                target = canvas[ty0 : ty0 + ch, tx0 : tx0 + cw]
                target[sub_mask] = tex[sy0 : sy0 + ch, sx0 : sx0 + cw][sub_mask]
            views.append(View(planes=[canvas.astype(dtype)]))

    dvals = np.zeros((h, w), dtype=np.float64)
    for patch, x0, y0, mask, _ in rendered:
        dvals[y0 : y0 + mask.shape[0], x0 : x0 + mask.shape[1]][mask] = patch.disparity
    lf = LightField(views=views, angular_dims=spec.angular_dims, bit_depth=spec.bit_depth)
    return lf, DisparityMap(values=dvals)
