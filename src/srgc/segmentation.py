"""SLIC super-pixel segmentation and disparity-based label projection.

The reference (top-left) view is over-segmented into super-pixels; each
super-pixel gets the median disparity of its pixels, and the labels are
projected to every other view by that disparity.  A super-ray is the set of
pixels of all views sharing one label; it is the unit the codec transforms.
It stores them as (view, y, x) rows in its local graph's canonical vertex
order, which is the raster order of the (views, H, W) label volume.

All operations here are deterministic: ties in the SLIC assignment go to
the earlier seed, projection conflicts go to the larger disparity (nearer
surface), and holes are filled by iterated majority vote of labeled
4-neighbors with ties to the smallest label.  Projection shifts are
rounded once per label (round-half-away-from-zero on d*t, d*s), so a
view's label map is a pure function of the reference map and the
disparities.

One fill, :func:`fill_cells`, runs the majority vote on a flat stack of
label planes that -2 cells keep apart, whatever their widths.  It serves
both the frame labels (:func:`project_labels`, all views in one stack)
and the children of every split of one partition depth (``spectral``'s
level walk, all splitting parents in one stack).
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import OrphanLabelError, TooManySuperpixelsError
from .util import lower_median, quantize_eighth, round_half_away_int

_FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
# fill_holes: four distinct stand-ins for unlabeled neighbors, above any label
_UNLABELED = np.iinfo(np.int64).max - 4 + np.arange(4)


@dataclass
class SegmentationMap:
    """A (views, H, W) int64 label volume, (1, H, W) for the reference view
    alone; ``labels[0]`` is the reference view."""

    labels: np.ndarray
    label_count: int

    @property
    def reference(self):
        return self.labels[0]


@dataclass
class SuperRay:
    """One label's pixels across all views, in canonical vertex order.

    ``pixels`` is an (N, 3) int64 array of (view, y, x) rows, view index
    v = s * T + t, sorted by view and in raster order inside a view.  It
    holds at least one reference-view (v = 0) row.  ``disparity`` is the
    1/8-px quantized median disparity of the reference super-pixel.
    """

    label: int
    pixels: np.ndarray
    disparity: float

    @property
    def total_pixels(self):
        return self.pixels.shape[0]

    @property
    def reference(self):
        """The reference-view rows, a prefix of ``pixels``."""
        return self.pixels[: np.searchsorted(self.pixels[:, 0], 1)]


# ---------------------------------------------------------------------------
# SLIC
# ---------------------------------------------------------------------------

def _seed_grid(w, h, k):
    ny = max(1, int(round(np.sqrt(k * h / w))))
    nx = max(1, int(round(k / ny)))
    xs = (np.arange(nx) + 0.5) * w / nx
    ys = (np.arange(ny) + 0.5) * h / ny
    seeds = [(float(y), float(x)) for y in ys for x in xs]
    return seeds, w / nx, h / ny


def _perturb_seeds(image, seeds):
    """Move each seed to the lowest-gradient pixel in its 3x3 window
    (center-first tie order keeps constant images on the grid)."""
    h, w = image.shape
    gy, gx = np.gradient(image.astype(np.float64))
    grad = gy * gy + gx * gx
    offsets = sorted(
        ((dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)),
        key=lambda o: (o[0] * o[0] + o[1] * o[1], o[0], o[1]),
    )
    out = []
    for sy, sx in seeds:
        cy, cx = int(sy), int(sx)
        best = None
        for dy, dx in offsets:
            y, x = cy + dy, cx + dx
            if 0 <= y < h and 0 <= x < w:
                if best is None or grad[y, x] < best[0]:
                    best = (grad[y, x], y, x)
        out.append((float(best[1]), float(best[2])))
    return out


def _enforce_connectivity(labels, w, h, k):
    """Split labels into 4-connected components and merge fragments smaller
    than 25% of the mean region size (W*H/k) into their largest 4-neighbor."""
    comp = np.full(labels.shape, -1, dtype=np.int64)
    next_id = 0
    for lbl in range(int(labels.max()) + 1):
        mask = labels == lbl
        if not mask.any():
            continue
        cc, n = ndimage.label(mask, structure=_FOUR_CONN)
        for i in range(1, n + 1):
            comp[cc == i] = next_id
            next_id += 1
    sizes = np.bincount(comp.ravel(), minlength=next_id).astype(np.int64)
    threshold = 0.25 * (w * h) / k
    small = sorted(
        (i for i in range(next_id) if sizes[i] < threshold),
        key=lambda i: (sizes[i], i),
    )
    for frag in small:
        mask = comp == frag
        if not mask.any():
            continue
        ring = ndimage.binary_dilation(mask, structure=_FOUR_CONN) & ~mask
        neigh = comp[ring]
        neigh = neigh[neigh >= 0]
        if neigh.size == 0:
            continue
        counts = np.bincount(neigh, minlength=next_id)
        # largest adjacent region by current size; ties to smaller id
        candidates = np.flatnonzero(counts)
        target = int(candidates[np.lexsort((candidates, -sizes[candidates]))[0]])
        comp[mask] = target
        sizes[target] += sizes[frag]
        sizes[frag] = 0
    # compact ids in raster first-appearance order
    ids, first = np.unique(comp, return_index=True)
    remap = np.full(next_id, -1, dtype=np.int64)
    remap[ids[np.argsort(first)]] = np.arange(ids.size)
    return remap[comp], ids.size


def slic_segment(image, k, compactness=10.0, iterations=10):
    """Segment a 2D luma image into approximately k super-pixels.

    Standard SLIC with grid seeding, gradient-based seed perturbation and a
    connectivity post-pass; the distance is D^2 = d_int^2 + m^2 * d_xy^2/S^2
    with S = sqrt(W*H/k).  Returns a reference-view-only SegmentationMap.
    """
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError("slic_segment expects a 2D image")
    h, w = image.shape
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > w * h:
        raise TooManySuperpixelsError(f"too many superpixels: k={k} > {w * h} pixels")
    if compactness <= 0:
        raise ValueError("compactness must be positive")

    seeds, step_x, step_y = _seed_grid(w, h, k)
    seeds = _perturb_seeds(image, seeds)
    img = image.astype(np.float64)
    centers = np.array([[sy, sx, img[int(sy), int(sx)]] for sy, sx in seeds])
    s_norm = np.sqrt(w * h / len(seeds))
    m2 = compactness * compactness
    half_x = int(np.ceil(1.5 * step_x)) + 1
    half_y = int(np.ceil(1.5 * step_y)) + 1

    labels = np.zeros((h, w), dtype=np.int64)
    for _ in range(iterations):
        dist = np.full((h, w), np.inf)
        labels.fill(-1)
        for ci in range(len(centers)):
            cy, cx, cv = centers[ci]
            y0, y1 = max(0, int(cy) - half_y), min(h, int(cy) + half_y + 1)
            x0, x1 = max(0, int(cx) - half_x), min(w, int(cx) + half_x + 1)
            ys, xs = np.mgrid[y0:y1, x0:x1]
            d = (img[y0:y1, x0:x1] - cv) ** 2 + m2 * (
                (ys - cy) ** 2 + (xs - cx) ** 2
            ) / (s_norm * s_norm)
            sub = dist[y0:y1, x0:x1]
            better = d < sub
            sub[better] = d[better]
            labels[y0:y1, x0:x1][better] = ci
        # pixels outside every window: nearest seed spatially
        missing = labels < 0
        if missing.any():
            ys, xs = np.nonzero(missing)
            d2 = (ys[:, None] - centers[:, 0]) ** 2 + (xs[:, None] - centers[:, 1]) ** 2
            labels[ys, xs] = np.argmin(d2, axis=1)
        for ci in range(len(centers)):
            mask = labels == ci
            if mask.any():
                ys, xs = np.nonzero(mask)
                centers[ci] = (ys.mean(), xs.mean(), img[ys, xs].mean())

    labels, count = _enforce_connectivity(labels, w, h, len(seeds))
    return SegmentationMap(labels=labels[None], label_count=count)


# ---------------------------------------------------------------------------
# Disparity and projection
# ---------------------------------------------------------------------------

def median_disparity(region, dmap):
    """Lower median of the disparity values over a pixel region.

    ``region`` is an (N, 2) array of (y, x) coordinates inside the map.
    """
    region = np.asarray(region)
    if region.size == 0:
        raise ValueError("median disparity of empty region")
    vals = dmap.values[region[:, 0], region[:, 1]]
    return lower_median(vals)


def label_regions(labels, count):
    """Raster-ordered (N_l, labels.ndim) int64 index arrays of labels
    0..count-1 in a label array, from one stable sort; other values are
    skipped.  A 2-D map gives (y, x) rows, a (views, H, W) volume gives
    (view, y, x) rows."""
    flat = labels.ravel()
    order = np.argsort(flat, kind="stable")
    bounds = np.searchsorted(flat[order], np.arange(count + 1))
    rows = np.column_stack(np.unravel_index(order, labels.shape)).astype(np.int64, copy=False)
    return [rows[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def label_disparities(seg, dmap):
    """Each label's median reference-view disparity, quantized to 1/8 px
    (the transmission precision); a label absent from the reference view
    is an orphan."""
    disparities = {}
    for l, region in enumerate(label_regions(seg.reference, seg.label_count)):
        if region.shape[0] == 0:
            raise OrphanLabelError(f"orphan label {l}: absent from reference view")
        disparities[l] = quantize_eighth(median_disparity(region, dmap))
    return disparities


def label_shifts(disparity, view_count, t_count):
    """Integer (dy, dx) shifts of a label's pixels in views 1 ..
    view_count - 1 of a grid ``t_count`` views wide, as one
    (view_count - 1, 2) int64 array: round-half-away-from-zero of
    disparity * (s, t) for view s * t_count + t.  A (K, 1, 1) array of
    disparities gives the (K, view_count - 1, 2) shifts of K labels."""
    st = np.divmod(np.arange(1, view_count), t_count)
    return round_half_away_int(disparity * np.column_stack(st))


def project_labels(ref_map, disparities, angular_dims):
    """Project reference-view labels to every view of the angular grid.

    For view (s, t) every reference pixel of label l lands at
    (x - round(d_l * t), y - round(d_l * s)).  Conflicts: the larger
    disparity wins; labels of equal disparity share one shift, so their
    pixels never meet.  Unlabeled target pixels are
    filled by iterated majority vote over labeled 4-neighbors (ties to the
    smallest label); a view left entirely unlabeled falls back to the
    reference map.

    All non-reference views are one (views - 1, H + 1, W) stack whose pad
    row under each view reads -2.  Each label is written into all views
    in one scatter, in ascending disparity so that the last write is the
    largest; then one :func:`fill_holes` runs on the stack.  The pad rows
    keep 4-neighbour fills inside their own view, and a view whose fill
    stalls never changes again, so the one stall fallback gives its holes
    what a fill of that view alone would give them.
    """
    ref = ref_map.reference
    count = ref_map.label_count
    missing = [l for l in range(count) if l not in disparities]
    if missing:
        raise ValueError(f"labels without disparity: {missing}")
    h, w = ref.shape
    s_count, t_count = angular_dims
    n_views = s_count * t_count
    regions = label_regions(ref, count)
    grid = np.full((n_views - 1, h + 1, w), -1, dtype=np.int64)
    grid[:, h] = -2
    views = np.arange(n_views - 1)[:, None]
    for l in sorted(range(count), key=disparities.__getitem__):
        shifts = label_shifts(disparities[l], n_views, t_count)
        ty = regions[l][:, 0] - shifts[:, :1]
        tx = regions[l][:, 1] - shifts[:, 1:]
        ok = (ty >= 0) & (ty < h) & (tx >= 0) & (tx < w)
        grid[np.broadcast_to(views, ok.shape)[ok], ty[ok], tx[ok]] = l
    padded = np.vstack([ref, np.full((1, w), -2, dtype=np.int64)])
    fill_holes(grid.reshape(-1, w), np.tile(padded, (n_views - 1, 1)))
    return SegmentationMap(np.concatenate([ref[None], grid[:, :h]]), count)


def fill_cells(flat, cells, stride):
    """In-place majority fill of the -1 cells ``cells`` of a flat label
    array whose 4-neighbours lie 1 and ``stride`` apart (a scalar, or one
    stride per cell); every neighbour of a listed cell must lie inside
    ``flat``.

    Each synchronous round gives every hole the most frequent label among
    its labeled (>= 0) 4-neighbors, ties to the smallest label.  Cells
    below -1 are outside the region: never filled, never counted.  The
    first round that assigns nothing ends the fill and leaves the
    remaining holes at -1.  Parts of the array that -2 cells keep apart
    fill as each would alone: a part in which a round assigns nothing
    never changes again, so its holes stay where its own fill stalls.

    A round gathers the four neighbors of every hole at once, as a
    (holes, 4) array in which each unlabeled neighbor becomes a distinct
    value above every label.  In a sorted row s0 <= s1 <= s2 <= s3 the
    majority, ties to the smallest, is s1 when s1 == s2 (no other value
    can then reach its count), else s2 when s2 == s3 and s0 != s1, else
    s0; it is an unlabeled value exactly when the hole has no labeled
    neighbor.
    """
    steps = np.multiply.outer(stride, [-1, 1, 0, 0]) + [0, 0, -1, 1]
    while cells.size:
        near = flat[cells[:, None] + steps]
        near = np.where(near >= 0, near, _UNLABELED)
        near.sort(axis=1)
        s0, s1, s2, s3 = near.T
        label = np.where(s1 == s2, s1, np.where((s2 == s3) & (s0 != s1), s2, s0))
        filled = label < _UNLABELED[0]
        if not filled.any():
            return
        flat[cells[filled]] = label[filled]
        cells = cells[~filled]
        if steps.ndim == 2:
            steps = steps[~filled]


def fill_holes(grid, fallback):
    """In-place majority fill of the -1 cells of a 2-D label grid, by
    :func:`fill_cells` on a copy padded with outside cells; the holes left
    when a round assigns nothing take ``fallback`` (a scalar or a
    grid-shaped array)."""
    h, w = grid.shape
    work = np.full((h + 2, w + 2), -2, dtype=grid.dtype)
    work[1:-1, 1:-1] = grid
    flat = work.ravel()
    fill_cells(flat, np.flatnonzero(flat == -1), w + 2)
    grid[...] = work[1:-1, 1:-1]
    stalled = grid == -1
    grid[stalled] = np.broadcast_to(fallback, grid.shape)[stalled]


# ---------------------------------------------------------------------------
# Super-ray assembly
# ---------------------------------------------------------------------------

def assemble_super_rays(seg, disparities):
    """Build SuperRays from an all-view segmentation and known per-label
    disparities: each label's rows of the label volume, from one
    :func:`label_regions` pass, are its pixels."""
    rays = []
    for l, pixels in enumerate(label_regions(seg.labels, seg.label_count)):
        if pixels.shape[0] == 0 or pixels[0, 0] != 0:
            raise OrphanLabelError(f"orphan label {l}: absent from reference view")
        rays.append(SuperRay(label=l, pixels=pixels, disparity=disparities[l]))
    return rays
