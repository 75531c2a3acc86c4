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
4-neighbors with ties to the smallest label.  SLIC handles all centers in
array steps, about 10 W*H window cells per iteration for any k, and
never scans the frame once per label or fragment.  Projection shifts are
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
from .util import forest_roots, lower_median, quantize_eighth, round_half_away_int

_FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
# SLIC seed perturbation: the 3x3 offsets, center first, then by distance
_SEED_OFFSETS = np.array(sorted(
    ((dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)),
    key=lambda o: (o[0] * o[0] + o[1] * o[1], o[0], o[1]),
))
_WINDOW_CELLS = 1 << 14  # SLIC window cells per assignment run: bounds the temporary memory
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
    """The (y, x) float seed arrays of an ny x nx grid of about k cells, in
    raster order, and the cell width and height."""
    ny = max(1, int(round(np.sqrt(k * h / w))))
    nx = max(1, int(round(k / ny)))
    xs = (np.arange(nx) + 0.5) * w / nx
    ys = (np.arange(ny) + 0.5) * h / ny
    return np.repeat(ys, nx), np.tile(xs, ny), w / nx, h / ny


def _perturb_seeds(image, sy, sx):
    """Move each seed to the lowest-gradient pixel in its 3x3 window, the
    first minimum in center-first order (which keeps constant images on
    the grid); returns the new (y, x) float arrays."""
    h, w = image.shape
    f = image.astype(np.float64)
    # along an axis of length 1 no difference exists: the gradient is zero
    gy, gx = (np.gradient(f, axis=a) if f.shape[a] > 1 else np.zeros_like(f) for a in (0, 1))
    grad = gy * gy + gx * gx
    ys = sy.astype(np.int64)[:, None] + _SEED_OFFSETS[:, 0]
    xs = sx.astype(np.int64)[:, None] + _SEED_OFFSETS[:, 1]
    inside = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
    g = np.where(inside, grad[ys.clip(0, h - 1), xs.clip(0, w - 1)], np.inf)
    seed, pick = np.arange(len(sy)), np.argmin(g, axis=1)
    return ys[seed, pick].astype(np.float64), xs[seed, pick].astype(np.float64)


def _assign(img, centers, half_y, half_x, m2, s2):
    """Each pixel's SLIC label: of the centers whose window reaches it, the
    one of least D, ties to the smaller index; a pixel outside every window
    takes its spatially nearest center.  Returns a flat int64 label array.

    D is computed for every (center, window cell) pair in one array step,
    as the same expression in the same operation order as for one center
    at a time, so each value is bit-equal to it; window cells outside the
    frame land on a sink cell past the last pixel.  One ``np.minimum.at``
    keeps each pixel's least D, a second the least center index among the
    cells that reach it.  Centers go in runs of about ``_WINDOW_CELLS``
    cells, which bounds the temporary memory.
    """
    h, w = img.shape
    n = len(centers)
    sink = h * w
    flat = np.append(img.ravel(), 0.0)
    best = np.full(sink + 1, np.inf)
    labels = np.full(sink + 1, n, dtype=np.int64)
    dy = np.arange(-half_y, half_y + 1)
    dx = np.arange(-half_x, half_x + 1)
    cells = dy.size * dx.size
    run = max(1, _WINDOW_CELLS // cells)
    for a in range(0, n, run):
        cy, cx, cv = (centers[a:a + run, j:j + 1] for j in range(3))
        ys = cy.astype(np.int64) + dy
        xs = cx.astype(np.int64) + dx
        rows = np.where((ys >= 0) & (ys < h), ys * w, sink)
        cols = np.where((xs >= 0) & (xs < w), xs, sink)
        pix = (rows[:, :, None] + cols[:, None, :]).ravel()
        np.minimum(pix, sink, out=pix)
        # (v - cv)**2 + m2 * ((y - cy)**2 + (x - cx)**2) / s2, in place
        d = flat[pix].reshape(len(cy), cells)
        d -= cv
        d *= d
        spatial = (ys - cy)[:, :, None] ** 2 + (xs - cx)[:, None, :] ** 2
        spatial *= m2
        spatial /= s2
        d = d.ravel()
        d += spatial.ravel()
        before = best[pix]
        np.minimum.at(best, pix, d)
        least = best[pix]
        # a pixel whose least D this run lowers forgets the earlier runs' ties
        labels[pix[least < before]] = n
        tie = np.flatnonzero(d == least)
        np.minimum.at(labels, pix[tie], a + tie // cells)
    labels = labels[:sink]
    missing = np.flatnonzero(labels == n)
    run = max(1, _WINDOW_CELLS // n)
    for lo in range(0, missing.size, run):
        ys, xs = np.divmod(missing[lo:lo + run], w)
        d2 = (ys[:, None] - centers[:, 0]) ** 2 + (xs[:, None] - centers[:, 1]) ** 2
        labels[missing[lo:lo + run]] = np.argmin(d2, axis=1)
    return labels


def _enforce_connectivity(labels, w, h, k):
    """Split labels into 4-connected components and merge fragments smaller
    than 25% of the mean region size (W*H/k) into their largest 4-neighbor.

    Components are numbered by label, then in raster order; each label is
    labelled inside its own bounding box.  Small fragments merge in
    (size, id) order of their sizes at the start; each takes the adjacent
    component that is largest by current size, ties to the smaller id.
    The merges walk the component adjacency graph, built in one pass over
    the 4-neighbour pixel pairs: a fragment's neighbours are those of every
    component merged into it so far, each read through the union-find
    parent of its current region.  One lookup at the end relabels the
    frame, so no step scans the frame per label, component or fragment.
    """
    comp = np.full(labels.shape, -1, dtype=np.int64)
    next_id = 0
    for lbl, box in enumerate(ndimage.find_objects(labels + 1)):
        if box is None:
            continue
        cc, n = ndimage.label(labels[box] == lbl, structure=_FOUR_CONN)
        inside = cc > 0
        comp[box][inside] = cc[inside] + (next_id - 1)
        next_id += n
    sizes = np.bincount(comp.ravel(), minlength=next_id)
    small = np.flatnonzero(sizes < 0.25 * (w * h) / k)
    small = small[np.lexsort((small, sizes[small]))]

    # each small fragment's adjacent components, from the differing pairs
    a = np.concatenate([comp[:, :-1].ravel(), comp[:-1].ravel()])
    b = np.concatenate([comp[:, 1:].ravel(), comp[1:].ravel()])
    cut = a != b
    a, b = a[cut], b[cut]
    src, dst = np.divmod(np.unique(np.concatenate([a * next_id + b, b * next_id + a])), next_id)
    lo, hi = np.searchsorted(src, small), np.searchsorted(src, small, side="right")
    adjacent = {f: set(dst[i:j].tolist()) for f, i, j in zip(small.tolist(), lo, hi)}

    parent = list(range(next_id))
    sizes = sizes.tolist()

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for frag in small.tolist():
        near = adjacent.pop(frag)
        candidates = {find(c) for c in near} - {frag}
        if not candidates:
            continue
        # largest adjacent region by current size; ties to smaller id
        target = max(candidates, key=lambda c: (sizes[c], -c))
        parent[frag] = target
        sizes[target] += sizes[frag]
        sizes[frag] = 0
        if target in adjacent:
            adjacent[target] |= near
    comp = forest_roots(parent)[comp]
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

    Each iteration assigns every pixel by :func:`_assign`, in array steps
    over all centers' windows of (2 ceil(1.5 W/nx) + 3) x (2 ceil(1.5 H/ny)
    + 3) cells, ties to the earlier seed, and moves all centers by one
    ``bincount`` per coordinate and per sample; the work per iteration is
    the windows' total area, about 10 W*H whatever k is.  Integer samples,
    which are all a ``LightField`` holds, make the center sums exact, so
    each center equals the mean of its pixels bit for bit.  A center left
    with no pixels keeps its place.
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

    sy, sx, step_x, step_y = _seed_grid(w, h, k)
    sy, sx = _perturb_seeds(image, sy, sx)
    img = image.astype(np.float64)
    n = len(sy)
    centers = np.column_stack([sy, sx, img[sy.astype(np.int64), sx.astype(np.int64)]])
    s_norm = np.sqrt(w * h / n)
    m2 = compactness * compactness
    half_x = int(np.ceil(1.5 * step_x)) + 1
    half_y = int(np.ceil(1.5 * step_y)) + 1
    rows, cols = np.divmod(np.arange(h * w), w)
    samples = img.ravel()

    labels = np.zeros(h * w, dtype=np.int64)
    for _ in range(iterations):
        labels = _assign(img, centers, half_y, half_x, m2, s_norm * s_norm)
        count = np.bincount(labels, minlength=n)
        hit = count > 0
        for j, values in enumerate((rows, cols, samples)):
            centers[hit, j] = np.bincount(labels, weights=values, minlength=n)[hit] / count[hit]

    labels, count = _enforce_connectivity(labels.reshape(h, w), w, h, n)
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
