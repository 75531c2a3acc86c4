"""SLIC super-pixel segmentation and disparity-based label projection.

The reference (top-left) view is over-segmented into super-pixels; each
super-pixel gets the median disparity of its pixels (one float64 array
over the labels), and the labels are projected to every other view by
that disparity.  A super-ray is the set of pixels of all views sharing
one label; it is the unit the codec transforms.
It stores them as (view, y, x) rows in its local graph's canonical vertex
order, which is the raster order of the (views, H, W) label volume.

All operations here are deterministic: ties in the SLIC assignment go to
the earlier seed, projection conflicts go to the larger disparity (nearer
surface), and holes are filled by iterated majority vote of labeled
4-neighbors with ties to the smallest label.  SLIC handles all centers in
array steps, about 10 W*H window cells per iteration for any k, and its
connectivity pass labels the 4-connected components of the whole frame
in one union-find of a few array rounds; neither scans the frame once
per label or fragment.  The module needs numpy only.  Projection shifts are
rounded once per label (round-half-away-from-zero on d*t, d*s), so a
view's label map is a pure function of the reference map and the
disparities.

One fill, :func:`fill_cells`, runs the majority vote on a flat stack of
label planes that -2 cells keep apart, whatever their widths.  It serves
both the frame labels (:func:`project_labels`, all views as padded
blocks of one plane, filled in place) and the children of every split
of one partition depth (``spectral``'s level walk, all splitting parents
in one stack).
"""

from dataclasses import dataclass

import numpy as np

from .errors import OrphanLabelError, TooManySuperpixelsError
from .util import component_roots, forest_roots, round_half_away_int

# SLIC seed perturbation: the 3x3 offsets, center first, then by distance
_SEED_OFFSETS = np.array(sorted(
    ((dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)),
    key=lambda o: (o[0] * o[0] + o[1] * o[1], o[0], o[1]),
))
_WINDOW_CELLS = 1 << 14  # SLIC window cells per assignment run: bounds the temporary memory
# fill_cells: four distinct stand-ins for unlabeled neighbors, above any label
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

    pixels: np.ndarray
    disparity: float

    @property
    def total_pixels(self):
        return self.pixels.shape[0]


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


def _label_components(labels):
    """The 4-connected components of equal labels in a 2-D label map, as
    an int64 id map and the component count.  Components are numbered by
    label, then by their first pixel in raster order.

    One :func:`component_roots` pass over the whole frame, whose edges
    are the right and down neighbour pairs of equal label, gives each
    pixel its component's first pixel in raster order.
    """
    h, w = labels.shape
    flat = labels.ravel()
    index = np.arange(h * w)
    pixel = index.reshape(h, w)
    a = np.concatenate([pixel[:, :-1].ravel(), pixel[:-1].ravel()])
    b = np.concatenate([pixel[:, 1:].ravel(), pixel[1:].ravel()])
    same = flat[a] == flat[b]
    root = component_roots(h * w, a[same], b[same])
    firsts = np.flatnonzero(root == index)
    order = firsts[np.argsort(flat[firsts], kind="stable")]
    ids = np.empty(h * w, dtype=np.int64)
    ids[order] = np.arange(order.size)
    return ids[root].reshape(h, w), order.size


def _enforce_connectivity(labels, w, h, k):
    """Split labels into 4-connected components and merge fragments smaller
    than 25% of the mean region size (W*H/k) into their largest 4-neighbor.

    Components are numbered by label, then in raster order, by one
    :func:`_label_components` pass over the whole frame.  Small fragments
    merge in (size, id) order of their sizes at the start; each takes the
    adjacent component that is largest by current size, ties to the
    smaller id.  The merges walk the component adjacency graph, built in
    one pass over the 4-neighbour pixel pairs: a fragment's neighbours are
    those of every component merged into it so far, each read through the
    union-find parent of its current region.  One lookup at the end
    relabels the frame, so no step scans the frame per label, component
    or fragment.
    """
    comp, next_id = _label_components(labels)
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
    """Each label's lower median reference-view disparity (for an even
    count the smaller middle value), quantized to 1/8 px (the
    transmission precision), as one float64 (label_count,) array, from
    one sort by label and disparity; a label absent from the reference
    view is an orphan."""
    labels, values = seg.reference.ravel(), dmap.values.ravel()
    counts = np.bincount(labels, minlength=seg.label_count)[: seg.label_count]
    if not counts.all():
        l = int(np.argmin(counts))
        raise OrphanLabelError(f"orphan label {l}: absent from reference view")
    order = np.lexsort((values, labels))
    medians = values[order[np.cumsum(counts) - counts + (counts - 1) // 2]]
    return round_half_away_int(medians * 8) / 8


def label_shifts(disparity, view_count, t_count):
    """Integer (dy, dx) shifts of a label's pixels in views 1 ..
    view_count - 1 of a grid ``t_count`` views wide, as one
    (view_count - 1, 2) int64 array: round-half-away-from-zero of
    disparity * (s, t) for view s * t_count + t.  A (K, 1, 1) array of
    disparities gives the (K, view_count - 1, 2) shifts of K labels."""
    st = np.divmod(np.arange(1, view_count), t_count)
    return round_half_away_int(disparity * np.column_stack(st))


def project_labels(ref_map, disparities, angular_dims):
    """Project reference-view labels to every view of the angular grid;
    ``disparities`` is the (label_count,) array of per-label disparities.

    For view (s, t) every reference pixel of label l lands at
    (x - round(d_l * t), y - round(d_l * s)).  Conflicts: the larger
    disparity wins; labels of equal disparity share one shift, so their
    pixels never meet.  Unlabeled target pixels are
    filled by iterated majority vote over labeled 4-neighbors (ties to the
    smallest label); a hole left when its view's fill stalls takes the
    reference map's label at its place.

    Views 1.. are (H + 1) x (W + 1) blocks of one flat plane under a
    leading pad row, as in ``spectral._split_level``: the pad row under
    each view and the pad column read -2.  Each label is written into all
    views in one scatter, in ascending disparity so that the last write
    is the largest; then one :func:`fill_cells` runs on the plane.  The
    pad cells keep 4-neighbour fills inside their own view, and a view
    whose fill stalls never changes again, so each view's holes end as a
    fill of that view alone leaves them.
    """
    ref = ref_map.reference
    count = ref_map.label_count
    if disparities.shape != (count,):
        raise ValueError(f"{disparities.shape} disparities for {count} labels")
    h, w = ref.shape
    s_count, t_count = angular_dims
    n_views = s_count * t_count
    stride = w + 1
    plane = np.full((1 + (n_views - 1) * (h + 1)) * stride, -2, dtype=np.int64)
    grid = plane[stride:].reshape(n_views - 1, h + 1, stride)
    grid[:, :h, :w] = -1
    regions = label_regions(ref, count)
    shifts = label_shifts(disparities[:, None, None], n_views, t_count)
    views = np.arange(n_views - 1)[:, None]
    for l in np.argsort(disparities, kind="stable").tolist():
        ty = regions[l][:, 0] - shifts[l, :, :1]
        tx = regions[l][:, 1] - shifts[l, :, 1:]
        ok = (ty >= 0) & (ty < h) & (tx >= 0) & (tx < w)
        grid[np.broadcast_to(views, ok.shape)[ok], ty[ok], tx[ok]] = l
    cells = np.flatnonzero(plane == -1)
    fill_cells(plane, cells, stride)
    stalled = cells[plane[cells] == -1]
    y, x = np.divmod(stalled - stride, stride)
    plane[stalled] = ref[y % (h + 1), x]
    return SegmentationMap(np.concatenate([ref[None], grid[:, :h, :w]]), count)


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


# ---------------------------------------------------------------------------
# Super-ray assembly
# ---------------------------------------------------------------------------

def assemble_super_rays(seg, disparities):
    """Build SuperRays from an all-view segmentation and the (label_count,)
    array of per-label disparities: each label's rows of the label volume,
    from one :func:`label_regions` pass, are its pixels."""
    rays = []
    regions = label_regions(seg.labels, seg.label_count)
    for l, (pixels, disparity) in enumerate(zip(regions, disparities.tolist())):
        if pixels.shape[0] == 0 or pixels[0, 0] != 0:
            raise OrphanLabelError(f"orphan label {l}: absent from reference view")
        rays.append(SuperRay(pixels=pixels, disparity=disparity))
    return rays
