"""Local graphs per super-ray: Laplacians, eigenbases, coarsening, partitioning.

A super-ray's local graph connects 4-neighbor pixels inside each per-view
super-pixel (spatial edges) and each reference-view pixel to its
disparity-projected pixel in every other view (angular edges, a star over
views).  Vertices are ordered canonically: views in raster (s, t) order,
pixels in raster order inside a view.  That ordering is the contract the
whole codec builds on; encoder and decoder must construct identical graphs
from identical labels and disparities.

Eigendecomposition is deterministic: eigenvalues ascending, near-repeated
eigenvalue subspaces re-based by Gram-Schmidt against coordinate axes in
index order, and every column's largest-magnitude entry made positive
(ties to the lowest index).  The re-basing runs as right-looking modified
Gram-Schmidt on the rows of each cluster block, one step per picked axis:
the pivots are the axes the per-axis projection would pick, in the same
order and under the same 1e-7 tolerance.  For a disconnected graph this
makes the zero-eigenvalue basis the set of normalized component
indicators.  :func:`eigendecompose_all` runs the whole stage batched: one
stacked LAPACK call per size n (per 256 KiB of matrices), and one stacked
Gram-Schmidt per stack and cluster size over all such clusters, with
results bit-equal to diagonalizing each Laplacian alone.

Coarsening reduces a graph to an exact target vertex count by repeated
heavy-edge matching (unit weights initially, merged-edge multiplicity as
weight).  Each round scans vertices in index order; an unmatched vertex
takes its unmatched neighbor of largest weight, ties to the smallest
neighbor index, and the scan stops once the remaining budget of pairs is
matched, so the final round may merge as little as one pair.  Graphs whose
components run out of edges fall back to merging the two smallest
supernodes (ties to the smaller first member), so the target count is
always reached.  Supernodes are always ordered by their smallest fine
member.  The graph is held as int arrays throughout: weighted edge lists,
a CSR adjacency rebuilt per round for the scan, and ``fine_to_coarse``,
which each contraction composes with its old-to-new id map; only the
matching scan itself is a Python loop, because its order defines the
result.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError
from .segmentation import SuperRay, fill_holes, label_shift

_EIG_RECON_TOL = 1e-8
_EIG_ORTHO_TOL = 1e-8
_EIG_CLUSTER_TOL = 1e-9
_EIG_PICK_TOL = 1e-7
_EIG_STACK_BYTES = 1 << 18  # matrices per stacked call: bounds the scratch memory


@dataclass
class LocalGraph:
    """Undirected unweighted graph.

    ``edges`` is an (E, 2) int array with i < j per row, lexicographically
    sorted and duplicate-free.  ``vertices`` carries (view, y, x) per vertex
    for pixel graphs and is None for coarsened graphs.
    """

    n: int
    edges: np.ndarray
    vertices: np.ndarray = None

    def adjacency(self):
        a = np.zeros((self.n, self.n), dtype=np.float64)
        if self.edges.size:
            a[self.edges[:, 0], self.edges[:, 1]] = 1.0
            a[self.edges[:, 1], self.edges[:, 0]] = 1.0
        return a

    def degrees(self):
        d = np.zeros(self.n, dtype=np.float64)
        if self.edges.size:
            np.add.at(d, self.edges[:, 0], 1.0)
            np.add.at(d, self.edges[:, 1], 1.0)
        return d


@dataclass
class Laplacian:
    """L = D - A, symmetric positive semi-definite, integer-valued."""

    matrix: np.ndarray


@dataclass
class EigenBasis:
    """Ascending eigenvalues and the matching orthonormal eigenvector
    columns of a Laplacian, in the deterministic convention above."""

    eigenvalues: np.ndarray
    vectors: np.ndarray


@dataclass
class CoarseningMap:
    """Partition of fine vertices into supernodes.

    ``supernodes[p]`` lists the fine indices merged into coarse vertex p
    (sorted); supernodes are ordered by their smallest fine member.
    """

    supernodes: list
    fine_to_coarse: np.ndarray

    @property
    def coarse_count(self):
        return len(self.supernodes)


def graph_structure(sr: SuperRay, angular_dims) -> LocalGraph:
    """Assemble a super-ray's local graph topology.

    Spatial edges: 4-neighbor pairs inside each per-view pixel set.
    Angular edges: reference pixel -> its disparity-projected pixel in each
    other view, when that pixel belongs to this super-ray.  Depends only on
    pixel lists and the quantized disparity, so encoder and decoder build
    identical graphs from transmitted data.

    All views are built in one pass: vertex ids are scattered into one
    (views, H + 1, W + 1) index volume over the union bounding box of the
    super-ray's pixels, whose padding row and column read -1.  Spatial
    edges are one right and one down lookup in that volume; angular edges
    are one (views - 1, n_ref) lookup at the per-view label shifts, -1
    where the shifted pixel leaves the box.  One sort of the keys
    min * n + max gives the canonical edge list.
    """
    _, t_count = angular_dims
    counts = [p.shape[0] for p in sr.per_view_pixels]
    n, n_views, n_ref = sum(counts), len(counts), counts[0]
    view = np.repeat(np.arange(n_views), counts)
    yx = np.concatenate(sr.per_view_pixels)
    origin = yx.min(axis=0)
    h, w = yx.max(axis=0) - origin + 1
    y, x = (yx - origin).T
    ids = np.arange(n)
    index = np.full((n_views, h + 1, w + 1), -1, dtype=np.int64)
    index[view, y, x] = ids

    shifts = np.array(
        [label_shift(sr.disparity, *divmod(v, t_count)) for v in range(1, n_views)],
        dtype=np.int64,
    ).reshape(-1, 2)
    ty = y[:n_ref] - shifts[:, :1]
    tx = x[:n_ref] - shifts[:, 1:]
    inside = (ty >= 0) & (ty < h) & (tx >= 0) & (tx < w)
    # targets outside the box read cell (0, 0) and are masked to -1
    angular = np.where(
        inside, index[np.arange(1, n_views)[:, None], ty * inside, tx * inside], -1
    )

    a = np.concatenate([ids, ids, np.broadcast_to(ids[:n_ref], angular.shape).ravel()])
    b = np.concatenate([index[view, y, x + 1], index[view, y + 1, x], angular.ravel()])
    linked = b >= 0
    a, b = a[linked], b[linked]
    keys = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    return LocalGraph(
        n=n,
        edges=np.column_stack(np.divmod(keys, n)),
        vertices=np.column_stack([view, yx]),
    )


def graph_signal(graph, volume):
    """Per-vertex samples of a pixel graph from a (views, H, W) volume (or
    a list of per-view planes)."""
    return np.asarray(volume)[tuple(graph.vertices.T)]


def laplacian(g: LocalGraph) -> Laplacian:
    l = np.diag(g.degrees()) - g.adjacency()
    return Laplacian(matrix=l)


def _cluster_bounds(vals, tol=_EIG_CLUSTER_TOL):
    """(rows, starts, stops) of the eigenvalue clusters of every row of a
    (B, n) array: runs of ascending eigenvalues whose consecutive gaps stay
    below ``tol``, listed row by row."""
    cut = np.ones((vals.shape[0], vals.shape[1] + 1), dtype=bool)
    cut[:, 1:-1] = np.diff(vals, axis=1) >= tol
    rows, pos = np.nonzero(cut)
    same = rows[:-1] == rows[1:]
    return rows[:-1][same], pos[:-1][same], pos[1:][same]


def _canonical_cluster_bases(v):
    """Deterministic orthonormal basis of span(v[b]) for every block of a
    (B, n, m) stack ``v`` of n x m blocks with orthonormal columns.

    The basis is the Gram-Schmidt sequence of the coordinate axes'
    projections in index order, skipping residuals of norm <= 1e-7.  Since
    v^T v = I, the projection of axis a is v @ v[a] and inner products of
    projections are inner products of rows, so the process runs on the rows
    of each block in R^m: right-looking modified Gram-Schmidt, one step per
    pick index for the whole stack.  Step k takes in every block the first
    row after that block's last pick whose residual is above the tolerance
    and removes that direction from every row with one batched outer
    product; rows up to the pick are never read again.  The result is
    ``v @ B`` for the m x m matrices B of picked directions.
    """
    count, n, m = v.shape
    rows = v.copy()
    picks = np.empty((count, m, m))
    blocks = np.arange(count)
    after = np.zeros((count, 1), dtype=np.int64)  # each block's next row
    for k in range(m):
        norms = np.sqrt(np.einsum("bij,bij->bi", rows, rows))
        above = (norms > _EIG_PICK_TOL) & (np.arange(n) >= after)
        if not above.any(axis=1).all():
            # unreachable for orthonormal v: the residuals left after k < m
            # picks have squared norms summing to m - k >= 1, so some row's
            # residual exceeds the 1e-7 tolerance unless n >= 1e14
            raise DecompositionError(
                f"degenerate eigenspace of dimension {m} spans only {k} axes"
            )
        first = np.argmax(above, axis=1)
        c = rows[blocks, first] / norms[blocks, first][:, None]
        picks[:, :, k] = c
        after[:, 0] = first + 1
        rows -= (rows @ c[:, :, None]) * c[:, None, :]
    return v @ picks


def _apply_sign_convention(vecs):
    """Make each column's largest-magnitude entry positive, first max
    winning ties; ``vecs`` is one n x m matrix or a stack of them."""
    top = np.argmax(np.abs(vecs), axis=-2)[..., None, :]
    lead = np.take_along_axis(vecs, top, axis=-2)
    vecs *= np.where(lead < 0, -1.0, 1.0)
    return vecs


def _eigendecompose_stack(mats):
    """Diagonalize a (B, n, n) stack of Laplacians; returns the (B, n)
    eigenvalues and the (B, n, n) eigenvectors in the convention above."""
    n = mats.shape[1]
    try:
        vals, vecs = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as e:
        raise DecompositionError(f"decomposition failure for {n}x{n} matrix: {e}") from e
    rows, starts, stops = _cluster_bounds(vals)
    sizes = stops - starts
    for m in np.unique(sizes[sizes > 1]):
        sel = sizes == m
        index = (rows[sel, None], slice(None), starts[sel, None] + np.arange(m))
        # advanced indices around a slice put the block axis first: (K, m, n)
        blocks = np.ascontiguousarray(vecs[index].transpose(0, 2, 1))
        vecs[index] = _canonical_cluster_bases(blocks).transpose(0, 2, 1)
    vecs = _apply_sign_convention(vecs)

    scale = np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))
    vecs_t = vecs.transpose(0, 2, 1)
    recon = np.abs(mats - (vecs * vals[:, None, :]) @ vecs_t).max(axis=(1, 2))
    ortho = np.abs(vecs_t @ vecs - np.eye(n)).max(axis=(1, 2))
    bad = (recon > _EIG_RECON_TOL * scale) | (ortho > _EIG_ORTHO_TOL)
    if bad.any():
        b = int(np.argmax(bad))
        raise DecompositionError(
            f"decomposition failure for {n}x{n} matrix: "
            f"residual {recon[b]:.3e}, orthogonality {ortho[b]:.3e}"
        )
    return vals, vecs


def eigendecompose_all(laplacians) -> list:
    """Diagonalize an iterable of Laplacians into EigenBases, returned in
    input order.

    Laplacians of one size n are stacked, up to 256 KiB of matrices per
    stack, so scratch memory does not grow with the stream, and each
    matrix is released once stacked.  Each stack takes one LAPACK call
    and, per cluster size m, one canonicalization of all its degenerate
    clusters of size m.  Each basis is bit-equal to the one its Laplacian
    gets alone.  Raises ValueError for an empty Laplacian and
    DecompositionError if LAPACK fails or a basis violates the
    reconstruction / orthonormality tolerances.
    """
    mats = [l.matrix for l in laplacians]
    by_size = {}
    for i, m in enumerate(mats):
        if m.shape[0] < 1:
            raise ValueError("empty Laplacian")
        by_size.setdefault(m.shape[0], []).append(i)
    bases = [None] * len(mats)
    for n, idx in by_size.items():
        per_stack = max(1, _EIG_STACK_BYTES // (8 * n * n))
        for lo in range(0, len(idx), per_stack):
            part = idx[lo : lo + per_stack]
            stack = np.stack([mats[i] for i in part])
            for i in part:
                mats[i] = None
            vals, vecs = _eigendecompose_stack(stack)
            # own arrays, laid out as a lone call returns them, so later BLAS
            # calls on a basis see the same layout and no basis pins the stack
            for i, w, v in zip(part, vals, vecs):
                bases[i] = EigenBasis(eigenvalues=w.copy(), vectors=v.copy())
    return bases


def eigendecompose(l: Laplacian) -> EigenBasis:
    """Diagonalize one Laplacian: ``eigendecompose_all([l])[0]``."""
    return eigendecompose_all([l])[0]


# ---------------------------------------------------------------------------
# Coarsening
# ---------------------------------------------------------------------------

def _merge_edges(a, b, w, old_to_new, k):
    """Map weighted edges through ``old_to_new`` onto ``k`` vertices, drop
    the ones that fall inside a supernode and sum parallel weights.
    Returns (a, b, w) sorted by (a, b) with a < b."""
    na, nb = old_to_new[a], old_to_new[b]
    cross = na != nb
    na, nb = na[cross], nb[cross]
    keys, inverse = np.unique(
        np.minimum(na, nb) * k + np.maximum(na, nb), return_inverse=True
    )
    w = np.bincount(inverse, weights=w[cross], minlength=keys.size).astype(np.int64)
    a, b = np.divmod(keys, k)
    return a, b, w


def _heavy_edge_matching(a, b, w, k, budget):
    """Greedy matching in vertex-scan order: each unmatched vertex takes
    its unmatched neighbor of largest weight, ties to the smallest
    neighbor index; stops after ``budget`` pairs.  Returns (roots, merged)
    int arrays with roots < merged pairwise."""
    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    order = np.lexsort((dst, src))
    ptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=k))]).tolist()
    nbr = dst[order].tolist()
    wt = np.concatenate([w, w])[order].tolist()
    matched = [False] * k
    roots, merged = [], []
    for v in range(k):
        if matched[v]:
            continue
        best_u, best_w = -1, -1
        for i in range(ptr[v], ptr[v + 1]):
            u = nbr[i]
            if not matched[u] and wt[i] > best_w:
                best_u, best_w = u, wt[i]
        if best_u >= 0:
            # best_u > v: a smaller unmatched neighbor would have taken v
            matched[v] = matched[best_u] = True
            roots.append(v)
            merged.append(best_u)
            if len(roots) == budget:
                break
    return np.array(roots, dtype=np.int64), np.array(merged, dtype=np.int64)


def coarsen(g: LocalGraph, n_target: int):
    """Reduce ``g`` to exactly min(n_target, n) supernodes.

    Returns (coarse LocalGraph, CoarseningMap).  Coarse adjacency has an
    edge between supernodes iff any fine edge crosses them.

    The graph lives in int arrays: weighted edges (a, b, w) with a < b and
    ``fine_to_coarse``.  Each round builds a CSR adjacency (neighbors
    ascending), runs the greedy heavy-edge scan over it and contracts in
    numpy.  Supernodes stay ordered by their smallest fine member and each
    pair's root is its smaller index, which keeps the smaller first member,
    so the new ids are ``cumsum(keep) - 1`` and ``fine_to_coarse`` composes
    with them.  The supernode lists come from one stable argsort of
    ``fine_to_coarse`` at the end.
    """
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    k = g.n
    a, b = g.edges[:, 0], g.edges[:, 1]
    w = np.ones(a.size, dtype=np.int64)
    fine_to_coarse = np.arange(k)

    while k > n_target:
        roots, merged = _heavy_edge_matching(a, b, w, k, k - n_target)
        if not roots.size:
            # edgeless residue: merge the two smallest supernodes; a stable
            # sort sends size ties to the smaller index, i.e. first member
            sizes = np.bincount(fine_to_coarse, minlength=k)
            roots, merged = np.sort(np.argsort(sizes, kind="stable")[:2]).reshape(2, 1)
        keep = np.ones(k, dtype=bool)
        keep[merged] = False
        old_to_new = np.cumsum(keep) - 1
        old_to_new[merged] = old_to_new[roots]
        k -= merged.size
        fine_to_coarse = old_to_new[fine_to_coarse]
        a, b, w = _merge_edges(a, b, w, old_to_new, k)

    members = np.argsort(fine_to_coarse, kind="stable")
    supernodes = np.split(members, np.cumsum(np.bincount(fine_to_coarse, minlength=k))[:-1])
    coarse = LocalGraph(n=k, edges=np.column_stack([a, b]))
    return coarse, CoarseningMap(supernodes=supernodes, fine_to_coarse=fine_to_coarse)


def coarse_mean_signal(cmap: CoarseningMap, fine_signal):
    """Per-supernode mean of a fine signal: the coarse graph's signal.
    One ``bincount`` sum over ``fine_to_coarse`` divided by the supernode
    sizes; exact (and equal to each member mean) for integer signals."""
    k = cmap.coarse_count
    f = np.asarray(fine_signal, dtype=np.float64)
    sums = np.bincount(cmap.fine_to_coarse, weights=f, minlength=k)
    return sums / np.bincount(cmap.fine_to_coarse, minlength=k)


def uncoarsen_signal(coarse_f, cmap: CoarseningMap):
    """Piecewise-constant lift: every fine vertex takes its supernode value."""
    coarse_f = np.asarray(coarse_f)
    if coarse_f.shape[0] != cmap.coarse_count:
        raise ValueError("coarse signal length does not match supernode count")
    return coarse_f[cmap.fine_to_coarse]


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

@dataclass
class PartitionResult:
    """Leaves of the recursive split and the DFS split tree (1 = internal,
    0 = leaf)."""

    parts: list
    tree: list


def _split_reference(ref):
    """Bisect a reference region at the lower-median coordinate of its
    longer bounding-box axis (ties to x); None if unsplittable."""
    ys, xs = ref[:, 0], ref[:, 1]
    w_extent = int(xs.max() - xs.min())
    h_extent = int(ys.max() - ys.min())
    axes = [1, 0] if w_extent >= h_extent else [0, 1]
    for axis in axes:
        coords = ref[:, axis]
        cut = np.sort(coords)[(coords.size - 1) // 2]
        mask = coords <= cut
        if 0 < mask.sum() < coords.size:
            return ref[mask], ref[~mask]
    return None


def _reproject_children(sr, child_refs, t_count):
    """Distribute the parent's per-view pixels among child reference
    regions: same-shift scatter (conflict-free), then :func:`fill_holes`
    among children, stalled holes to child 0.

    All non-reference views share one fill: a (views - 1, H + 1, W) grid
    over the union bounding box of their pixels (-1 a hole, -2 outside the
    parent), filled as one (views - 1) * (H + 1) x W plane.  The -2 row
    under each view keeps 4-neighbour fills inside their own view, and a
    view whose fill stalls never changes again, so the one stall fallback
    gives its holes the same child 0 as a fill of that view alone.  Each
    child's pixels are one ``argwhere``, split by view."""
    n_views = len(sr.per_view_pixels)
    others = sr.per_view_pixels[1:]
    if not any(p.shape[0] for p in others):
        empty = [np.zeros((0, 2), dtype=np.int64) for _ in others]
        children = [[ref, *empty] for ref in child_refs]
    else:
        view = np.repeat(np.arange(n_views - 1), [p.shape[0] for p in others])
        yx = np.concatenate(others)
        origin = yx.min(axis=0)
        h, w = yx.max(axis=0) - origin + 1
        y, x = (yx - origin).T
        grid = np.full((n_views - 1, h + 1, w), -2, dtype=np.int64)
        grid[view, y, x] = -1
        shifts = origin + np.array(
            [label_shift(sr.disparity, *divmod(v, t_count)) for v in range(1, n_views)],
            dtype=np.int64,
        )
        views = np.arange(n_views - 1)[:, None]
        for c, ref in enumerate(child_refs):
            ty = ref[:, 0] - shifts[:, :1]
            tx = ref[:, 1] - shifts[:, 1:]
            ok = (ty >= 0) & (ty < h) & (tx >= 0) & (tx < w)
            tv, ty, tx = np.broadcast_to(views, ok.shape)[ok], ty[ok], tx[ok]
            inside = grid[tv, ty, tx] != -2
            grid[tv[inside], ty[inside], tx[inside]] = c
        fill_holes(grid.reshape(-1, w), 0)
        children = []
        for c, ref in enumerate(child_refs):
            hits = np.argwhere(grid == c)
            cuts = np.searchsorted(hits[:, 0], np.arange(1, n_views - 1))
            children.append([ref, *np.split(hits[:, 1:] + origin, cuts)])
    return [
        SuperRay(label=sr.label, per_view_pixels=pv, disparity=sr.disparity)
        for pv in children
    ]


def _split_walk(sr, t_count, split_here):
    """The split recursion both codec sides run: depth first from ``sr``,
    bisect each node for which ``split_here(node)`` holds and whose
    reference region :func:`_split_reference` can split.  Returns (leaves,
    tree bits in DFS order: 1 for a node that split, 0 for a leaf)."""
    parts, tree = [], []

    def walk(node):
        split = _split_reference(node.per_view_pixels[0]) if split_here(node) else None
        tree.append(int(split is not None))
        if split is None:
            parts.append(node)
            return
        for child in _reproject_children(node, split, t_count):
            walk(child)

    walk(sr)
    return parts, tree


def partition_super_ray(sr: SuperRay, max_vertices: int, angular_dims) -> PartitionResult:
    """Recursively split a super-ray until every part has at most
    ``max_vertices`` total vertices or an unsplittable reference region."""
    s_count, t_count = angular_dims
    if max_vertices < s_count * t_count:
        raise ValueError("max_vertices must be at least the view count")
    parts, tree = _split_walk(sr, t_count, lambda node: node.total_pixels > max_vertices)
    return PartitionResult(parts=parts, tree=tree)


def partition_with_tree(sr: SuperRay, tree, angular_dims) -> list:
    """Replay a transmitted split tree (decoder side): split where the next
    bit is 1, no size checks.  Raises ValueError unless the walk reproduces
    ``tree`` exactly, which rejects a truncated tree, trailing bits and a 1
    on an unsplittable node."""
    bits = iter(tree)
    parts, walked = _split_walk(sr, angular_dims[1], lambda node: next(bits, 0) == 1)
    if walked != list(tree):
        raise ValueError("split tree does not match super-ray geometry")
    return parts
