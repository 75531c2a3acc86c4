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
indicators.

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
    """(starts, stops) of the eigenvalue clusters: runs of ascending
    eigenvalues whose consecutive gaps stay below ``tol``."""
    cuts = np.flatnonzero(np.diff(vals) >= tol) + 1
    return np.concatenate([[0], cuts]), np.concatenate([cuts, [len(vals)]])


def _canonical_cluster_basis(v):
    """Deterministic orthonormal basis of span(v), for an n x m block ``v``
    with orthonormal columns.

    The basis is the Gram-Schmidt sequence of the coordinate axes'
    projections in index order, skipping residuals of norm <= 1e-7.  Since
    v^T v = I, the projection of axis a is v @ v[a] and inner products of
    projections are inner products of rows, so the process runs on the rows
    of ``v`` in R^m: right-looking modified Gram-Schmidt, one step per
    picked direction, each step taking the first row after the last pick
    whose residual is above the tolerance and removing that direction from
    every later row with one outer product.  The block is ``v @ B`` for the
    m x m matrix B of picked directions.
    """
    m = v.shape[1]
    rows = v.copy()
    picks = np.empty((m, m))
    a = 0
    for k in range(m):
        rest = rows[a:]
        norms = np.sqrt(np.einsum("ij,ij->i", rest, rest))
        above = norms > _EIG_PICK_TOL
        if not above.any():
            # unreachable for orthonormal v: the residuals left after k < m
            # picks have squared norms summing to m - k >= 1, so some row's
            # residual exceeds the 1e-7 tolerance unless n >= 1e14
            raise DecompositionError(
                f"degenerate eigenspace of dimension {m} spans only {k} axes"
            )
        first = int(np.argmax(above))
        c = rest[first] / norms[first]
        picks[:, k] = c
        a += first + 1
        rest = rows[a:]
        rest -= (rest @ c)[:, None] * c
    return v @ picks


def _apply_sign_convention(vecs):
    """Make each column's largest-magnitude entry positive, first max
    winning ties."""
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    vecs[:, lead < 0] *= -1.0
    return vecs


def eigendecompose(l: Laplacian) -> EigenBasis:
    """Diagonalize a Laplacian into an EigenBasis.

    Raises DecompositionError if LAPACK fails or the reconstruction /
    orthonormality tolerances are violated.
    """
    m = l.matrix
    n = m.shape[0]
    if n < 1:
        raise ValueError("empty Laplacian")
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as e:
        raise DecompositionError(f"decomposition failure for {n}x{n} matrix: {e}") from e
    vecs = vecs.copy()
    for lo, hi in zip(*_cluster_bounds(vals)):
        if hi - lo > 1:
            vecs[:, lo:hi] = _canonical_cluster_basis(vecs[:, lo:hi])
    vecs = _apply_sign_convention(vecs)

    scale = max(1.0, float(np.abs(m).max()))
    recon = np.abs(m - (vecs * vals) @ vecs.T).max()
    ortho = np.abs(vecs.T @ vecs - np.eye(n)).max()
    if recon > _EIG_RECON_TOL * scale or ortho > _EIG_ORTHO_TOL:
        raise DecompositionError(
            f"decomposition failure for {n}x{n} matrix: "
            f"residual {recon:.3e}, orthogonality {ortho:.3e}"
        )
    return EigenBasis(eigenvalues=vals, vectors=vecs)


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
    """Per-supernode mean of a fine signal: the coarse graph's signal."""
    f = np.asarray(fine_signal, dtype=np.float64)
    return np.array([f[mem].mean() for mem in cmap.supernodes])


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
    among children on a grid over the parent's bounding box (-1 a hole,
    -2 outside the parent), stalled holes to child 0."""
    n_views = len(sr.per_view_pixels)
    children = [[None] * n_views for _ in child_refs]
    for c, ref in enumerate(child_refs):
        children[c][0] = ref
    for v in range(1, n_views):
        parent = sr.per_view_pixels[v]
        if parent.shape[0] == 0:
            for c in range(len(child_refs)):
                children[c][v] = np.zeros((0, 2), dtype=np.int64)
            continue
        origin = parent.min(axis=0)
        grid = np.full(parent.max(axis=0) - origin + 1, -2, dtype=np.int64)
        grid[parent[:, 0] - origin[0], parent[:, 1] - origin[1]] = -1
        s, t = divmod(v, t_count)
        shift = np.array(label_shift(sr.disparity, s, t)) + origin
        for c, ref in enumerate(child_refs):
            ty, tx = (ref - shift).T
            ok = (ty >= 0) & (ty < grid.shape[0]) & (tx >= 0) & (tx < grid.shape[1])
            ty, tx = ty[ok], tx[ok]
            inside = grid[ty, tx] != -2
            grid[ty[inside], tx[inside]] = c
        fill_holes(grid, 0)
        for c in range(len(child_refs)):
            children[c][v] = np.argwhere(grid == c) + origin
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
