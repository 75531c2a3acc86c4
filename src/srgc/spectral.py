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
(ties to the lowest index).  For a disconnected graph this makes the
zero-eigenvalue basis the set of normalized component indicators.

Coarsening reduces a graph to an exact target vertex count by repeated
heavy-edge matching (unit weights initially, merged-edge multiplicity as
weight, ties to the smallest vertex index pair); each round applies its
matches in vertex-scan order, capped at the remaining budget, so the final
round may merge as little as one pair.  Graphs whose components run out of
edges fall back to merging the smallest supernodes, so the target count is
always reached.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError
from .segmentation import SuperRay, fill_holes, label_shift

_EIG_RECON_TOL = 1e-8
_EIG_ORTHO_TOL = 1e-8
_EIG_CLUSTER_TOL = 1e-9


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


def _canonical_edges(pairs):
    if not pairs:
        return np.zeros((0, 2), dtype=np.int64)
    e = np.array(sorted({(min(a, b), max(a, b)) for a, b in pairs}), dtype=np.int64)
    return e


def graph_structure(sr: SuperRay, angular_dims) -> LocalGraph:
    """Assemble a super-ray's local graph topology.

    Spatial edges: 4-neighbor pairs inside each per-view pixel set.
    Angular edges: reference pixel -> its disparity-projected pixel in each
    other view, when that pixel belongs to this super-ray.  Depends only on
    pixel lists and the quantized disparity, so encoder and decoder build
    identical graphs from transmitted data.
    """
    s_count, t_count = angular_dims
    vertex_rows = []
    index_maps = []
    offset = 0
    for v in range(s_count * t_count):
        pix = sr.per_view_pixels[v]
        index_maps.append(
            {(int(y), int(x)): offset + i for i, (y, x) in enumerate(pix)}
        )
        for y, x in pix:
            vertex_rows.append((v, int(y), int(x)))
        offset += pix.shape[0]

    pairs = []
    for v in range(s_count * t_count):
        imap = index_maps[v]
        for (y, x), i in imap.items():
            for ny, nx in ((y, x + 1), (y + 1, x)):
                j = imap.get((ny, nx))
                if j is not None:
                    pairs.append((i, j))
    ref_map = index_maps[0]
    for v in range(1, s_count * t_count):
        s, t = divmod(v, t_count)
        dy, dx = label_shift(sr.disparity, s, t)
        imap = index_maps[v]
        for (y, x), i in ref_map.items():
            j = imap.get((y - dy, x - dx))
            if j is not None:
                pairs.append((i, j))

    vertices = np.array(vertex_rows, dtype=np.int64).reshape(-1, 3)
    return LocalGraph(n=len(vertex_rows), edges=_canonical_edges(pairs), vertices=vertices)


def graph_signal(graph, planes):
    """Extract a per-vertex signal from per-view planes."""
    v, y, x = graph.vertices[:, 0], graph.vertices[:, 1], graph.vertices[:, 2]
    out = np.empty(graph.n, dtype=np.float64)
    for vi in np.unique(v):
        sel = v == vi
        out[sel] = planes[vi][y[sel], x[sel]]
    return out


def laplacian(g: LocalGraph) -> Laplacian:
    l = np.diag(g.degrees()) - g.adjacency()
    return Laplacian(matrix=l)


def _cluster_eigenvalues(vals, tol=_EIG_CLUSTER_TOL):
    clusters = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[clusters[-1][-1]] < tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def _gram_schmidt_against_axes(v):
    """Deterministic orthonormal basis of span(v): project coordinate axes
    in index order, Gram-Schmidt, skip near-zero residuals."""
    n, m = v.shape
    picked = []
    for a in range(n):
        p = v @ v[a, :]
        for b in picked:
            p = p - (p @ b) * b
        nrm = np.linalg.norm(p)
        if nrm > 1e-7:
            picked.append(p / nrm)
            if len(picked) == m:
                break
    if len(picked) < m:
        # extreme degeneracy: keep original columns orthogonalized
        for c in range(m):
            p = v[:, c].copy()
            for b in picked:
                p = p - (p @ b) * b
            nrm = np.linalg.norm(p)
            if nrm > 1e-12:
                picked.append(p / nrm)
            if len(picked) == m:
                break
    return np.column_stack(picked)


def _apply_sign_convention(vecs):
    for c in range(vecs.shape[1]):
        col = vecs[:, c]
        idx = int(np.argmax(np.abs(col)))  # first max wins ties
        if col[idx] < 0:
            vecs[:, c] = -col
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
    for cluster in _cluster_eigenvalues(vals):
        if len(cluster) > 1:
            sub = vecs[:, cluster[0] : cluster[-1] + 1]
            vecs[:, cluster[0] : cluster[-1] + 1] = _gram_schmidt_against_axes(sub)
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

def coarsen(g: LocalGraph, n_target: int):
    """Reduce ``g`` to exactly min(n_target, n) supernodes.

    Returns (coarse LocalGraph, CoarseningMap).  Coarse adjacency has an
    edge between supernodes iff any fine edge crosses them.
    """
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    n = g.n
    members = [[i] for i in range(n)]
    weights = {}
    for a, b in g.edges:
        weights[(int(a), int(b))] = weights.get((int(a), int(b)), 0) + 1

    k = n
    while k > n_target:
        budget = k - n_target
        adj = [dict() for _ in range(k)]
        for (a, b), w in weights.items():
            adj[a][b] = w
            adj[b][a] = w
        matched = [False] * k
        pairs = []
        for v in range(k):
            if matched[v] or not adj[v]:
                continue
            best_u, best_w = -1, -1
            for u in sorted(adj[v]):
                if matched[u]:
                    continue
                if adj[v][u] > best_w:
                    best_u, best_w = u, adj[v][u]
            if best_u >= 0:
                matched[v] = matched[best_u] = True
                pairs.append((min(v, best_u), max(v, best_u)))
                if len(pairs) == budget:
                    break
        if not pairs:
            # edgeless residue: merge the two smallest supernodes
            order = sorted(range(k), key=lambda s: (len(members[s]), members[s][0]))
            pairs = [tuple(sorted(order[:2]))]

        merge_into = {b: a for a, b in pairs}  # pairs are disjoint (matching)
        root_of = [merge_into.get(i, i) for i in range(k)]
        groups = {}
        for old in range(k):
            groups.setdefault(root_of[old], []).extend(members[old])
        roots_sorted = sorted(groups, key=lambda r: min(groups[r]))
        new_id_of_root = {root: i for i, root in enumerate(roots_sorted)}
        old_to_new = {old: new_id_of_root[root_of[old]] for old in range(k)}
        new_members = [sorted(groups[root]) for root in roots_sorted]
        new_weights = {}
        for (a, b), w in weights.items():
            na, nb = old_to_new[a], old_to_new[b]
            if na == nb:
                continue
            key = (min(na, nb), max(na, nb))
            new_weights[key] = new_weights.get(key, 0) + w
        members = new_members
        weights = new_weights
        k = len(members)

    fine_to_coarse = np.zeros(n, dtype=np.int64)
    for p, mem in enumerate(members):
        for i in mem:
            fine_to_coarse[i] = p
    coarse = LocalGraph(n=k, edges=_canonical_edges(list(weights.keys())))
    cmap = CoarseningMap(
        supernodes=[np.array(m, dtype=np.int64) for m in members],
        fine_to_coarse=fine_to_coarse,
    )
    return coarse, cmap


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
    """Leaves of the recursive split, the DFS split tree (1 = internal,
    0 = leaf) and a flag set when the vertex bound could not be met."""

    parts: list
    tree: list
    warned: bool


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


def _partition_recurse(sr, t_count, tree, parts, should_split, warned):
    if not should_split(sr):
        tree.append(0)
        parts.append(sr)
        return warned
    split = _split_reference(sr.per_view_pixels[0])
    if split is None:
        tree.append(0)
        parts.append(sr)
        return True
    tree.append(1)
    for child in _reproject_children(sr, split, t_count):
        warned = _partition_recurse(child, t_count, tree, parts, should_split, warned)
    return warned


def partition_super_ray(sr: SuperRay, max_vertices: int, angular_dims) -> PartitionResult:
    """Recursively split a super-ray until every part has at most
    ``max_vertices`` total vertices."""
    s_count, t_count = angular_dims
    if max_vertices < s_count * t_count:
        raise ValueError("max_vertices must be at least the view count")
    tree, parts = [], []
    warned = _partition_recurse(
        sr, t_count, tree, parts, lambda r: r.total_pixels > max_vertices, warned=False
    )
    return PartitionResult(parts=parts, tree=tree, warned=warned)


def partition_with_tree(sr: SuperRay, tree, angular_dims) -> list:
    """Replay a transmitted split tree (decoder side); no size checks."""
    _, t_count = angular_dims
    pos = [0]

    def walk(node):
        if pos[0] >= len(tree):
            raise ValueError("split tree truncated")
        bit = tree[pos[0]]
        pos[0] += 1
        if bit == 0:
            return [node]
        split = _split_reference(node.per_view_pixels[0])
        if split is None:
            raise ValueError("split tree does not match super-ray geometry")
        out = []
        for child in _reproject_children(node, split, t_count):
            out.extend(walk(child))
        return out

    parts = walk(sr)
    if pos[0] != len(tree):
        raise ValueError("split tree has trailing bits")
    return parts
