"""Shared scene builders for codec tests."""

import numpy as np
import pytest

from srgc.lightfield import DisparityMap, LightField, View, SceneSpec, Patch, synthesize_light_field
from srgc.errors import CorruptStreamError, DecompositionError, OrphanLabelError
from srgc.segmentation import SuperRay, fill_holes, label_shift, median_disparity
from srgc.spectral import (
    CoarseningMap,
    EigenBasis,
    LocalGraph,
    PartitionResult,
    _split_reference,
)
from srgc.util import quantize_eighth


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


def _canonical_edges(pairs):
    if not pairs:
        return np.zeros((0, 2), dtype=np.int64)
    e = np.array(sorted({(min(a, b), max(a, b)) for a, b in pairs}), dtype=np.int64)
    return e


def graph_structure_oracle(sr, angular_dims):
    """Oracle: the dict-keyed, view-by-view graph builder that
    ``spectral.graph_structure`` replaced; identical output required."""
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


def coarsen_oracle(g, n_target):
    """Oracle: the dict-adjacency heavy-edge coarsener that
    ``spectral.coarsen`` replaced; identical output required."""
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


def cluster_eigenvalues_oracle(vals, tol=1e-9):
    """Oracle: eigenvalue clusters as index lists, grown while the gap to
    the cluster's last member stays below ``tol``."""
    clusters = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[clusters[-1][-1]] < tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def gram_schmidt_against_axes_oracle(v):
    """Oracle: the per-axis loop the row-wise Gram-Schmidt replaced.
    Project coordinate axes onto span(v) in index order, Gram-Schmidt each
    against every earlier pick, skip residuals of norm <= 1e-7.  Returns
    fewer than m columns when fewer axes pass."""
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
    return np.column_stack(picked)


def apply_sign_convention_oracle(vecs):
    """Oracle: column by column, make the first largest-magnitude entry
    positive."""
    for c in range(vecs.shape[1]):
        col = vecs[:, c]
        if col[int(np.argmax(np.abs(col)))] < 0:
            vecs[:, c] = -col
    return vecs


def _eigendecompose_by_cluster(lap, canonicalize):
    """One LAPACK call, ``canonicalize`` on every degenerate cluster block,
    the sign rule; no tolerance checks."""
    vals, vecs = np.linalg.eigh(lap.matrix)
    vecs = vecs.copy()
    for cluster in cluster_eigenvalues_oracle(vals):
        if len(cluster) > 1:
            lo, hi = cluster[0], cluster[-1] + 1
            vecs[:, lo:hi] = canonicalize(vecs[:, lo:hi])
    return EigenBasis(eigenvalues=vals, vectors=apply_sign_convention_oracle(vecs))


def eigendecompose_oracle(lap):
    """Oracle: ``spectral.eigendecompose`` with the per-axis loop
    canonicalization; equal to it within rounding, not bit for bit."""
    return _eigendecompose_by_cluster(lap, gram_schmidt_against_axes_oracle)


def canonical_cluster_basis_oracle(v):
    """Oracle: the one-block row-wise Gram-Schmidt that
    ``spectral._canonical_cluster_bases`` runs as a stack: for an n x m
    block with orthonormal columns, each step picks the first row after
    the last pick whose residual is above 1e-7 and removes its direction
    from every later row.  Returns ``v @ picks``."""
    m = v.shape[1]
    rows = v.copy()
    picks = np.empty((m, m))
    a = 0
    for k in range(m):
        rest = rows[a:]
        norms = np.sqrt(np.einsum("ij,ij->i", rest, rest))
        above = norms > 1e-7
        if not above.any():
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


def eigendecompose_unbatched_oracle(lap):
    """Oracle: the per-Laplacian, per-cluster eigen stage that
    ``spectral.eigendecompose_all`` replaced.  Bit-equal to it on the bench
    scenes' Laplacians; elsewhere equal within rounding, because the loop
    projects only the rows after the last pick and BLAS rounds a
    matrix-vector product row by its position in the call."""
    return _eigendecompose_by_cluster(lap, canonical_cluster_basis_oracle)


def coarse_mean_signal_oracle(cmap, fine_signal):
    """Oracle: ``spectral.coarse_mean_signal`` as one mean per supernode."""
    f = np.asarray(fine_signal, dtype=np.float64)
    return np.array([f[mem].mean() for mem in cmap.supernodes])


def fill_holes_oracle(grid, fallback):
    """Oracle: the hole-by-hole loop ``segmentation.fill_holes`` replaced;
    identical output required."""
    h, w = grid.shape
    while True:
        holes = np.argwhere(grid == -1)
        if holes.size == 0:
            return
        assignments = []
        for y, x in holes:
            counts = {}
            for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                if 0 <= ny < h and 0 <= nx < w and grid[ny, nx] >= 0:
                    lbl = int(grid[ny, nx])
                    counts[lbl] = counts.get(lbl, 0) + 1
            if counts:
                best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
                assignments.append((y, x, best))
        if not assignments:
            mask = grid == -1
            grid[mask] = np.broadcast_to(fallback, grid.shape)[mask]
            return
        for y, x, lbl in assignments:
            grid[y, x] = lbl


def reproject_children_oracle(sr, child_refs, t_count):
    """Oracle: the view-by-view reprojection that
    ``spectral._reproject_children`` replaced, one grid over each view's
    own bounding box and one :func:`fill_holes` per view; identical
    output required."""
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


def _partition_recurse_oracle(sr, t_count, tree, parts, should_split, warned):
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
    for child in reproject_children_oracle(sr, split, t_count):
        warned = _partition_recurse_oracle(child, t_count, tree, parts, should_split, warned)
    return warned


def partition_super_ray_oracle(sr, max_vertices, angular_dims):
    """Oracle: the encoder's own split recursion ``spectral._split_walk``
    replaced.  Returns (PartitionResult, warned), warned when a part over
    the bound could not be split."""
    s_count, t_count = angular_dims
    if max_vertices < s_count * t_count:
        raise ValueError("max_vertices must be at least the view count")
    tree, parts = [], []
    warned = _partition_recurse_oracle(
        sr, t_count, tree, parts, lambda r: r.total_pixels > max_vertices, warned=False
    )
    return PartitionResult(parts=parts, tree=tree), warned


def partition_with_tree_oracle(sr, tree, angular_dims):
    """Oracle: the decoder's own split recursion ``spectral._split_walk``
    replaced, with its three ValueError messages."""
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
        for child in reproject_children_oracle(node, split, t_count):
            out.extend(walk(child))
        return out

    parts = walk(sr)
    if pos[0] != len(tree):
        raise ValueError("split tree has trailing bits")
    return parts


def label_disparities_oracle(seg, dmap):
    """Oracle: ``segmentation.label_disparities`` with one ``== l`` scan of
    the reference map per label, as before ``label_regions``."""
    ref = seg.reference
    disparities = {}
    for l in range(seg.label_count):
        region = np.argwhere(ref == l)
        if region.shape[0] == 0:
            raise OrphanLabelError(f"orphan label {l}: absent from reference view")
        disparities[l] = quantize_eighth(median_disparity(region, dmap))
    return disparities


def assemble_super_rays_oracle(seg, disparities):
    """Oracle: ``segmentation.assemble_super_rays`` with one ``== l`` scan
    per label and view, as before ``label_regions``."""
    count = seg.label_count
    rays = []
    per_label = [[] for _ in range(count)]
    for view_labels in seg.labels:
        for l in range(count):
            ys, xs = np.nonzero(view_labels == l)
            per_label[l].append(np.column_stack([ys, xs]).astype(np.int64))
    for l in range(count):
        if per_label[l][0].shape[0] == 0:
            raise OrphanLabelError(f"orphan label {l}: absent from reference view")
        rays.append(
            SuperRay(label=l, per_view_pixels=per_label[l], disparity=disparities[l])
        )
    return rays


def segmentation_symbols_oracle(labels):
    """Oracle: ``codec._segmentation_symbols`` as a per-pixel loop."""
    h, w = labels.shape
    syms = np.empty(h * w, dtype=np.int64)
    pos = 0
    for y in range(h):
        row = labels[y]
        up = labels[y - 1] if y > 0 else None
        for x in range(w):
            v = row[x]
            if x > 0 and row[x - 1] == v:
                syms[pos] = 0
            elif up is not None and up[x] == v:
                syms[pos] = 1
            else:
                syms[pos] = v + 2
            pos += 1
    return syms


def segmentation_from_symbols_oracle(syms, w, h, label_count):
    """Oracle: ``codec._segmentation_from_symbols`` as a per-pixel loop,
    raising at the first invalid symbol in raster order."""
    labels = np.zeros((h, w), dtype=np.int64)
    pos = 0
    for y in range(h):
        for x in range(w):
            s = int(syms[pos])
            pos += 1
            if s == 0:
                if x == 0:
                    raise CorruptStreamError("corrupt stream: copy-left at row start")
                labels[y, x] = labels[y, x - 1]
            elif s == 1:
                if y == 0:
                    raise CorruptStreamError("corrupt stream: copy-up in first row")
                labels[y, x] = labels[y - 1, x]
            else:
                v = s - 2
                if v < 0 or v >= label_count:
                    raise CorruptStreamError(
                        f"corrupt stream: label {v} out of range at ({y},{x})"
                    )
                labels[y, x] = v
    return labels


@pytest.fixture
def flat_dmap():
    def _make(w, h, value=0.0):
        return DisparityMap(values=np.full((h, w), value))

    return _make
