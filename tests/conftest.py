"""Shared scene builders for codec tests."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from srgc.lightfield import DisparityMap, LightField, View, SceneSpec, Patch, synthesize_light_field
from srgc.errors import CorruptStreamError, DecompositionError, OrphanLabelError
from srgc.grouping import (
    GroupSet,
    SuperRayGroup,
    derive_group_members,
    pairwise_mse,
    select_main,
    select_threshold,
)
from srgc.segmentation import (
    SegmentationMap,
    SuperRay,
    assemble_super_rays,
    fill_cells,
    label_disparities,
    label_regions,
)
from srgc.spectral import (
    EigenBasis,
    Laplacian,
    LocalGraph,
    PartitionResult,
    coarsen,
    connected_graphs,
    dc_basis,
    eigendecompose,
    eigendecompose_all,
    laplacian,
)
from srgc.util import round_half_away

_FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


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


def luma_planes_oracle(lf):
    """Oracle: ``LightField.luma_planes`` as one BT.709 plane per view,
    each rounded half away from zero and clamped to the sample range;
    returns the list of int64 planes."""
    out = []
    for v in lf.views:
        if v.channels == 1:
            out.append(v.planes[0].astype(np.int64))
            continue
        r, g, b = (p.astype(np.float64) for p in v.planes)
        y = 0.2126 * r + 0.7152 * g + 0.0722 * b
        rounded = np.sign(y) * np.floor(np.abs(y) + 0.5)
        out.append(np.clip(rounded.astype(np.int64), 0, lf.max_value))
    return out


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


def bench_workloads():
    """The benchmark's scene generators and settings (perfbench/workloads.py)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def lf_equal(a, b):
    """Bit-exact equality of two light fields."""
    if (a.angular_dims, a.bit_depth, a.channels, a.spatial_dims) != (
        b.angular_dims,
        b.bit_depth,
        b.channels,
        b.spatial_dims,
    ):
        return False
    for va, vb in zip(a.views, b.views):
        for pa, pb in zip(va.planes, vb.planes):
            if not np.array_equal(pa, pb):
                return False
    return True


def grouping_ratios(report):
    """Grouped/coarsened and grouped/total quotients from an EncodeReport."""
    return report.coarsened_ratio, report.overall_ratio


def build_super_rays(seg, dmap):
    """One SuperRay per label with its ``label_disparities`` value."""
    return assemble_super_rays(seg, label_disparities(seg, dmap))


def super_ray(per_view, disparity):
    """A SuperRay from per-view (N_v, 2) (y, x) pixel arrays: their rows
    stacked in view order behind a view column."""
    pixels = np.concatenate([
        np.column_stack([np.full(len(p), v), np.reshape(p, (-1, 2))])
        for v, p in enumerate(per_view)
    ]).astype(np.int64)
    return SuperRay(pixels=pixels, disparity=disparity)


def reference_rows(sr):
    """A super-ray's reference-view (v = 0) rows, a prefix of its pixels."""
    return sr.pixels[: np.searchsorted(sr.pixels[:, 0], 1)]


def per_view(sr, n_views):
    """A super-ray's pixels split back into per-view (N_v, 2) (y, x)
    arrays, views 0..n_views-1."""
    return [sr.pixels[sr.pixels[:, 0] == v, 1:] for v in range(n_views)]


def label_shift(disparity, s, t):
    """Oracle: the integer (dy, dx) shift of a label's pixels in view
    (s, t), one view at a time, as ``segmentation.label_shifts`` must
    give it for every view at once."""
    return round_half_away(disparity * s), round_half_away(disparity * t)


def pair_index(m, i, j):
    """Position of the pair {i, j} in ``pairwise_mse``'s condensed array."""
    if i == j:
        raise KeyError("no self-pair weight")
    i, j = min(i, j), max(i, j)
    return i * m - i * (i + 1) // 2 + (j - i - 1)


def one_level_groups_oracle(weights, threshold):
    """Oracle: the per-index similarity sets {i} u {j : mse(i,j) <= threshold}
    that ``grouping.derive_group_members`` once built pair by pair, from
    the condensed pair MSEs ``weights`` over m indices; singletons
    dropped."""
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    m = round((1 + math.sqrt(1 + 8 * weights.size)) / 2)
    sets = []
    for i in range(m):
        members = {i}
        for j in range(m):
            if j != i and weights[pair_index(m, i, j)] <= threshold:
                members.add(j)
        if len(members) >= 2:
            sets.append(tuple(sorted(members)))
    return sets


def merge_groups_oracle(subs):
    """Oracle: union of intersecting sets by a dict union-find (connected
    components of the overlap relation); output ordered by smallest member,
    members ascending."""
    parent = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for s in subs:
        it = iter(s)
        first = next(it, None)
        if first is None:
            continue
        parent.setdefault(first, first)
        ra = find(first)
        for b in it:
            parent.setdefault(b, b)
            rb = find(b)
            if ra != rb:
                if rb < ra:
                    ra, rb = rb, ra
                parent[rb] = ra
    components = {}
    for a in parent:
        components.setdefault(find(a), set()).add(a)
    return [tuple(sorted(c)) for c in sorted(components.values(), key=min)]


def derive_group_members_oracle(coeffs, bin_width=5.0):
    """Oracle: ``grouping.derive_group_members`` as 1-level sets merged
    transitively; identical groups and threshold required."""
    if len(coeffs) < 2:
        return [], 0.0
    weights = pairwise_mse(coeffs)
    threshold = select_threshold(weights, bin_width)
    return merge_groups_oracle(one_level_groups_oracle(weights, threshold)), threshold


def run_grouping(coeffs, signals, bin_width=5.0):
    """The encoder's grouping pass on bare vectors, as ``codec.encode``
    runs it on the groupable units' luma: membership, then each group's
    main, as a GroupSet over positions 0..m-1."""
    merged, threshold = derive_group_members(coeffs, bin_width)
    groups = [
        SuperRayGroup(members=members, main_index=select_main(members, signals))
        for members in merged
    ]
    return GroupSet.over(groups, len(coeffs), threshold)


def laplacian_oracle(g):
    """Oracle: ``spectral.laplacian`` as D - A from dense degree and
    adjacency matrices; integer entries, so identical bits required."""
    a = np.zeros((g.n, g.n), dtype=np.float64)
    d = np.zeros(g.n, dtype=np.float64)
    if g.edges.size:
        a[g.edges[:, 0], g.edges[:, 1]] = 1.0
        a[g.edges[:, 1], g.edges[:, 0]] = 1.0
        np.add.at(d, g.edges[:, 0], 1.0)
        np.add.at(d, g.edges[:, 1], 1.0)
    return Laplacian(matrix=np.diag(d) - a)


def project_labels_oracle(ref_map, disparities, angular_dims):
    """Oracle: the view-by-view, label-by-label projection that
    ``segmentation.project_labels`` replaced, one :func:`fill_holes` per
    view with the reference map as fallback; identical output required."""
    ref = ref_map.reference
    count = ref_map.label_count
    if len(disparities) != count:
        raise ValueError(f"{len(disparities)} disparities for {count} labels")
    h, w = ref.shape
    s_count, t_count = angular_dims
    order = sorted(range(count), key=lambda l: (disparities[l], -l))
    regions = label_regions(ref, count)
    out = []
    for s in range(s_count):
        for t in range(t_count):
            if s == 0 and t == 0:
                out.append(ref.copy())
                continue
            view = np.full((h, w), -1, dtype=np.int64)
            for l in order:
                dy, dx = label_shift(disparities[l], s, t)
                ys, xs = regions[l].T
                ty, tx = ys - dy, xs - dx
                ok = (ty >= 0) & (ty < h) & (tx >= 0) & (tx < w)
                view[ty[ok], tx[ok]] = l
            fill_holes(view, ref)
            out.append(view)
    return SegmentationMap(labels=np.stack(out), label_count=count)


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
    index_maps = []
    offset = 0
    for pix in per_view(sr, s_count * t_count):
        index_maps.append(
            {(int(y), int(x)): offset + i for i, (y, x) in enumerate(pix)}
        )
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

    return LocalGraph(n=offset, edges=_canonical_edges(pairs))


def graph_structure_union_oracle(srs, angular_dims):
    """Oracle: the disjoint union ``spectral.graph_structure`` builds, put
    together from :func:`graph_structure_oracle` graphs unit by unit, each
    unit's vertex ids offset by the vertices of the units before it."""
    graphs = [graph_structure_oracle(sr, angular_dims) for sr in srs]
    offsets = np.cumsum([0] + [g.n for g in graphs])
    edges = [g.edges + o for g, o in zip(graphs, offsets.tolist())]
    return LocalGraph(
        n=int(offsets[-1]), edges=np.concatenate(edges or [np.zeros((0, 2), dtype=np.int64)])
    )


def heavy_edge_matching_oracle(a, b, w, k, budget):
    """Oracle: the two-direction scan that ``spectral._heavy_edge_matching``
    replaced.  Every vertex's full neighbor list, ascending, is scanned for
    the unmatched neighbor of largest weight (ties to the smallest index);
    stops after ``budget`` pairs.  Identical (roots, merged) required."""
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
            matched[v] = matched[best_u] = True
            roots.append(v)
            merged.append(best_u)
            if len(roots) == budget:
                break
    return np.array(roots, dtype=np.int64), np.array(merged, dtype=np.int64)


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
    return coarse, fine_to_coarse


def merge_edges_oracle(a, b, w, old_to_new, k):
    """Oracle: the ``np.unique(..., return_inverse=True)`` contraction that
    ``spectral._merge_edges`` replaced; identical arrays, dtypes included,
    required."""
    na, nb = old_to_new[a], old_to_new[b]
    cross = na != nb
    na, nb = na[cross], nb[cross]
    keys, inverse = np.unique(
        np.minimum(na, nb) * k + np.maximum(na, nb), return_inverse=True
    )
    w = np.bincount(inverse, weights=w[cross], minlength=keys.size).astype(np.int64)
    a, b = np.divmod(keys, k)
    return a, b, w


def supernodes(fine_to_coarse):
    """The supernode lists of a coarsening: ``[p]`` holds the fine indices
    of coarse vertex p, ascending."""
    return [np.flatnonzero(fine_to_coarse == p) for p in range(fine_to_coarse.max() + 1)]


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


def laplacian_connected_oracle(lap):
    """Oracle: whether a Laplacian's graph is connected, by flood fill over
    its nonzero off-diagonal entries."""
    n = lap.matrix.shape[0]
    return connected_components(n, np.argwhere(np.triu(lap.matrix, 1) != 0))[1] == 1


def assert_spectrum_rule(g):
    """Check the eigen stage's DC rule on graph ``g``; returns whether
    :func:`spectral.connected_graphs` finds it connected.  Column 0 of
    ``eigendecompose(laplacian(g))`` equals ``np.full(n, 1 / np.sqrt(n))``,
    and :func:`spectral.dc_basis`'s column, exactly when g is connected;
    otherwise the zero-eigenvalue cluster is one column per component (by
    flood fill), the normalized component indicators in order of smallest
    vertex, within 1e-9."""
    basis = eigendecompose(laplacian(g))
    connected = bool(connected_graphs([g])[0])
    column = basis.vectors[:, 0]
    assert np.array_equal(column, np.full(g.n, 1 / np.sqrt(g.n))) == connected
    assert np.array_equal(column, dc_basis(g.n).vectors[:, 0]) == connected
    if not connected:
        comp, count = connected_components(g.n, g.edges)
        zero = cluster_eigenvalues_oracle(basis.eigenvalues)[0]
        assert zero == list(range(count))
        indicators = (comp[:, None] == np.arange(count)) / np.sqrt(np.bincount(comp))
        assert np.abs(basis.vectors[:, :count] - indicators).max() < 1e-9
    return connected


def _eigendecompose_by_cluster(lap, canonicalize):
    """One LAPACK call, ``canonicalize`` on every degenerate cluster block,
    the sign rule; no tolerance checks.  For a connected graph
    (:func:`laplacian_connected_oracle`) column 0 is the constant unit
    vector and a cluster of its own."""
    vals, vecs = np.linalg.eigh(lap.matrix)
    vecs = vecs.copy()
    clusters = cluster_eigenvalues_oracle(vals)
    if laplacian_connected_oracle(lap):
        vecs[:, 0] = np.full(vals.size, 1 / np.sqrt(vals.size))
        clusters = [[0], clusters[0][1:], *clusters[1:]]
    for cluster in clusters:
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


def coarsen_graphs_oracle(fines, n_target):
    """Oracle: the per-unit coarsening ``codec._coarsen_graphs`` replaced,
    one ``coarsen`` call per pixel graph, repeated graphs included, each
    counted."""
    return [coarsen(g, n_target) for g in fines], len(fines)


def eigenbases_oracle(graphs, needed=None, probes=None):
    """Oracle: the per-unit eigen stage ``codec._eigenbases`` replaced, one
    Laplacian per graph, repeated graphs included, all solved in one
    ``eigendecompose_all`` call, each with its own column mask and probe;
    no closed-form basis, and every graph counts as solved."""
    return eigendecompose_all((laplacian(g) for g in graphs), needed, probes), len(graphs)


def probe_mask_oracle(lap, probe):
    """Oracle: the columns the probe rule of ``eigendecompose_all`` keeps
    of ``lap``'s basis, one cluster and one signal at a time.  A
    degenerate cluster of LAPACK's columns V_c is dropped when every
    signal f has ||V_c^T f|| * (1 + 1e-6) + 1e-9 * ||f|| below half the
    smallest step over the cluster's columns.  A probe of None keeps
    every column."""
    vals, vecs = np.linalg.eigh(lap.matrix)
    keep = np.ones(vals.size, dtype=bool)
    if probe is None:
        return keep
    signals, steps = (np.asarray(a, dtype=np.float64) for a in probe)
    for cluster in cluster_eigenvalues_oracle(vals):
        half = steps[cluster].min() / 2
        if len(cluster) > 1 and all(
            np.linalg.norm(vecs[:, cluster].T @ f) * (1 + 1e-6) + 1e-9 * np.linalg.norm(f) < half
            for f in signals
        ):
            keep[cluster] = False
    return keep


def drop_unread_clusters_oracle(basis, needed):
    """Oracle: what a column mask leaves of a full basis.  Every
    eigenvalue cluster of two or more columns with no needed column is
    zeroed; every other column keeps its bits.  ``needed`` None returns
    ``basis`` as it is."""
    if needed is None:
        return basis
    vecs = basis.vectors.copy()
    for cluster in cluster_eigenvalues_oracle(basis.eigenvalues):
        if len(cluster) > 1 and not any(needed[i] for i in cluster):
            vecs[:, cluster] = 0.0
    return EigenBasis(eigenvalues=basis.eigenvalues, vectors=vecs)


def coarse_mean_signal_oracle(fine_to_coarse, fine_signal):
    """Oracle: ``spectral.coarse_mean_signal`` as one mean per supernode."""
    f = np.asarray(fine_signal, dtype=np.float64)
    return np.array([f[mem].mean() for mem in supernodes(fine_to_coarse)])


def fill_holes(grid, fallback):
    """In-place majority fill of the -1 cells of a 2-D label grid, by
    ``segmentation.fill_cells`` on a copy padded with outside cells; the
    holes left when a round assigns nothing take ``fallback`` (a scalar or
    a grid-shaped array).  The per-view fill of the projection and
    reprojection oracles."""
    h, w = grid.shape
    work = np.full((h + 2, w + 2), -2, dtype=grid.dtype)
    work[1:-1, 1:-1] = grid
    flat = work.ravel()
    fill_cells(flat, np.flatnonzero(flat == -1), w + 2)
    grid[...] = work[1:-1, 1:-1]
    stalled = grid == -1
    grid[stalled] = np.broadcast_to(fallback, grid.shape)[stalled]


def fill_holes_oracle(grid, fallback):
    """Oracle: :func:`fill_holes` as the hole-by-hole loop that
    ``segmentation.fill_cells`` replaced; identical output required."""
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


def slic_segment_oracle(image, k, compactness=10.0, iterations=10, hits=None):
    """Oracle: the per-center loop ``segmentation.slic_segment`` replaced;
    identical labels and label count required on integer images.  Each
    iteration walks the centers in order, keeping a pixel's label where a
    later center's D is strictly smaller, and takes each center's new
    position and sample as ``.mean()`` calls.  ``hits``, a dict, counts
    the branches the array version must match: pixels outside every
    window (``outside``), centers left with no pixels (``empty``), cells
    whose D equals the best so far (``tie``), and those of
    :func:`enforce_connectivity_oracle`."""
    hits = {} if hits is None else hits
    image = np.asarray(image)
    h, w = image.shape
    ny = max(1, int(round(np.sqrt(k * h / w))))
    nx = max(1, int(round(k / ny)))
    step_x, step_y = w / nx, h / ny
    seeds = [(float(y), float(x))
             for y in (np.arange(ny) + 0.5) * h / ny for x in (np.arange(nx) + 0.5) * w / nx]
    f = image.astype(np.float64)
    gy, gx = (np.gradient(f, axis=a) if f.shape[a] > 1 else np.zeros_like(f) for a in (0, 1))
    grad = gy * gy + gx * gx
    offsets = sorted(
        ((dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)),
        key=lambda o: (o[0] * o[0] + o[1] * o[1], o[0], o[1]),
    )
    moved = []
    for sy, sx in seeds:
        cy, cx = int(sy), int(sx)
        best = None
        for dy, dx in offsets:
            y, x = cy + dy, cx + dx
            if 0 <= y < h and 0 <= x < w:
                if best is None or grad[y, x] < best[0]:
                    best = (grad[y, x], y, x)
        moved.append((float(best[1]), float(best[2])))
    img = f
    centers = np.array([[sy, sx, img[int(sy), int(sx)]] for sy, sx in moved])
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
            hits["tie"] = hits.get("tie", 0) + int(np.count_nonzero(d == sub))
            better = d < sub
            sub[better] = d[better]
            labels[y0:y1, x0:x1][better] = ci
        missing = labels < 0
        hits["outside"] = hits.get("outside", 0) + int(missing.sum())
        if missing.any():
            ys, xs = np.nonzero(missing)
            d2 = (ys[:, None] - centers[:, 0]) ** 2 + (xs[:, None] - centers[:, 1]) ** 2
            labels[ys, xs] = np.argmin(d2, axis=1)
        for ci in range(len(centers)):
            mask = labels == ci
            if mask.any():
                ys, xs = np.nonzero(mask)
                centers[ci] = (ys.mean(), xs.mean(), img[ys, xs].mean())
            else:
                hits["empty"] = hits.get("empty", 0) + 1
    labels, count = enforce_connectivity_oracle(labels, w, h, len(seeds), hits)
    return SegmentationMap(labels=labels[None], label_count=count)


def label_components_oracle(labels):
    """Oracle: the per-label loop ``segmentation._label_components``
    replaced, each non-negative label labelled by ``ndimage.label`` inside
    its own ``ndimage.find_objects`` box; identical ids and count
    required."""
    comp = np.full(labels.shape, -1, dtype=np.int64)
    next_id = 0
    for lbl, box in enumerate(ndimage.find_objects(labels + 1)):
        if box is None:
            continue
        cc, n = ndimage.label(labels[box] == lbl, structure=_FOUR_CONN)
        inside = cc > 0
        comp[box][inside] = cc[inside] + (next_id - 1)
        next_id += n
    return comp, next_id


def enforce_connectivity_oracle(labels, w, h, k, hits=None):
    """Oracle: the full-frame connectivity pass ``segmentation.
    _enforce_connectivity`` replaced, one frame-sized mask per label,
    component and fragment.  ``hits`` counts fragments merged into a
    fragment that is itself merged later (``chain``)."""
    hits = {} if hits is None else hits
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
    pending = set(small)
    for frag in small:
        pending.discard(frag)
        mask = comp == frag
        if not mask.any():
            continue
        ring = ndimage.binary_dilation(mask, structure=_FOUR_CONN) & ~mask
        neigh = comp[ring]
        neigh = neigh[neigh >= 0]
        if neigh.size == 0:
            continue
        counts = np.bincount(neigh, minlength=next_id)
        candidates = np.flatnonzero(counts)
        target = int(candidates[np.lexsort((candidates, -sizes[candidates]))[0]])
        hits["chain"] = hits.get("chain", 0) + (target in pending)
        comp[mask] = target
        sizes[target] += sizes[frag]
        sizes[frag] = 0
    ids, first = np.unique(comp, return_index=True)
    remap = np.full(next_id, -1, dtype=np.int64)
    remap[ids[np.argsort(first)]] = np.arange(ids.size)
    return remap[comp], ids.size


def split_reference_oracle(ref):
    """Oracle: the per-node bisection ``spectral._bisect`` replaced.  Cut a
    reference region, rows ending in (y, x), at the lower-median
    coordinate of its longer bounding-box axis (ties to x); None if
    unsplittable."""
    ys, xs = ref[:, -2], ref[:, -1]
    w_extent = int(xs.max() - xs.min())
    h_extent = int(ys.max() - ys.min())
    axes = [-1, -2] if w_extent >= h_extent else [-2, -1]
    for axis in axes:
        coords = ref[:, axis]
        cut = np.sort(coords)[(coords.size - 1) // 2]
        mask = coords <= cut
        if 0 < mask.sum() < coords.size:
            return ref[mask], ref[~mask]
    return None


def reproject_children_oracle(sr, child_refs, angular_dims):
    """Oracle: the view-by-view reprojection of one split, one grid over
    each view's own bounding box and one :func:`fill_holes` per view, as
    before the stacked reprojection of ``spectral._split_level``; identical
    output required.  ``child_refs`` are rows ending in (y, x)."""
    n_views, t_count = angular_dims[0] * angular_dims[1], angular_dims[1]
    parents = per_view(sr, n_views)
    children = [[None] * n_views for _ in child_refs]
    for c, ref in enumerate(child_refs):
        children[c][0] = ref[:, -2:]
    for v in range(1, n_views):
        parent = parents[v]
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
            ty, tx = (ref[:, -2:] - shift).T
            ok = (ty >= 0) & (ty < grid.shape[0]) & (tx >= 0) & (tx < grid.shape[1])
            ty, tx = ty[ok], tx[ok]
            inside = grid[ty, tx] != -2
            grid[ty[inside], tx[inside]] = c
        fill_holes(grid, 0)
        for c in range(len(child_refs)):
            children[c][v] = np.argwhere(grid == c) + origin
    return [super_ray(pv, sr.disparity) for pv in children]


def _partition_recurse_oracle(sr, angular_dims, tree, parts, should_split, warned):
    if not should_split(sr):
        tree.append(0)
        parts.append(sr)
        return warned
    split = split_reference_oracle(per_view(sr, 1)[0])
    if split is None:
        tree.append(0)
        parts.append(sr)
        return True
    tree.append(1)
    for child in reproject_children_oracle(sr, split, angular_dims):
        warned = _partition_recurse_oracle(
            child, angular_dims, tree, parts, should_split, warned
        )
    return warned


def partition_super_ray_oracle(sr, max_vertices, angular_dims):
    """Oracle: the encoder's depth-first split recursion of one super-ray,
    which the breadth-first ``spectral._level_walk`` over all super-rays
    replaced.  Returns (PartitionResult of ``sr`` alone, warned), warned
    when a part over the bound could not be split."""
    s_count, t_count = angular_dims
    if max_vertices < s_count * t_count:
        raise ValueError("max_vertices must be at least the view count")
    tree, parts = [], []
    warned = _partition_recurse_oracle(
        sr, angular_dims, tree, parts, lambda r: r.total_pixels > max_vertices, warned=False
    )
    return PartitionResult(parts=parts, bits=tree), warned


def partition_with_tree_oracle(sr, tree, angular_dims):
    """Oracle: the decoder's depth-first replay of one super-ray's tree,
    which the breadth-first ``spectral._level_walk`` over all super-rays
    replaced, with its three ValueError messages (on trees split by
    :func:`parse_structure_oracle` only the geometry one can occur)."""
    pos = [0]

    def walk(node):
        if pos[0] >= len(tree):
            raise ValueError("split tree truncated")
        bit = tree[pos[0]]
        pos[0] += 1
        if bit == 0:
            return [node]
        split = split_reference_oracle(per_view(node, 1)[0])
        if split is None:
            raise ValueError("split tree does not match super-ray geometry")
        out = []
        for child in reproject_children_oracle(node, split, angular_dims):
            out.extend(walk(child))
        return out

    parts = walk(sr)
    if pos[0] != len(tree):
        raise ValueError("split tree has trailing bits")
    return parts


def partition_super_rays_oracle(srs, max_vertices, angular_dims):
    """:func:`partition_super_ray_oracle` over a list of super-rays, one
    after another: (PartitionResult of all of them, whose bits are their
    trees back to back, warned per super-ray)."""
    results = [partition_super_ray_oracle(sr, max_vertices, angular_dims) for sr in srs]
    return PartitionResult(
        parts=[p for res, _ in results for p in res.parts],
        bits=[bit for res, _ in results for bit in res.bits],
    ), [warned for _, warned in results]


def parse_structure_oracle(syms, label_count):
    """Oracle: the codec's former per-label split of the structure
    section into ``label_count`` DFS-preorder trees (1 internal node, 0
    leaf), as a list in label order, with its ValueError messages.  The
    codec's rule that an empty section codes every label coarsened stays
    in the codec, so no symbols at all is zero of ``label_count`` trees."""
    syms = [int(v) for v in syms]
    trees = []
    pos = 0
    for label in range(label_count):
        if pos >= len(syms):
            raise ValueError(f"structure holds {label} of {label_count} split trees")
        tree = []
        depth = 1
        while depth > 0:
            if pos >= len(syms):
                raise ValueError("split tree truncated")
            bit = syms[pos]
            pos += 1
            if bit not in (0, 1):
                raise ValueError(f"tree bit {bit}")
            tree.append(bit)
            depth += 1 if bit else -1
        trees.append(tree)
    if pos != len(syms):
        raise ValueError("trailing structure symbols")
    return trees


def partition_with_trees_oracle(srs, bits, angular_dims):
    """The structure section ``bits`` split by :func:`parse_structure_oracle`
    and each tree replayed by :func:`partition_with_tree_oracle`, one
    super-ray after another: all parts, or the first ValueError."""
    return [
        p for sr, tree in zip(srs, parse_structure_oracle(bits, len(srs)), strict=True)
        for p in partition_with_tree_oracle(sr, tree, angular_dims)
    ]


def lower_median(values):
    """Lower statistical median: for even counts the smaller of the two
    middle values, so the result is always an observed value."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0:
        raise ValueError("median of empty sequence")
    return float(v[(v.size - 1) // 2])


def quantize_eighth(d):
    """Snap a disparity to 1/8-pixel precision (transmission precision)."""
    return round_half_away(float(d) * 8.0) / 8.0


def median_disparity(region, dmap):
    """Lower median of the disparity values over a pixel region, an (N, 2)
    array of (y, x) coordinates inside the map."""
    region = np.asarray(region)
    if region.size == 0:
        raise ValueError("median disparity of empty region")
    return lower_median(dmap.values[region[:, 0], region[:, 1]])


def label_disparities_oracle(seg, dmap):
    """Oracle: ``segmentation.label_disparities`` with one ``== l`` scan of
    the reference map per label and one sort per label's values."""
    ref = seg.reference
    disparities = np.empty(seg.label_count)
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
        rays.append(super_ray(per_label[l], disparities[l]))
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
