"""Local graphs, Laplacians, eigenbases, coarsening and partitioning."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import srgc.codec as codec
import srgc.spectral as spectral
from srgc.errors import DecompositionError
from srgc.segmentation import SuperRay
from srgc.spectral import (
    Laplacian,
    _apply_sign_convention,
    _canonical_cluster_bases,
    _cluster_bounds,
    LocalGraph,
    coarse_mean_signal,
    coarsen,
    eigendecompose,
    eigendecompose_all,
    graph_structure,
    laplacian,
    partition_super_ray,
    partition_with_tree,
    split_graph,
)
from srgc.transform import gft, quantize

import conftest
from conftest import (
    apply_sign_convention_oracle,
    assert_spectrum_rule,
    bench_workloads,
    canonical_cluster_basis_oracle,
    cluster_eigenvalues_oracle,
    coarse_mean_signal_oracle,
    coarsen_oracle,
    connected_components,
    drop_unread_clusters_oracle,
    eigendecompose_oracle,
    eigendecompose_unbatched_oracle,
    fill_holes_oracle,
    graph_structure_oracle,
    graph_structure_union_oracle,
    heavy_edge_matching_oracle,
    label_shift,
    laplacian_connected_oracle,
    laplacian_oracle,
    make_lf,
    merge_edges_oracle,
    parse_structure_oracle,
    partition_super_rays_oracle,
    partition_with_trees_oracle,
    per_view,
    probe_mask_oracle,
    reference_rows,
    reproject_children_oracle,
    split_reference_oracle,
    super_ray,
    supernodes,
)


def enumerate_edges_oracle(views, disparity, angular_dims):
    """Oracle: exhaustive neighbor enumeration over all vertex pairs of
    per-view (y, x) pixel arrays."""
    s_count, t_count = angular_dims
    verts = []
    for v in range(s_count * t_count):
        for y, x in views[v]:
            verts.append((v, int(y), int(x)))
    index = {vtx: i for i, vtx in enumerate(verts)}
    edges = set()
    for (v, y, x), i in index.items():
        for ny, nx in ((y + 1, x), (y - 1, x), (y, x + 1), (y, x - 1)):
            j = index.get((v, ny, nx))
            if j is not None:
                edges.add((min(i, j), max(i, j)))
    for (v, y, x), i in index.items():
        if v != 0:
            continue
        for ov in range(1, s_count * t_count):
            s, tt = divmod(ov, t_count)
            ty = y - round(disparity * s)
            tx = x - round(disparity * tt)
            j = index.get((ov, ty, tx))
            if j is not None:
                edges.add((min(i, j), max(i, j)))
    return edges


def path_graph(n):
    edges = np.array([[i, i + 1] for i in range(n - 1)], dtype=np.int64)
    return LocalGraph(n=n, edges=edges.reshape(-1, 2))


def random_connected_graph(rng, n):
    edges = set()
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges.add((j, i))
    extra = rng.integers(0, n, size=(n, 2))
    for a, b in extra:
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    e = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    return LocalGraph(n=n, edges=e)


def _random_super_ray(rng, angular, disparity, single=False):
    """Random per-view masks (holes), each non-reference view placed at its
    label shift give or take a pixel (angular hits and misses), some views
    empty; ``single`` keeps one pixel per view."""
    s_count, t_count = angular
    h, w = (1, 1) if single else rng.integers(1, 8, size=2)
    views = []
    for v in range(s_count * t_count):
        mask = rng.random((h, w)) < rng.uniform(0.4, 1.0)
        if v == 0:
            mask.flat[rng.integers(mask.size)] = True
        elif rng.random() < 0.2:
            mask[:] = False
        origin = np.array([5, 5])
        if v:
            origin -= label_shift(disparity, *divmod(v, t_count))
            if rng.random() < 0.5:
                origin += rng.integers(-1, 2, size=2)
        views.append(np.argwhere(mask).astype(np.int64) + origin)
    return super_ray(views, disparity)


def _count_features(sr, angular, g, seen):
    """Tally the edge cases a random super-ray exercises."""
    pix = per_view(sr, angular[0] * angular[1])
    seen["empty_view"] += any(p.shape[0] == 0 for p in pix[1:])
    seen["single"] += all(p.shape[0] == 1 for p in pix)
    seen["hole"] += any(
        p.shape[0] and p.shape[0] < np.prod(p.max(axis=0) - p.min(axis=0) + 1)
        for p in pix
    )
    lo, hi = np.concatenate(pix).min(axis=0), np.concatenate(pix).max(axis=0)
    for v in range(1, len(pix)):
        target = pix[0] - np.array(label_shift(sr.disparity, *divmod(v, angular[1])))
        if ((target < lo) | (target > hi)).any():
            seen["outside"] += 1
            break
    seen["angular"] += bool((sr.pixels[g.edges[:, 1], 0] != sr.pixels[g.edges[:, 0], 0]).any())


def _random_graph(rng, case):
    """Connected, disconnected (components plus isolated vertices),
    edgeless and single-vertex graphs."""
    n = 1 if case % 10 == 0 else int(rng.integers(2, 50))
    kind = case % 3
    if kind == 0 or n == 1:
        return LocalGraph(n=n, edges=np.zeros((0, 2), dtype=np.int64))
    g = random_connected_graph(rng, n)
    if kind == 2:
        # cut into blocks: keep only the edges inside them
        block = rng.integers(0, 1 + n // 5, size=n)
        inside = block[g.edges[:, 0]] == block[g.edges[:, 1]]
        g = LocalGraph(n=n, edges=g.edges[inside])
    return g


def _assert_same_graph(got, want):
    """Equal n and edges, dtypes included."""
    assert got.n == want.n
    assert got.edges.dtype == want.edges.dtype and got.edges.shape == want.edges.shape
    assert np.array_equal(got.edges, want.edges)


def _assert_same_coarsening(g, n_target):
    want, want_map = coarsen_oracle(g, n_target)
    got, got_map = coarsen(g, n_target)
    assert got.n == min(n_target, g.n)
    _assert_same_graph(got, want)
    assert got_map.dtype == want_map.dtype
    assert np.array_equal(got_map, want_map)
    # every supernode is non-empty and they are numbered by smallest member
    firsts = [m[0] for m in supernodes(got_map)]
    assert len(firsts) == got.n and firsts == sorted(set(firsts))


class _UnitsBuilt(Exception):
    pass


def _bench_laplacians(name, monkeypatch):
    """Every Laplacian the encoder eigendecomposes on a bench scene (seed 1)
    with the closed-form DC basis turned off, recorded at
    ``codec.eigendecompose_all``: one per distinct unit graph, since units
    that repeat a graph share its basis."""
    workload = bench_workloads()[name]
    lf, dmap = workload.scene(1)
    laps = []

    def record(batch, needed=None, probes=None):
        batch = list(batch)
        laps.extend(batch)
        return eigendecompose_all(batch, needed, probes)

    with monkeypatch.context() as m:
        m.setattr(codec, "eigendecompose_all", record)
        m.setattr(codec, "dc_only", lambda graphs, probes=None:
                  np.zeros(len(graphs), dtype=bool))
        codec.encode(lf, dmap, workload.config)
    assert laps, "the encoder no longer calls codec.eigendecompose_all"
    return laps


def _graph(sr, angular_dims):
    """One super-ray's graph: the union of a one-unit batch, split."""
    return split_graph(graph_structure([sr], angular_dims), [sr])[0]


class TestLocalGraph:
    def test_two_views_2x2_edge_count(self):
        pix = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.int64)
        sr = super_ray([pix, pix], 0.0)
        g = _graph(sr, (1, 2))
        assert g.n == 8
        assert g.edges.shape[0] == 2 * 4 + 4  # spatial per view + angular

    def test_single_pixel_no_edges(self):
        pix = np.array([[0, 0]], dtype=np.int64)
        sr = super_ray([pix], 0.0)
        g = _graph(sr, (1, 1))
        assert g.n == 1 and g.edges.shape[0] == 0

    def test_strip_matches_enumeration_oracle(self):
        pix = np.array([[0, 0], [0, 1], [0, 2]], dtype=np.int64)
        views = [pix, pix, pix]
        sr = super_ray(views, 0.0)
        g = _graph(sr, (1, 3))
        assert g.n == 9
        oracle = enumerate_edges_oracle(views, 0.0, (1, 3))
        assert len(oracle) == 12  # 3*2 spatial + 3*2 angular
        assert {(int(a), int(b)) for a, b in g.edges} == oracle

    def test_random_shapes_match_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            mask = rng.random((5, 5)) < 0.7
            mask[2, 2] = True
            pix = np.argwhere(mask).astype(np.int64)
            views = [pix, pix, pix, pix]
            sr = super_ray(views, 1.0)
            g = _graph(sr, (2, 2))
            oracle = enumerate_edges_oracle(views, 1.0, (2, 2))
            assert {(int(a), int(b)) for a, b in g.edges} == oracle

    def test_matches_loop_oracle_on_random_super_rays(self):
        """The one-shot index-volume builder gives the view-by-view oracle's
        vertex count and edges, dtype and order included."""
        rng = np.random.default_rng(21)
        seen = dict(empty_view=0, hole=0, single=0, outside=0, angular=0)
        for case in range(240):
            angular = ((1, 1), (1, 3), (3, 3), (5, 5))[case % 4]
            disparity = (0.0, 0.5, 1.0, 1.5, 2.0)[case % 5]
            sr = _random_super_ray(rng, angular, disparity, single=case % 9 == 0)
            got = _graph(sr, angular)
            _assert_same_graph(got, graph_structure_oracle(sr, angular))
            _count_features(sr, angular, got, seen)
        assert min(seen.values()) > 0, seen

    def test_signal_is_luma_in_vertex_order(self):
        """Vertex i of a super-ray's graph is its pixel row i: the samples
        the encoder reads at the rows run view by view, raster order
        inside a view, and the reference row's angular edge meets the
        same pixel of the other view."""
        pix = np.array([[0, 0], [0, 1]], dtype=np.int64)
        sr = super_ray([pix, pix], 0.0)
        lf = make_lf(
            [np.array([[10, 20]]), np.array([[30, 40]])], (1, 2)
        )
        g = _graph(sr, lf.angular_dims)
        assert g.n == sr.total_pixels
        assert np.stack(lf.luma_planes())[tuple(sr.pixels.T)].tolist() == [10, 20, 30, 40]
        assert [0, 2] in g.edges.tolist() and [1, 3] in g.edges.tolist()


def _random_units(rng, case):
    """Disjoint units cut from one random (views, h, w) label volume with
    holes: block-shaped labels, other views mostly copying the reference
    view, per-unit disparities, units in shuffled order.  Some batches get
    a one-pixel unit and a two-pixel unit with no edges."""
    angular = ((1, 1), (1, 3), (3, 3), (2, 2))[case % 4]
    n_views = angular[0] * angular[1]
    h, w = (int(v) for v in rng.integers(1, 9, size=2))
    k = int(rng.integers(1, 7))
    blocks = rng.integers(-1, k, size=(n_views, (h + 1) // 2, (w + 1) // 2))
    labels = blocks.repeat(2, axis=1).repeat(2, axis=2)[:, :h, :w]
    labels[1:] = np.where(rng.random(labels[1:].shape) < 0.7, labels[0], labels[1:])
    noise = rng.random(labels.shape) < 0.15
    labels[noise] = rng.integers(-1, k, size=int(noise.sum()))
    if case % 3 == 0:
        labels[0, rng.integers(h), rng.integers(w)] = k
    if case % 4 == 1 and h > 1 and w > 1:
        y, x = int(rng.integers(h - 1)), int(rng.integers(w - 1))
        labels[0, y, x] = labels[0, y + 1, x + 1] = k + 1
    units = [
        SuperRay(np.argwhere(labels == l).astype(np.int64),
                 float(rng.choice([0.0, 0.5, 1.0, 1.5, -1.0])))
        for l in np.unique(labels[0][labels[0] >= 0])
    ]
    return [units[i] for i in rng.permutation(len(units))], angular


def _count_batch_features(units, angular, graphs, seen):
    """Tally the edge cases a random batch exercises."""
    if not units:
        return
    owner = {tuple(r): i for i, sr in enumerate(units) for r in sr.pixels.tolist()}
    rows = np.concatenate([sr.pixels for sr in units])
    last_y, last_x = rows[:, 1].max(), rows[:, 2].max()
    for i, (sr, g) in enumerate(zip(units, graphs)):
        seen["single"] += g.n == 1
        seen["edgeless"] += g.n > 1 and not g.edges.size
        seen["last_row_col"] += bool(
            ((sr.pixels[:, 1] == last_y) | (sr.pixels[:, 2] == last_x)).any()
        )
        for v, y, x in sr.pixels.tolist():
            seen["spatial_neighbor_unit"] += any(
                owner.get(p, i) != i for p in ((v, y, x + 1), (v, y + 1, x))
            )
        for v in range(1, angular[0] * angular[1]):
            dy, dx = label_shift(sr.disparity, *divmod(v, angular[1]))
            seen["angular_neighbor_unit"] += any(
                owner.get((v, y - dy, x - dx), i) != i
                for _, y, x in reference_rows(sr).tolist()
            )


class TestGraphUnion:
    def test_split_union_matches_oracle_per_unit(self):
        """``graph_structure`` on a batch gives the disjoint union of the
        oracle's per-unit graphs, and ``split_graph`` hands back each
        unit's own graph, one vertex per row of the unit's ``pixels``."""
        rng = np.random.default_rng(15)
        seen = dict(single=0, edgeless=0, last_row_col=0,
                    spatial_neighbor_unit=0, angular_neighbor_unit=0)
        for case in range(120):
            units, angular = _random_units(rng, case)
            union = graph_structure(units, angular)
            _assert_same_graph(union, graph_structure_union_oracle(units, angular))
            graphs = split_graph(union, units)
            assert len(graphs) == len(units)
            for sr, g in zip(units, graphs):
                _assert_same_graph(g, graph_structure_oracle(sr, angular))
            _count_batch_features(units, angular, graphs, seen)
        assert min(seen.values()) > 0, seen

    def test_empty_batch(self):
        union = graph_structure([], (3, 3))
        assert union.n == 0 and union.edges.shape == (0, 2)
        assert split_graph(union, []) == []


class TestLaplacian:
    def test_path2(self):
        l = laplacian(path_graph(2)).matrix
        assert np.array_equal(l, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_edgeless(self):
        g = LocalGraph(n=3, edges=np.zeros((0, 2), dtype=np.int64))
        assert np.array_equal(laplacian(g).matrix, np.zeros((3, 3)))

    def test_four_cycle(self):
        edges = np.array([[0, 1], [0, 3], [1, 2], [2, 3]], dtype=np.int64)
        g = LocalGraph(n=4, edges=edges)
        l = laplacian(g).matrix
        assert np.array_equal(np.diag(l), np.full(4, 2.0))
        assert l.sum(axis=1).tolist() == [0.0] * 4

    @staticmethod
    def _assert_same_bits(g):
        got, want = laplacian(g).matrix, laplacian_oracle(g).matrix
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()

    def test_matches_dense_oracle_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for case in range(60):
            self._assert_same_bits(_random_graph(rng, case))

    @pytest.mark.parametrize("name", ["gate", "parallax", "partition"])
    def test_matches_dense_oracle_on_bench_graphs(self, name, monkeypatch):
        """Every graph whose Laplacian the encoder builds on a bench scene
        (seed 1), checked as it is built."""
        workload = bench_workloads()[name]
        lf, dmap = workload.scene(1)
        checked = []

        def check(g):
            self._assert_same_bits(g)
            checked.append(g.n)
            return laplacian(g)

        monkeypatch.setattr(codec, "laplacian", check)
        codec.encode(lf, dmap, workload.config)
        assert checked, "the encoder no longer calls codec.laplacian"


class TestEigendecompose:
    def test_path2_exact(self):
        basis = eigendecompose(laplacian(path_graph(2)))
        assert basis.eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)
        r = 1 / np.sqrt(2)
        assert basis.vectors[:, 0] == pytest.approx([r, r])
        assert basis.vectors[:, 1] == pytest.approx([r, -r])

    def test_connected_spectrum(self):
        rng = np.random.default_rng(1)
        g = random_connected_graph(rng, 12)
        basis = eigendecompose(laplacian(g))
        assert abs(basis.eigenvalues[0]) < 1e-9
        assert basis.eigenvalues[1] > 1e-9
        # constant eigenvector for the zero eigenvalue
        assert np.allclose(basis.vectors[:, 0], 1 / np.sqrt(12))

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(2)
        g = random_connected_graph(rng, 12)
        l = laplacian(g).matrix
        basis = eigendecompose(laplacian(g))
        recon = (basis.vectors * basis.eigenvalues) @ basis.vectors.T
        assert np.abs(l - recon).max() <= 1e-8 * max(1.0, np.abs(l).max())

    def test_bit_equal_determinism(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, 20)
        a = eigendecompose(laplacian(g))
        b = eigendecompose(laplacian(g))
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_zero_multiplicity_matches_flood_fill(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(4, 32))
            mask = rng.random((n, n)) < 0.08
            edges = sorted(
                (i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]
            )
            g = LocalGraph(n=n, edges=np.array(edges, dtype=np.int64).reshape(-1, 2))
            _, n_comp = connected_components(n, g.edges)
            basis = eigendecompose(laplacian(g))
            assert int((np.abs(basis.eigenvalues) < 1e-7).sum()) == n_comp

    def test_disconnected_zero_basis_is_component_indicators(self):
        # two components {0,1,2} path and {3,4} edge
        edges = np.array([[0, 1], [1, 2], [3, 4]], dtype=np.int64)
        g = LocalGraph(n=5, edges=edges)
        basis = eigendecompose(laplacian(g))
        v0, v1 = basis.vectors[:, 0], basis.vectors[:, 1]
        assert v0 == pytest.approx([1 / np.sqrt(3)] * 3 + [0, 0], abs=1e-9)
        assert v1 == pytest.approx([0, 0, 0, 1 / np.sqrt(2), 1 / np.sqrt(2)], abs=1e-9)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            eigendecompose(Laplacian(matrix=np.zeros((0, 0))))


def _pairs_graph(n, pairs):
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs})
    return LocalGraph(n=n, edges=np.array(edges, dtype=np.int64).reshape(-1, 2))


def _degenerate_graph(rng, case):
    """Graphs with repeated Laplacian eigenvalues: paths, cycles, grids,
    stars, complete graphs and disjoint unions of identical pieces, the
    union's vertices shuffled half of the time."""
    kind = case % 6
    if kind == 0:
        n = int(rng.integers(1, 30))
        return _pairs_graph(n, [(i, i + 1) for i in range(n - 1)])
    if kind == 1:
        n = int(rng.integers(3, 30))
        return _pairs_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == 2:
        r, c = (int(x) for x in rng.integers(1, 7, size=2))
        right = [(y * c + x, y * c + x + 1) for y in range(r) for x in range(c - 1)]
        down = [(y * c + x, (y + 1) * c + x) for y in range(r - 1) for x in range(c)]
        return _pairs_graph(r * c, right + down)
    if kind == 3:
        n = int(rng.integers(2, 25))
        return _pairs_graph(n, [(0, i) for i in range(1, n)])
    if kind == 4:
        n = int(rng.integers(2, 20))
        return _pairs_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    piece = _degenerate_graph(rng, int(rng.integers(0, 5)))
    copies = int(rng.integers(2, 5))
    n = piece.n * copies
    perm = rng.permutation(n) if case % 12 == 5 else np.arange(n)
    pairs = [
        (int(perm[a + k * piece.n]), int(perm[b + k * piece.n]))
        for k in range(copies)
        for a, b in piece.edges
    ]
    return _pairs_graph(n, pairs)


def _assert_matches_eigen_oracle(lap):
    """Same eigenvalues and clusters as the loop oracle, and the same
    columns up to sign within 1e-9; returns the largest cluster size.
    The oracle finds the graph's connectivity by flood fill."""
    got = eigendecompose(lap)
    want = eigendecompose_oracle(lap)
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    clusters = cluster_eigenvalues_oracle(want.eigenvalues)
    _, starts, stops = _cluster_bounds(got.eigenvalues[None])
    assert [list(range(a, b)) for a, b in zip(starts, stops)] == clusters
    flip = np.where((got.vectors * want.vectors).sum(axis=0) < 0, -1.0, 1.0)
    assert np.abs(got.vectors - want.vectors * flip).max() < 1e-9
    return max(len(c) for c in clusters)


class TestCanonicalization:
    def test_matches_loop_oracle_on_degenerate_graphs(self):
        rng = np.random.default_rng(41)
        largest = [_assert_matches_eigen_oracle(laplacian(_degenerate_graph(rng, case)))
                   for case in range(120)]
        assert sum(m > 1 for m in largest) > 60 and max(largest) > 10

    @pytest.mark.parametrize("name", ["gate", "parallax", "partition"])
    def test_matches_loop_oracle_on_bench_laplacians(self, name, monkeypatch):
        """Every Laplacian the encoder eigendecomposes on the bench scene."""
        largest = [_assert_matches_eigen_oracle(lap)
                   for lap in _bench_laplacians(name, monkeypatch)]
        assert max(largest) > 1

    def test_rotation_invariant(self):
        """The basis depends on the cluster's span only: rotating a block
        by a random orthogonal matrix leaves its canonical basis."""
        rng = np.random.default_rng(42)
        blocks = 0
        for case in range(60):
            vals, vecs = np.linalg.eigh(laplacian(_degenerate_graph(rng, case)).matrix)
            for _, lo, hi in zip(*_cluster_bounds(vals[None])):
                if hi - lo < 2:
                    continue
                v = vecs[:, lo:hi]
                q, _ = np.linalg.qr(rng.standard_normal((hi - lo, hi - lo)))
                want, got = _canonical_cluster_bases(np.stack([v, v @ q]))
                flip = np.where((got * want).sum(axis=0) < 0, -1.0, 1.0)
                assert np.abs(got - want * flip).max() < 1e-9
                blocks += 1
        assert blocks > 30

    def test_stack_matches_single_blocks_and_one_block_loop(self):
        """Every block of a stack of equal-size clusters gets the bits it
        gets alone, and the one-block loop's basis within rounding: the
        loop projects only the rows after the last pick, and BLAS
        matrix-vector products round a row differently by its position."""
        rng = np.random.default_rng(44)
        stacks = {}
        for case in range(120):
            vals, vecs = np.linalg.eigh(laplacian(_degenerate_graph(rng, case)).matrix)
            for _, lo, hi in zip(*_cluster_bounds(vals[None])):
                if hi - lo > 1:
                    stacks.setdefault((vecs.shape[0], hi - lo), []).append(vecs[:, lo:hi])
        assert sum(len(b) > 1 for b in stacks.values()) > 10
        for blocks in stacks.values():
            got = _canonical_cluster_bases(np.stack(blocks))
            for g, v in zip(got, blocks):
                assert np.array_equal(g, _canonical_cluster_bases(v[None])[0])
                assert np.abs(g - canonical_cluster_basis_oracle(v)).max() < 1e-14

    def test_rank_deficient_block_rejected(self):
        u = np.full(6, 1 / np.sqrt(6))
        deficient = np.column_stack([u, u])
        with pytest.raises(DecompositionError):
            canonical_cluster_basis_oracle(deficient)
        with pytest.raises(DecompositionError, match="dimension 2 spans only 1 axes"):
            _canonical_cluster_bases(deficient[None])
        # one bad block fails the whole stack, wherever it sits
        good = np.linalg.qr(np.random.default_rng(45).standard_normal((6, 2)))[0]
        with pytest.raises(DecompositionError):
            _canonical_cluster_bases(np.stack([good, deficient, good]))

    def test_sign_convention_matches_loop_oracle(self):
        # entries drawn from a few magnitudes make exact ties common
        rng = np.random.default_rng(43)
        for _ in range(50):
            vecs = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0], size=(7, 5))
            want = apply_sign_convention_oracle(vecs.copy())
            assert np.array_equal(_apply_sign_convention(vecs), want)


class TestEigendecomposeAll:
    def test_bit_equal_to_single_calls(self, monkeypatch):
        """Batches of mixed sizes, in order and shuffled: n = 1, repeated
        sizes, degenerate graphs and the partition scene's Laplacians.
        Every basis has the bits a call of its own gives it, and matches
        the per-axis oracle within rounding."""
        rng = np.random.default_rng(46)
        single = laplacian(LocalGraph(n=1, edges=np.zeros((0, 2), dtype=np.int64)))
        laps = [single, laplacian(path_graph(5)), single, laplacian(path_graph(5))]
        laps += [laplacian(_degenerate_graph(rng, case)) for case in range(60)]
        laps += _bench_laplacians("partition", monkeypatch)
        sizes = [lap.matrix.shape[0] for lap in laps]
        assert 1 in sizes and len(set(sizes)) < len(sizes) / 2
        want = {id(lap): eigendecompose(lap) for lap in laps}
        for batch in (laps, [laps[i] for i in rng.permutation(len(laps))]):
            got = eigendecompose_all(batch)
            assert len(got) == len(batch)
            for basis, lap in zip(got, batch):
                assert np.array_equal(basis.eigenvalues, want[id(lap)].eigenvalues)
                assert np.array_equal(basis.vectors, want[id(lap)].vectors)
        for lap in laps[:64]:
            _assert_matches_eigen_oracle(lap)

    @pytest.mark.parametrize("name", ["gate", "parallax", "partition"])
    def test_bit_equal_to_unbatched_oracle_on_bench_laplacians(self, name, monkeypatch):
        """On every Laplacian a bench scene builds, the batched stage has the
        bits of the per-Laplacian, per-cluster loop it replaced."""
        laps = _bench_laplacians(name, monkeypatch)
        assert any(laplacian_connected_oracle(lap) for lap in laps)
        for basis, lap in zip(eigendecompose_all(laps), laps):
            want = eigendecompose_unbatched_oracle(lap)
            assert np.array_equal(basis.eigenvalues, want.eigenvalues)
            assert np.array_equal(basis.vectors, want.vectors)

    @pytest.mark.parametrize("cap", [1 << 30, 3 * 8 * 12 * 12])
    def test_one_lapack_call_per_full_stack(self, cap, monkeypatch):
        """Each size takes the fewest LAPACK calls whose stacks stay within
        the byte cap (one per size under a large cap), same bits."""
        rng = np.random.default_rng(47)
        laps = [laplacian(_degenerate_graph(rng, case)) for case in range(30)]
        laps += [laplacian(path_graph(12))] * 7
        want = [eigendecompose(lap) for lap in laps]
        calls = []
        eigh = np.linalg.eigh

        def counted(a):
            calls.append(a.shape[:2])
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        monkeypatch.setattr(spectral, "_EIG_STACK_BYTES", cap)
        got = eigendecompose_all(laps)
        counts = {}
        for lap in laps:
            counts[lap.matrix.shape[0]] = counts.get(lap.matrix.shape[0], 0) + 1
        expected = {}
        for n, k in counts.items():
            per_stack = max(1, cap // (8 * n * n))
            expected[n] = [per_stack] * (k // per_stack) + [k % per_stack] * (k % per_stack > 0)
        assert sorted(calls) == sorted((b, n) for n, bs in expected.items() for b in bs)
        assert len(calls) > len(counts) if cap < 1 << 30 else len(calls) == len(counts)
        for g, w in zip(got, want):
            assert np.array_equal(g.eigenvalues, w.eigenvalues)
            assert np.array_equal(g.vectors, w.vectors)

    @staticmethod
    def _assert_masked(laps, masks):
        """``eigendecompose_all(laps, masks)`` is the unmasked result with
        every unread degenerate cluster zeroed (+0.0), nothing else
        changed; returns (dropped clusters, kept degenerate clusters)."""
        got = eigendecompose_all(laps, masks)
        dropped = kept = 0
        for basis, full, mask in zip(got, eigendecompose_all(laps), masks):
            want = drop_unread_clusters_oracle(full, mask)
            assert np.array_equal(basis.eigenvalues, full.eigenvalues)
            assert np.array_equal(basis.vectors, want.vectors)
            for cluster in cluster_eigenvalues_oracle(full.eigenvalues):
                if len(cluster) < 2:
                    continue
                if mask[cluster].any():
                    kept += 1
                else:
                    assert not np.signbit(basis.vectors[:, cluster]).any()
                    dropped += 1
        return dropped, kept

    def test_column_masks_drop_only_unread_clusters(self, monkeypatch):
        """Shuffled batches of mixed sizes (n = 1, repeated sizes,
        degenerate graphs, the partition scene's Laplacians) under random,
        all-True and all-False masks: every needed cluster and every
        non-degenerate column has the unmasked bits, and every degenerate
        cluster with no needed column is exactly zero."""
        rng = np.random.default_rng(48)
        single = laplacian(LocalGraph(n=1, edges=np.zeros((0, 2), dtype=np.int64)))
        laps = [single, laplacian(path_graph(5)), single, laplacian(path_graph(5))]
        laps += [laplacian(_degenerate_graph(rng, case)) for case in range(60)]
        laps += _bench_laplacians("partition", monkeypatch)
        laps = [laps[i] for i in rng.permutation(len(laps))]
        sizes = [lap.matrix.shape[0] for lap in laps]
        for density in (0.05, 0.3):
            masks = [rng.random(n) < density for n in sizes]
            dropped, kept = self._assert_masked(laps, masks)
            assert dropped > 50 and kept > 50
        assert self._assert_masked(laps, [np.ones(n, dtype=bool) for n in sizes])[0] == 0
        assert self._assert_masked(laps, [np.zeros(n, dtype=bool) for n in sizes])[1] == 0

    @pytest.mark.parametrize("name", ["gate", "parallax", "partition"])
    def test_column_masks_on_bench_laplacians(self, name, monkeypatch):
        """The same contract on every Laplacian a bench scene builds, with
        masks as sparse as the decoder's."""
        rng = np.random.default_rng(49)
        laps = _bench_laplacians(name, monkeypatch)
        masks = [rng.random(lap.matrix.shape[0]) < 0.02 for lap in laps]
        dropped, _ = self._assert_masked(laps, masks)
        assert dropped > 0

    def test_column_mask_shape_checked(self):
        laps = [laplacian(path_graph(3)), laplacian(path_graph(4))]
        with pytest.raises(ValueError, match="2 Laplacians"):
            eigendecompose_all(laps, [np.ones(3, dtype=bool)])
        with pytest.raises(ValueError, match="column mask"):
            eigendecompose_all(laps, [np.ones(3, dtype=bool), np.ones(3, dtype=bool)])

    def test_probe_shape_and_steps_checked(self):
        laps = [laplacian(path_graph(3)), laplacian(path_graph(4))]
        steps = [np.ones(3), np.ones(4)]
        good = [(np.ones((1, 3)), steps[0]), (np.ones((1, 4)), steps[1])]
        with pytest.raises(ValueError, match="1 probes for 2 Laplacians"):
            eigendecompose_all(laps, probes=[(np.ones((1, 3)), steps[0])])
        for signals, step in [
            (np.ones((1, 4)), steps[0]),  # signal length
            (np.ones(3), steps[0]),  # one signal, not a (k, n) stack
            (np.ones((1, 3)), np.ones(4)),  # step count
        ]:
            with pytest.raises(ValueError, match="probe of shapes"):
                eigendecompose_all(laps, probes=[(signals, step), good[1]])
        for bad in (0.0, -1.0, np.nan):
            step = np.ones(4)
            step[2] = bad
            with pytest.raises(ValueError, match="probe steps must be positive"):
                eigendecompose_all(laps, probes=[good[0], (np.ones((2, 4)), step)])
        for probes in ([None, good[1]], [good[0], None]):
            with pytest.raises(ValueError, match="None probe"):
                eigendecompose_all(laps, probes=probes)

    def test_decoder_canonicalizes_few_columns(self, monkeypatch):
        """Work guard: one decode of the ``partition`` bench scene (seed 1)
        hands at most 100 columns (blocks x cluster size) to the
        Gram-Schmidt; it handed all 1,215 of its degenerate columns before
        the decoder passed column masks."""
        workload = bench_workloads()["partition"]
        lf, dmap = workload.scene(1)
        stream, _ = codec.encode(lf, dmap, workload.config)
        columns = []
        canonical = spectral._canonical_cluster_bases

        def counted(v):
            columns.append(v.shape[0] * v.shape[2])
            return canonical(v)

        monkeypatch.setattr(spectral, "_canonical_cluster_bases", counted)
        codec.decode(stream)
        assert 0 < sum(columns) <= 100

    def test_empty_batch(self):
        assert eigendecompose_all([]) == []

    def test_empty_laplacian_rejected_in_batch(self):
        with pytest.raises(ValueError, match="empty Laplacian"):
            eigendecompose_all([laplacian(path_graph(3)), Laplacian(matrix=np.zeros((0, 0)))])


def cycle_graph(n):
    return _pairs_graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestProbes:
    """The probe rule of ``eigendecompose_all``: a degenerate cluster is
    dropped only when every probe signal must quantize to level 0 in it."""

    @staticmethod
    def _cycle_probe(alpha, q=1.0):
        """The 6-cycle's Laplacian (eigenvalues 0, 1, 1, 3, 3, 4) and a
        probe of one signal whose projection onto the eigenvalue-1
        cluster (columns 1 and 2) has norm ``alpha``, under step q."""
        lap = laplacian(cycle_graph(6))
        f = alpha * np.cos(2 * np.pi * np.arange(6) / 6) / np.sqrt(3)
        return lap, (f[None], np.full(6, q))

    @pytest.mark.parametrize("alpha, kept", [
        (0.25, False),  # well below half a step
        (0.5 * (1 - 1e-7), True),  # below half a step, inside the margin
        (0.75, True),  # above half a step
    ])
    def test_cycle_cluster_against_half_step(self, alpha, kept):
        """Columns 1-2 are dropped (exact zeros) only well below half a
        step; kept, they have the lone solve's bits.  The full basis gives
        them level 0 below half a step, so the margin band only keeps
        what could be dropped.  Columns 3-4 (no projection) are dropped
        every time, the simple eigenvalues' columns never."""
        lap, probe = self._cycle_probe(alpha)
        full = eigendecompose(lap)
        got = eigendecompose_all([lap], probes=[probe])[0]
        assert np.array_equal(got.eigenvalues, full.eigenvalues)
        assert np.array_equal(got.vectors[:, [0, 5]], full.vectors[:, [0, 5]])
        assert not got.vectors[:, 3:5].any()
        want = full.vectors[:, 1:3] if kept else np.zeros((6, 2))
        assert np.array_equal(got.vectors[:, 1:3], want)
        levels = quantize(gft(full, probe[0][0]), probe[1])
        assert levels[1:3].any() == (alpha > 0.5)
        assert not levels[3:5].any()
        mask = probe_mask_oracle(lap, probe)
        assert mask.tolist() == [True, kept, kept, False, False, True]
        assert np.array_equal(got.vectors, drop_unread_clusters_oracle(full, mask).vectors)

    def test_smallest_step_of_the_cluster_decides(self):
        """Two equal disjoint 3-paths: the zero eigenvalue's cluster holds
        the DC column, whose step is 1 against 16 elsewhere.  A constant
        signal of projection 2 is below half of 16 but not of 1, so the
        cluster is kept."""
        lap = laplacian(_pairs_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]))
        steps = np.full(6, 16.0)
        steps[0] = 1.0
        f = np.full(6, 2 / np.sqrt(6))
        full = eigendecompose(lap)
        got = eigendecompose_all([lap], probes=[(f[None], steps)])[0]
        assert np.array_equal(got.vectors[:, :2], full.vectors[:, :2])
        assert quantize(gft(full, f), steps)[0] != 0
        steps[0] = 16.0
        got = eigendecompose_all([lap], probes=[(f[None], steps)])[0]
        assert not got.vectors.any()

    def test_every_signal_must_pass(self):
        """A cluster that one of several signals reads is kept, and
        stacking no signal at all drops every degenerate cluster."""
        lap, (low, steps) = self._cycle_probe(0.25)
        _, (high, _) = self._cycle_probe(0.75)
        full = eigendecompose(lap)
        got = eigendecompose_all([lap], probes=[(np.concatenate([low, high]), steps)])[0]
        assert np.array_equal(got.vectors[:, 1:3], full.vectors[:, 1:3])
        got = eigendecompose_all([lap], probes=[(np.zeros((0, 6)), steps)])[0]
        assert not got.vectors[:, 1:5].any()

    @pytest.mark.parametrize("stack_bytes", [1 << 18, 1 << 14, 1])
    def test_mixed_size_batch_bit_equal_to_lone_probes(self, stack_bytes, monkeypatch):
        """A shuffled batch of mixed sizes (n = 1, repeated sizes,
        degenerate graphs, the partition scene's Laplacians), each with a
        probe of 0 to 3 signals around half a step, so that one stack pads
        probes of several k, and one probe has no signal: every basis has
        the bits its Laplacian gets probed alone, whether passes of 256
        KiB hold many stacks each (the batch takes several), passes and
        stacks are cut at 16 KiB, or every stack and pass is one matrix."""
        monkeypatch.setattr(spectral, "_EIG_STACK_BYTES", stack_bytes)
        rng = np.random.default_rng(50)
        single = laplacian(LocalGraph(n=1, edges=np.zeros((0, 2), dtype=np.int64)))
        laps = [single, laplacian(path_graph(5)), single, laplacian(path_graph(5))]
        laps += [laplacian(_degenerate_graph(rng, case)) for case in range(60)]
        laps += _bench_laplacians("partition", monkeypatch)
        laps = [laps[i] for i in rng.permutation(len(laps))]
        probes, ks = [], {}
        for j, lap in enumerate(laps):
            n = lap.matrix.shape[0]
            q = float(rng.choice([0.5, 4.0, 16.0]))
            steps = np.full(n, q)
            steps[0] = min(q, 1.0)
            k = 0 if j == 0 else int(rng.integers(0, 4))
            signals = (rng.normal(size=(k, n)) * steps / 2) @ eigendecompose(lap).vectors.T
            probes.append((signals, steps))
            ks.setdefault(n, set()).add(k)
        assert any(len(k) > 1 for k in ks.values())
        dropped = kept = 0
        for basis, lap, probe in zip(eigendecompose_all(laps, probes=probes), laps, probes):
            want = eigendecompose_all([lap], probes=[probe])[0]
            assert np.array_equal(basis.eigenvalues, want.eigenvalues)
            assert np.array_equal(basis.vectors, want.vectors)
            for cluster in cluster_eigenvalues_oracle(want.eigenvalues):
                if len(cluster) > 1:
                    zero = not want.vectors[:, cluster].any()
                    dropped, kept = dropped + zero, kept + (not zero)
        assert dropped > 10 and kept > 10

    @given(
        seed=st.integers(0, 2**32 - 1),
        case=st.integers(0, 59),
        scale=st.floats(0.05, 3.0),
        q=st.sampled_from([0.5, 1.0, 4.0, 16.0]),
        k=st.integers(1, 3),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_masked_basis_quantizes_to_full_levels(self, seed, case, scale, q, k):
        """On graphs with repeated eigenvalues and signals whose
        coefficients sit around half a step, the probed basis quantizes
        every signal to the full basis's levels, and it is the full basis
        with the oracle's dropped clusters zeroed."""
        rng = np.random.default_rng(seed)
        lap = laplacian(_degenerate_graph(rng, case))
        n = lap.matrix.shape[0]
        steps = np.full(n, q)
        steps[0] = min(q, 1.0)
        full = eigendecompose(lap)
        signals = (rng.normal(size=(k, n)) * scale * steps / 2) @ full.vectors.T
        got = eigendecompose_all([lap], probes=[(signals, steps)])[0]
        mask = probe_mask_oracle(lap, (signals, steps))
        assert np.array_equal(got.vectors, drop_unread_clusters_oracle(full, mask).vectors)
        for f in signals:
            assert np.array_equal(quantize(gft(got, f), steps), quantize(gft(full, f), steps))


def _random_sparse_graph(rng, n, density):
    """A random graph on n vertices whose pairs are edges with probability
    ``density``: connected or not."""
    a, b = np.triu_indices(n, 1)
    keep = rng.random(a.size) < density
    return LocalGraph(n=n, edges=np.column_stack([a[keep], b[keep]]).astype(np.int64))


def _components_graph(rng, sizes):
    """A random graph whose connected components are random connected
    blocks of ``sizes`` vertices (a block of one is an isolated vertex),
    with its vertices shuffled."""
    n = sum(sizes)
    perm = rng.permutation(n)
    lows = np.cumsum(sizes) - sizes
    edges = np.sort(np.concatenate(
        [perm[random_connected_graph(rng, k).edges + lo] for k, lo in zip(sizes, lows)]
    ), axis=1)
    return LocalGraph(n=n, edges=edges[np.lexsort((edges[:, 1], edges[:, 0]))])


class TestClosedFormDC:
    """A connected graph's column 0 is the constant unit vector, and a
    connected graph whose caller reads nothing past column 0 takes
    ``dc_basis`` with no solve."""

    def test_connectivity_matches_flood_fill(self):
        rng = np.random.default_rng(50)
        graphs = [LocalGraph(n=1, edges=np.zeros((0, 2), dtype=np.int64)), path_graph(7)]
        graphs += [_random_sparse_graph(rng, int(rng.integers(2, 40)), rng.uniform(0.02, 0.3))
                   for _ in range(80)]
        want = [connected_components(g.n, g.edges)[1] == 1 for g in graphs]
        assert 20 < sum(want) < len(want) - 20
        assert spectral.connected_graphs(graphs).tolist() == want
        assert spectral.connected_graphs([]).shape == (0,)

    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 12))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_exact_dc_column_keeps_every_other_bit(self, seed, count):
        """On random graphs of 1-64 vertices, connected or not, batched: a
        connected graph's column 0 equals ``np.full(n, 1 / np.sqrt(n))``,
        and every basis has the bits of the per-Laplacian, per-cluster
        oracle, which sets that column by flood fill and keeps LAPACK's
        other columns, when it canonicalizes each cluster with the stage's
        own Gram-Schmidt; with its loop Gram-Schmidt (the unbatched
        oracle), which rounds apart on degenerate clusters, within 1e-12."""
        rng = np.random.default_rng(seed)
        graphs = [
            random_connected_graph(rng, int(rng.integers(1, 65))) if rng.random() < 0.5
            else _random_sparse_graph(rng, int(rng.integers(1, 65)), rng.uniform(0.01, 0.2))
            for _ in range(count)
        ]
        laps = [laplacian(g) for g in graphs]
        for g, lap, basis in zip(graphs, laps, eigendecompose_all(laps)):
            want = conftest._eigendecompose_by_cluster(
                lap, lambda v: spectral._canonical_cluster_bases(np.ascontiguousarray(v)[None])[0]
            )
            assert np.array_equal(basis.eigenvalues, want.eigenvalues)
            assert np.array_equal(basis.vectors, want.vectors)
            loop = eigendecompose_unbatched_oracle(lap)
            assert np.array_equal(basis.eigenvalues, loop.eigenvalues)
            assert np.abs(basis.vectors - loop.vectors).max() < 1e-12
            if connected_components(g.n, g.edges)[1] == 1:
                assert np.array_equal(basis.vectors[:, 0], np.full(g.n, 1 / np.sqrt(g.n)))

    @given(seed=st.integers(0, 2**32 - 1),
           sizes=st.lists(st.integers(1, 64), min_size=1, max_size=6))
    @example(seed=0, sizes=[1])
    @example(seed=0, sizes=[1, 1])
    @example(seed=0, sizes=[63, 1])
    @example(seed=0, sizes=[64])
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_spectrum_rule_equals_union_find(self, seed, sizes):
        """On random graphs of 1-64 vertices with one or more components
        (isolated vertices and n = 1 included), the eigen stage gives
        column 0 the exact constant value exactly when ``connected_graphs``
        finds the graph connected, and a disconnected graph its component
        indicators (``assert_spectrum_rule``)."""
        sizes = [k for k, total in zip(sizes, np.cumsum(sizes)) if total <= 64] or [64]
        g = _components_graph(np.random.default_rng(seed), sizes)
        assert assert_spectrum_rule(g) == (len(sizes) == 1)

    def test_dc_basis(self):
        basis = spectral.dc_basis(5)
        want = np.zeros((5, 5))
        want[:, 0] = 1 / np.sqrt(5)
        assert np.array_equal(basis.vectors, want)
        assert basis.eigenvalues[0] == 0 and np.isnan(basis.eigenvalues[1:]).all()
        assert np.array_equal(spectral.dc_basis(1).vectors, [[1.0]])

    def test_mask_rule(self):
        """The decoder gives a unit the closed form (``codec._dc_units``)
        when its column mask reads nothing past column 0 and its graph is
        connected, before the eigen stage, which takes no closed form from
        a mask."""
        path, split = path_graph(6), _pairs_graph(6, [(0, 1), (2, 3), (4, 5)])
        dc = np.arange(6) == 0
        masks = [dc, np.zeros(5, dtype=bool), dc | (np.arange(6) == 3), dc]
        closed, flat = codec._dc_units([path, path_graph(5), path, split], masks, {}, {})
        assert closed.tolist() == flat.tolist() == [True, True, False, False]
        bases, solved = codec._eigenbases([path, path, split], [dc, masks[2], dc])
        assert solved == 2  # the path, which a mask reads at column 3, and the split graph
        assert bases[0] is bases[1]
        assert not any(np.isnan(basis.eigenvalues).any() for basis in bases)
        assert spectral.dc_only([path, split]).tolist() == [False, False]

    @pytest.mark.parametrize("dc", [0.0, 1000.0])
    def test_probe_edge_on_a_path(self, dc):
        """A 16-vertex path under steps 1 (DC) and 16, and a signal dc + a
        ramp of norm alpha.  Just below the bound ||f - mean(f)|| * (1 +
        1e-6) + (1e-8 + 1e-9) * ||f|| < 8 the graph takes the closed form,
        just above it the graph is solved; both times the levels are the
        full basis's, all 0 past the DC level.  At dc = 1000 the absolute
        margin alone moves the edge by 5e-6 of the step, 50 times the
        distance of either signal from it."""
        g, n, q = path_graph(16), 16, 16.0
        steps = np.full(n, q)
        steps[0] = 1.0
        ramp = np.arange(n) - (n - 1) / 2
        ramp /= np.linalg.norm(ramp)
        # the ramp is orthogonal to the constant, so ||f||**2 = n dc**2 + alpha**2
        alpha = q / 2
        for _ in range(5):
            alpha = (q / 2 - 1.1e-8 * np.hypot(dc * np.sqrt(n), alpha)) / (1 + 1e-6)
        full = eigendecompose(laplacian(g))
        for scale, closed in ((1 - 1e-7, True), (1 + 1e-7, False)):
            f = dc + alpha * scale * ramp
            (basis,), solved = codec._eigenbases([g], probes=[(f[None], steps)])
            assert solved == (not closed)
            assert np.isnan(basis.eigenvalues[1:]).all() == closed
            levels = quantize(gft(basis, f), steps)
            assert np.array_equal(levels, quantize(gft(full, f), steps))
            assert levels.tolist() == [dc * 4] + [0] * (n - 1)


class TestCoarsen:
    def test_identity_when_target_large(self):
        coarse, f2c = coarsen(path_graph(4), 10)
        assert coarse.n == 4
        assert [m.tolist() for m in supernodes(f2c)] == [[0], [1], [2], [3]]

    def test_four_cycle_constant(self):
        edges = np.array([[0, 1], [0, 3], [1, 2], [2, 3]], dtype=np.int64)
        coarse, f2c = coarsen(LocalGraph(n=4, edges=edges), 2)
        assert coarse.n == 2
        assert coarse_mean_signal(f2c, np.full(4, 7.0)).tolist() == [7.0, 7.0]

    def test_six_path_heavy_edge_matching(self):
        """Frozen expected value from the tie-break rule: greedy index-order
        matching on unit weights pairs (0,1), (2,3), (4,5)."""
        coarse, f2c = coarsen(path_graph(6), 3)
        assert [m.tolist() for m in supernodes(f2c)] == [[0, 1], [2, 3], [4, 5]]
        assert coarse_mean_signal(f2c, [0, 0, 2, 2, 4, 4]).tolist() == [0.0, 2.0, 4.0]
        # chain 0-1-2 on the coarse graph
        assert coarse.edges.tolist() == [[0, 1], [1, 2]]

    def test_exact_target_reached_on_disconnected(self):
        # 3 isolated vertices + an edge: forced smallest-component merges
        edges = np.array([[0, 1]], dtype=np.int64)
        coarse, f2c = coarsen(LocalGraph(n=5, edges=edges), 2)
        assert coarse.n == 2
        assert sorted(len(m) for m in supernodes(f2c)) == [2, 3]

    def test_signal_mass_conserved_for_equal_supernodes(self):
        f = np.array([1.0, 3.0, 5.0, 7.0, 9.0, 11.0])
        _, f2c = coarsen(path_graph(6), 3)
        sizes = np.array([len(m) for m in supernodes(f2c)])
        assert float((coarse_mean_signal(f2c, f) * sizes).sum()) == float(f.sum())

    # the decoder lifts a coarse signal to the pixels as coarse[fine_to_coarse]

    def test_uncoarsen_roundtrips(self):
        _, f2c = coarsen(path_graph(6), 3)
        lifted = coarse_mean_signal(f2c, [0, 0, 2, 2, 4, 4])[f2c]
        assert lifted.tolist() == [0.0, 0.0, 2.0, 2.0, 4.0, 4.0]

    def test_uncoarsen_identity_map(self):
        _, f2c = coarsen(path_graph(4), 4)
        f = np.array([5.0, 1.0, 2.0, 9.0])
        assert f2c.tolist() == [0, 1, 2, 3]
        assert np.array_equal(coarse_mean_signal(f2c, f)[f2c], f)

    def test_uncoarsen_constant_invariance(self):
        f = np.full(8, 3.0)
        _, f2c = coarsen(path_graph(8), 3)
        assert np.array_equal(coarse_mean_signal(f2c, f)[f2c], f)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            coarsen(path_graph(3), 0)

    @pytest.mark.parametrize("name", ["gate", "parallax"])
    def test_mean_signal_matches_oracle_on_bench_units(self, name, monkeypatch):
        """Every coarse signal the encoder computes on the bench scene is
        bit-equal to the per-supernode mean."""
        workload = bench_workloads()[name]
        lf, dmap = workload.scene(1)
        calls = []

        def checked(f2c, fine_signal):
            got = coarse_mean_signal(f2c, fine_signal)
            assert np.array_equal(got, coarse_mean_signal_oracle(f2c, fine_signal))
            calls.append(got.size)
            return got

        monkeypatch.setattr(codec, "coarse_mean_signal", checked)
        codec.encode(lf, dmap, workload.config)
        assert calls and max(calls) == workload.config.n_target

    def test_matches_loop_oracle_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for case in range(150):
            g = _random_graph(rng, case)
            for n_target in sorted({1, 2, max(1, g.n // 4), g.n - 1, g.n, g.n + 3}):
                if n_target >= 1:
                    _assert_same_coarsening(g, n_target)

    @pytest.mark.parametrize("name", ["gate", "parallax", "partition"])
    def test_matches_loop_oracle_on_bench_units(self, name, monkeypatch):
        """Every super-ray (or part) graph the bench scenes build, coarsened
        to the workload's target (parts, which partition mode never
        coarsens, to a third of their size)."""
        workload = bench_workloads()[name]
        lf, dmap = workload.scene(1)
        graphs = []

        def record(union, srs):
            got = split_graph(union, srs)
            for sr, g in zip(srs, got):
                _assert_same_graph(g, graph_structure_oracle(sr, lf.angular_dims))
            graphs.extend(got)
            return got

        def stop(graph):
            raise _UnitsBuilt

        monkeypatch.setattr(codec, "split_graph", record)
        monkeypatch.setattr(codec, "laplacian", stop)  # the encoder's eigen stage
        with pytest.raises(_UnitsBuilt):
            codec.encode(lf, dmap, workload.config)
        assert graphs
        for g in graphs:
            target = workload.config.n_target if workload.grouped else max(1, g.n // 3)
            _assert_same_coarsening(g, target)

    def test_connected_graphs_stay_connected_on_random_graphs(self, monkeypatch):
        """The premise of the decoder's DC rule (``codec._dc_units``):
        coarsening a connected graph gives a connected graph, and every
        heavy-edge matching round on the way matches a pair, so the
        edgeless-residue branch never runs.  On a disconnected graph it
        does, once the components run out of edges."""
        matched = _matched_per_round(monkeypatch)
        rng = np.random.default_rng(30)
        for case in range(120):
            g = random_connected_graph(rng, 1 + case % 60)
            for n_target in sorted({1, 2, max(1, g.n // 4), max(1, g.n // 2), max(1, g.n - 1)}):
                coarse, _ = coarsen(g, n_target)
                assert coarse.n == min(n_target, g.n)
                assert spectral.connected_graphs([coarse])[0]
        assert matched and min(matched) > 0
        matched.clear()
        coarsen(LocalGraph(n=5, edges=np.array([[0, 1]], dtype=np.int64)), 2)
        assert 0 in matched

    @pytest.mark.parametrize("name", ["gate", "parallax", "partition"])
    def test_connected_bench_graphs_stay_connected(self, name, monkeypatch):
        """The same on every connected pixel graph the bench scenes build
        (seed 1), coarsened to the workload's target and to a half, a
        quarter and a tenth of its size."""
        workload = bench_workloads()[name]
        lf, dmap = workload.scene(1)
        graphs = []

        def record(union, srs):
            got = split_graph(union, srs)
            graphs.extend(got)
            return got

        monkeypatch.setattr(codec, "split_graph", record)
        codec.encode(lf, dmap, workload.config)
        connected = [g for g, c in zip(graphs, spectral.connected_graphs(graphs)) if c]
        assert connected
        matched = _matched_per_round(monkeypatch)
        for g in codec._distinct_graphs(connected)[0]:
            targets = {workload.config.n_target, g.n // 2, g.n // 4, g.n // 10}
            for n_target in sorted(t for t in targets if 1 <= t < g.n):
                coarse, _ = coarsen(g, n_target)
                assert coarse.n == n_target and spectral.connected_graphs([coarse])[0]
        assert matched and min(matched) > 0


def _matched_per_round(monkeypatch):
    """The number of pairs each heavy-edge matching round of ``coarsen``
    matches, recorded as it runs; a round of 0 sends ``coarsen`` to the
    edgeless-residue branch."""
    matched = []
    match = spectral._heavy_edge_matching

    def counted(*args):
        roots, merged = match(*args)
        matched.append(roots.size)
        return roots, merged

    monkeypatch.setattr(spectral, "_heavy_edge_matching", counted)
    return matched


def _random_weighted_edges(rng, case):
    """(a, b, w, k) of a weighted graph in coarsening form: a < b, sorted,
    duplicate-free, weights in {1, 2, 3} so ties are common.  Covers n = 1,
    edgeless graphs and graphs with isolated vertices."""
    k = 1 if case % 20 == 0 else int(rng.integers(2, 60))
    if case % 7 == 0 or k == 1:
        a = b = w = np.zeros(0, dtype=np.int64)
        return a, b, w, k
    used = rng.choice(k, size=int(rng.integers(2, k + 1)), replace=False)
    x, y = rng.choice(used, size=(2, int(rng.integers(1, 4 * k))))
    keys = np.unique(np.minimum(x, y)[x != y] * k + np.maximum(x, y)[x != y])
    a, b = np.divmod(keys, k)
    return a, b, rng.integers(1, 4, size=a.size), k


def _assert_same_matching(a, b, w, k, budget):
    got = spectral._heavy_edge_matching(a, b, w, k, budget)
    want = heavy_edge_matching_oracle(a, b, w, k, budget)
    for g, o in zip(got, want):
        assert g.dtype == o.dtype and np.array_equal(g, o)


class TestHeavyEdgeMatching:
    def test_matches_two_direction_oracle_on_random_graphs(self):
        rng = np.random.default_rng(8)
        seen = {"edgeless": 0, "single": 0, "isolated": 0, "tie": 0}
        for case in range(200):
            a, b, w, k = _random_weighted_edges(rng, case)
            seen["edgeless"] += a.size == 0
            seen["single"] += k == 1
            seen["isolated"] += 0 < np.union1d(a, b).size < k
            seen["tie"] += np.bincount(a * 4 + w).max(initial=0) > 1
            for budget in sorted({1, max(1, k // 4), max(1, k - 1), k}):
                _assert_same_matching(a, b, w, k, budget)
        assert all(seen.values()), seen

    @pytest.mark.parametrize("name", ["gate", "parallax"])
    def test_matches_two_direction_oracle_on_bench_calls(self, name, monkeypatch):
        """Every matching call the encoder makes on the bench scene."""
        workload = bench_workloads()[name]
        lf, dmap = workload.scene(1)
        calls = []

        def record(a, b, w, k, budget):
            calls.append((a.copy(), b.copy(), w.copy(), k, budget))
            return heavy_edge_matching(a, b, w, k, budget)

        heavy_edge_matching = spectral._heavy_edge_matching
        monkeypatch.setattr(spectral, "_heavy_edge_matching", record)
        codec.encode(lf, dmap, workload.config)
        monkeypatch.undo()
        assert any(w.max(initial=1) > 1 for _, _, w, _, _ in calls)
        for call in calls:
            _assert_same_matching(*call)


def _assert_same_merge(a, b, w, old_to_new, k):
    got = spectral._merge_edges(a, b, w, old_to_new, k)
    want = merge_edges_oracle(a, b, w, old_to_new, k)
    for g, o in zip(got, want):
        assert g.dtype == o.dtype and np.array_equal(g, o)


class TestMergeEdges:
    def test_matches_unique_oracle_on_random_contractions(self):
        """Random surjective maps onto 1..k supernodes: parallel edges,
        edges whose ends swap order, no crossing edge at all."""
        rng = np.random.default_rng(12)
        seen = {"k1": 0, "empty_cross": 0, "parallel": 0, "swapped": 0}
        for case in range(300):
            a, b, w, k = _random_weighted_edges(rng, case)
            k_new = 1 if case % 5 == 0 else int(rng.integers(1, k + 1))
            old_to_new = rng.integers(0, k_new, size=k)
            old_to_new[rng.permutation(k)[:k_new]] = np.arange(k_new)
            na, nb = old_to_new[a], old_to_new[b]
            seen["k1"] += k_new == 1 and a.size > 0
            seen["empty_cross"] += a.size > 0 and not (na != nb).any()
            seen["swapped"] += bool((na > nb).any())
            got = spectral._merge_edges(a, b, w, old_to_new, k_new)
            seen["parallel"] += got[0].size < (na != nb).sum()
            _assert_same_merge(a, b, w, old_to_new, k_new)
        assert all(seen.values()), seen

    @pytest.mark.parametrize("name", ["gate", "parallax"])
    def test_matches_unique_oracle_on_bench_calls(self, name, monkeypatch):
        """Every contraction the encoder makes on the bench scene."""
        workload = bench_workloads()[name]
        lf, dmap = workload.scene(1)
        calls = []

        def record(a, b, w, old_to_new, k):
            calls.append((a.copy(), b.copy(), w.copy(), old_to_new.copy(), k))
            return merge_edges(a, b, w, old_to_new, k)

        merge_edges = spectral._merge_edges
        monkeypatch.setattr(spectral, "_merge_edges", record)
        codec.encode(lf, dmap, workload.config)
        monkeypatch.undo()
        assert calls
        for call in calls:
            _assert_same_merge(*call)


def _rect_sr(w, h, views=1, disparity=0.0):
    ys, xs = np.mgrid[0:h, 0:w]
    pix = np.column_stack([ys.ravel(), xs.ravel()]).astype(np.int64)
    return super_ray([pix] * views, disparity)


class TestPartition:
    def test_identity_under_bound(self):
        sr = _rect_sr(4, 4)
        res = partition_super_ray([sr], 64, (1, 1))
        assert len(res.parts) == 1 and res.bits == [0]
        assert res.parts[0].total_pixels == sr.total_pixels <= 64

    def test_8x8_split_in_two(self):
        sr = _rect_sr(8, 8)
        res = partition_super_ray([sr], 32, (1, 1))
        assert len(res.parts) == 2
        assert [p.total_pixels for p in res.parts] == [32, 32]

    def test_16x4_four_parts_simulation(self):
        """Oracle = recursive split simulation: 16x4 under max 16 splits
        into four 4x4 parts."""
        sr = _rect_sr(16, 4)
        res = partition_super_ray([sr], 16, (1, 1))
        assert len(res.parts) == 4
        for p in res.parts:
            pix = per_view(p, 1)[0]
            assert pix.shape[0] == 16
            assert pix[:, 1].max() - pix[:, 1].min() == 3
            assert pix[:, 0].max() - pix[:, 0].min() == 3

    def test_parts_partition_parent(self):
        sr = _rect_sr(9, 7, views=2, disparity=1.0)
        res = partition_super_ray([sr], 40, (1, 2))
        for v in range(2):
            parent = {tuple(p) for p in per_view(sr, 2)[v]}
            got = []
            for part in res.parts:
                got.extend(tuple(p) for p in per_view(part, 2)[v])
            assert len(got) == len(set(got)) == len(parent)
            assert set(got) == parent

    def test_degenerate_returns_unsplit_with_warning(self):
        # single-pixel reference (unsplittable) but a fat second view
        ref = np.array([[0, 0]], dtype=np.int64)
        fat = np.column_stack(
            [np.zeros(8, dtype=np.int64), np.arange(8, dtype=np.int64)]
        )
        sr = super_ray([ref, fat], 0.0)
        res = partition_super_ray([sr], 4, (1, 2))
        # the bound cannot be met: the one part keeps all 9 vertices
        assert len(res.parts) == 1 and res.bits == [0]
        assert res.parts[0].total_pixels == 9 > 4

    def test_tree_replay_matches(self):
        sr = _rect_sr(12, 10, views=2, disparity=0.5)
        res = partition_super_ray([sr], 30, (1, 2))
        assert len(res.bits) == 2 * len(res.parts) - 1
        replay = partition_with_tree([sr], res.bits, (1, 2))
        assert len(replay) == len(res.parts)
        for a, b in zip(res.parts, replay):
            assert np.array_equal(a.pixels, b.pixels)

    def test_max_vertices_respected(self):
        sr = _rect_sr(20, 20, views=3)
        res = partition_super_ray([sr], 100, (1, 3))
        assert len(res.parts) == res.bits.count(0) > 1
        assert sum(p.total_pixels for p in res.parts) == sr.total_pixels
        for p in res.parts:
            assert p.total_pixels <= 100

    def test_tree_replay_rejects_mismatched_trees(self):
        sr = _rect_sr(8, 8, views=2, disparity=0.5)
        assert len(partition_with_tree([sr], [1, 0, 0], (1, 2))) == 2
        for bad, message in (
            ([], "structure holds 0 of 1 split trees"),
            ([1, 0], "split tree truncated"),
            ([1, 0, 0, 0], "trailing structure symbols"),
            ([0, 0], "trailing structure symbols"),
            ([2], "tree bit 2"),
            ([1, 0, -1], "tree bit -1"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                partition_with_tree([sr], bad, (1, 2))
        # a 1 on a single-pixel reference, which cannot be bisected
        dot = super_ray([per_view(sr, 1)[0][:1]] * 2, 0.0)
        with pytest.raises(ValueError, match="^split tree does not match super-ray geometry$"):
            partition_with_tree([dot], [1, 0, 0], (1, 2))
        # one tree per super-ray
        with pytest.raises(ValueError, match="^structure holds 1 of 2 split trees$"):
            partition_with_tree([sr, dot], [0], (1, 2))

    def test_no_super_rays(self):
        res = partition_super_ray([], 4, (1, 2))
        assert res.parts == [] and res.bits == []
        assert partition_with_tree([], [], (1, 2)) == []


def _random_holey_super_ray(rng, angular, disparity):
    """Random per-view masks of one random box, each holding about
    30-100% of its pixels, at least one in the reference view."""
    h, w = rng.integers(1, 10, size=2)
    views = []
    for v in range(angular[0] * angular[1]):
        mask = rng.random((h, w)) < rng.uniform(0.3, 1.0)
        if v == 0:
            mask.flat[rng.integers(mask.size)] = True
        views.append(np.argwhere(mask).astype(np.int64))
    return super_ray(views, disparity)


def _random_batch(rng, case):
    """One to five random super-rays of one angular grid, of independent
    sizes, disparities and places (they may overlap: the walk keeps each
    node's pixels apart), and a vertex bound between the view count and
    the largest size."""
    angular = ((1, 2), (2, 2), (2, 3), (3, 3))[case % 4]
    n_views = angular[0] * angular[1]
    srs = [
        _random_holey_super_ray(rng, angular, float(rng.choice([0.0, 0.5, 1.0, 1.5])))
        for _ in range(int(rng.integers(1, 6)))
    ]
    largest = max(sr.total_pixels for sr in srs)
    return srs, angular, int(rng.integers(n_views, max(n_views, largest) + 1))


def _assert_same_parts(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.disparity == b.disparity
        assert a.pixels.dtype == b.pixels.dtype and np.array_equal(a.pixels, b.pixels)


def _record_oracle_splits(monkeypatch):
    """Record every split the per-super-ray oracles make, as (depth from
    its super-ray's root, width of the parent's box, per non-reference
    view with pixels the (assigning rounds, stalled) of its fill)."""
    splits, depth = [], {}
    reproject = conftest.reproject_children_oracle

    def split(sr, child_refs, angular_dims):
        d = depth[id(sr)][0] if id(sr) in depth else 0
        xs = sr.pixels[:, 2]
        splits.append((d, int(xs.max() - xs.min()) + 1, []))
        children = reproject(sr, child_refs, angular_dims)
        for child in children:
            depth[id(child)] = (d + 1, child)  # the child pins its id
        return children

    def fill(grid, fallback):
        splits[-1][2].append(_fill_rounds(grid))
        fill_holes_oracle(grid, fallback)

    monkeypatch.setattr(conftest, "reproject_children_oracle", split)
    monkeypatch.setattr(conftest, "fill_holes", fill)
    return splits


def _depth_features(splits):
    """(some depth splits parents of boxes of different widths, some depth
    has a parent whose stacked fill stalls while another's still fills).
    A parent's block assigns labels for as many rounds as its slowest
    view and keeps holes when any view stalls."""
    widths, stall_early = False, False
    for d in {s[0] for s in splits}:
        level = [s for s in splits if s[0] == d]
        widths |= len({w for _, w, _ in level}) > 1
        blocks = [
            (max((r for r, _ in views), default=0), any(st for _, st in views))
            for _, _, views in level
        ]
        stall_early |= any(
            stalls and any(other > rounds for other, _ in blocks) for rounds, stalls in blocks
        )
    return widths, stall_early


class TestSplitWalk:
    def test_matches_recursion_oracles_on_random_super_rays(self, monkeypatch):
        """Random batches of super-rays walked together give every member
        the tree and parts that its own depth-first recursion gives it, on
        both codec sides.  The cases include unsplittable nodes, depths
        whose parents' boxes differ in width and depths at which one
        parent's fill stalls while another's still fills."""
        rng = np.random.default_rng(21)
        splits = _record_oracle_splits(monkeypatch)
        seen = dict.fromkeys(["unsplittable", "split", "batch", "widths", "stall_early"], 0)
        for case in range(200):
            srs, angular, max_vertices = _random_batch(rng, case)
            splits.clear()
            want, warned = partition_super_rays_oracle(srs, max_vertices, angular)
            widths, stall_early = _depth_features(splits)
            got = partition_super_ray(srs, max_vertices, angular)
            assert got.bits == want.bits
            _assert_same_parts(got.parts, want.parts)
            _assert_same_parts(
                partition_with_tree(srs, got.bits, angular),
                partition_with_trees_oracle(srs, want.bits, angular),
            )
            seen["unsplittable"] += any(warned)
            seen["split"] += len(got.parts) > len(srs)
            seen["batch"] += len(srs) > 1
            seen["widths"] += widths
            seen["stall_early"] += stall_early
        assert all(seen.values()), seen

    def test_runs_of_one_depth_split_as_one_stack(self, monkeypatch):
        """With a row cap of a few rows, every depth splits its nodes in
        several runs, and every member still gets its own recursion's
        tree and parts."""
        rng = np.random.default_rng(23)
        monkeypatch.setattr(spectral, "_SPLIT_ROWS", 16)
        calls = []
        split_level = spectral._split_level

        def spy(rows, node, child, shifts, n_views):
            calls.append(shifts.shape[0])
            return split_level(rows, node, child, shifts, n_views)

        monkeypatch.setattr(spectral, "_split_level", spy)
        for case in range(60):
            srs, angular, max_vertices = _random_batch(rng, case)
            want, _ = partition_super_rays_oracle(srs, max_vertices, angular)
            got = partition_super_ray(srs, max_vertices, angular)
            assert got.bits == want.bits
            _assert_same_parts(got.parts, want.parts)
            _assert_same_parts(partition_with_tree(srs, got.bits, angular), want.parts)
        # runs of one node (a node above the cap) and of several
        assert min(calls) == 1 and max(calls) > 1

    def test_replay_rejects_what_the_oracle_rejects(self):
        """A batch's structure bits truncated, extended, cut after a
        member's tree, without a member's tree, with a bit flipped or set
        to 2, or with a leaf split once more (a 1 on an unsplittable node
        among them): the walk raises exactly when the codec's former
        per-label split and the per-super-ray replays do, with their
        message, and otherwise returns the same parts."""
        rng = np.random.default_rng(22)
        reasons = {}
        lone_fault = 0
        for case in range(150):
            srs, angular, max_vertices = _random_batch(rng, case)
            bits = partition_super_ray(srs, max_vertices, angular).bits
            stops = np.cumsum([len(t) for t in parse_structure_oracle(bits, len(srs))]).tolist()
            k = int(rng.integers(len(srs)))
            start = [0, *stops][k]
            flipped, two = list(bits), list(bits)
            flipped[rng.integers(len(bits))] ^= 1
            two[rng.integers(len(bits))] = 2
            leaf = int(rng.choice(np.flatnonzero(np.array(bits) == 0)))
            edits = (bits[:-1], bits + [0], bits + [1, 0, 0], bits[:start],
                     bits[:start] + bits[stops[k]:], flipped, two,
                     bits[:leaf] + [1, 0, 0] + bits[leaf + 1:])
            for edited in edits:
                try:
                    want = partition_with_trees_oracle(srs, edited, angular)
                except ValueError as e:
                    reason = re.sub(r"holds \d+ of \d+", "holds k of n", str(e))
                    reasons[reason] = reasons.get(reason, 0) + 1
                    lone_fault += len(srs) > 1
                    with pytest.raises(ValueError) as got:
                        partition_with_tree(srs, edited, angular)
                    assert str(got.value) == str(e)
                    continue
                _assert_same_parts(partition_with_tree(srs, edited, angular), want)
        assert set(reasons) == {
            "split tree truncated",
            "trailing structure symbols",
            "structure holds k of n split trees",
            "tree bit 2",
            "split tree does not match super-ray geometry",
        }, reasons
        assert lone_fault > 0


def _reproject_children_oracle(sr, child_refs, angular_dims):
    """Reference: the dict-based reprojection the grid version replaced.
    Returns (children's per-view pixel lists, hole seen, stall seen)."""
    n_views, t_count = angular_dims[0] * angular_dims[1], angular_dims[1]
    parents = per_view(sr, n_views)
    children = [[ref[:, 1:]] + [None] * (n_views - 1) for ref in child_refs]
    saw_hole = saw_stall = False
    for v in range(1, n_views):
        s, t = divmod(v, t_count)
        dy, dx = label_shift(sr.disparity, s, t)
        owner = {(int(y), int(x)): -1 for y, x in parents[v]}
        for c, ref in enumerate(child_refs):
            for _, y, x in ref:
                key = (int(y) - dy, int(x) - dx)
                if key in owner:
                    owner[key] = c
        while True:
            holes = [k for k, o in sorted(owner.items()) if o < 0]
            if not holes:
                break
            saw_hole = True
            assignments = []
            for y, x in holes:
                counts = {}
                for nb in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    o = owner.get(nb, -1)
                    if o >= 0:
                        counts[o] = counts.get(o, 0) + 1
                if counts:
                    best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
                    assignments.append(((y, x), best))
            if not assignments:
                saw_stall = True
                for k in holes:
                    owner[k] = 0
                break
            for k, c in assignments:
                owner[k] = c
        for c in range(len(child_refs)):
            pix = sorted(k for k, o in owner.items() if o == c)
            children[c][v] = np.array(pix, dtype=np.int64).reshape(-1, 2)
    return children, saw_hole, saw_stall


def _random_reprojection_case(rng, case):
    """A split super-ray whose independent random per-view masks leave holes
    the projection cannot reach, and isolated ones that stall."""
    angular = (2, 3) if case % 2 else (3, 3)
    n_views = angular[0] * angular[1]
    disparity = (0.5, 1.0, 1.5)[case % 3]
    views = []
    for v in range(n_views):
        mask = rng.random((9, 11)) < (0.8 if v == 0 else 0.6)
        views.append(np.argwhere(mask).astype(np.int64))
    sr = super_ray(views, disparity)
    split = split_reference_oracle(reference_rows(sr))
    assert split is not None
    return sr, split, angular


def _fill_rounds(grid):
    """(rounds in which :func:`fill_holes` assigns labels on ``grid``,
    whether it then stalls): a hole fills in the round after one of its
    4-neighbours holds a label, whichever label that is."""
    labeled = np.pad(grid >= 0, 1)
    holes = np.pad(grid == -1, 1)
    rounds = 0
    while True:
        near = np.zeros_like(labeled)
        near[1:] |= labeled[:-1]
        near[:-1] |= labeled[1:]
        near[:, 1:] |= labeled[:, :-1]
        near[:, :-1] |= labeled[:, 1:]
        fill = holes & near
        if not fill.any():
            return rounds, bool(holes.any())
        rounds += 1
        labeled |= fill
        holes &= ~fill


class TestReprojection:
    def test_grid_fill_matches_dict_oracle(self):
        rng = np.random.default_rng(12)
        holes = stalls = 0
        for case in range(60):
            sr, split, angular = _random_reprojection_case(rng, case)
            want, hole, stall = _reproject_children_oracle(sr, split, angular)
            got = partition_with_tree([sr], [1, 0, 0], angular)
            holes += hole
            stalls += stall
            for child, pixels in zip(got, want):
                assert child.disparity == sr.disparity
                for a, b in zip(per_view(child, angular[0] * angular[1]), pixels):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
        assert holes > 0 and stalls > 0

    def test_stacked_fill_matches_view_by_view_oracle(self, monkeypatch):
        """One fill over all views stacked gives every child the pixels the
        fill of each view alone gives, also on splits where one view
        stalls while another still fills."""
        rng = np.random.default_rng(12)
        fills = []

        def record(grid, fallback):
            fills[-1].append(_fill_rounds(grid))
            fill_holes_oracle(grid, fallback)

        monkeypatch.setattr(conftest, "fill_holes", record)
        for case in range(60):
            sr, split, angular = _random_reprojection_case(rng, case)
            fills.append([])
            want = reproject_children_oracle(sr, split, angular)
            _assert_same_parts(partition_with_tree([sr], [1, 0, 0], angular), want)
        early = [
            views for views in fills
            if any(stall and any(r > rounds for r, _ in views) for rounds, stall in views)
        ]
        assert len(early) > 5
