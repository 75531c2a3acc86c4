"""SLIC segmentation, projection and super-ray assembly."""

import numpy as np
import pytest

from srgc.errors import OrphanLabelError, TooManySuperpixelsError
from srgc.lightfield import DisparityMap, Patch, SceneSpec, synthesize_light_field
from srgc.segmentation import (
    SegmentationMap,
    assemble_super_rays,
    fill_holes,
    label_disparities,
    label_regions,
    label_shifts,
    median_disparity,
    project_labels,
    slic_segment,
)
from srgc.util import round_half_away

from conftest import (
    assemble_super_rays_oracle,
    build_super_rays,
    fill_holes_oracle,
    four_patch_scene,
    label_disparities_oracle,
    label_shift,
    per_view,
    project_labels_oracle,
)


def flood_fill_components(mask):
    """Oracle: count 4-connected components of a boolean mask by BFS."""
    h, w = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    count = 0
    for sy in range(h):
        for sx in range(w):
            if not mask[sy, sx] or seen[sy, sx]:
                continue
            count += 1
            stack = [(sy, sx)]
            seen[sy, sx] = True
            while stack:
                y, x = stack.pop()
                for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        stack.append((ny, nx))
    return count


def brute_force_projection(ref, disparities, s, t):
    """Oracle: per-pixel projection with explicit z-order (higher disparity
    wins, ties to smaller label); holes left as -1."""
    h, w = ref.shape
    out = np.full((h, w), -1, dtype=np.int64)
    best_d = np.full((h, w), -np.inf)
    for y in range(h):
        for x in range(w):
            l = int(ref[y, x])
            d = disparities[l]
            ty = y - round_half_away(d * s)
            tx = x - round_half_away(d * t)
            if 0 <= ty < h and 0 <= tx < w:
                if d > best_d[ty, tx] or (d == best_d[ty, tx] and l < out[ty, tx]):
                    best_d[ty, tx] = d
                    out[ty, tx] = l
    return out


class TestSlic:
    def test_single_label(self):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 255, size=(20, 20))
        seg = slic_segment(img, k=1)
        assert seg.label_count == 1
        assert np.all(seg.reference == 0)

    def test_k16_coverage_and_connectivity(self):
        rng = np.random.default_rng(1)
        ys, xs = np.mgrid[0:64, 0:64]
        img = (xs * 2 + ys + rng.integers(0, 10, size=(64, 64))).astype(np.int64)
        img[16:40, 24:48] += 60  # one textured blob
        seg = slic_segment(img, k=16)
        assert 12 <= seg.label_count <= 20
        labels = seg.reference
        covered = np.zeros(seg.label_count, dtype=bool)
        covered[np.unique(labels)] = True
        assert covered.all()
        for l in range(seg.label_count):
            assert flood_fill_components(labels == l) == 1

    def test_two_tone_boundary(self):
        img = np.full((64, 64), 50)
        img[:, 32:] = 200
        seg = slic_segment(img, k=2, compactness=1.0)
        assert seg.label_count == 2
        labels = seg.reference
        # oracle: every boundary pixel between the two labels within 1 px
        # of the tone boundary at x = 32
        for y in range(64):
            for x in range(63):
                if labels[y, x] != labels[y, x + 1]:
                    assert 31 <= x <= 32

    def test_too_many_superpixels(self):
        with pytest.raises(TooManySuperpixelsError):
            slic_segment(np.zeros((4, 4)), k=17)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            slic_segment(np.zeros((4, 4)), k=0)
        with pytest.raises(ValueError):
            slic_segment(np.zeros((4, 4)), k=2, compactness=0.0)


class TestMedianDisparity:
    def test_odd(self):
        dmap = DisparityMap(values=np.array([[1.0, 2.0, 9.0]]))
        region = np.array([[0, 0], [0, 1], [0, 2]])
        assert median_disparity(region, dmap) == 2.0

    def test_singleton(self):
        dmap = DisparityMap(values=np.array([[3.0]]))
        assert median_disparity(np.array([[0, 0]]), dmap) == 3.0

    def test_even_lower_median(self):
        dmap = DisparityMap(values=np.array([[1.0, 2.0, 3.0, 4.0]]))
        region = np.array([[0, i] for i in range(4)])
        assert median_disparity(region, dmap) == 2.0

    def test_empty_region(self):
        dmap = DisparityMap(values=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            median_disparity(np.zeros((0, 2), dtype=int), dmap)


class TestLabelShifts:
    @pytest.mark.parametrize("angular", [(1, 1), (1, 3), (3, 3), (5, 5), (9, 9)])
    def test_matches_per_view_label_shift(self, angular):
        """Every 1/8-px disparity in [-4, 4], exact-half products such as
        0.125 * 4, 0.5 * 1 and -1.5 * 1 included."""
        s_count, t_count = angular
        views = s_count * t_count
        for d in np.arange(-32, 33) / 8.0:
            d = float(d)
            want = np.array(
                [label_shift(d, *divmod(v, t_count)) for v in range(1, views)],
                dtype=np.int64,
            ).reshape(-1, 2)
            got = label_shifts(d, views, t_count)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), d


class TestProjection:
    def test_zero_disparity_identity(self):
        rng = np.random.default_rng(2)
        ref = rng.integers(0, 4, size=(12, 12))
        for l in range(4):
            ref[l, l] = l  # ensure all labels present
        seg = SegmentationMap(labels=ref[None], label_count=4)
        out = project_labels(seg, {l: 0.0 for l in range(4)}, (3, 3))
        for view in out.labels:
            assert np.array_equal(view, ref)

    def test_single_label_shift_and_fill(self):
        ref = np.zeros((8, 8), dtype=np.int64)
        seg = SegmentationMap(labels=ref[None], label_count=1)
        out = project_labels(seg, {0: 1.0}, (1, 2))
        # single label: every pixel labeled 0 in all views
        for view in out.labels:
            assert np.all(view == 0)

    def test_occlusion_matches_brute_force(self):
        """Near (d=2) overlapping far (d=0): oracle comparison on non-hole
        pixels of every view."""
        ref = np.zeros((16, 16), dtype=np.int64)
        ref[:, 8:] = 1  # label 1 strip will slide over label 0
        disparities = {0: 0.0, 1: 2.0}
        seg = SegmentationMap(labels=ref[None], label_count=2)
        out = project_labels(seg, disparities, (2, 3))
        for s in range(2):
            for t in range(3):
                view = out.labels[s * 3 + t]
                oracle = brute_force_projection(ref, disparities, s, t)
                mask = oracle >= 0
                assert np.array_equal(view[mask], oracle[mask])
                assert np.all(view >= 0)  # holes filled

    def test_projection_deterministic(self):
        rng = np.random.default_rng(3)
        ref = rng.integers(0, 5, size=(20, 20))
        for l in range(5):
            ref[0, l] = l
        seg = SegmentationMap(labels=ref[None], label_count=5)
        d = {l: l * 0.625 for l in range(5)}
        a = project_labels(seg, d, (3, 3))
        b = project_labels(seg, d, (3, 3))
        for va, vb in zip(a.labels, b.labels):
            assert np.array_equal(va, vb)

    def test_fill_skips_cells_outside_the_region(self):
        # -2 cells are neither filled nor counted as neighbors
        grid = np.array([[0, -1, -2], [-2, -1, 1], [-2, -2, -1]])
        fill_holes(grid, 9)
        assert grid.tolist() == [[0, 0, -2], [-2, 1, 1], [-2, -2, 1]]

    def test_fill_stall_takes_fallback(self):
        grid = np.array([[-1, -2, 3]])
        fill_holes(grid, 7)
        assert grid.tolist() == [[7, -2, 3]]
        view = np.full((2, 2), -1)
        fill_holes(view, np.arange(4).reshape(2, 2))
        assert view.tolist() == [[0, 1], [2, 3]]

    def test_fill_matches_loop_oracle_on_random_grids(self):
        """Random grids of labels 0-3, holes and outside cells (-2, -3);
        the fallback is the scalar 9 or a grid of labels >= 10, so a
        result above 3 marks a stall."""
        rng = np.random.default_rng(17)
        seen = dict(outside=0, tie=0, stall=0, scalar=0, array=0, multi_round=0)
        for case in range(300):
            h, w = (int(x) for x in rng.integers(1, 9, size=2))
            p = rng.dirichlet([1.0, 1.0, 1.0])
            kind = rng.choice(3, size=(h, w), p=p)
            grid = np.where(
                kind == 0,
                rng.integers(0, 4, size=(h, w)),
                np.where(kind == 1, -1, -2 - rng.integers(0, 2, size=(h, w))),
            )
            fallback = 9 if case % 2 else 10 + np.arange(h * w).reshape(h, w)
            want = grid.copy()
            fill_holes_oracle(want, fallback)
            got = grid.copy()
            fill_holes(got, fallback)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            seen["outside"] += bool((grid < -1).any())
            seen["tie"] += _first_round_has_tie(grid)
            stalled = bool((want > 3).any())
            seen["stall"] += stalled
            seen["scalar" if case % 2 else "array"] += stalled
            seen["multi_round"] += any(
                not _labeled_neighbors(grid, y, x) and 0 <= want[y, x] <= 3
                for y, x in np.argwhere(grid == -1)
            )
        assert min(seen.values()) > 0, seen

    def test_missing_disparity_rejected(self):
        seg = SegmentationMap(labels=np.zeros((1, 4, 4), dtype=np.int64), label_count=1)
        with pytest.raises(ValueError):
            project_labels(seg, {}, (1, 2))
        with pytest.raises(ValueError):
            project_labels_oracle(seg, {}, (1, 2))

    def test_matches_per_view_oracle_on_random_maps(self):
        """Random reference maps with 1/8-px disparities in [-20, 20]:
        labels that overlap in a view (conflicts), negative shifts, and
        shifts that carry every label off a view, which then takes the
        reference map as fallback; 1 x N and N x 1 maps included."""
        rng = np.random.default_rng(29)
        seen = dict(conflict=0, negative=0, unlabeled_view=0, row=0, column=0)
        for case in range(300):
            h, w = (int(x) for x in rng.integers(1, 13, size=2))
            if case % 10 == 1:
                h = 1
            elif case % 10 == 2:
                w = 1
            count = int(rng.integers(1, min(h * w, 8) + 1))
            ref = rng.integers(0, count, size=(h, w))
            ref.flat[rng.permutation(h * w)[:count]] = np.arange(count)  # no orphan
            scale = 20 if case % 4 == 0 else 3
            disparities = {
                l: float(rng.integers(-8 * scale, 8 * scale + 1)) / 8.0
                for l in range(count)
            }
            angular = ((1, 1), (1, 3), (2, 3), (3, 3))[case % 4]
            seg = SegmentationMap(labels=ref[None], label_count=count)
            got = project_labels(seg, disparities, angular)
            want = project_labels_oracle(seg, disparities, angular)
            assert got.label_count == want.label_count == count
            assert len(got.labels) == len(want.labels) == angular[0] * angular[1]
            for a, b in zip(got.labels, want.labels):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.array_equal(a, b)
            seen["row"] += h == 1
            seen["column"] += w == 1
            seen["negative"] += any(d < 0 for d in disparities.values())
            for v in range(1, angular[0] * angular[1]):
                s, t = divmod(v, angular[1])
                direct = brute_force_projection(ref, disparities, s, t)
                seen["unlabeled_view"] += bool((direct < 0).all())
                seen["conflict"] += _has_conflict(ref, disparities, s, t)
        assert min(seen.values()) > 0, seen


class TestSuperRays:
    def test_single_label_collects_everything(self, flat_dmap):
        ref = np.zeros((6, 6), dtype=np.int64)
        seg = SegmentationMap(labels=np.stack([ref] * 4), label_count=1)
        rays = build_super_rays(seg, flat_dmap(6, 6))
        assert len(rays) == 1
        assert rays[0].total_pixels == 4 * 36

    def test_pixel_count_conservation(self, flat_dmap):
        rng = np.random.default_rng(4)
        ref = rng.integers(0, 6, size=(18, 18))
        for l in range(6):
            ref[l, 0] = l
        seg = SegmentationMap(labels=ref[None], label_count=6)
        out = project_labels(seg, {l: float(l % 3) for l in range(6)}, (2, 2))
        rays = build_super_rays(out, flat_dmap(18, 18))
        for v in range(4):
            total = sum(per_view(r, 4)[v].shape[0] for r in rays)
            assert total == 18 * 18

    def test_two_patch_scene_masks(self):
        """Patch-aligned super-rays: reference regions match the synthetic
        patch masks within a 1-px boundary (oracle = overlap count)."""
        spec = SceneSpec(angular_dims=(1, 1), spatial_dims=(32, 32), background=30)
        spec.patches.append(
            Patch(shape="rect", params=(0, 0, 16, 32), disparity=0.0, texture=("const", 220))
        )
        lf, dmap = synthesize_light_field(spec)
        seg = slic_segment(lf.views[0].planes[0], k=2, compactness=1.0)
        rays = build_super_rays(seg, dmap)
        assert len(rays) == 2
        patch_mask = np.zeros((32, 32), dtype=bool)
        patch_mask[:, :16] = True
        best = 0
        for r in rays:
            mask = np.zeros((32, 32), dtype=bool)
            pix = per_view(r, 1)[0]
            mask[pix[:, 0], pix[:, 1]] = True
            overlap = (mask & patch_mask).sum()
            union = (mask | patch_mask).sum()
            best = max(best, overlap / union)
        # within 1 px of the boundary: at most one 32-px column disagrees
        assert best >= (16 * 32 - 32) / (16 * 32 + 32)

    def test_orphan_label(self, flat_dmap):
        ref = np.zeros((4, 4), dtype=np.int64)
        seg = SegmentationMap(labels=ref[None], label_count=2)  # label 1 nowhere
        with pytest.raises(OrphanLabelError):
            build_super_rays(seg, flat_dmap(4, 4))
        with pytest.raises(OrphanLabelError):
            label_disparities(seg, flat_dmap(4, 4))

    def test_disparity_is_quantized_median(self, flat_dmap):
        ref = np.zeros((2, 2), dtype=np.int64)
        seg = SegmentationMap(labels=ref[None], label_count=1)
        dmap = DisparityMap(values=np.array([[0.3, 0.3], [0.9, 0.9]]))
        rays = build_super_rays(seg, dmap)
        # lower median of {0.3,0.3,0.9,0.9} = 0.3, eighth-quantized
        assert rays[0].disparity == pytest.approx(0.25)
        assert label_disparities(seg, dmap) == {0: 0.25}


class TestLabelRegions:
    def test_matches_per_label_nonzero_on_random_maps(self):
        """Values outside 0..count-1 are skipped and absent labels get
        empty regions, as with one ``== l`` scan per label."""
        rng = np.random.default_rng(8)
        absent = skipped = 0
        for _ in range(200):
            h, w = rng.integers(1, 14, size=2)
            count = int(rng.integers(1, 12))
            labels = rng.integers(-2, count + 3, size=(h, w))
            regions = label_regions(labels, count)
            assert len(regions) == count
            for l, region in enumerate(regions):
                want = np.column_stack(np.nonzero(labels == l))
                assert region.dtype == np.int64 and np.array_equal(region, want)
                absent += region.shape[0] == 0
            skipped += bool(((labels < 0) | (labels >= count)).any())
        assert absent > 0 and skipped > 0

    def test_consumers_match_per_label_scan_oracles(self):
        rng = np.random.default_rng(9)
        for case in range(40):
            count = int(rng.integers(1, 9))
            ref = rng.integers(0, count, size=(12, 10))
            ref.flat[:count] = np.arange(count)  # no orphan
            dmap = DisparityMap(values=rng.uniform(0.0, 2.0, size=(12, 10)))
            seg = SegmentationMap(labels=ref[None], label_count=count)
            disparities = label_disparities(seg, dmap)
            assert disparities == label_disparities_oracle(seg, dmap)
            views = project_labels(seg, disparities, (2, 3))
            got = assemble_super_rays(views, disparities)
            want = assemble_super_rays_oracle(views, disparities)
            assert len(got) == len(want) == count
            for a, b in zip(got, want):
                assert (a.label, a.disparity) == (b.label, b.disparity)
                assert a.pixels.dtype == b.pixels.dtype
                assert np.array_equal(a.pixels, b.pixels)


def _has_conflict(ref, disparities, s, t):
    """Whether two labels' reference pixels land on one pixel of view
    (s, t)."""
    h, w = ref.shape
    owner = {}
    for y in range(h):
        for x in range(w):
            d = disparities[int(ref[y, x])]
            key = (y - round_half_away(d * s), x - round_half_away(d * t))
            if 0 <= key[0] < h and 0 <= key[1] < w:
                if owner.setdefault(key, ref[y, x]) != ref[y, x]:
                    return True
    return False


def _labeled_neighbors(grid, y, x):
    h, w = grid.shape
    return [
        int(grid[ny, nx])
        for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1))
        if 0 <= ny < h and 0 <= nx < w and grid[ny, nx] >= 0
    ]


def _first_round_has_tie(grid):
    """Some hole's top neighbor count is shared by two labels."""
    for y, x in np.argwhere(grid == -1):
        labels = _labeled_neighbors(grid, y, x)
        if labels:
            counts = np.bincount(labels)
            if (counts == counts.max()).sum() > 1:
                return True
    return False
