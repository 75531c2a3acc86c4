"""SLIC segmentation, projection and super-ray assembly."""

import tracemalloc

import numpy as np
import pytest

import srgc.segmentation as segmentation
import srgc.util as util
from srgc.errors import OrphanLabelError, TooManySuperpixelsError
from srgc.lightfield import DisparityMap, Patch, SceneSpec, synthesize_light_field
from srgc.segmentation import (
    SegmentationMap,
    assemble_super_rays,
    fill_cells,
    label_disparities,
    label_regions,
    label_shifts,
    project_labels,
    slic_segment,
)
from srgc.util import round_half_away

from conftest import (
    assemble_super_rays_oracle,
    bench_workloads,
    build_super_rays,
    enforce_connectivity_oracle,
    fill_holes_oracle,
    four_patch_scene,
    label_components_oracle,
    label_disparities_oracle,
    label_shift,
    per_view,
    project_labels_oracle,
    slic_segment_oracle,
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


def drifting_centers_image():
    """A 40x40 image on which, at k=16, the four centers that cover the
    top-left corner drift away from it in the first iteration, so pixel
    (0, 0) lies outside every window in the second.  Each seed sits on a
    flat 3x3 block of its own value (so it stays put); the corner seeds'
    values recur only in masses at the far side of their windows, and the
    corner itself holds the value of the seed at (5, 15), which the
    largest mass pulls right."""
    img = np.full((40, 40), 90)
    for y in (5, 15, 25, 35):
        for x in (5, 15, 25, 35):
            img[y - 1:y + 2, x - 1:x + 2] = 80
    img[0:9, 0:9] = 40
    for (y, x), v in zip(((5, 5), (5, 15), (15, 5), (15, 15)), (10, 40, 20, 30)):
        img[y - 1:y + 2, x - 1:x + 2] = v
    img[0:22, 18:22] = 10
    img[18:22, 0:9] = 20
    img[27:32, 27:32] = 30
    img[0:22, 27:32] = 40
    return img


def slic_corpus(count=240, seed=0):
    """Seeded (image, k, compactness) cases: noise, flat, few-level and
    ramp images from 1x1 to 31x31, views 1 pixel high or wide among
    them."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        h, w = (int(v) for v in rng.integers(1, 32, size=2))
        k = int(rng.integers(1, min(32, h * w) + 1))
        ys, xs = np.mgrid[0:h, 0:w]
        img = (
            rng.integers(0, 256, size=(h, w)),
            np.full((h, w), int(rng.integers(0, 256))),
            rng.integers(0, 4, size=(h, w)) * 60,
            (xs * 7 + ys * 3 + rng.integers(0, 20, size=(h, w))) % 256,
        )[i % 4]
        yield img, k, float(rng.choice([0.5, 1.0, 10.0, 40.0]))


class TestSlicMatchesLoopOracle:
    """The array SLIC and connectivity pass give the labels of the
    per-center, full-frame loops they replaced, bit for bit."""

    @staticmethod
    def _check(img, k, compactness, hits, caps=(None,)):
        want = slic_segment_oracle(img, k, compactness, hits=hits)
        for cap in caps:
            with pytest.MonkeyPatch.context() as m:
                if cap is not None:
                    m.setattr(segmentation, "_WINDOW_CELLS", cap)
                got = slic_segment(img, k, compactness)
            assert got.label_count == want.label_count
            assert np.array_equal(got.labels, want.labels)

    def test_random_images_and_every_branch(self):
        """Hundreds of seeded images, each at the default run size and with
        the centers split into runs of one window (even cases) or of a
        few (odd cases); the corpus reaches every branch of the loop: ties
        of equal D, centers left with no pixels, pixels outside every
        window, and fragments merged into a fragment that merges later."""
        hits = {}
        cases = list(slic_corpus())
        cases += [(drifting_centers_image(), 16, c) for c in (0.01, 1.0)]
        for i, (img, k, compactness) in enumerate(cases):
            self._check(img, k, compactness, hits, caps=(None, (1, 600)[i % 2]))
        assert min(hits.get(b, 0) for b in ("tie", "empty", "outside", "chain")) > 0, hits

    @pytest.mark.parametrize("seed", [1, 17])
    @pytest.mark.parametrize("name", ["gate", "parallax", "partition"])
    def test_bench_scenes(self, name, seed):
        workload = bench_workloads()[name]
        lf, _ = workload.scene(seed)
        cfg = workload.config
        self._check(lf.luma_planes()[0], cfg.slic_k, cfg.compactness, {})

    def test_connectivity_on_random_label_maps(self):
        """Several hundred seeded label maps, pixel noise and 3x3 blocks,
        through the connectivity pass alone."""
        chains = {}
        for labels, k in random_label_maps():
            h, w = labels.shape
            got, count = segmentation._enforce_connectivity(labels, w, h, k)
            want, want_count = enforce_connectivity_oracle(labels, w, h, k, chains)
            assert count == want_count
            assert np.array_equal(got, want)
        assert chains["chain"] > 0

    def test_work_scales_with_the_frame_not_k(self, monkeypatch):
        """At 128x128 and k=64, the connectivity pass hands a few frames in
        all to the component labelling and its union-find: one label map
        to ``_label_components`` and one pointer array per labelling round
        to ``forest_roots`` (through ``util.component_roots``), not one
        frame per label, component or fragment (a per-label loop hands
        over 64 frames or more)."""
        sizes = []
        for module, name in ((segmentation, "_label_components"), (util, "forest_roots"),
                             (segmentation, "forest_roots")):
            def counted(input, *args, _call=getattr(module, name), **kwargs):
                sizes.append(np.asarray(input).size)
                return _call(input, *args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        rng = np.random.default_rng(5)
        ys, xs = np.mgrid[0:128, 0:128]
        slic_segment(xs + ys + rng.integers(0, 12, size=(128, 128)), 64)
        assert len(sizes) >= 3
        assert sum(sizes) < 8 * 128 * 128


def random_label_maps(count=400, seed=7):
    """Seeded (label map, k) cases: maps from 1x1 to 29x29 with 1 to 11
    labels, pixel noise (even cases) and 3x3 blocks (odd cases), each with
    a k from 1 to 19 for the connectivity pass."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        h, w = (int(v) for v in rng.integers(1, 30, size=2))
        n = int(rng.integers(1, 12))
        if i % 2:
            blocks = rng.integers(0, n, size=((h + 2) // 3, (w + 2) // 3))
            labels = np.repeat(np.repeat(blocks, 3, 0), 3, 1)[:h, :w]
        else:
            labels = rng.integers(0, n, size=(h, w))
        yield labels, int(rng.integers(1, 20))


def serpentine(h, w):
    """Label 1 on the even rows, joined at alternate ends by one cell of
    each odd row, so one winding region; label 0 fills the rest of the
    odd rows."""
    labels = np.zeros((h, w), dtype=np.int64)
    labels[::2] = 1
    labels[1::4, -1] = 1
    labels[3::4, 0] = 1
    return labels


class TestLabelComponents:
    """``_label_components`` gives the ids and count of the per-label
    ``ndimage.label`` loop it replaced."""

    @staticmethod
    def _check(labels):
        got, count = segmentation._label_components(labels)
        want, want_count = label_components_oracle(labels)
        assert count == want_count
        assert np.array_equal(got, want)
        return got, count

    def test_random_label_maps(self):
        for labels, _ in random_label_maps():
            self._check(labels)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 17), (17, 1), (1, 2), (2, 1)])
    def test_frames_one_pixel_high_or_wide(self, shape):
        rng = np.random.default_rng(sum(shape))
        for n in (1, 2, 3):
            self._check(rng.integers(0, n, size=shape))

    def test_one_label_everywhere(self):
        got, count = self._check(np.full((9, 13), 4))
        assert count == 1
        assert not got.any()

    def test_checkerboard_every_pixel_its_own_component(self):
        ys, xs = np.mgrid[0:11, 0:14]
        got, count = self._check((ys + xs) % 2)
        assert count == 11 * 14
        # label 0's pixels first, each label in raster order
        assert np.array_equal(np.sort(got[(ys + xs) % 2 == 0]), np.arange(77))

    @pytest.mark.parametrize("shape", [(15, 15), (21, 8), (8, 21)])
    def test_serpentine_region(self, shape):
        labels = serpentine(*shape)
        got, count = self._check(labels)
        assert np.unique(got[labels == 1]).size == 1
        assert got[0, 0] == count - 1

    def test_sparse_label_values(self):
        labels = np.array([[900, 900, 3], [3, 900, 3], [3, 3, 3]])
        got, count = self._check(labels)
        assert count == 2
        assert np.array_equal(got, [[1, 1, 0], [0, 1, 0], [0, 0, 0]])


class TestMedianDisparity:
    """``label_disparities`` gives each label the lower median of its
    reference-view disparities, snapped to 1/8 px, as the per-label
    oracle does."""

    @staticmethod
    def _disparities(ref, values):
        ref = np.asarray(ref, dtype=np.int64)
        seg = SegmentationMap(labels=ref[None], label_count=int(ref.max()) + 1)
        dmap = DisparityMap(values=np.asarray(values, dtype=np.float64))
        got = label_disparities(seg, dmap)
        want = label_disparities_oracle(seg, dmap)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        return got.tolist()

    def test_odd(self):
        ref = [[0, 1, 0], [1, 0, 1]]
        assert self._disparities(ref, [[1.0, 5.0, 9.0], [4.0, 2.0, 3.0]]) == [2.0, 4.0]

    def test_singleton(self):
        # halves of 1/8 px round away from zero
        assert self._disparities([[0, 1, 2]], [[3.0, 0.0625, -0.0625]]) == [3.0, 0.125, -0.125]

    def test_even_lower_median(self):
        ref = [[0, 1, 0, 1], [1, 0, 1, 0]]
        values = [[4.0, -1.0, 1.0, -3.0], [-2.0, 3.0, -4.0, 2.0]]
        assert self._disparities(ref, values) == [2.0, -3.0]

    def test_empty_region(self):
        # label 1 holds no reference pixel; label 2 does
        seg = SegmentationMap(labels=np.array([[[0, 2, 2]]]), label_count=3)
        dmap = DisparityMap(values=np.zeros((1, 3)))
        message = "^orphan label 1: absent from reference view$"
        for run in (label_disparities, label_disparities_oracle):
            with pytest.raises(OrphanLabelError, match=message):
                run(seg, dmap)


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
        out = project_labels(seg, np.zeros(4), (3, 3))
        for view in out.labels:
            assert np.array_equal(view, ref)

    def test_single_label_shift_and_fill(self):
        ref = np.zeros((8, 8), dtype=np.int64)
        seg = SegmentationMap(labels=ref[None], label_count=1)
        out = project_labels(seg, np.array([1.0]), (1, 2))
        # single label: every pixel labeled 0 in all views
        for view in out.labels:
            assert np.all(view == 0)

    def test_occlusion_matches_brute_force(self):
        """Near (d=2) overlapping far (d=0): oracle comparison on non-hole
        pixels of every view."""
        ref = np.zeros((16, 16), dtype=np.int64)
        ref[:, 8:] = 1  # label 1 strip will slide over label 0
        disparities = np.array([0.0, 2.0])
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
        d = np.arange(5) * 0.625
        a = project_labels(seg, d, (3, 3))
        b = project_labels(seg, d, (3, 3))
        for va, vb in zip(a.labels, b.labels):
            assert np.array_equal(va, vb)

    def test_fill_skips_cells_outside_the_region(self):
        # -2 cells are neither filled nor counted as neighbors
        grid = np.array([[0, -1, -2], [-2, -1, 1], [-2, -2, -1]])
        (got,) = _fill_blocks([grid])
        assert got.tolist() == [[0, 0, -2], [-2, 1, 1], [-2, -2, 1]]

    def test_fill_stall_takes_fallback(self):
        """``fill_cells`` leaves a stalled hole at -1, beside a block that
        still fills; ``project_labels`` gives a view that no label reaches
        the reference map."""
        got = _fill_blocks([np.array([[-1, -2, 3]]), np.array([[-1, -1, 3]])])
        assert [g.tolist() for g in got] == [[[-1, -2, 3]], [[3, 3, 3]]]
        ref = np.arange(4).reshape(2, 2)
        seg = SegmentationMap(labels=ref[None], label_count=4)
        out = project_labels(seg, np.full(4, 8.0), (1, 2))
        assert out.labels[1].tolist() == [[0, 1], [2, 3]]

    def test_fill_matches_loop_oracle_on_random_grids(self):
        """Random grids of labels 0-3, holes and outside cells (-2, -3),
        one to three of one width filled as the padded blocks of one
        plane; each must fill as the loop oracle fills it alone, its
        stalled holes left at -1."""
        rng = np.random.default_rng(17)
        seen = dict(outside=0, tie=0, stall=0, stall_beside_fill=0, multi_round=0)
        for case in range(300):
            w = int(rng.integers(1, 9))
            grids = []
            for _ in range(int(rng.integers(1, 4))):
                h = int(rng.integers(1, 9))
                p = rng.dirichlet([1.0, 1.0, 1.0])
                kind = rng.choice(3, size=(h, w), p=p)
                grids.append(np.where(
                    kind == 0,
                    rng.integers(0, 4, size=(h, w)),
                    np.where(kind == 1, -1, -2 - rng.integers(0, 2, size=(h, w))),
                ))
            stalls = []
            for grid, got in zip(grids, _fill_blocks(grids)):
                want = grid.copy()
                fill_holes_oracle(want, -1)
                assert got.dtype == want.dtype and np.array_equal(got, want)
                seen["outside"] += bool((grid < -1).any())
                seen["tie"] += _first_round_has_tie(grid)
                stalls.append(bool((want == -1).any()))
                seen["multi_round"] += any(
                    not _labeled_neighbors(grid, y, x) and want[y, x] >= 0
                    for y, x in np.argwhere(grid == -1)
                )
            seen["stall"] += any(stalls)
            seen["stall_beside_fill"] += any(stalls) and not all(stalls)
        assert min(seen.values()) > 0, seen

    def test_projection_peak_memory_per_label_cell(self):
        """Memory guard: the ``tracemalloc`` peak of one projection of a
        64 x 64 map of 16 x 16 blocks into 5 x 5 views, at disparities
        that leave holes, stays under 24 bytes per output label cell.  The
        output volume takes 8 of them and the padded plane about 8 more;
        the fill through a reference-map tiling and two padded copies of
        all views peaked at 33.7."""
        y, x = np.divmod(np.arange(64 * 64), 64)
        ref = ((y // 16) * 4 + x // 16).reshape(64, 64)
        seg = SegmentationMap(labels=ref[None], label_count=16)
        disparities = (np.arange(16) * 7 % 13) / 8.0
        project_labels(seg, disparities, (5, 5))
        tracemalloc.start()
        try:
            out = project_labels(seg, disparities, (5, 5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (out.labels == -1).sum() == 0
        assert peak < 24 * out.labels.size, peak / out.labels.size

    def test_missing_disparity_rejected(self):
        seg = SegmentationMap(labels=np.zeros((1, 4, 4), dtype=np.int64), label_count=1)
        for disparities in (np.zeros(0), np.zeros(2)):
            with pytest.raises(ValueError):
                project_labels(seg, disparities, (1, 2))
            with pytest.raises(ValueError):
                project_labels_oracle(seg, disparities, (1, 2))

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
            disparities = np.array([
                float(rng.integers(-8 * scale, 8 * scale + 1)) / 8.0 for _ in range(count)
            ])
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
            seen["negative"] += bool((disparities < 0).any())
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
        out = project_labels(seg, np.arange(6) % 3.0, (2, 2))
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
        got = label_disparities(seg, dmap)
        assert got.dtype == np.float64 and got.tolist() == [0.25]


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
            want = label_disparities_oracle(seg, dmap)
            assert disparities.dtype == want.dtype and np.array_equal(disparities, want)
            views = project_labels(seg, disparities, (2, 3))
            got = assemble_super_rays(views, disparities)
            want = assemble_super_rays_oracle(views, disparities)
            assert len(got) == len(want) == count
            for a, b in zip(got, want):
                assert a.disparity == b.disparity
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


def _fill_blocks(grids):
    """``fill_cells`` on 2-D grids of one width W laid out as
    ``project_labels`` lays out views: (h + 1) x (W + 1) blocks of one
    plane under a leading pad row, pads at -2.  Returns the filled grids."""
    w = grids[0].shape[1]
    tops = np.cumsum([1] + [g.shape[0] + 1 for g in grids])
    plane = np.full((tops[-1], w + 1), -2, dtype=np.int64)
    for grid, top in zip(grids, tops):
        plane[top : top + grid.shape[0], :w] = grid
    flat = plane.ravel()
    fill_cells(flat, np.flatnonzero(flat == -1), w + 1)
    return [plane[top : top + g.shape[0], :w] for g, top in zip(grids, tops)]


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
