"""Light-field model, PGM/PPM round trips and scene synthesis."""

import numpy as np
import pytest

from srgc.errors import (
    EmptyLightFieldError,
    IncompleteGridError,
    InconsistentViewsError,
    PatchOutOfBoundsError,
    SceneSpecError,
    SrgcError,
)
from srgc.lightfield import (
    DisparityMap,
    LightField,
    Patch,
    SceneSpec,
    View,
    load_disparity,
    load_light_field,
    parse_scene_spec,
    save_disparity,
    save_light_field,
    synthesize_light_field,
    view_filename,
)
from srgc.util import round_half_away

from conftest import lf_equal, luma_planes_oracle, make_lf, random_lf


class TestViewIO:
    @pytest.mark.parametrize("magic, maxval", [(b"P5", 255), (b"P6", 65535)])
    def test_header_larger_than_file_is_truncated_data(self, tmp_path, magic, maxval):
        """A PNM header declaring 99999999999 x 99999999999 samples is
        checked against the file's size before any read."""
        (tmp_path / "view_00_00.pgm").write_bytes(
            magic + b" 99999999999 99999999999 " + str(maxval).encode() + b"\n" + bytes(6)
        )
        with pytest.raises(SrgcError, match="view_00_00.pgm: truncated sample data"):
            load_light_field(tmp_path)

    @pytest.mark.parametrize("header, message", [
        (b"P5 -1 -1 255", "PNM width '-1' is not a positive integer"),
        (b"P5 8 -1 255", "PNM height '-1' is not a positive integer"),
        (b"P5 0 0 255", "PNM width '0' is not a positive integer"),
        (b"P5 8 0 255", "PNM height '0' is not a positive integer"),
        (b"P5 8 8 0", "PNM maxval '0' is not a positive integer"),
        (b"P5 8 8 -255", "PNM maxval '-255' is not a positive integer"),
        (b"P5 eight 8 255", "PNM width 'eight' is not a positive integer"),
        (b"P5 8 8e0 255", "PNM height '8e0' is not a positive integer"),
        (b"P5 8 8 0x1f", "PNM maxval '0x1f' is not a positive integer"),
        (b"P6 +8 8 255", "PNM width '\\+8' is not a positive integer"),
        (b"P6 8 8_0 255", "PNM height '8_0' is not a positive integer"),
        (b"P5 8 8 # no maxval", "truncated PNM header"),
    ])
    def test_bad_header_named_before_any_read(self, tmp_path, header, message):
        """Width, height and maxval are checked as positive decimal
        integers before any sample is read, and every header error names
        the file."""
        (tmp_path / "view_00_00.pgm").write_bytes(header)
        with pytest.raises(SrgcError, match=f"view_00_00.pgm: {message}"):
            load_light_field(tmp_path)

    def test_roundtrip_identity(self, tmp_path):
        lf = random_lf(3, 3, 16, 16, seed=3)
        save_light_field(lf, tmp_path)
        assert lf_equal(load_light_field(tmp_path), lf)

    def test_roundtrip_10bit(self, tmp_path):
        lf = random_lf(2, 2, 8, 8, bit_depth=10, seed=4)
        save_light_field(lf, tmp_path)
        data = (tmp_path / "view_00_00.pgm").read_bytes()
        assert data.startswith(b"P5\n8 8\n1023\n")
        assert lf_equal(load_light_field(tmp_path), lf)

    def test_roundtrip_rgb(self, tmp_path):
        lf = random_lf(2, 2, 8, 8, seed=5, channels=3)
        save_light_field(lf, tmp_path)
        assert (tmp_path / "view_01_01.ppm").exists()
        assert lf_equal(load_light_field(tmp_path), lf)

    def test_missing_view_names_coordinates(self, tmp_path):
        lf = random_lf(3, 4, 8, 8, seed=6)
        save_light_field(lf, tmp_path)
        (tmp_path / view_filename(0, 2, 1)).unlink()
        with pytest.raises(IncompleteGridError) as err:
            load_light_field(tmp_path)
        assert err.value.s == 0 and err.value.t == 2

    def test_total_samples(self):
        lf = random_lf(9, 9, 64, 64, seed=7)
        w, h = lf.spatial_dims
        s, t = lf.angular_dims
        assert s * t * w * h == 331776

    def test_empty_save_rejected(self, tmp_path):
        with pytest.raises((EmptyLightFieldError, InconsistentViewsError)):
            save_light_field(
                LightField(views=[], angular_dims=(0, 0), bit_depth=8), tmp_path
            )

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(EmptyLightFieldError):
            load_light_field(tmp_path)

    def test_inconsistent_views_rejected(self, tmp_path):
        lf = random_lf(1, 2, 8, 8, seed=8)
        save_light_field(lf, tmp_path)
        other = random_lf(1, 1, 4, 4, seed=9)
        save_light_field(other, tmp_path / "small")
        (tmp_path / "view_00_01.pgm").write_bytes(
            (tmp_path / "small" / "view_00_00.pgm").read_bytes()
        )
        with pytest.raises(InconsistentViewsError):
            load_light_field(tmp_path)


class TestSampleRange:
    """The codec clamps decoded samples to [0, maxval], so a plane it could
    not return unchanged is refused on construction."""

    def _lf(self, plane):
        return LightField(views=[View(planes=[plane])], angular_dims=(1, 1), bit_depth=8)

    def test_negative_sample_rejected(self):
        plane = np.full((4, 4), 100, dtype=np.int64)
        plane[2, 1] = -60
        with pytest.raises(InconsistentViewsError, match="negative"):
            self._lf(plane)

    def test_float_samples_rejected(self):
        with pytest.raises(InconsistentViewsError, match="not integers"):
            self._lf(np.full((4, 4), 100.0))

    def test_sample_above_maxval_rejected(self):
        with pytest.raises(InconsistentViewsError, match="bit depth"):
            self._lf(np.full((4, 4), 256, dtype=np.int64))


class TestSampleVolumes:
    @pytest.mark.parametrize("bit_depth", [8, 10, 16])
    def test_volumes_match_per_view_planes(self, bit_depth):
        """On random RGB light fields, ``luma_planes()`` is the per-view
        BT.709 oracle and ``channel_planes(c)`` the views' planes stacked,
        each one int64 (views, H, W) volume."""
        for seed in range(3):
            lf = random_lf(2, 3, 7, 5, bit_depth=bit_depth, seed=seed, channels=3)
            volumes = [lf.luma_planes()] + [lf.channel_planes(c) for c in range(3)]
            wants = [luma_planes_oracle(lf)] + [
                [v.planes[c].astype(np.int64) for v in lf.views] for c in range(3)
            ]
            for got, want in zip(volumes, wants):
                assert got.dtype == np.int64 and got.shape == (6, 5, 7)
                assert np.array_equal(got, np.stack(want))

    def test_gray_luma_is_the_sample_plane(self):
        lf = random_lf(2, 2, 4, 3, bit_depth=10, seed=5)
        got = lf.luma_planes()
        assert got.dtype == np.int64 and got.shape == (4, 3, 4)
        assert np.array_equal(got, np.stack(luma_planes_oracle(lf)))
        assert np.array_equal(got, lf.channel_planes(0))


class TestDisparityIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        dmap = DisparityMap(values=rng.normal(size=(12, 10)).astype(np.float32))
        path = tmp_path / "d.lfdm"
        save_disparity(dmap, path)
        back = load_disparity(path)
        assert np.array_equal(back.values, dmap.values.astype(np.float32).astype(np.float64))
        assert path.read_bytes()[:4] == b"LFDM"

    def test_header_larger_than_file_is_truncated_data(self, tmp_path):
        """A header declaring (2**32 - 1)**2 values is checked against the
        file's size before any read, so nothing of that size is allocated."""
        path = tmp_path / "big.lfdm"
        header = np.array([2**32 - 1, 2**32 - 1, 0], dtype="<u4").tobytes()
        path.write_bytes(b"LFDM" + header + bytes(8))
        with pytest.raises(SrgcError, match="big.lfdm: truncated disparity data"):
            load_disparity(path)

    def test_directory_is_a_data_error(self, tmp_path):
        """A path that cannot be opened as a file raises SrgcError, as a
        light-field directory that cannot be listed does."""
        with pytest.raises(SrgcError, match="cannot read disparity file .*Is a directory"):
            load_disparity(tmp_path)


class TestSceneSpec:
    def test_parse_full_grammar(self):
        spec = parse_scene_spec(
            """
            # demo scene
            angular 3 5
            spatial 40 30
            bitdepth 10
            background 200
            seed 13
            patch rect 2 3 10 8 1.5 const 500
            patch ellipse 20 15 6 4 -0.5 gradient 100 2 -1
            patch rect 1 1 4 4 0 noise 0 50
            """
        )
        assert spec.angular_dims == (3, 5)
        assert spec.spatial_dims == (40, 30)
        assert spec.bit_depth == 10
        assert spec.background == 200
        assert len(spec.patches) == 3
        assert spec.patches[0].texture == ("const", 500)
        assert spec.patches[1].shape == "ellipse"
        # unseeded noise falls back to a scene-seed derivative
        assert spec.patches[2].texture[0] == "noise"

    def test_parse_errors(self):
        with pytest.raises(SceneSpecError):
            parse_scene_spec("patch blob 1 2 3 4 0 const 5")
        with pytest.raises(SceneSpecError):
            parse_scene_spec("angular 3")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("line, message", [
        ("patch rect 0 0 inf 4 0 const 10", "geometry and disparity must be finite"),
        ("patch ellipse 1e308 4 1e308 2 0 const 3", "geometry and disparity must be finite"),
        ("patch rect 0 0 4 4 nan const 10", "geometry and disparity must be finite"),
        ("patch rect 0 0 4 4 -inf const 10", "geometry and disparity must be finite"),
        ("patch rect 0 0 4 4 1e300 const 10", "disparity 1e\\+300 does not fit in float32"),
        ("patch rect 0 0 4 4 0 gradient nan 1 1", "gradient is not finite"),
        ("patch rect 0 0 4 4 0 gradient 1 1 inf", "gradient is not finite"),
        ("patch rect 0 0 4 4 0 gradient 1e300 1e308 1", "gradient is not finite"),
        ("patch ellipse 4 4 0 2 0 const 10", "ellipse sizes must be positive"),
        ("patch ellipse 4 4 2 -2 0 const 10", "ellipse sizes must be positive"),
        ("patch rect 0 0 0 4 0 const 10", "rect sizes must be positive"),
        ("patch rect 0 0 4 -1 0 const 10", "rect sizes must be positive"),
        ("patch rect 0 0 4 4 0 noise 200 100", "noise range \\[200, 100\\] is empty"),
        ("patch rect 0 0 0.5 4 0 const 200", "rect geometry 0 0 0.5 4 must be whole numbers"),
        ("patch rect 0 0 2.7 4 0 const 200", "rect geometry 0 0 2.7 4 must be whole numbers"),
        ("patch rect 1.5 0 4 4 0 const 200", "rect geometry 1.5 0 4 4 must be whole numbers"),
        ("patch rect 0 3.25 4 4 0 gradient 1 1 1", "rect geometry 0 3.25 4 4 must be whole numbers"),
    ])
    def test_undrawable_patches_rejected_with_line(self, line, message):
        """Patches that used to crash, warn or write garbage are refused
        at parse time, with their line number."""
        with pytest.raises(SceneSpecError, match=f"^scene spec line 3: .*{message}"):
            parse_scene_spec(f"spatial 16 16\n# comment\n{line}\n")

    @pytest.mark.filterwarnings("error")
    def test_gradient_beyond_int64_clips(self):
        """A finite gradient far beyond the sample range clips to it, with
        no overflowing cast."""
        lf, _ = synthesize_light_field(
            parse_scene_spec("patch rect 0 0 4 4 0 gradient 1e300 1 1\npatch rect 4 4 4 4 0 "
                             "gradient -1e300 1 1")
        )
        assert (lf.views[0].planes[0][:4, :4] == 255).all()
        assert (lf.views[0].planes[0][4:8, 4:8] == 0).all()

    def test_noise_range_outside_the_samples_rejected(self):
        spec = parse_scene_spec("bitdepth 8\npatch rect 0 0 4 4 0 noise 300 400")
        with pytest.raises(SceneSpecError, match="misses the samples 0..255"):
            synthesize_light_field(spec)


class TestSynthesize:
    @pytest.mark.parametrize("params", [(0, 0, 2.7, 4), (0.5, 0, 4, 4), (0, 0, 4, 0.5),
                                        (np.float64(1.5), 1, 2, 2)])
    def test_fractional_rect_geometry_rejected(self, params):
        """A rect is drawn on whole pixels: fractional geometry is refused,
        not truncated (which drew a 0.5-wide rect as nothing)."""
        spec = SceneSpec(angular_dims=(1, 1), spatial_dims=(8, 8))
        spec.patches.append(Patch(shape="rect", params=params, disparity=0.0, texture=("const", 200)))
        with pytest.raises(SceneSpecError, match="rect geometry .* must be whole numbers"):
            synthesize_light_field(spec)

    def test_whole_rect_geometry_of_any_number_type_draws(self):
        """Integral floats and numpy integers draw what Python ints draw."""
        drawn = []
        for params in [(1, 2, 3, 4), (1.0, 2.0, 3.0, 4.0),
                       (np.int64(1), np.int32(2), np.uint8(3), np.float64(4))]:
            spec = SceneSpec(angular_dims=(2, 2), spatial_dims=(8, 8))
            spec.patches.append(Patch(shape="rect", params=params, disparity=1.0, texture=("const", 200)))
            lf, dmap = synthesize_light_field(spec)
            drawn.append((lf, dmap))
        ref = drawn[0][0].views[0].planes[0]
        assert (ref == 200).sum() == 12 and (ref[2:6, 1:4] == 200).all()
        for lf, dmap in drawn[1:]:
            assert all(np.array_equal(a.planes[0], b.planes[0])
                       for a, b in zip(lf.views, drawn[0][0].views))
            assert np.array_equal(dmap.values, drawn[0][1].values)

    def test_zero_disparity_views_identical(self):
        spec = SceneSpec(angular_dims=(3, 3), spatial_dims=(16, 16), background=10)
        spec.patches.append(
            Patch(shape="rect", params=(4, 4, 6, 6), disparity=0.0, texture=("const", 99))
        )
        lf, dmap = synthesize_light_field(spec)
        ref = lf.views[0].planes[0]
        for v in lf.views[1:]:
            assert np.array_equal(v.planes[0], ref)
        assert np.all(dmap.values[4:10, 4:10] == 0.0)

    def test_unit_disparity_shifts_two_px(self):
        spec = SceneSpec(angular_dims=(1, 3), spatial_dims=(20, 10), background=0)
        spec.patches.append(
            Patch(shape="rect", params=(8, 2, 4, 4), disparity=1.0, texture=("const", 200))
        )
        lf, _ = synthesize_light_field(spec)
        ref = lf.view(0, 0).planes[0]
        shifted = lf.view(0, 2).planes[0]
        assert np.array_equal(shifted[:, : 20 - 2], ref[:, 2:])

    def test_identical_noise_patches_equal(self):
        spec = SceneSpec(angular_dims=(1, 1), spatial_dims=(40, 40), background=0, seed=3)
        for x0, y0 in ((0, 0), (20, 0), (0, 20), (20, 20)):
            spec.patches.append(
                Patch(
                    shape="rect",
                    params=(x0, y0, 10, 10),
                    disparity=0.0,
                    texture=("noise", 10, 240, 77),
                )
            )
        lf, _ = synthesize_light_field(spec)
        plane = lf.views[0].planes[0]
        first = plane[0:10, 0:10]
        for x0, y0 in ((20, 0), (0, 20), (20, 20)):
            assert np.array_equal(plane[y0 : y0 + 10, x0 : x0 + 10], first)

    def test_determinism(self):
        spec_text = (
            "angular 2 2\nspatial 24 24\nseed 5\n"
            "patch rect 2 2 10 10 0.5 noise 0 255\n"
        )
        a, da = synthesize_light_field(parse_scene_spec(spec_text))
        b, db = synthesize_light_field(parse_scene_spec(spec_text))
        assert lf_equal(a, b)
        assert np.array_equal(da.values, db.values)

    def test_patch_out_of_bounds(self):
        spec = SceneSpec(angular_dims=(1, 1), spatial_dims=(16, 16))
        spec.patches.append(
            Patch(shape="rect", params=(10, 10, 10, 10), disparity=0.0, texture=("const", 1))
        )
        with pytest.raises(PatchOutOfBoundsError):
            synthesize_light_field(spec)

    def test_ground_truth_warp_reproduces_views(self):
        """Forward-warping the reference by the ground-truth map (z-ordered,
        background-filled) reproduces every view of a no-occlusion integer
        disparity scene exactly."""
        bg = 7
        spec = SceneSpec(angular_dims=(3, 3), spatial_dims=(32, 32), background=bg, seed=1)
        spec.patches.append(
            Patch(shape="rect", params=(10, 4, 6, 5), disparity=2.0, texture=("noise", 50, 250, 4))
        )
        spec.patches.append(
            Patch(shape="rect", params=(20, 20, 8, 8), disparity=1.0, texture=("const", 180))
        )
        lf, dmap = synthesize_light_field(spec)
        ref = lf.views[0].planes[0].astype(np.int64)
        h, w = ref.shape
        for s in range(3):
            for t in range(3):
                warped = np.full((h, w), bg, dtype=np.int64)
                order = np.argsort(dmap.values.ravel(), kind="stable")
                ys, xs = np.unravel_index(order, (h, w))
                for y, x in zip(ys, xs):
                    d = dmap.values[y, x]
                    if d == 0.0:
                        continue
                    ty = y - round_half_away(d * s)
                    tx = x - round_half_away(d * t)
                    if 0 <= ty < h and 0 <= tx < w:
                        warped[ty, tx] = ref[y, x]
                view = lf.view(s, t).planes[0].astype(np.int64)
                assert np.array_equal(warped, view)
