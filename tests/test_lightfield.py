"""Light-field model, PGM/PPM round trips and scene synthesis."""

import numpy as np
import pytest

from srgc.errors import (
    EmptyLightFieldError,
    IncompleteGridError,
    InconsistentViewsError,
    PatchOutOfBoundsError,
    SceneSpecError,
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

from conftest import lf_equal, make_lf, random_lf


class TestViewIO:
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


class TestDisparityIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        dmap = DisparityMap(values=rng.normal(size=(12, 10)).astype(np.float32))
        path = tmp_path / "d.lfdm"
        save_disparity(dmap, path)
        back = load_disparity(path)
        assert np.array_equal(back.values, dmap.values.astype(np.float32).astype(np.float64))
        assert path.read_bytes()[:4] == b"LFDM"


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
