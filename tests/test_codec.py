"""End-to-end codec behavior: exactness, counts, determinism, robustness."""

import dataclasses
import struct
import types

import numpy as np
import pytest

import srgc.codec as codec
import srgc.grouping as grouping
import srgc.spectral as spectral
from srgc.bitstream import (
    MAGIC,
    SEC_COEFFICIENTS,
    SEC_GROUPS,
    SEC_RESIDUALS,
    SEC_STRUCTURE,
    SECTION_NAMES,
    VERSION,
    Bitstream,
    deserialize,
    pack_section,
    serialize,
    unpack_section,
)
from srgc.cli import main
from srgc.codec import CodecConfig, decode, encode
from srgc.entropy import entropy_decode, entropy_encode
from srgc.errors import CorruptStreamError, SrgcError, UnsupportedStreamError
from srgc.lightfield import (
    DisparityMap,
    Patch,
    SceneSpec,
    synthesize_light_field,
)
from srgc.segmentation import assemble_super_rays
from srgc.spectral import LocalGraph, eigendecompose, laplacian, split_graph

from conftest import (
    assemble_super_rays_oracle,
    bench_workloads,
    coarsen_graphs_oracle,
    coarsen_oracle,
    derive_group_members_oracle,
    eigenbases_oracle,
    eigendecompose_oracle,
    four_patch_scene,
    graph_structure_union_oracle,
    label_disparities_oracle,
    lf_equal,
    make_lf,
    partition_super_rays_oracle,
    partition_with_trees_oracle,
    project_labels_oracle,
    random_lf,
    segmentation_from_symbols_oracle,
    segmentation_symbols_oracle,
    slic_segment_oracle,
)


def small_scene(seed=1, disparity=0.5):
    spec = SceneSpec(
        angular_dims=(3, 3), spatial_dims=(32, 32), background=90, seed=seed
    )
    spec.patches.append(
        Patch(
            shape="rect",
            params=(4, 4, 12, 12),
            disparity=disparity,
            texture=("noise", 30, 220, 17),
        )
    )
    spec.patches.append(
        Patch(
            shape="ellipse",
            params=(24, 22, 5, 6),
            disparity=0.0,
            texture=("gradient", 40, 3, 2),
        )
    )
    return synthesize_light_field(spec)


CFG = CodecConfig(slic_k=8, q_gft=16.0, n_target=128, max_vertices=256)


class TestConstantIdentity:
    @pytest.mark.parametrize("q", [1.0, 2.0, 8.0, 64.0])
    def test_constant_lf_exact(self, q):
        spec = SceneSpec(angular_dims=(3, 3), spatial_dims=(32, 32), background=117)
        lf, dmap = synthesize_light_field(spec)
        cfg = dataclasses.replace(CFG, q_gft=q)
        stream, report = encode(lf, dmap, cfg)
        rec, _ = decode(stream)
        assert lf_equal(rec, lf)

    def test_constant_lf_coefficients_dc_only(self):
        spec = SceneSpec(angular_dims=(3, 3), spatial_dims=(32, 32), background=117)
        lf, dmap = synthesize_light_field(spec)
        stream, report = encode(lf, dmap, CFG, debug=True)
        for unit, deq in zip(report.debug.units, report.debug.dequantized):
            assert np.abs(deq[0][1:]).max() == 0.0  # all AC levels quantize away
        # residuals of a constant scene are all zero: near-empty section
        assert len(stream.sections[SEC_RESIDUALS]) < 40
        rec, _ = decode(stream)
        assert lf_equal(rec, lf)


class TestSerializeRoundtrip:
    def test_roundtrip_identity(self):
        lf, dmap = small_scene()
        stream, _ = encode(lf, dmap, CFG)
        data = serialize(stream)
        again = serialize(deserialize(data))
        assert data == again

    def test_bad_magic(self):
        lf, dmap = small_scene()
        data = bytearray(serialize(encode(lf, dmap, CFG)[0]))
        data[0] ^= 0xFF
        with pytest.raises(UnsupportedStreamError):
            deserialize(bytes(data))

    def test_bad_version(self):
        lf, dmap = small_scene()
        data = bytearray(serialize(encode(lf, dmap, CFG)[0]))
        data[4] = 99
        with pytest.raises(UnsupportedStreamError):
            deserialize(bytes(data))

    def test_version_1_stream_rejected(self, tmp_path):
        """A stream in the version-1 layout (55-byte header with
        max_vertices and q_switch, then a u8 section count and (u8 id, u64
        length) pairs) is unsupported, not corrupt."""
        lf, dmap = small_scene()
        stream = encode(lf, dmap, CFG)[0]
        hdr = stream.header
        flags = int(hdr.grouping) | 2 * int(hdr.explicit_groups)
        data = MAGIC + bytes([1]) + struct.pack(
            "<HHIIBBBIIIIddd", *hdr.angular_dims, *hdr.spatial_dims, hdr.bit_depth,
            hdr.channels, flags, hdr.label_count, hdr.n_target, CFG.max_vertices,
            CFG.q_switch, hdr.q_gft, hdr.q_dct, hdr.bin_width,
        ) + bytes([len(stream.sections)])
        for sid in sorted(stream.sections):
            data += struct.pack("<BQ", sid, len(stream.sections[sid]))
        data += b"".join(stream.sections[sid] for sid in sorted(stream.sections))
        with pytest.raises(UnsupportedStreamError, match="version 1"):
            deserialize(data)
        path = tmp_path / "v1.srgc"
        path.write_bytes(data)
        assert main(["decode", str(path), "--out", str(tmp_path / "rec")]) == 2

    def test_truncated_section_named(self):
        lf, dmap = small_scene()
        data = serialize(encode(lf, dmap, CFG)[0])
        with pytest.raises(CorruptStreamError) as err:
            deserialize(data[:-2])
        assert "residuals" in str(err.value)


def _random_label_map(rng):
    """A small blocky label map with speckle, so runs, copy-left and
    copy-up symbols all occur; returns (labels, label_count)."""
    h, w, bh, bw = (int(v) for v in rng.integers(1, [13, 13, 4, 4]))
    k = int(rng.integers(1, 7))
    blocks = rng.integers(0, k, size=(-(-h // bh), -(-w // bw)))
    labels = np.repeat(np.repeat(blocks, bh, 0), bw, 1)[:h, :w].copy()
    speckle = rng.random((h, w)) < 0.1
    labels[speckle] = rng.integers(0, k, size=int(speckle.sum()))
    return labels.astype(np.int64), k


def _outcome(fn, *args):
    try:
        return "ok", fn(*args).tolist()
    except CorruptStreamError as e:
        return "error", str(e)


class TestSegmentationSymbols:
    def test_random_maps_match_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            labels, k = _random_label_map(rng)
            h, w = labels.shape
            syms = codec._segmentation_symbols(labels)
            assert syms.dtype == np.int64
            assert np.array_equal(syms, segmentation_symbols_oracle(labels))
            assert np.array_equal(codec._segmentation_from_symbols(syms, w, h, k), labels)

    def test_corrupt_symbols_match_oracle(self):
        """Same labels, or the same first error in raster order."""
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(400):
            labels, k = _random_label_map(rng)
            h, w = labels.shape
            syms = segmentation_symbols_oracle(labels)
            hits = rng.integers(0, h * w, size=int(rng.integers(1, 4)))
            syms[hits] = rng.choice([-3, -1, 0, 1, k + 1, k + 2, k + 40], size=hits.size)
            want = _outcome(segmentation_from_symbols_oracle, syms, w, h, k)
            assert _outcome(codec._segmentation_from_symbols, syms, w, h, k) == want
            seen.add(want[0] if want[0] == "ok" else want[1].split()[2])
        assert seen == {"ok", "copy-left", "copy-up", "label"}


class TestGrouping:
    def test_four_patch_scene_groups(self):
        lf, dmap = four_patch_scene()
        cfg = CodecConfig(slic_k=16, q_gft=16.0, n_target=256)
        stream, report = encode(lf, dmap, cfg, debug=True)
        assert report.group_count >= 1
        assert report.grouped_count >= 4
        # the four identical patch units share one group
        units = report.debug.units
        groupable = report.debug.groupable
        patch_units = set()
        for u in units:
            v = u.fine.vertices
            ref_pix = v[v[:, 0] == 0]
            # patch units are entirely inside one 16x16 corner cell
            ys, xs = ref_pix[:, 1], ref_pix[:, 2]
            if (
                (ys.max() < 16 or ys.min() >= 48)
                and (xs.max() < 16 or xs.min() >= 48)
                and u.index in groupable
            ):
                lum = u.signals[0].astype(float)
                if lum.std() > 2:  # noise patch, not flat background
                    patch_units.add(groupable.index(u.index))
        assert len(patch_units) == 4
        containing = [
            g for g in report.debug.group_set.groups if patch_units & set(g.members)
        ]
        assert len(containing) == 1
        assert patch_units <= set(containing[0].members)

    def test_pair_count_formula(self):
        lf, dmap = four_patch_scene()
        cfg = CodecConfig(slic_k=16, q_gft=16.0, n_target=256)
        _, report = encode(lf, dmap, cfg)
        m = report.coarsened_count
        assert report.pair_count == m * (m - 1) // 2

    def test_decoder_eig_count(self):
        lf, dmap = four_patch_scene()
        cfg = CodecConfig(slic_k=16, q_gft=16.0, n_target=256)
        stream, enc_rep = encode(lf, dmap, cfg)
        _, dec_rep = decode(stream)
        expected = (enc_rep.unit_count - enc_rep.grouped_count) + enc_rep.group_count
        assert dec_rep.eig_count == expected
        assert dec_rep.eig_count < enc_rep.eig_count

    def test_no_grouping_equal_counts(self):
        lf, dmap = four_patch_scene()
        cfg = CodecConfig(slic_k=16, q_gft=16.0, n_target=256, grouping=False)
        stream, enc_rep = encode(lf, dmap, cfg)
        _, dec_rep = decode(stream)
        assert enc_rep.group_count == 0
        assert dec_rep.eig_count == enc_rep.eig_count == enc_rep.unit_count

    def test_explicit_groups_mode_matches(self):
        lf, dmap = four_patch_scene()
        base = CodecConfig(slic_k=16, q_gft=16.0, n_target=256)
        exp = dataclasses.replace(base, explicit_groups=True)
        rec_a, rep_a = decode(encode(lf, dmap, base)[0])
        rec_b, rep_b = decode(encode(lf, dmap, exp)[0])
        assert lf_equal(rec_a, rec_b)
        assert rep_a.eig_count == rep_b.eig_count

    def test_grouped_member_exactness(self):
        """With raw residuals every grouped member reconstructs its coded
        unit signal bit-exactly."""
        lf, dmap = four_patch_scene()
        cfg = CodecConfig(slic_k=16, q_gft=64.0, n_target=256)
        stream, enc_rep = encode(lf, dmap, cfg, debug=True)
        rec, dec_rep = decode(stream, debug=True)
        enc_units = enc_rep.debug.units
        groupable = enc_rep.debug.groupable
        grouped_unit_ids = set()
        for g in enc_rep.debug.group_set.groups:
            for pos in g.members:
                if pos != g.main_index:
                    grouped_unit_ids.add(groupable[pos])
        assert grouped_unit_ids
        for uid in grouped_unit_ids:
            want = enc_units[uid].signals[0]
            got = dec_rep.debug.reconstructed[uid][0]
            assert np.array_equal(want, got)

    @pytest.mark.parametrize("explicit", [False, True])
    def test_decoder_group_set_matches_encoder(self, explicit):
        """The decoder's debug GroupSet holds the encoder's groups and its
        ungrouped positions, on a scene that leaves some ungrouped."""
        workload = bench_workloads()["parallax"]
        lf, dmap = workload.scene(1)
        cfg = dataclasses.replace(workload.config, explicit_groups=explicit)
        stream, enc_rep = encode(lf, dmap, cfg, debug=True)
        _, dec_rep = decode(deserialize(serialize(stream)), debug=True)
        want, got = enc_rep.debug.group_set, dec_rep.debug.group_set
        assert want.groups and want.ungrouped
        assert got.groups == want.groups
        assert got.ungrouped == want.ungrouped

    def test_ungrouped_error_bound(self):
        """Per-unit L2 error <= sqrt(n) * q / 2 for non-grouped units."""
        lf, dmap = small_scene()
        for q in (2.0, 16.0, 40.0):
            cfg = dataclasses.replace(CFG, q_gft=q)
            stream, enc_rep = encode(lf, dmap, cfg, debug=True)
            _, dec_rep = decode(stream, debug=True)
            grouped_ids = set()
            for g in enc_rep.debug.group_set.groups:
                for pos in g.members:
                    if pos != g.main_index:
                        grouped_ids.add(enc_rep.debug.groupable[pos])
            for unit in enc_rep.debug.units:
                if unit.index in grouped_ids:
                    continue
                want = unit.signals[0].astype(np.float64)
                got = dec_rep.debug.reconstructed[unit.index][0].astype(np.float64)
                assert np.linalg.norm(got - want) <= np.sqrt(unit.n) * q / 2 + 1e-9


class TestDeterminism:
    def test_threads_and_repeats(self):
        lf, dmap = small_scene()
        blobs = set()
        for threads in (1, 4, 8):
            cfg = dataclasses.replace(CFG, threads=threads)
            blobs.add(serialize(encode(lf, dmap, cfg)[0]))
        for _ in range(2):
            blobs.add(serialize(encode(lf, dmap, CFG)[0]))
        assert len(blobs) == 1

    def test_decode_threads_identical(self):
        lf, dmap = small_scene()
        stream, _ = encode(lf, dmap, CFG)
        rec1, _ = decode(stream, threads=1)
        rec8, _ = decode(stream, threads=8)
        assert lf_equal(rec1, rec8)

    def test_decode_rejects_threads_below_one(self):
        """``decode`` validates ``threads`` as ``CodecConfig`` does, and no
        report mentions workers."""
        lf, dmap = four_patch_scene(32, 3)
        cfg = CodecConfig(slic_k=16, q_gft=16.0, n_target=64)
        stream, enc_rep = encode(lf, dmap, cfg)
        for threads in (0, -3):
            with pytest.raises(ValueError, match="threads must be >= 1"):
                decode(stream, threads=threads)
            with pytest.raises(ValueError, match="threads must be >= 1"):
                encode(lf, dmap, dataclasses.replace(cfg, threads=threads))
        _, dec_rep = decode(stream)
        for rep in (enc_rep, dec_rep):
            assert not any(line.startswith("workers=") for line in rep.to_lines())


class TestThinViews:
    """Views 1 pixel high or wide code in both modes: along an axis of
    length 1 the seed perturbation takes the gradient as zero."""

    @pytest.mark.parametrize("q_gft", [16.0, 2.0], ids=["coarse", "partition"])
    @pytest.mark.parametrize("h, w", [(1, 8), (8, 1), (1, 1), (1, 40)])
    def test_round_trip(self, h, w, q_gft):
        cfg = CodecConfig(slic_k=min(4, h * w), q_gft=q_gft, n_target=4, max_vertices=8)
        dmap = DisparityMap(values=np.zeros((h, w)))
        lf = random_lf(2, 2, w, h, seed=3)
        stream, report = encode(lf, dmap, cfg)
        assert (report.coarsened_count == report.unit_count) == (q_gft >= cfg.q_switch)
        rec, _ = decode(deserialize(serialize(stream)))
        assert (rec.angular_dims, rec.spatial_dims) == (lf.angular_dims, lf.spatial_dims)
        flat = make_lf([np.full((h, w), 117)] * 4, (2, 2))
        rec, _ = decode(deserialize(serialize(encode(flat, dmap, cfg)[0])))
        assert lf_equal(rec, flat)


class TestModes:
    @pytest.mark.parametrize("q_gft", [16.0, 2.0], ids=["coarse", "partition"])
    def test_stage_times_split_graphs_and_coarsen(self, q_gft):
        lf, dmap = small_scene()
        stream, enc_rep = encode(lf, dmap, dataclasses.replace(CFG, q_gft=q_gft))
        _, dec_rep = decode(stream)
        assert list(enc_rep.times) == [
            "segmentation", "projection", "graphs", "coarsen", "eigen_transform",
            "grouping", "residuals", "entropy",
        ]
        assert list(dec_rep.times) == [
            "entropy", "segmentation", "projection", "graphs", "coarsen", "dequantize",
            "grouping", "eigen", "reconstruct", "assembly",
        ]
        for rep in (enc_rep, dec_rep):
            assert all(t >= 0.0 for t in rep.times.values())
            assert {"t_graphs_s", "t_coarsen_s"} <= {
                line.split("=")[0] for line in rep.to_lines()
            }

    def test_section_decoding_is_its_own_stage(self, monkeypatch):
        """Every section's entropy decoding is charged to ``entropy`` and to
        no other stage, and the stages still add up to the decode.  The
        codec's clock is a fake that only the stubbed ``entropy_decode``
        advances, by 1/16 s a call (a binary fraction, so every sum and
        difference of clock readings is exact)."""
        lf, dmap = small_scene()
        stream, _ = encode(lf, dmap, CFG)
        step = 1 / 16
        now = [0.0]
        calls = []

        def slow(*args):
            calls.append(args)
            now[0] += step
            return entropy_decode(*args)

        monkeypatch.setattr(codec, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
        monkeypatch.setattr(codec, "entropy_decode", slow)
        _, rep = decode(stream)
        assert len(calls) == 6
        assert rep.times["entropy"] == 6 * step
        assert all(t == 0.0 for k, t in rep.times.items() if k != "entropy")
        assert sum(rep.times.values()) == now[0]

    def test_levels_beyond_coder_range_refused(self):
        """At a step this fine the GFT levels reach 2**49 or more, whose
        unary prefix the decoder rejects; encode refuses the stream."""
        lf, dmap = four_patch_scene(32, 3)
        cfg = CodecConfig(slic_k=16, n_target=64, q_gft=1e-12)
        with pytest.raises(ValueError, match="2\\*\\*49"):
            encode(lf, dmap, cfg)

    @pytest.mark.filterwarnings("error")
    def test_bin_width_beyond_cast_range_refused_without_warning(self):
        """At ``bin_width=1e-300`` the pair MSEs fall in histogram bins
        beyond int64: the encoder refuses the config before the cast
        instead of coding groups from a wrapped threshold."""
        lf, dmap = small_scene(seed=9)
        with pytest.raises(ValueError, match="bin width 1e-300 .*2\\*\\*62"):
            encode(lf, dmap, dataclasses.replace(CFG, bin_width=1e-300))

    @pytest.mark.filterwarnings("error")
    def test_step_beyond_cast_range_refused_without_warning(self):
        """At ``q_gft=1e-300`` x / q does not fit an int64: ``quantize``
        names the step in one ValueError before any level is cast, so numpy
        warns of no invalid cast."""
        lf, dmap = four_patch_scene(32, 3)
        cfg = CodecConfig(slic_k=16, n_target=64, q_gft=1e-300)
        with pytest.raises(ValueError, match="quantizer step 1e-300 .*2\\*\\*49"):
            encode(lf, dmap, cfg)

    def test_partition_mode_roundtrip(self):
        lf, dmap = small_scene()
        cfg = dataclasses.replace(CFG, q_gft=2.0)  # below q_switch
        stream, report = encode(lf, dmap, cfg)
        assert report.coarsened_count == 0
        assert report.partitioned_count == report.unit_count
        rec, dec_rep = decode(stream)
        assert dec_rep.eig_count == report.unit_count
        from srgc.bench import psnr

        assert psnr(lf, rec) > 40.0

    def test_dct_residual_mode(self):
        lf, dmap = four_patch_scene()
        cfg = CodecConfig(
            slic_k=16, q_gft=16.0, n_target=256, residual_mode="dct", q_dct=1.0
        )
        stream, report = encode(lf, dmap, cfg)
        rec, _ = decode(stream)
        from srgc.bench import psnr

        assert psnr(lf, rec) > 25.0

    def test_channels_all_roundtrip(self):
        lf = random_lf(2, 2, 16, 16, seed=31, channels=3)
        h, w = 16, 16
        dmap = DisparityMap(values=np.zeros((h, w)))
        cfg = CodecConfig(slic_k=4, q_gft=16.0, n_target=64, channels="all")
        stream, report = encode(lf, dmap, cfg)
        assert stream.header.channels == 3
        rec, _ = decode(stream)
        assert rec.channels == 3
        assert rec.spatial_dims == lf.spatial_dims

    def test_rgb_luma_only_default(self):
        lf = random_lf(2, 2, 16, 16, seed=32, channels=3)
        dmap = DisparityMap(values=np.zeros((16, 16)))
        cfg = CodecConfig(slic_k=4, q_gft=16.0, n_target=64)
        stream, _ = encode(lf, dmap, cfg)
        assert stream.header.channels == 1
        rec, _ = decode(stream)
        assert rec.channels == 1

    def test_mismatched_disparity_rejected(self):
        lf, _ = small_scene()
        with pytest.raises(SrgcError):
            encode(lf, DisparityMap(values=np.zeros((4, 4))), CFG)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [2.0**46, 1e15, -1e15, 1e20, -1e300])
    def test_disparity_beyond_symbol_range_refused_up_front(self, value, monkeypatch):
        """A disparity whose 1/8-pixel symbol the coder cannot hold is
        refused, by value, before any codec work; the largest one it can
        hold gets past the check."""

        class Started(Exception):
            pass

        def started(*args):
            raise Started

        monkeypatch.setattr(codec, "slic_segment", started)
        lf, _ = small_scene()
        w, h = lf.spatial_dims
        values = np.zeros((h, w))
        values[h // 2, w // 3] = value
        with pytest.raises(SrgcError, match="out of range") as err:
            encode(lf, DisparityMap(values=values), CFG)
        assert f"disparity {value:g} " in str(err.value)
        values[h // 2, w // 3] = np.copysign((2**49 - 1) / 8, value)
        with pytest.raises(Started):
            encode(lf, DisparityMap(values=values), CFG)

    @pytest.mark.parametrize("name", ["n_target"])
    def test_u32_header_fields_bounded(self, name, monkeypatch):
        """Values the u32 header fields cannot hold are rejected before any
        codec work; the largest one that fits is accepted."""
        dataclasses.replace(CFG, **{name: 2**32 - 1}).validate()

        def no_work(*args):
            raise AssertionError("encode started before validation")

        monkeypatch.setattr(codec, "slic_segment", no_work)
        lf, dmap = small_scene()
        with pytest.raises(ValueError, match="32 bits"):
            encode(lf, dmap, dataclasses.replace(CFG, **{name: 2**32}))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["q_gft", "q_dct", "bin_width", "compactness"])
    def test_non_finite_floats_rejected(self, name, value, monkeypatch):
        """NaN and infinities are rejected before any codec work: the
        decoder refuses a header holding them, and SLIC would run on NaN
        distances."""

        def no_work(*args):
            raise AssertionError("encode started before validation")

        monkeypatch.setattr(codec, "slic_segment", no_work)
        lf, dmap = small_scene()
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            encode(lf, dmap, dataclasses.replace(CFG, **{name: value}))

    @pytest.mark.parametrize("name", ["max_vertices", "q_switch"])
    def test_encoder_only_fields_unbounded(self, name):
        """max_vertices and q_switch steer the encoder only and are not in
        the header, so 2**32 encodes, serializes and decodes."""
        lf, dmap = small_scene()
        cfg = dataclasses.replace(CFG, q_gft=2.0, **{name: 2**32})
        stream, report = encode(lf, dmap, cfg)
        assert report.partitioned_count == report.unit_count
        if name == "max_vertices":
            assert report.unit_count == report.super_ray_count
        rec, dec_rep = decode(deserialize(serialize(stream)))
        assert dec_rep.eig_count == report.unit_count
        assert rec.spatial_dims == lf.spatial_dims


@pytest.fixture(scope="module")
def regroup():
    """Rewrites the groups section of an explicit_groups stream of
    small_scene() (7 groupable units), with a residual section of the
    matching (zero) symbol count."""
    lf, dmap = small_scene()
    stream, report = encode(
        lf, dmap, dataclasses.replace(CFG, explicit_groups=True), debug=True
    )
    units, groupable = report.debug.units, report.debug.groupable
    assert len(groupable) == 7

    def rewritten(groups):
        syms = [len(groups)]
        for main_pos, members in groups:
            syms += [main_pos, len(members), *members]
        count = sum(
            units[groupable[m]].n
            for main_pos, members in groups for m in members if m != main_pos
        )
        sections = dict(stream.sections)
        sections[SEC_GROUPS] = pack_section(len(syms), entropy_encode(syms, "group"))
        sections[SEC_RESIDUALS] = pack_section(
            count, entropy_encode([0] * count, "residual")
        )
        return Bitstream(header=stream.header, sections=sections)

    decode(rewritten([(3, tuple(range(7)))]))  # the rewrite itself is valid
    return rewritten


class TestCorruptPayloads:
    def test_residual_count_lie(self):
        lf, dmap = small_scene()
        stream, _ = encode(lf, dmap, CFG)
        broken = Bitstream(header=stream.header, sections=dict(stream.sections))
        # keep the payload but claim only one symbol is present
        old = broken.sections[SEC_RESIDUALS]
        broken.sections[SEC_RESIDUALS] = pack_section(1, old[4:])
        with pytest.raises((CorruptStreamError, SrgcError)):
            decode(broken)

    @pytest.mark.parametrize("groups", [
        [(3, (0, 1, 2, 3, 4, 5)), (5, (5, 6))],
        [(3, (0, 1, 2, 3, 4, 5)), (6, (6, 4))],
        [(3, (0, 1, 2, 3, 3, 4))],
    ], ids=["member_is_another_main", "member_in_two_groups", "member_twice_in_one"])
    def test_explicit_group_member_repeated(self, regroup, groups, tmp_path):
        broken = regroup(groups)
        with pytest.raises(SrgcError):
            decode(broken)
        path = tmp_path / "overlap.srgc"
        path.write_bytes(serialize(broken))
        assert main(["decode", str(path), "--out", str(tmp_path / "rec")]) == 2

    def test_explicit_group_of_one_member(self, regroup):
        """A one-member group (no encoder writes one) is corrupt."""
        with pytest.raises(CorruptStreamError, match="fewer than 2 members"):
            decode(regroup([(3, (0, 1, 2, 3, 4, 5)), (6, (6,))]))

    def test_explicit_group_of_one_member_cli_exit_2(self, regroup, tmp_path):
        path = tmp_path / "single.srgc"
        path.write_bytes(serialize(regroup([(3, (0, 1, 2, 3, 4, 5)), (6, (6,))])))
        assert main(["decode", str(path), "--out", str(tmp_path / "rec")]) == 2

    @pytest.mark.filterwarnings("error")
    def test_coefficient_flip_beyond_bin_range(self):
        """One flipped coefficient bit dequantizes to a level whose pair
        MSEs fall in bins beyond int64: the decoder refuses the stream
        before the cast."""
        lf, dmap = small_scene()
        stream, _ = encode(lf, dmap, CFG)
        payload = bytearray(stream.sections[SEC_COEFFICIENTS])
        payload[4] ^= 1 << 6  # the first byte after the symbol count
        broken = Bitstream(
            header=stream.header,
            sections={**stream.sections, SEC_COEFFICIENTS: bytes(payload)},
        )
        with pytest.raises(CorruptStreamError, match="2\\*\\*62"):
            decode(broken)

    def test_header_label_count_beyond_pixels(self):
        """A label count above W*H is rejected before it sizes any array."""
        lf, dmap = small_scene()
        stream, _ = encode(lf, dmap, CFG)
        bad_header = dataclasses.replace(stream.header, label_count=2**32 - 1)
        with pytest.raises(CorruptStreamError, match="misses labels"):
            decode(Bitstream(header=bad_header, sections=stream.sections))

    def test_header_label_count_lie(self):
        lf, dmap = small_scene()
        stream, _ = encode(lf, dmap, CFG)
        bad_header = dataclasses.replace(stream.header, label_count=stream.header.label_count + 3)
        with pytest.raises(CorruptStreamError):
            decode(Bitstream(header=bad_header, sections=stream.sections))

    @pytest.mark.parametrize("rewrite, message", [
        (lambda syms: syms[:-1], "split tree truncated"),
        (lambda syms: syms + [0], "trailing structure symbols"),
        # label 0's tree replaced by a chain of 64 splits down the first
        # child, which reaches a single-pixel (unsplittable) reference
        (lambda syms: [1] * 64 + [0] * 65 + syms[_tree_length(syms):],
         "split tree does not match"),
        # label 0's tree alone: a partition-mode section with too few trees
        (lambda syms: syms[:_tree_length(syms)], "holds 1 of 2 split trees"),
    ], ids=["truncated", "trailing_bits", "split_unsplittable", "fewer_trees_than_labels"])
    def test_split_tree_rejected(self, split_stream, rewrite, message, tmp_path):
        assert split_stream.header.label_count == 2
        count, payload = unpack_section(split_stream.sections[SEC_STRUCTURE], SEC_STRUCTURE)
        syms = [int(v) for v in entropy_decode(payload, count, "structure")]
        bad = rewrite(syms)
        sections = dict(split_stream.sections)
        sections[SEC_STRUCTURE] = pack_section(len(bad), entropy_encode(bad, "structure"))
        broken = Bitstream(header=split_stream.header, sections=sections)
        with pytest.raises(CorruptStreamError, match=message):
            decode(broken)
        path = tmp_path / "tree.srgc"
        path.write_bytes(serialize(broken))
        assert main(["decode", str(path), "--out", str(tmp_path / "rec")]) == 2


def _tree_length(bits):
    """Length of the DFS split tree at the start of ``bits``."""
    depth = pos = 0
    while True:
        depth += 1 if bits[pos] else -1
        pos += 1
        if depth < 0:
            return pos


@pytest.fixture(scope="module")
def split_stream():
    """A partition-mode stream of a small noise light field."""
    lf = random_lf(2, 2, 12, 12, seed=5)
    stream, report = encode(lf, DisparityMap(values=np.zeros((12, 12))),
                            CodecConfig(slic_k=2, q_gft=2.0, max_vertices=32))
    assert report.partitioned_count > report.super_ray_count
    return stream


@pytest.fixture(scope="module")
def grouped_stream():
    lf, dmap = small_scene()
    stream, report = encode(lf, dmap, CFG)
    assert report.group_count > 0
    return stream


def _container(header, payloads):
    """The version-2 layout written out by hand: magic, version, header,
    six u32 payload lengths, payloads."""
    lengths = struct.pack("<6I", *map(len, payloads))
    return MAGIC + bytes([VERSION]) + header.pack() + lengths + b"".join(payloads)


class TestStreamValidation:
    @pytest.mark.parametrize("change", [
        {"angular_dims": (0, 3)}, {"angular_dims": (3, 0)},
        {"spatial_dims": (0, 32)}, {"spatial_dims": (32, 0)},
        {"bit_depth": 0}, {"bit_depth": 12}, {"bit_depth": 32},
        {"channels": 0}, {"channels": 2}, {"channels": 4},
        {"n_target": 0},
        {"q_gft": 0.0}, {"q_gft": -1.0}, {"q_gft": float("nan")},
        {"q_dct": 0.0}, {"q_dct": float("inf")},
        {"bin_width": -5.0}, {"bin_width": float("nan")},
    ])
    def test_header_out_of_range_rejected(self, grouped_stream, change):
        header = dataclasses.replace(grouped_stream.header, **change)
        with pytest.raises(SrgcError):
            deserialize(serialize(Bitstream(header=header, sections=grouped_stream.sections)))

    def test_section_table_rejections(self, grouped_stream):
        header, sections = grouped_stream.header, grouped_stream.sections
        payloads = [sections[sid] for sid in sorted(SECTION_NAMES)]
        data = _container(header, payloads)
        assert data == serialize(grouped_stream)
        assert deserialize(data).sections == sections
        with pytest.raises(CorruptStreamError, match="trailing"):
            deserialize(data + b"\0")
        table_start = 5 + len(header.pack())
        for end in range(table_start, table_start + 24):
            with pytest.raises(CorruptStreamError, match="section length table"):
                deserialize(data[:end])

    @pytest.mark.parametrize("flags", [0xF9, 0x08, 0x80])
    def test_unknown_header_flag_bits_rejected(self, flags):
        """Flag bits beyond grouping, explicit groups and DCT residuals are
        corrupt, not ignored."""
        stream, _ = encode(*four_patch_scene(32, 3), CodecConfig(slic_k=16, n_target=64))
        data = bytearray(serialize(stream))
        flags_at = 5 + struct.calcsize("<HHIIBB")
        assert data[flags_at] == 1  # grouping only
        data[flags_at] = flags
        with pytest.raises(CorruptStreamError, match="flags"):
            deserialize(bytes(data))

    @pytest.mark.parametrize("change", [{"explicit_groups": True}, {"residual_mode": "dct"}],
                             ids=["explicit_groups", "dct"])
    def test_group_flags_need_grouping(self, change, tmp_path):
        """The explicit-group and DCT-residual flags say how grouped
        members are coded.  Without grouping the encoder writes the bytes
        of the default config, and a header that sets either flag without
        grouping is corrupt (CLI exit 2)."""
        lf, dmap = four_patch_scene(32, 3)
        base = CodecConfig(slic_k=16, n_target=64, grouping=False)
        stream, _ = encode(lf, dmap, dataclasses.replace(base, **change))
        assert serialize(stream) == serialize(encode(lf, dmap, base)[0])
        assert not stream.header.explicit_groups and stream.header.residual_mode == "raw"
        # with grouping the flag is written and read back
        grouped, _ = encode(lf, dmap, dataclasses.replace(base, grouping=True, **change))
        assert deserialize(serialize(grouped)).header == grouped.header
        bad = serialize(Bitstream(
            header=dataclasses.replace(stream.header, **change), sections=stream.sections
        ))
        with pytest.raises(CorruptStreamError, match="without grouping"):
            deserialize(bad)
        path = tmp_path / "flags.srgc"
        path.write_bytes(bad)
        assert main(["decode", str(path), "--out", str(tmp_path / "rec")]) == 2

    @pytest.mark.parametrize("sid", sorted(SECTION_NAMES))
    @pytest.mark.parametrize("lie", [300_000, 2**32 - 1])
    def test_lying_symbol_count_is_never_decoded(self, grouped_stream, monkeypatch, sid, lie):
        seen = []
        real = codec.entropy_decode

        def spy(data, count, category):
            seen.append(count)
            return real(data, count, category)

        monkeypatch.setattr(codec, "entropy_decode", spy)
        sections = dict(grouped_stream.sections)
        sections[sid] = pack_section(lie, sections[sid][4:])
        with pytest.raises(CorruptStreamError):
            decode(Bitstream(header=grouped_stream.header, sections=sections))
        assert lie not in seen


def _round_trip(lf, dmap, cfg):
    data = serialize(encode(lf, dmap, cfg)[0])
    rec, _ = decode(deserialize(data))
    return data, rec


def _no_disparity(lf):
    h, w = lf.spatial_dims
    return lf, DisparityMap(values=np.zeros((h, w)))


ORACLE_CASES = {
    "gate": lambda: (*four_patch_scene(32, 3), CodecConfig(slic_k=16, q_gft=16.0, n_target=64)),
    "small": lambda: (*small_scene(seed=9), CFG),
    "partition": lambda: (*small_scene(seed=9), dataclasses.replace(CFG, q_gft=2.0)),
    "explicit": lambda: (*small_scene(seed=9), dataclasses.replace(CFG, explicit_groups=True)),
    "dct": lambda: (*small_scene(seed=9), dataclasses.replace(CFG, residual_mode="dct", q_dct=4.0)),
    "no_grouping": lambda: (*small_scene(seed=9), dataclasses.replace(CFG, grouping=False)),
    "rgb_all": lambda: (
        *_no_disparity(random_lf(2, 2, 16, 16, seed=31, channels=3)),
        CodecConfig(slic_k=4, q_gft=16.0, n_target=64, channels="all"),
    ),
}


def _solve_once(monkeypatch, solve=None):
    """Memoize the codec's eigen stage ``eigendecompose_all`` by Laplacian
    bytes, solving the misses of each call with ``solve`` one Laplacian at
    a time (default: one ``eigendecompose_all`` call).  A basis is a pure
    function of its Laplacian, so every run of a test shares one set of
    solves and the test times the stages it compares.  Returns the memo,
    which the test asserts non-empty: a codec that stopped calling
    ``codec.eigendecompose_all`` would otherwise bypass the hook."""
    bases = {}
    solve_all = codec.eigendecompose_all if solve is None else (
        lambda laps: [solve(lap) for lap in laps]
    )

    def cached(laps):
        laps = list(laps)
        keys = [(lap.matrix.shape, lap.matrix.tobytes()) for lap in laps]
        missing = {k: lap for k, lap in zip(keys, laps) if k not in bases}
        bases.update(zip(missing, solve_all(list(missing.values()))))
        return [bases[k] for k in keys]

    monkeypatch.setattr(codec, "eigendecompose_all", cached)
    return bases


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_graph_builders_match_oracles_end_to_end(case, monkeypatch):
    """The array graph builder and coarsener leave every stream byte and
    decoded sample as the loop versions they replaced produce them."""
    lf, dmap, cfg = ORACLE_CASES[case]()
    solved = _solve_once(monkeypatch)
    data, rec = _round_trip(lf, dmap, cfg)
    monkeypatch.setattr(codec, "graph_structure", graph_structure_union_oracle)
    monkeypatch.setattr(codec, "coarsen", coarsen_oracle)
    want_data, want_rec = _round_trip(lf, dmap, cfg)
    assert solved
    assert data == want_data
    assert lf_equal(rec, want_rec)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_slic_matches_loop_oracle_on_reference_views(case):
    """The encoder's segmentation of each case's reference view has the
    labels and label count of the per-center SLIC loop."""
    lf, _, cfg = ORACLE_CASES[case]()
    luma = lf.luma_planes()[0]
    got = codec.slic_segment(luma, cfg.slic_k, cfg.compactness)
    want = slic_segment_oracle(luma, cfg.slic_k, cfg.compactness)
    assert got.label_count == want.label_count
    assert np.array_equal(got.labels, want.labels)


def _patch_per_unit_oracles(monkeypatch):
    """Put the per-unit coarsening and eigen stage into ``codec``; returns
    the names of the oracles as they are called."""
    calls = []

    def spy(oracle):
        def run(*args):
            calls.append(oracle.__name__)
            return oracle(*args)
        return run

    monkeypatch.setattr(codec, "_coarsen_graphs", spy(coarsen_graphs_oracle))
    monkeypatch.setattr(codec, "_eigenbases", spy(eigenbases_oracle))
    return calls


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_distinct_graph_reuse_matches_per_unit_oracles_end_to_end(case, monkeypatch):
    """Coarsening and solving each distinct graph once leaves every stream
    byte and decoded sample as coarsening and solving every unit does."""
    lf, dmap, cfg = ORACLE_CASES[case]()
    data, rec = _round_trip(lf, dmap, cfg)
    calls = _patch_per_unit_oracles(monkeypatch)
    want_data, want_rec = _round_trip(lf, dmap, cfg)
    assert calls.count("eigenbases_oracle") == 2
    assert ("coarsen_graphs_oracle" in calls) == (case != "partition")
    assert data == want_data
    assert lf_equal(rec, want_rec)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_every_unit_basis_equals_a_lone_solve(case, monkeypatch):
    """Each solved unit's basis, shared or not, has the bits a lone
    ``eigendecompose(laplacian(graph))`` of its graph gives, on both
    sides: every unit on the encoder, and on the decoder every unit that
    is not predicted from a group's main."""
    lf, dmap, cfg = ORACLE_CASES[case]()
    eigenbases = codec._eigenbases
    solved = []

    def spy(graphs):
        bases, count = eigenbases(graphs)
        solved.append((graphs, bases, count))
        return bases, count

    monkeypatch.setattr(codec, "_eigenbases", spy)
    stream, enc = encode(lf, dmap, cfg, debug=True)
    _, dec = decode(deserialize(serialize(stream)), debug=True)
    predicted = codec._predicted_members(dec.debug.group_set.groups, dec.debug.groupable)
    want_units = (
        enc.debug.units,
        [u for u in dec.debug.units if u.index not in predicted],
    )
    assert len(solved) == 2
    for (graphs, bases, count), units, report in zip(solved, want_units, (enc, dec)):
        assert len(units) == len(bases) == report.eig_count >= count == report.eig_solved
        for u, graph, basis in zip(units, graphs, bases):
            assert graph is u.graph
            want = eigendecompose(laplacian(u.graph))
            assert np.array_equal(basis.eigenvalues, want.eigenvalues)
            assert np.array_equal(basis.vectors, want.vectors)


@pytest.mark.parametrize("name, counts, solved, coarsened", [
    ("gate", (16, 2), (9, 2), 9),
    ("parallax", (9, 5), (9, 5), 9),
    ("partition", (129, 129), (58, 58), 0),
])
def test_distinct_graphs_on_bench_scenes(name, counts, solved, coarsened, monkeypatch):
    """On the bench scenes (seed 1) units repeat whole graphs: each side
    coarsens and solves only the distinct ones, ``eig_count`` stays the
    paper's count, and the bytes and samples are those of the per-unit
    stages."""
    workload = bench_workloads()[name]
    lf, dmap = workload.scene(1)
    coarsenings = []

    def counted(g, n_target):
        coarsenings.append(g.n)
        return spectral.coarsen(g, n_target)

    monkeypatch.setattr(codec, "coarsen", counted)
    stream, enc = encode(lf, dmap, workload.config)
    data = serialize(stream)
    rec, dec = decode(deserialize(data))
    assert (enc.eig_count, dec.eig_count) == counts
    assert (enc.eig_solved, dec.eig_solved) == solved
    assert len(coarsenings) == 2 * coarsened
    assert f"eig_solved_encoder={solved[0]}" in enc.to_lines()
    assert f"eig_solved_decoder={solved[1]}" in dec.to_lines()
    _patch_per_unit_oracles(monkeypatch)
    want_data, want_rec = _round_trip(lf, dmap, workload.config)
    assert data == want_data
    assert lf_equal(rec, want_rec)


def test_distinct_graphs_keyed_by_vertex_count_and_edges():
    """An edge list does not show isolated vertices, so graphs with equal
    edges and different vertex counts are solved apart."""
    edges = np.array([[0, 1]], dtype=np.int64)
    a, b, c = (LocalGraph(n=n, edges=edges.copy()) for n in (2, 3, 2))
    distinct, which = codec._distinct_graphs([a, b, c, b])
    assert distinct[0] is a and distinct[1] is b and len(distinct) == 2
    assert which == [0, 1, 0, 1]
    bases, solved = codec._eigenbases([a, b, c])
    assert solved == 2
    assert [basis.vectors.shape[0] for basis in bases] == [2, 3, 2]
    assert bases[0] is bases[2]


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_group_membership_matches_oracle_end_to_end(case, monkeypatch):
    """Threshold-graph components leave every stream byte and decoded
    sample as the 1-level sets merged transitively produce them, with the
    oracle patched into the encoder's and the decoder's grouping pass."""
    lf, dmap, cfg = ORACLE_CASES[case]()
    solved = _solve_once(monkeypatch)
    data, rec = _round_trip(lf, dmap, cfg)
    calls = []

    def oracle(coeffs, bin_width):
        calls.append(len(coeffs))
        return derive_group_members_oracle(coeffs, bin_width)

    monkeypatch.setattr(grouping, "derive_group_members", oracle)
    monkeypatch.setattr(codec, "derive_group_members", oracle)
    want_data, want_rec = _round_trip(lf, dmap, cfg)
    assert solved and calls
    assert data == want_data
    assert lf_equal(rec, want_rec)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_canonicalization_matches_oracle_end_to_end(case, monkeypatch):
    """The array canonicalization of degenerate eigenspaces decodes every
    case to the loop version's samples with the same eigendecomposition
    counts on both sides."""
    lf, dmap, cfg = ORACLE_CASES[case]()

    def run():
        stream, enc = encode(lf, dmap, cfg)
        rec, dec = decode(deserialize(serialize(stream)))
        return rec, enc.eig_count, dec.eig_count

    rec, eig_enc, eig_dec = run()
    solved = _solve_once(monkeypatch, eigendecompose_oracle)
    want_rec, want_enc, want_dec = run()
    assert solved
    assert lf_equal(rec, want_rec)
    assert (eig_enc, eig_dec) == (want_enc, want_dec)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_structure_pipeline_matches_oracles_end_to_end(case, monkeypatch):
    """The level walk over all split trees, the one label->pixels pass and
    the one stacked label projection leave every stream byte and decoded
    sample as the per-super-ray depth-first recursions, per-label scans
    and per-view projection they replaced produce them."""
    lf, dmap, cfg = ORACLE_CASES[case]()
    solved = _solve_once(monkeypatch)
    data, rec = _round_trip(lf, dmap, cfg)
    monkeypatch.setattr(codec, "label_disparities", label_disparities_oracle)
    monkeypatch.setattr(codec, "project_labels", project_labels_oracle)
    monkeypatch.setattr(codec, "assemble_super_rays", assemble_super_rays_oracle)
    monkeypatch.setattr(
        codec, "partition_super_ray", lambda *args: partition_super_rays_oracle(*args)[0]
    )
    monkeypatch.setattr(codec, "partition_with_tree", partition_with_trees_oracle)
    want_data, want_rec = _round_trip(lf, dmap, cfg)
    assert solved
    assert data == want_data
    assert lf_equal(rec, want_rec)


@pytest.mark.parametrize("case", [*sorted(ORACLE_CASES), "bench_gate", "bench_parallax",
                                  "bench_partition"])
def test_super_ray_rows_are_the_graph_vertices(case, monkeypatch):
    """On both sides, each pixel graph's ``vertices`` is the ``pixels``
    array of the super-ray or part it was built from, and the rows
    ``assemble_super_rays`` gives are the per-label, per-view scans of the
    label volume stacked in view order behind a view column."""
    if case in ORACLE_CASES:
        lf, dmap, cfg = ORACLE_CASES[case]()
    else:
        workload = bench_workloads()[case.removeprefix("bench_")]
        lf, dmap = workload.scene(1)
        cfg = workload.config
    built, assembled = [], []

    def build(union, srs):
        built.append(list(zip(srs, split_graph(union, srs))))
        return [g for _, g in built[-1]]

    def assemble(seg, disparities):
        assembled.append((seg, disparities, assemble_super_rays(seg, disparities)))
        return assembled[-1][2]

    monkeypatch.setattr(codec, "split_graph", build)
    monkeypatch.setattr(codec, "assemble_super_rays", assemble)
    stream, enc = encode(lf, dmap, cfg, debug=True)
    _, dec = decode(deserialize(serialize(stream)), debug=True)
    # one split per side, each handing out every unit's graph
    assert len(assembled) == 2 and len(built) == 2
    assert len(built[0]) == len(built[1]) > 0
    for side, report in zip(built, (enc, dec)):
        assert len(report.debug.units) == len(side)
        for u, (sr, g) in zip(report.debug.units, side):
            assert u.fine is g and g.vertices is sr.pixels
    for seg, disparities, rays in assembled:
        want = assemble_super_rays_oracle(seg, disparities)
        assert len(rays) == len(want) == seg.label_count
        for got, oracle in zip(rays, want):
            assert (got.label, got.disparity) == (oracle.label, oracle.disparity)
            assert got.pixels.dtype == oracle.pixels.dtype == np.int64
            assert np.array_equal(got.pixels, oracle.pixels)
