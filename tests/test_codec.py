"""End-to-end codec behavior: exactness, counts, determinism, robustness."""

import dataclasses
import gc
import json
import os
import pickle
import struct
import subprocess
import sys
import types
import weakref

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
    SECTION_CONTEXTS,
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
from srgc.spectral import LocalGraph, dc_basis, eigendecompose, laplacian, split_graph

from conftest import (
    assemble_super_rays_oracle,
    assert_spectrum_rule,
    bench_workloads,
    cluster_eigenvalues_oracle,
    coarsen_graphs_oracle,
    coarsen_oracle,
    connected_components,
    derive_group_members_oracle,
    drop_unread_clusters_oracle,
    eigenbases_oracle,
    eigendecompose_oracle,
    four_patch_scene,
    graph_structure_union_oracle,
    label_disparities_oracle,
    lf_equal,
    make_lf,
    partition_super_rays_oracle,
    partition_with_trees_oracle,
    probe_mask_oracle,
    project_labels_oracle,
    random_lf,
    reference_rows,
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

# byte offset of the header's flags in a serialized stream
_FLAGS_AT = 5 + struct.calcsize("<HHIIBB")


def _version_2_data(stream, flags):
    """``stream`` in the version-2 layout: a 47-byte header with the given
    flags, a reserved f64 and ``bin_width``, then six u32 section lengths."""
    hdr = stream.header
    payloads = [stream.sections[sid] for sid in sorted(SECTION_NAMES)]
    return MAGIC + bytes([2]) + struct.pack(
        "<HHIIBBBIIddd", *hdr.angular_dims, *hdr.spatial_dims, hdr.bit_depth,
        hdr.channels, flags, hdr.label_count, hdr.n_target, hdr.q_gft, 1.0,
        CFG.bin_width,
    ) + struct.pack("<6I", *map(len, payloads)) + b"".join(payloads)


def _assert_grouped_members_exact(lf, dmap, cfg):
    """Assert that every grouped member other than its group's main
    decodes to its coded unit signal in every channel; returns the
    channel count."""
    stream, enc_rep = encode(lf, dmap, cfg, debug=True)
    _, dec_rep = decode(deserialize(serialize(stream)), debug=True)
    groupable = enc_rep.debug.groupable
    grouped_unit_ids = {
        groupable[pos]
        for g in enc_rep.debug.group_set.groups
        for pos in g.members
        if pos != g.main_index
    }
    assert grouped_unit_ids
    for uid in grouped_unit_ids:
        want = enc_rep.debug.units[uid].signals
        got = dec_rep.debug.reconstructed[uid]
        assert len(got) == len(want) == stream.header.channels
        for c in range(len(want)):
            assert np.array_equal(want[c], got[c])
    return stream.header.channels


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

    def test_version_3_header_layout(self):
        """Version 4 keeps version 3's 31-byte ``<HHIIBBBIId`` header: no
        ``bin_width``, no reserved f64, and flag bit 0 alone."""
        lf, dmap = small_scene()
        stream = encode(lf, dmap, CFG)[0]
        hdr = stream.header
        data = serialize(stream)
        assert data[:5] == MAGIC + bytes([4]) == MAGIC + bytes([VERSION])
        assert data[5:36] == struct.pack(
            "<HHIIBBBIId", *hdr.angular_dims, *hdr.spatial_dims, hdr.bit_depth,
            hdr.channels, 1, hdr.label_count, hdr.n_target, hdr.q_gft,
        )
        lengths = struct.unpack_from("<6I", data, 36)
        assert lengths == tuple(len(stream.sections[sid]) for sid in sorted(SECTION_NAMES))
        assert len(data) == 36 + 24 + sum(lengths)

    def test_version_1_stream_rejected(self, tmp_path):
        """A stream in the version-1 layout (55-byte header with
        max_vertices and q_switch, then a u8 section count and (u8 id, u64
        length) pairs) is unsupported, not corrupt."""
        lf, dmap = small_scene()
        stream = encode(lf, dmap, CFG)[0]
        hdr = stream.header
        data = MAGIC + bytes([1]) + struct.pack(
            "<HHIIBBBIIIIddd", *hdr.angular_dims, *hdr.spatial_dims, hdr.bit_depth,
            hdr.channels, int(hdr.grouping), hdr.label_count, hdr.n_target,
            CFG.max_vertices, CFG.q_switch, hdr.q_gft, 1.0, CFG.bin_width,
        ) + bytes([len(stream.sections)])
        for sid in sorted(stream.sections):
            data += struct.pack("<BQ", sid, len(stream.sections[sid]))
        data += b"".join(stream.sections[sid] for sid in sorted(stream.sections))
        with pytest.raises(UnsupportedStreamError, match="version 1"):
            deserialize(data)
        path = tmp_path / "v1.srgc"
        path.write_bytes(data)
        assert main(["decode", str(path), "--out", str(tmp_path / "rec")]) == 2

    def test_version_2_stream_rejected(self, tmp_path):
        """A stream in the version-2 layout (47-byte header with a reserved
        f64 and ``bin_width``, then six u32 section lengths) is
        unsupported, not corrupt."""
        lf, dmap = small_scene()
        data = _version_2_data(encode(lf, dmap, CFG)[0], flags=1)
        assert struct.calcsize("<HHIIBBBIIddd") == 47
        with pytest.raises(UnsupportedStreamError, match="version 2"):
            deserialize(data)
        path = tmp_path / "v2.srgc"
        path.write_bytes(data)
        assert main(["decode", str(path), "--out", str(tmp_path / "rec")]) == 2

    def test_version_3_stream_rejected(self, tmp_path):
        """A version-3 stream (the same header and section table, with
        every coefficient level coded and no extents) is unsupported, not
        corrupt."""
        lf, dmap = small_scene()
        data = bytearray(serialize(encode(lf, dmap, CFG)[0]))
        data[4] = 3
        with pytest.raises(UnsupportedStreamError, match="version 3"):
            deserialize(bytes(data))
        path = tmp_path / "v3.srgc"
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
        for i, u in enumerate(units):
            ref_pix = reference_rows(u)
            # patch units are entirely inside one 16x16 corner cell
            ys, xs = ref_pix[:, 1], ref_pix[:, 2]
            if (
                (ys.max() < 16 or ys.min() >= 48)
                and (xs.max() < 16 or xs.min() >= 48)
                and i in groupable
            ):
                lum = u.signals[0].astype(float)
                if lum.std() > 2:  # noise patch, not flat background
                    patch_units.add(groupable.index(i))
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
        """The stream holds the groups, not the bin width that chose them:
        two bin widths that choose the same groups write the same bytes
        and decode alike."""
        lf, dmap = four_patch_scene()
        base = CodecConfig(slic_k=16, q_gft=16.0, n_target=256)
        wide = dataclasses.replace(base, bin_width=20.0)
        stream_a, enc_a = encode(lf, dmap, base, debug=True)
        stream_b, enc_b = encode(lf, dmap, wide, debug=True)
        assert enc_a.debug.group_set.groups == enc_b.debug.group_set.groups
        assert enc_a.group_count > 0
        assert serialize(stream_a) == serialize(stream_b)
        rec_a, rep_a = decode(stream_a)
        rec_b, rep_b = decode(stream_b)
        assert lf_equal(rec_a, rec_b)
        assert rep_a.eig_count == rep_b.eig_count

    def test_grouped_member_exactness(self):
        """Every grouped member reconstructs its coded unit signal
        bit-exactly."""
        lf, dmap = four_patch_scene()
        _assert_grouped_members_exact(lf, dmap, CodecConfig(slic_k=16, q_gft=64.0, n_target=256))

    @pytest.mark.parametrize("case", ["small", "explicit", "rgb_all"])
    def test_grouped_member_exactness_in_oracle_cases(self, case):
        """The same on the oracle cases that form groups: with every unit
        grouped, with groups and ungrouped units side by side, and in
        every channel of an RGB light field."""
        lf, dmap, cfg = ORACLE_CASES[case]()
        channels = _assert_grouped_members_exact(lf, dmap, cfg)
        assert channels == (3 if case == "rgb_all" else 1)

    @pytest.mark.parametrize("blocked", [False, True])
    def test_decoder_group_set_matches_encoder(self, blocked, monkeypatch):
        """The decoder's debug GroupSet holds the encoder's groups and its
        ungrouped positions, on a scene that leaves some ungrouped, and
        the same with the grouping pass made to raise in the decoder."""
        workload = bench_workloads()["parallax"]
        lf, dmap = workload.scene(1)
        want, got = _encoder_and_decoder_groups(lf, dmap, workload.config, monkeypatch, blocked)
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
            for i, unit in enumerate(enc_rep.debug.units):
                if i in grouped_ids:
                    continue
                want = unit.signals[0].astype(np.float64)
                got = dec_rep.debug.reconstructed[i][0].astype(np.float64)
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
        # the decoder reads every section before it coarsens
        assert list(dec_rep.times) == [
            "entropy", "segmentation", "projection", "graphs", "dequantize", "grouping",
            "coarsen", "eigen", "reconstruct", "assembly",
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
    @pytest.mark.parametrize("name", ["q_gft", "bin_width", "compactness"])
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
    """Rewrites the groups section of a stream of small_scene() (7
    groupable units, each of dimension n) to the given labels and ranks,
    with a residual section of the matching (zero) symbol count: n for
    every labelled unit but one per distinct label, the mains."""
    lf, dmap = small_scene()
    stream, report = encode(lf, dmap, CFG, debug=True)
    units, groupable = report.debug.units, report.debug.groupable
    assert len(groupable) == 7
    (n,) = {units[u].n for u in groupable}

    def rewritten(labels, ranks):
        syms = [*labels, *ranks]
        named = [label for label in labels if label]
        count = n * (len(named) - len(set(named)))
        sections = dict(stream.sections)
        sections[SEC_GROUPS] = pack_section(len(syms), entropy_encode(syms, "group"))
        sections[SEC_RESIDUALS] = pack_section(
            count, entropy_encode([0] * count, "residual")
        )
        return Bitstream(header=stream.header, sections=sections)

    # the rewrite itself is valid: one group of all 7, its main at rank 3
    _, rep = decode(rewritten([1] * 7, [3]), debug=True)
    assert [(g.members, g.main_index) for g in rep.debug.group_set.groups] == [
        (tuple(range(7)), 3)
    ]
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

    def test_residual_out_of_sample_range(self, tmp_path):
        """A grouped member's prediction + residual outside [0, maxval] is
        corrupt: no encoder writes it, since every residual is the signal
        minus the prediction and the signal is in range.  The stream keeps
        a correct residual count, so only the sample range catches it."""
        lf, dmap = small_scene(seed=9)
        stream, _ = encode(lf, dmap, CFG)
        count, payload = unpack_section(stream.sections[SEC_RESIDUALS], SEC_RESIDUALS)
        syms = entropy_decode(payload, count, "residual")
        assert count > 0
        syms[0] += 10**6
        sections = dict(stream.sections)
        sections[SEC_RESIDUALS] = pack_section(count, entropy_encode(syms.tolist(), "residual"))
        broken = Bitstream(header=stream.header, sections=sections)
        with pytest.raises(CorruptStreamError, match="residual of unit"):
            decode(broken)
        path = tmp_path / "residual.srgc"
        path.write_bytes(serialize(broken))
        assert main(["decode", str(path), "--out", str(tmp_path / "rec")]) == 2

    @pytest.mark.parametrize("labels, ranks, message", [
        ([1, 1, 0, 0, 0, 0, 4], [0], "label outside 0..3"),
        ([1, 1, 0, 0, 0, 0, -1], [0], "label outside 0..3"),
        ([2, 2, 1, 1, 0, 0, 0], [0, 0], "not in order of first member"),
        ([1, 1, 3, 3, 0, 0, 0], [0, 0], "not in order of first member"),
        ([1, 1, 1, 1, 1, 1, 1], [7], "rank out of range"),
        ([1, 1, 1, 1, 1, 1, 1], [-1], "rank out of range"),
        ([1, 1, 1, 1, 1, 1, 1], [3, 0], "holds 9 symbols, expected 8"),
        ([1, 1, 1, 1, 1, 1, 1], [], "holds 7 symbols, expected 8"),
        ([1, 1, 1, 1, 1, 1], [], "holds 6 symbols, fewer than the 7"),
        ([1, 1, 2, 2, 3, 3, 0], [0, 0, 0, 0], "declares 11 symbols, expected at most 10"),
    ], ids=[
        "label_above_half", "label_negative", "first_appearance_out_of_order",
        "group_number_skipped", "rank_above_group", "rank_negative",
        "count_above_labels_and_groups", "count_below_labels_and_groups",
        "count_below_labels", "count_above_bound",
    ])
    def test_label_form_rejected(self, regroup, labels, ranks, message):
        """Each group section that no encoder writes is corrupt."""
        with pytest.raises(CorruptStreamError, match=message):
            decode(regroup(labels, ranks))

    def test_explicit_group_of_one_member(self, regroup):
        """A one-member group (no encoder writes one) is corrupt."""
        with pytest.raises(CorruptStreamError, match="fewer than 2 members"):
            decode(regroup([1, 1, 1, 1, 1, 1, 2], [3, 0]))

    def test_explicit_group_of_one_member_cli_exit_2(self, regroup, tmp_path):
        path = tmp_path / "single.srgc"
        path.write_bytes(serialize(regroup([1, 1, 1, 1, 1, 1, 2], [3, 0])))
        assert main(["decode", str(path), "--out", str(tmp_path / "rec")]) == 2

    @pytest.mark.filterwarnings("error")
    def test_coefficient_flip_beyond_bin_range(self):
        """One flipped coefficient bit dequantizes to a level whose pair
        MSEs would fall in histogram bins beyond int64.  The decoder runs
        no grouping pass, so nothing is cast to a bin: it refuses the
        stream, without a warning, where the flipped level pushes a
        reconstruction out of sample range."""
        lf, dmap = small_scene()
        stream, _ = encode(lf, dmap, CFG)
        payload = bytearray(stream.sections[SEC_COEFFICIENTS])
        payload[16] ^= 1 << 6  # a byte of the levels run, past the extents
        broken = Bitstream(
            header=stream.header,
            sections={**stream.sections, SEC_COEFFICIENTS: bytes(payload)},
        )
        with pytest.raises(CorruptStreamError, match="residual of unit 0 leaves"):
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


@pytest.fixture(scope="module")
def coefficient_stream():
    """A stream of small_scene(), its coefficient symbols and its vector
    lengths, and a rewrite of its coefficient section to other symbols
    (the first m, the vector count, under the extent contexts) with a
    declared count that defaults to their number."""
    lf, dmap = small_scene()
    stream, report = encode(lf, dmap, CFG, debug=True)
    sizes = codec._vector_sizes([u.n for u in report.debug.units], stream.header.channels)
    count, payload = unpack_section(stream.sections[SEC_COEFFICIENTS], SEC_COEFFICIENTS)
    syms = entropy_decode(payload, count, "gft", sizes.size).tolist()

    def rewritten(new_syms, count=None):
        body = entropy_encode(new_syms, "gft", sizes.size)
        sections = {**stream.sections, SEC_COEFFICIENTS: pack_section(
            len(new_syms) if count is None else count, body)}
        return Bitstream(header=stream.header, sections=sections)

    assert serialize(rewritten(syms)) == serialize(stream)
    return syms, sizes, rewritten


def _last_of_first_run(syms, m):
    """Index of the last coded symbol of the first vector with a run."""
    return m + next(e for e in syms[:m] if e) - 1


@pytest.mark.parametrize("rewrite, message", [
    (lambda syms, m, n: (syms, m - 1), "declares 6 symbols, expected 7 to"),
    (lambda syms, m, n: (syms, m + n + 1), "expected 7 to"),
    (lambda syms, m, n: ([-1] + syms[1:], None), "extent outside 0..n"),
    (lambda syms, m, n: ([syms[0] + 1] + syms[1:] + [1], None), "extent outside 0..n"),
    (lambda syms, m, n: (syms + [1], None), "holds 591 symbols, expected 590"),
    (lambda syms, m, n: (syms[:-1], None), "holds 589 symbols, expected 590"),
    (lambda syms, m, n: ([0 if i == _last_of_first_run(syms, m) else v
                          for i, v in enumerate(syms)], None), "ends in a zero"),
    # vector 1's DC residual at the coder's limit, on a positive prediction
    (lambda syms, m, n: ([2**49 - 1 if i == m + syms[0] else v
                          for i, v in enumerate(syms)], None),
     "DC level of vector 1 reaches 2\\*\\*49"),
], ids=["count_below_vectors", "count_above_bound", "extent_negative", "extent_above_n",
        "count_above_extents", "count_below_extents", "run_ends_in_zero", "dc_level_beyond_coder"])
@pytest.mark.filterwarnings("error")
def test_coefficient_section_rejected(coefficient_stream, rewrite, message, tmp_path, monkeypatch):
    """Every coefficient section that no encoder writes is corrupt (CLI
    exit 2); a declared count outside m..m + sum(n) * channels is refused
    before the section is decoded."""
    syms, sizes, rewritten = coefficient_stream
    m, n = sizes.size, int(sizes.sum())
    assert (m, len(syms), sizes[0]) == (7, 590, 128) and syms[0] == 128
    assert syms[m + syms[0]] and syms[:m].count(0) == 0
    bad, count = rewrite(syms, m, n)
    broken = rewritten(bad, count)
    seen = []
    real = codec.entropy_decode

    def spy(data, count, category, head=0):
        seen.append(count)
        return real(data, count, category, head)

    monkeypatch.setattr(codec, "entropy_decode", spy)
    with pytest.raises(CorruptStreamError, match=message):
        decode(broken)
    if count is not None:
        assert count not in seen
    path = tmp_path / "coefficients.srgc"
    path.write_bytes(serialize(broken))
    assert main(["decode", str(path), "--out", str(tmp_path / "rec")]) == 2


@pytest.mark.parametrize("n_channels", [1, 3])
def test_coefficient_symbols_round_trip(n_channels):
    """The coefficient section's symbols are m extents, each one past its
    vector's last nonzero symbol, then the runs, each ending in a nonzero;
    DC levels come back through the prediction exactly, down to all-zero
    vectors, one-coefficient vectors and levels near the coder's limit."""
    rng = np.random.default_rng(40 + n_channels)
    for _ in range(200):
        units = int(rng.integers(1, 9))
        sizes = np.repeat(rng.integers(1, 12, size=units), n_channels)
        levels = rng.integers(-40, 40, size=int(sizes.sum())) * (rng.random(sizes.sum()) < 0.3)
        starts = np.cumsum(sizes) - sizes
        levels[starts] = rng.integers(-(2**20), 2**20, size=sizes.size)
        levels[starts[rng.random(sizes.size) < 0.2]] = 0
        syms, head = codec._coefficient_symbols(levels, sizes, n_channels)
        m = sizes.size
        assert head == m and len(syms) == m + sum(syms[:m])
        ends = np.cumsum(syms[:m])
        assert all(syms[m + e - 1] != 0 for e, x in zip(ends, syms[:m]) if x)
        back = codec._levels_from_symbols(np.array(syms), sizes, n_channels)
        assert np.array_equal(back, levels)
    # DC 3 at n = 2 predicts 3 / sqrt(2) * sqrt(8) = 6 at n = 8, and DC 7
    # at n = 8 predicts 2.47 -> 2 at n = 1, which leaves the last vector empty
    levels = np.array([3, 0, 7, 0, 0, 0, 0, 0, 0, 0, 2], dtype=np.int64)
    syms, _ = codec._coefficient_symbols(levels, np.array([2, 8, 1]), 1)
    assert syms == [1, 1, 0, 3, 1]


def test_dc_residual_beyond_coder_range_refused():
    """A DC residual of 2**49 or more in magnitude, which its levels alone
    do not reach, makes the encoder raise a ValueError naming 2**49."""
    levels = np.array([2**49 - 1, 0, 0, 0, 0], dtype=np.int64)
    with pytest.raises(ValueError, match="2\\*\\*49"):
        codec._coefficient_symbols(levels, np.array([1, 4]), 1)


@pytest.mark.parametrize("name, symbols, size", [
    ("gate", 167, 33),
    ("parallax", 201, 71),
    ("partition", 1046, 352),
])
def test_coefficient_section_size_on_bench_scenes(name, symbols, size):
    """The coefficient section's symbol count and byte size on the bench
    scenes (seed 1).  Coding every level, version 3 took 1,024, 576 and
    5,184 symbols in 55, 84 and 630 bytes; extents and DC prediction leave
    these.  Every symbol dropped is bins the entropy decoder never runs."""
    workload = bench_workloads()[name]
    stream, _ = encode(*workload.scene(1), workload.config)
    section = stream.sections[SEC_COEFFICIENTS]
    assert (unpack_section(section, SEC_COEFFICIENTS)[0], len(section)) == (symbols, size)


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
    """The version-3 layout written out by hand: magic, version, header,
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
        {"q_gft": float("inf")}, {"q_gft": float("-inf")},
        {"bit_depth": 9}, {"channels": 255},
    ])
    def test_header_out_of_range_rejected(self, grouped_stream, change):
        """Refused by ``deserialize`` and by ``decode`` of the parsed
        stream, which takes each unit's size from ``n_target`` before it
        reads a section."""
        header = dataclasses.replace(grouped_stream.header, **change)
        stream = Bitstream(header=header, sections=grouped_stream.sections)
        with pytest.raises(CorruptStreamError):
            deserialize(serialize(stream))
        with pytest.raises(CorruptStreamError, match="header"):
            decode(stream)

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
        """Flag bits beyond grouping are corrupt, not ignored."""
        stream, _ = encode(*four_patch_scene(32, 3), CodecConfig(slic_k=16, n_target=64))
        data = bytearray(serialize(stream))
        assert data[_FLAGS_AT] == 1  # grouping only
        data[_FLAGS_AT] = flags
        with pytest.raises(CorruptStreamError, match="flags"):
            deserialize(bytes(data))

    def test_dct_residual_flag_unsupported(self, grouped_stream):
        """Only version 2 could set the DCT-residual flag, and a version-2
        stream with it is unsupported by its version.  Version 3 gives the
        bit no meaning, so a version-3 header that sets it is corrupt."""
        with pytest.raises(UnsupportedStreamError, match="version 2"):
            deserialize(_version_2_data(grouped_stream, flags=1 | 4))
        data = bytearray(serialize(grouped_stream))
        data[_FLAGS_AT] |= 4
        with pytest.raises(CorruptStreamError, match="flags"):
            deserialize(bytes(data))

    @pytest.mark.parametrize("bit", [2, 4], ids=["explicit_groups", "dct"])
    def test_group_flags_need_grouping(self, bit, tmp_path):
        """Version 2 gave flag bits 1 and 2 to explicit groups and DCT
        residuals.  Version 3 has neither: a header that sets one is
        corrupt, with grouping or without, and the CLI exits 2."""
        lf, dmap = four_patch_scene(32, 3)
        for grouping_on in (True, False):
            cfg = CodecConfig(slic_k=16, n_target=64, grouping=grouping_on)
            bad = bytearray(serialize(encode(lf, dmap, cfg)[0]))
            assert bad[_FLAGS_AT] == int(grouping_on)
            bad[_FLAGS_AT] |= bit
            with pytest.raises(CorruptStreamError, match="flags"):
                deserialize(bytes(bad))
        path = tmp_path / "flags.srgc"
        path.write_bytes(bad)
        assert main(["decode", str(path), "--out", str(tmp_path / "rec")]) == 2

    @pytest.mark.parametrize("sid", sorted(SECTION_NAMES))
    @pytest.mark.parametrize("lie", [300_000, 2**32 - 1])
    def test_lying_symbol_count_is_never_decoded(self, grouped_stream, monkeypatch, sid, lie):
        seen = []
        real = codec.entropy_decode

        def spy(data, count, category, head=0):
            seen.append(count)
            return real(data, count, category, head)

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
    # groups that only the encoder's bin width chooses (one pair, five
    # units ungrouped), which the stream carries as labels
    "explicit": lambda: (*small_scene(seed=9), dataclasses.replace(CFG, bin_width=2.0)),
    "no_grouping": lambda: (*small_scene(seed=9), dataclasses.replace(CFG, grouping=False)),
    "rgb_all": lambda: (
        *_no_disparity(random_lf(2, 2, 16, 16, seed=31, channels=3)),
        CodecConfig(slic_k=4, q_gft=16.0, n_target=64, channels="all"),
    ),
}


FOOTPRINT_SCRIPT = """
import hashlib, json, pickle, sys
sys.path.insert(0, sys.argv[2])
import numpy as np
import srgc

def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

out = {"import": scipy_modules()}
with open(sys.argv[1], "rb") as f:
    cases = pickle.load(f)
for name, (lf, dmap, cfg) in cases:
    data = srgc.serialize(srgc.encode(lf, dmap, cfg)[0])
    rec, _ = srgc.decode(srgc.deserialize(data))
    samples = hashlib.sha256()
    for view in rec.views:
        for plane in view.planes:
            samples.update(np.ascontiguousarray(plane).tobytes())
    out[name] = [hashlib.sha256(data).hexdigest()[:16], samples.hexdigest()[:16]]
lf, dmap, cfg = cases[0][1]
srgc.rd_sweep(lf, dmap, [64.0], cfg)
out["end"] = scipy_modules()
print(json.dumps(out))
"""


def test_runtime_loads_no_scipy(tmp_path):
    """In a fresh process, ``import srgc``, a round trip of every
    ``ORACLE_CASES`` entry and an ``rd_sweep`` load no scipy module, and
    each case keeps its stream and samples (SHA-256 prefixes, BLAS pinned
    to one thread as in ``test_golden``)."""
    cases = tmp_path / "cases.pickle"
    with open(cases, "wb") as f:
        pickle.dump([(name, make()) for name, make in sorted(ORACLE_CASES.items())], f)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT, str(cases), src],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out.pop("import") == [] and out.pop("end") == []
    assert out == {
        "explicit": ["38f40671745bc462", "11b03d41d999b701"],
        "gate": ["6c03c2aa352c3291", "1375726447ec6c54"],
        "no_grouping": ["b835c17728962483", "53a7ae600a6d7c25"],
        "partition": ["e2213e496a7e2d84", "9baf83f90b7354a5"],
        "rgb_all": ["2e6e4db7348f91b5", "85e95f378c6b370d"],
        "small": ["2490a69e8ba4d210", "6610672ab9bd91a1"],
    }


def _probe_key(probe):
    if probe is None:
        return None
    signals, steps = probe
    return signals.shape, signals.tobytes(), steps.tobytes()


def _solve_once(monkeypatch, solve=None):
    """Memoize the codec's eigen stage ``eigendecompose_all`` by Laplacian
    bytes, column mask and probe, solving the misses of
    each call with ``solve`` one Laplacian at a time, its mask and its
    probe's mask (``probe_mask_oracle``) applied by
    ``drop_unread_clusters_oracle`` (default: one ``eigendecompose_all``
    call).  A basis is a pure function of its Laplacian, mask and probe,
    so every run of a test shares one set of solves and the test
    times the stages it compares.  Returns the memo, which the test
    asserts non-empty: a codec that stopped calling
    ``codec.eigendecompose_all`` would otherwise bypass the hook."""
    bases = {}
    solve_all = codec.eigendecompose_all

    def cached(laps, needed=None, probes=None):
        laps = list(laps)
        masks = [None] * len(laps) if needed is None else list(needed)
        probed = probes is not None
        probes = list(probes) if probed else [None] * len(laps)
        keys = [
            (lap.matrix.shape, lap.matrix.tobytes(), None if mask is None else mask.tobytes(),
             _probe_key(probe))
            for lap, mask, probe in zip(laps, masks, probes)
        ]
        missing = {k: args for k, *args in zip(keys, laps, masks, probes) if k not in bases}
        todo = list(missing.values())
        if solve is None:
            got = solve_all(
                [lap for lap, _, _ in todo],
                None if needed is None else [mask for _, mask, _ in todo],
                [probe for _, _, probe in todo] if probed else None,
            )
        else:
            got = []
            for lap, mask, probe in todo:
                keep = probe_mask_oracle(lap, probe)
                got.append(drop_unread_clusters_oracle(
                    solve(lap), keep if mask is None else keep & mask
                ))
        bases.update(zip(missing, got))
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
        def run(*args, **kwargs):
            calls.append(oracle.__name__)
            return oracle(*args, **kwargs)
        return run

    monkeypatch.setattr(codec, "_coarsen_graphs", spy(coarsen_graphs_oracle))
    monkeypatch.setattr(codec, "_eigenbases", spy(eigenbases_oracle))
    return calls


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_distinct_graph_reuse_matches_per_unit_oracles_end_to_end(case, monkeypatch):
    """Coarsening and solving each distinct graph once, and giving the
    closed-form DC basis where it is all a side reads, leaves every stream
    byte and decoded sample as coarsening and solving every unit does."""
    lf, dmap, cfg = ORACLE_CASES[case]()
    data, rec = _round_trip(lf, dmap, cfg)
    calls = _patch_per_unit_oracles(monkeypatch)
    want_data, want_rec = _round_trip(lf, dmap, cfg)
    # the encoder's probed solve, its re-solve of a main in ``small``, the decoder's
    assert calls.count("eigenbases_oracle") == 2 + (case == "small")
    assert ("coarsen_graphs_oracle" in calls) == (case != "partition")
    assert data == want_data
    assert lf_equal(rec, want_rec)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_every_unit_basis_equals_a_lone_solve(case, monkeypatch):
    """Each unit's basis, shared or not, has the bits a lone
    ``eigendecompose(laplacian(graph))`` of its graph gives on
    every column its side reads, on both sides.  The encoder's call holds
    one entry per unit that is not flat (``codec._flat_super_rays``; here
    every unit), the decoder's one per unit that is not flat
    (``codec._flat_units``); on the decoder a member predicted from a
    group's main names that main's graph object and, when the main has an
    entry, gets the main's basis object, so the paper's count, ungrouped
    units plus one main per group, comes from the stage's graph reuse.  A
    side keeps a column for a unit when the decoder's column mask needs
    it, or when the encoder's probe rule (``probe_mask_oracle``) keeps it;
    every encoder unit probes.  A
    shared basis keeps the OR of its units' columns, and a degenerate
    cluster with no kept column is zero.  A distinct graph that takes the
    closed-form DC basis (column 0 of the lone solve, every other column
    and eigenvalue zero and NaN) is connected (flood fill), and its side
    reads nothing past column 0: the decoder's mask needs none of those
    columns (and every connected graph whose mask needs none takes it),
    and on the encoder each of its units' signals has level 0 there under
    the lone solve.  Only the other graphs count as solved.  On the
    encoder, every dropped column of a unit has level 0 in every channel
    under the lone solve, and a main whose dropped column a member
    predicted from it reads is solved again in one more call, whole: in
    ``small`` one main is, and its basis is the lone solve's bit for
    bit.  On ``rgb_all`` every unit's dequantized coefficients, encoder
    signals and decoder reconstruction are one (channels, n) array."""
    lf, dmap, cfg = ORACLE_CASES[case]()
    eigenbases = codec._eigenbases
    solved = []

    def spy(graphs, needed=None, probes=None):
        bases, count = eigenbases(graphs, needed, probes)
        # a copy: the encoder puts its re-solved mains into the list it gets
        solved.append((graphs, needed, probes, list(bases), count))
        return bases, count

    def lone_solve(graph):
        connected = connected_components(graph.n, graph.edges)[1] == 1
        return eigendecompose(laplacian(graph)), connected

    monkeypatch.setattr(codec, "_eigenbases", spy)
    flats = _record_flat_units(monkeypatch)
    stream, enc = encode(lf, dmap, cfg, debug=True)
    _, dec = decode(deserialize(serialize(stream)), debug=True)
    predicted = codec._predicted_members(dec.debug.group_set.groups, dec.debug.groupable)
    want_units = (enc.debug.units, dec.debug.units)
    # the units behind each side's entries, in order
    assert len(flats) == (case != "partition")
    live = np.flatnonzero(~flats[0]).tolist() if flats else list(range(len(dec.debug.units)))
    entries = (list(range(len(enc.debug.units))), live)
    probed, *resolved, masked = solved
    assert len(resolved) == (case == "small")
    assert probed[1] is None and len(probed[2]) == len(want_units[0])
    assert all(p is not None for p in probed[2])
    assert masked[2] is None and len(masked[1]) == len(live)
    assert enc.eig_solved == probed[4] + sum(count for *_, count in resolved)
    if case == "small":
        assert (enc.eig_count, probed[4], enc.eig_solved) == (7, 6, 7)
    mains = {id(enc.debug.units[main].graph) for main in predicted.values()}
    for graphs, needed, probes, bases, count in resolved:
        assert needed is None and probes is None
        assert 0 < len(graphs) == count and {id(g) for g in graphs} <= mains
        for graph, basis in zip(graphs, bases):
            lone, _ = lone_solve(graph)
            assert np.array_equal(basis.eigenvalues, lone.eigenvalues)
            assert np.array_equal(basis.vectors, lone.vectors)
    dropped_levels = 0
    closed_counts = []
    # the unit whose graph and basis each unit reads: on the decoder a
    # member reads its main's
    for (graphs, needed, probes, bases, count), units, order, reads, report in zip(
        (probed, masked), want_units, entries, ({}, predicted), (enc, dec)
    ):
        assert len(order) == len(bases)
        assert report.eig_count == len(units) - len(reads) >= count
        distinct, which = codec._distinct_graphs(graphs)
        lone, connected = zip(*(lone_solve(g) for g in distinct))
        masks = [np.zeros(g.n, dtype=bool) for g in distinct]
        for j, (i, graph) in enumerate(zip(which, graphs)):
            masks[i] |= (
                needed[j] if needed is not None
                else probe_mask_oracle(laplacian(graph), probes[j])
            )
        closed = [np.isnan(bases[which.index(i)].eigenvalues).any() for i in range(len(distinct))]
        assert count == closed.count(False)
        closed_counts.append(closed.count(True))
        for j, (graph, basis, i) in enumerate(zip(graphs, bases, which)):
            read = reads.get(order[j], order[j])
            assert graph is units[read].graph
            if read in order:
                assert basis is bases[order.index(read)]
            if closed[i]:
                assert connected[i]
                want = dc_basis(graph.n)
                assert np.array_equal(basis.vectors[:, 0], lone[i].vectors[:, 0])
                assert np.array_equal(basis.eigenvalues, want.eigenvalues, equal_nan=True)
                assert np.array_equal(basis.vectors, want.vectors)
                kept = np.arange(graph.n) == 0
            else:
                want = drop_unread_clusters_oracle(lone[i], masks[i])
                assert np.array_equal(basis.eigenvalues, want.eigenvalues)
                assert np.array_equal(basis.vectors, want.vectors)
                kept = masks[i]
            if needed is not None:
                assert closed[i] == (connected[i] and not masks[i][1:].any())
            else:
                signals, steps = probes[j]
                for f in signals:
                    levels = codec.quantize(codec.gft(lone[i], f), steps)
                    assert not levels[~kept].any()
                    dropped_levels += int((~kept).sum())
    assert dec.eig_solved == masked[4]
    assert (dropped_levels > 0) == (case != "rgb_all")
    # distinct graphs that take the closed form on the encoder and the
    # decoder; on the decoder, the unit of ``no_grouping`` that takes it is
    # flat and has no entry
    assert tuple(closed_counts) == {
        "explicit": (1, 0), "gate": (0, 0), "no_grouping": (1, 0), "partition": (23, 23),
        "rgb_all": (0, 0), "small": (1, 0),
    }[case]
    if case == "rgb_all":
        for i, u in enumerate(enc.debug.units):
            blocks = (
                enc.debug.dequantized[i], u.signals,
                dec.debug.dequantized[i], dec.debug.reconstructed[i],
            )
            for block in blocks:
                assert isinstance(block, np.ndarray) and block.shape == (3, u.n)


def _main_clusters_read_only_by_members(dec):
    """The (main, first column) of every degenerate cluster of a main's
    basis that the main's own coefficients leave at zero in every channel
    and a member predicted from it reads."""
    deq = dec.debug.dequantized
    found = set()
    predicted = codec._predicted_members(dec.debug.group_set.groups, dec.debug.groupable)
    for member, main in predicted.items():
        if dec.debug.units[main].graph is None:
            # a flat main, coarsened for no member: every member predicted
            # from it is flat and reads column 0 alone, a cluster of its own
            continue
        own = np.any(np.asarray(deq[main]) != 0, axis=0)
        read = np.any(np.asarray(deq[member]) != 0, axis=0)
        vals = eigendecompose(laplacian(dec.debug.units[main].graph)).eigenvalues
        for cluster in cluster_eigenvalues_oracle(vals):
            if len(cluster) > 1 and not own[cluster].any() and read[cluster].any():
                found.add((main, cluster[0]))
    return found


def _no_flat_units(fines, deq, predicted, residuals):
    """``codec._flat_units`` marking no unit flat: every unit is coarsened
    and reads a basis from the eigen stage."""
    return np.zeros(len(deq), dtype=bool)


def _no_flat_super_rays(fines, samples, steps):
    """``codec._flat_super_rays`` marking no unit flat: the encoder
    coarsens every unit and sends it to the eigen stage."""
    return np.zeros(len(samples), dtype=bool)


def _record_flat_units(monkeypatch, rule="_flat_units"):
    """Record the mask of every call of the flat rule ``codec.<rule>``
    (the decoder's, or the encoder's ``_flat_super_rays``), as it runs."""
    flats = []
    flat_units = getattr(codec, rule)

    def recorded(*args):
        flats.append(flat_units(*args))
        return flats[-1]

    monkeypatch.setattr(codec, rule, recorded)
    return flats


_MASK_CASES = [
    *sorted(ORACLE_CASES),
    *(f"bench_{name}_{seed}" for name in ("gate", "parallax", "partition") for seed in (1, 17)),
]


def _mask_case(case):
    """(light field, disparity map, config) of an ``ORACLE_CASES`` name or
    of ``bench_<workload>_<seed>``."""
    if case in ORACLE_CASES:
        return ORACLE_CASES[case]()
    name, seed = case.removeprefix("bench_").split("_")
    workload = bench_workloads()[name]
    return (*workload.scene(int(seed)), workload.config)


def _encoder_and_decoder_groups(lf, dmap, cfg, monkeypatch, blocked):
    """The encoder's and the decoder's debug GroupSet of one round trip;
    with ``blocked`` the grouping pass's pair MSEs, histogram threshold
    and membership raise once encoding is done."""
    stream, enc = encode(lf, dmap, cfg, debug=True)
    data = serialize(stream)

    def derives(*args, **kwargs):
        raise AssertionError("the decoder ran the grouping pass")

    if blocked:
        monkeypatch.setattr(grouping, "pairwise_mse", derives)
        monkeypatch.setattr(grouping, "select_threshold", derives)
        monkeypatch.setattr(codec, "derive_group_members", derives)
    _, dec = decode(deserialize(data), debug=True)
    return enc.debug.group_set, dec.debug.group_set


@pytest.mark.parametrize("case", [*sorted(ORACLE_CASES), "bench_gate_1"])
def test_decoder_derives_no_groups(case, monkeypatch):
    """``decode`` runs no grouping pass: with the pass made to raise,
    every case still decodes to the encoder's groups and ungrouped
    positions, read from the stream.  (The ``parallax`` bench scene is
    ``TestGrouping.test_decoder_group_set_matches_encoder[True]``.)"""
    want, got = _encoder_and_decoder_groups(*_mask_case(case), monkeypatch, blocked=True)
    assert got.groups == want.groups
    assert got.ungrouped == want.ungrouped
    assert bool(want.groups) == (case in ("small", "explicit", "rgb_all", "bench_gate_1"))
    if case == "explicit":
        assert want.ungrouped


@pytest.mark.parametrize("case", _MASK_CASES)
def test_column_masks_keep_decoded_samples(case, monkeypatch):
    """Decoding with the column masks gives the samples of decoding with
    full bases (masks forced to None, and no unit flat, so every unit
    reads a full basis).  In ``small`` grouped members read
    13 clusters of their main's basis that the main's own coefficients
    leave at zero, so a mask taken from the main alone would zero columns
    a member reads."""
    lf, dmap, cfg = _mask_case(case)
    stream = deserialize(serialize(encode(lf, dmap, cfg)[0]))
    rec, dec = decode(stream, debug=True)
    cross = _main_clusters_read_only_by_members(dec)
    assert len(cross) == (13 if case == "small" else 0)
    eigenbases = codec._eigenbases
    masks = []

    def full(graphs, needed=None):
        masks.append(needed)
        return eigenbases(graphs)

    monkeypatch.setattr(codec, "_eigenbases", full)
    monkeypatch.setattr(codec, "_flat_units", _no_flat_units)
    want, _ = decode(stream)
    assert len(masks) == 1 and masks[0] is not None
    assert lf_equal(rec, want)


@pytest.mark.parametrize("case", _MASK_CASES)
def test_encoder_probes_keep_stream_bytes(case, monkeypatch):
    """Encoding with probes (the eigen stage drops the degenerate clusters
    of every unit whose levels must be 0, and a main whose dropped column
    a member reads is solved again, whole) gives the stream bytes of
    encoding with full bases (probes forced to None), which re-solve
    nothing.  The probes never add Gram-Schmidt work and save some
    wherever full bases do any.  Seed 1 leaves the encoder's
    Gram-Schmidt 35 columns in 5 calls on ``partition``, against 1,215
    columns in 81 calls with full bases; none on ``gate``; and 6 columns
    in 2 calls on ``parallax``, against 52 in 3 and 96 in 5.  A flat unit
    (``codec._flat_super_rays``) reaches neither eigen stage."""
    lf, dmap, cfg = _mask_case(case)
    canonical = spectral._canonical_cluster_bases
    columns = []

    def counted(v):
        columns.append(v.shape[0] * v.shape[2])
        return canonical(v)

    monkeypatch.setattr(spectral, "_canonical_cluster_bases", counted)
    data = serialize(encode(lf, dmap, cfg)[0])
    probed = len(columns), sum(columns)
    eigenbases = codec._eigenbases
    seen = []

    def full(graphs, needed=None, probes=None):
        seen.append(probes)
        return eigenbases(graphs, needed)

    monkeypatch.setattr(codec, "_eigenbases", full)
    columns.clear()
    assert serialize(encode(lf, dmap, cfg)[0]) == data
    (probes,) = seen
    assert all(p is not None for p in probes)
    assert sum(columns) >= probed[1] and (sum(columns) > probed[1]) == (sum(columns) > 0)
    counts = {
        "bench_partition_1": ((5, 35), (81, 1215)),
        "bench_gate_1": ((0, 0), (3, 52)),
        "bench_parallax_1": ((2, 6), (5, 96)),
    }
    if case in counts:
        assert (probed, (len(columns), sum(columns))) == counts[case]


@pytest.mark.parametrize("case", [
    *sorted(ORACLE_CASES),
    *(f"bench_{name}_{seed}" for name in ("gate", "parallax", "partition") for seed in (1, 5)),
])
def test_closed_form_dc_keeps_bytes_and_samples(case, monkeypatch):
    """Encoding and decoding with the closed-form DC basis give the stream
    bytes and the decoded samples of solving every distinct graph
    (``dc_only`` patched to pass none), on each side with no more LAPACK
    solves; on every bench scene the encoder skips some.  The decoder
    skips some on ``partition`` only: on ``gate`` and ``parallax`` every
    unit that reads only its DC coefficient is flat and never reaches the
    eigen stage."""
    lf, dmap, cfg = _mask_case(case)

    def round_trip():
        stream, enc = encode(lf, dmap, cfg)
        data = serialize(stream)
        rec, dec = decode(deserialize(data))
        return data, rec, (enc.eig_solved, dec.eig_solved)

    data, rec, solved = round_trip()
    monkeypatch.setattr(codec, "dc_only", lambda graphs, needed=None, probes=None:
                        np.zeros(len(graphs), dtype=bool))
    want_data, want_rec, want_solved = round_trip()
    assert data == want_data
    assert lf_equal(rec, want_rec)
    assert solved[0] <= want_solved[0] and solved[1] <= want_solved[1]
    if case.startswith("bench_"):
        assert solved[0] < want_solved[0]
        assert (solved[1] < want_solved[1]) == case.startswith("bench_partition")


@pytest.mark.parametrize("case", [
    *sorted(ORACLE_CASES),
    *(f"bench_{name}_{seed}" for name in ("gate", "parallax", "partition")
      for seed in (1, 5, 17, 23)),
])
def test_flat_units_keep_samples_and_counts(case, monkeypatch):
    """Decoding flat units without coarsening or an eigen-stage entry gives
    the samples, ``eig_count`` and ``eig_solved`` of coarsening and solving
    every unit (``_flat_units`` patched to mark none flat), and coarsens
    no more pixel graphs.  Only coarse mode asks for flat units: at seed
    1, 12 of the 16 units of ``gate`` are flat and 6 of the 9 of
    ``parallax``."""
    lf, dmap, cfg = _mask_case(case)
    stream = deserialize(serialize(encode(lf, dmap, cfg)[0]))
    flats = _record_flat_units(monkeypatch)
    rec, dec = decode(stream)
    monkeypatch.setattr(codec, "_flat_units", _no_flat_units)
    want, full = decode(stream)
    assert lf_equal(rec, want)
    assert (dec.eig_count, dec.eig_solved) == (full.eig_count, full.eig_solved)
    assert dec.coarsened <= full.coarsened
    assert len(flats) == (cfg.q_gft >= cfg.q_switch)
    shares = {"bench_gate_1": (12, 16), "bench_parallax_1": (6, 9)}
    if case in shares:
        (flat,) = flats
        assert (int(flat.sum()), flat.size) == shares[case]
        assert dec.coarsened < full.coarsened


def test_flat_rule_reads_the_basis_graph_and_the_residual():
    """A unit that reads only its DC coefficient is flat when the pixel
    graph of the basis it reads is connected and, for a grouped member,
    its residual is one value per channel.  On a graph of two components
    the eigen stage gives component indicators, not the constant column,
    so such a unit is not flat, nor is a member that reads that graph as
    its main's, nor a member whose residual varies."""
    path = LocalGraph(n=4, edges=np.array([[0, 1], [1, 2], [2, 3]], dtype=np.int64))
    halves = LocalGraph(n=4, edges=np.array([[0, 1], [2, 3]], dtype=np.int64))
    dc = np.array([[8.0, 0.0, 0.0, 0.0], [-3.0, 0.0, 0.0, 0.0]])
    ac = np.array([[8.0, 0.0, 16.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    fines = [path, halves, path, path, path, path]
    deq = [dc, dc, dc, dc, dc, ac]
    # members: 2 reads the two-component graph of 1, 3 and 4 the path of 0
    predicted = {2: 1, 3: 0, 4: 0}
    residuals = {
        2: np.zeros((2, 4), dtype=np.int64),
        3: np.array([[2, 2, 2, 2], [-1, -1, -1, -1]]),
        4: np.array([[2, 2, 2, 3], [0, 0, 0, 0]]),
    }
    flat = codec._flat_units(fines, deq, predicted, residuals)
    assert flat.tolist() == [True, False, False, True, False, False]


@pytest.mark.parametrize("case", [
    *sorted(ORACLE_CASES),
    *(f"bench_{name}_{seed}" for name in ("gate", "parallax", "partition")
      for seed in (1, 5, 17, 23)),
])
def test_encoder_flat_units_keep_stream_bytes(case, monkeypatch):
    """Encoding flat super-rays without coarsening, a coarse mean or an
    eigen-stage entry gives the stream bytes, ``eig_count`` and
    ``eig_solved`` of coarsening and solving every unit
    (``_flat_super_rays`` patched to mark none flat), and coarsens no more
    pixel graphs.  A flat unit has no graph and one value per channel.
    Only coarse mode asks for flat units: at seed 1, as on the decoder, 12
    of the 16 units of ``gate`` are flat and 6 of the 9 of ``parallax``."""
    lf, dmap, cfg = _mask_case(case)
    flats = _record_flat_units(monkeypatch, "_flat_super_rays")
    stream, enc = encode(lf, dmap, cfg, debug=True)
    monkeypatch.setattr(codec, "_flat_super_rays", _no_flat_super_rays)
    want, full = encode(lf, dmap, cfg)
    assert serialize(stream) == serialize(want)
    assert (enc.eig_count, enc.eig_solved) == (full.eig_count, full.eig_solved)
    assert enc.coarsened <= full.coarsened
    assert len(flats) == (cfg.q_gft >= cfg.q_switch)
    for flat in flats:
        for u, f in zip(enc.debug.units, flat.tolist()):
            # no member reads a flat main past its DC column here
            assert (u.graph is None) == (u.fine_to_coarse is None) == f
            if f:
                assert (u.signals == u.signals[:, :1]).all()
    shares = {"bench_gate_1": (12, 16), "bench_parallax_1": (6, 9)}
    if case in shares:
        (flat,) = flats
        assert (int(flat.sum()), flat.size) == shares[case]
        assert enc.coarsened < full.coarsened


def _constant_scene(value=100):
    """A 3x3-view, 16x16 light field of one sample value, at disparity 0."""
    return make_lf([np.full((16, 16), value)] * 9, (3, 3)), DisparityMap(values=np.zeros((16, 16)))


@pytest.mark.parametrize("q_gft, flat", [(1e-3, True), (1e-6, False)])
def test_encoder_flat_rule_holds_the_probe_bound(q_gft, flat, monkeypatch):
    """A constant super-ray over a connected pixel graph is flat only where
    ``dc_only``'s probe bound holds: with the value 100 on 64 vertices its
    absolute margin is 1.1e-8 * 800 = 8.8e-6, below half of q_gft = 1e-3
    but not of 1e-6 (coarse mode at q_switch = 0), where every unit is
    coarsened.  The bytes are those of coarsening every unit, and the
    scene decodes exactly."""
    lf, dmap = _constant_scene()
    cfg = CodecConfig(q_gft=q_gft, q_switch=0, slic_k=4, n_target=64)
    stream, enc = encode(lf, dmap, cfg, debug=True)
    assert len(enc.debug.units) == 4
    assert all((u.graph is None) == flat and u.n == 64 for u in enc.debug.units)
    data = serialize(stream)
    monkeypatch.setattr(codec, "_flat_super_rays", _no_flat_super_rays)
    want, full = encode(lf, dmap, cfg)
    assert serialize(want) == data
    assert enc.coarsened == (0 if flat else full.coarsened) and full.coarsened
    assert lf_equal(decode(deserialize(data))[0], lf)


def test_disconnected_constant_super_ray_is_coarsened(monkeypatch):
    """A constant super-ray whose pixel graph is disconnected is not flat:
    its coarse graph may keep the components apart, whose solved basis
    spreads the constant over their indicators.  With one vertex of the
    first unit's pixel graph cut loose (on both sides), that unit alone is
    coarsened, on each side, and the bytes are those of coarsening every
    unit."""
    lf, dmap = _constant_scene()
    cfg = CodecConfig(slic_k=4, n_target=64, grouping=False)
    split = codec.split_graph

    def cut(union, srs):
        graphs = split(union, srs)
        g = graphs[0]
        graphs[0] = LocalGraph(n=g.n, edges=g.edges[(g.edges != g.n - 1).all(axis=1)])
        return graphs

    monkeypatch.setattr(codec, "split_graph", cut)
    stream, enc = encode(lf, dmap, cfg, debug=True)
    assert [u.graph is None for u in enc.debug.units] == [False, True, True, True]
    data = serialize(stream)
    _, dec = decode(deserialize(data))
    assert enc.coarsened == dec.coarsened == 1
    monkeypatch.setattr(codec, "_flat_super_rays", _no_flat_super_rays)
    assert serialize(encode(lf, dmap, cfg)[0]) == data


def test_flat_main_read_past_dc_is_coarsened_late(monkeypatch):
    """A flat main that a member which is not flat reads past column 0 has
    its pixel graph built again and coarsened once grouping has chosen it,
    and is solved again, whole: on a
    flat background with two gradient patches the background group holds
    both, and ``select_main`` is made to pick a flat member.  The bytes
    are those of coarsening every unit, and every member decodes to its
    coded signals."""
    spec = SceneSpec(angular_dims=(3, 3), spatial_dims=(32, 32), background=64, seed=1)
    for x0, y0 in ((0, 0), (24, 24)):
        spec.patches.append(Patch(shape="rect", params=(x0, y0, 8, 8), disparity=0.0,
                                  texture=("gradient", 64.0, 2.0, -1.0)))
    lf, dmap = synthesize_light_field(spec)
    cfg = CodecConfig(q_gft=8.0, q_switch=0, slic_k=16, n_target=64)
    select_main = codec.select_main

    def flat_main(members, signals):
        flat = [p for p in members if (signals[p] == signals[p][0]).all()]
        return flat[0] if flat else select_main(members, signals)

    coarsen_graphs = codec._coarsen_graphs
    coarsened = []

    def recorded(fines, n_target):
        coarsened.append(fines)
        return coarsen_graphs(fines, n_target)

    monkeypatch.setattr(codec, "select_main", flat_main)
    monkeypatch.setattr(codec, "_coarsen_graphs", recorded)
    stream, enc = encode(lf, dmap, cfg, debug=True)
    units, deq = enc.debug.units, enc.debug.dequantized
    predicted = codec._predicted_members(enc.debug.group_set.groups, enc.debug.groupable)
    late = [
        main for member, main in predicted.items()
        if (units[main].signals == units[main].signals[:, :1]).all()
        and units[member].graph is not None and deq[member][:, 1:].any()
    ]
    # the encoder's two calls: the units that are not flat, then the late main
    assert len(coarsened) == 2 and late and len(coarsened[1]) == len(set(late)) == 1
    assert units[late[0]].graph is not None and units[late[0]].fine_to_coarse is not None
    data = serialize(stream)
    _, dec = decode(deserialize(data), debug=True)
    for member in predicted:
        assert np.array_equal(dec.debug.reconstructed[member], units[member].signals)
    monkeypatch.setattr(codec, "_flat_super_rays", _no_flat_super_rays)
    want, full = encode(lf, dmap, cfg)
    assert serialize(want) == data
    assert (enc.eig_count, enc.eig_solved) == (full.eig_count, full.eig_solved)


def test_corrupt_sections_fail_before_any_coarsening(monkeypatch):
    """Every section is read before the decoder coarsens: a stream with a
    corrupt coefficient, groups or residual section fails with
    CorruptStreamError while coarsening raises."""
    lf, dmap = small_scene()
    stream, report = encode(lf, dmap, CFG, debug=True)
    assert report.group_count and report.coarsened_count == report.unit_count
    m = len(report.debug.groupable)
    sizes = codec._vector_sizes([u.n for u in report.debug.units], stream.header.channels)

    def section(sid):
        count, payload = unpack_section(stream.sections[sid], sid)
        head = sizes.size if sid == SEC_COEFFICIENTS else 0
        return count, entropy_decode(payload, count, SECTION_CONTEXTS[sid], head)

    def rewritten(sid, syms, count=None):
        head = sizes.size if sid == SEC_COEFFICIENTS else 0
        body = entropy_encode(list(syms), SECTION_CONTEXTS[sid], head)
        sections = {**stream.sections, sid: pack_section(
            len(syms) if count is None else count, body)}
        return Bitstream(header=stream.header, sections=sections)

    coeff_count, coeffs = section(SEC_COEFFICIENTS)
    wide = coeffs.copy()
    wide[0] = sizes[0] + 1  # an extent past its vector
    _, labels = section(SEC_GROUPS)
    wrong = labels.copy()
    wrong[0] = m // 2 + 1  # a group number past any m labels can hold
    resid_count, resid = section(SEC_RESIDUALS)
    assert resid_count
    broken = [
        rewritten(SEC_COEFFICIENTS, wide, coeff_count),
        rewritten(SEC_GROUPS, wrong),
        rewritten(SEC_RESIDUALS, [*resid, 0]),  # one symbol more than the members hold
        Bitstream(header=stream.header, sections={
            k: v for k, v in stream.sections.items() if k != SEC_RESIDUALS
        }),
    ]

    def coarsened(*args):
        raise AssertionError("the decoder coarsened before reading every section")

    monkeypatch.setattr(codec, "coarsen", coarsened)
    with pytest.raises(AssertionError, match="coarsened"):
        decode(stream)
    for bad in broken:
        with pytest.raises(CorruptStreamError):
            decode(bad)


@pytest.mark.parametrize("case", [
    *sorted(ORACLE_CASES),
    *(f"bench_{name}_{seed}" for name in ("gate", "parallax", "partition") for seed in (1, 5)),
])
def test_spectrum_rule_on_solved_graphs(case, monkeypatch):
    """Every distinct graph that either side sends to LAPACK, the graphs
    ``codec.laplacian`` is called on, meets ``assert_spectrum_rule``: its
    solved column 0 is ``dc_basis``'s exactly when it is connected."""
    lf, dmap, cfg = _mask_case(case)
    graphs = []

    def recorded(g):
        graphs.append(g)
        return laplacian(g)

    monkeypatch.setattr(codec, "laplacian", recorded)
    decode(deserialize(serialize(encode(lf, dmap, cfg)[0])))
    distinct, _ = codec._distinct_graphs(graphs)
    assert distinct
    for g in distinct:
        assert_spectrum_rule(g)


@pytest.mark.parametrize("name, counts, solved, coarsened", [
    ("gate", (16, 2), (1, 1), 1),
    ("parallax", (9, 5), (3, 3), 3),
    ("partition", (129, 129), (22, 22), 0),
])
def test_distinct_graphs_on_bench_scenes(name, counts, solved, coarsened, monkeypatch):
    """On the bench scenes (seed 1) units repeat whole graphs: each side
    coarsens only the distinct ones that its units that are not flat read
    (``coarsened`` on each side; 12 of the 16 units of ``gate`` are flat
    on both, 6 of the 9 of ``parallax``), and each side sends to LAPACK
    only the distinct graphs that do not take the closed-form DC basis
    (of 1, 3 and 58 distinct graphs that reach each side's eigen stage),
    ``eig_count`` stays the
    paper's count, and the bytes and samples are those of the per-unit
    stages, which solve every unit."""
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
    # the encoder coarsens what the decoder does
    assert enc.coarsened == dec.coarsened == coarsened
    assert len(coarsenings) == 2 * coarsened
    assert f"eig_solved_encoder={solved[0]}" in enc.to_lines()
    assert f"eig_solved_decoder={solved[1]}" in dec.to_lines()
    assert f"coarsened_encoder={coarsened}" in enc.to_lines()
    assert f"coarsened_decoder={coarsened}" in dec.to_lines()
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
    oracle patched into the encoder's grouping pass, the only one."""
    lf, dmap, cfg = ORACLE_CASES[case]()
    solved = _solve_once(monkeypatch)
    data, rec = _round_trip(lf, dmap, cfg)
    calls = []

    def oracle(coeffs, bin_width):
        calls.append(len(coeffs))
        return derive_group_members_oracle(coeffs, bin_width)

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
    """On both sides, each unit's ``pixels`` is the ``pixels`` array of
    the super-ray or part its graph was built from, one row per vertex of
    that graph, and the rows
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
            assert u.pixels is sr.pixels and g.n == sr.total_pixels
            if u.graph is None:
                # a flat unit: sized from its pixel graph, never coarsened
                assert u.fine_to_coarse is None
                assert u.n == min(cfg.n_target, g.n) and cfg.q_gft >= cfg.q_switch
                if report is enc:
                    assert (u.signals == u.signals[:, :1]).all()
            elif u.fine_to_coarse is None:
                assert u.graph is g
            else:
                assert u.fine_to_coarse.shape == (g.n,)
    for seg, disparities, rays in assembled:
        want = assemble_super_rays_oracle(seg, disparities)
        assert len(rays) == len(want) == seg.label_count
        for got, oracle in zip(rays, want):
            assert got.disparity == oracle.disparity
            assert got.pixels.dtype == oracle.pixels.dtype == np.int64
            assert np.array_equal(got.pixels, oracle.pixels)


@pytest.mark.parametrize("case", ["gate", "small"])
def test_coarse_units_free_their_pixel_graphs(case, monkeypatch):
    """A coarsened unit keeps its coarse graph, its pixel rows and
    ``fine_to_coarse``, not the pixel graph it was coarsened from: every
    graph ``split_graph`` hands out is garbage once ``encode`` or
    ``decode`` returns, though the debug reports still hold the units."""
    lf, dmap, cfg = ORACLE_CASES[case]()
    assert cfg.q_gft >= cfg.q_switch  # coarse mode
    split = codec.split_graph
    graphs = []

    def tracked(union, srs):
        out = split(union, srs)
        graphs.extend(weakref.ref(g) for g in out)
        return out

    def check(report):
        gc.collect()
        assert len(graphs) == len(report.debug.units) > 0
        assert sum(ref() is not None for ref in graphs) == 0
        graphs.clear()

    monkeypatch.setattr(codec, "split_graph", tracked)
    stream, enc = encode(lf, dmap, cfg, debug=True)
    check(enc)
    check(decode(stream, debug=True)[1])
