"""Metrics and the RD sweep harness."""

import dataclasses
import math

import numpy as np
import pytest

from srgc.bench import CSV_COLUMNS, bpp, psnr, rd_sweep, render_csv
from srgc.codec import CodecConfig, EncodeReport, decode, encode
from srgc.lightfield import Patch, SceneSpec, synthesize_light_field

from conftest import grouping_ratios, make_lf, random_lf


class TestPsnr:
    def test_identical_is_inf(self):
        lf = random_lf(2, 2, 8, 8, seed=40)
        assert psnr(lf, lf) == math.inf

    def test_uniform_unit_error_8bit(self):
        a = make_lf([np.full((10, 10), 100)] * 4, (2, 2))
        b = make_lf([np.full((10, 10), 101)] * 4, (2, 2))
        assert psnr(a, b) == pytest.approx(10 * math.log10(255**2), abs=1e-3)
        assert psnr(a, b) == pytest.approx(48.1308, abs=1e-3)

    def test_10bit_mse4(self):
        a = make_lf([np.full((8, 8), 500)] * 2, (1, 2), bit_depth=10)
        b = make_lf([np.full((8, 8), 502)] * 2, (1, 2), bit_depth=10)
        assert psnr(a, b) == pytest.approx(10 * math.log10(1023**2 / 4), abs=1e-3)
        assert psnr(a, b) == pytest.approx(54.1769, abs=1e-3)

    def test_16bit_sum_past_float_precision(self):
        """A squared-error sum past 2**53 is summed exactly: per-view float
        sums added in float64 would round it, and here that rounding moves
        the PSNR."""
        rng = np.random.default_rng(2)
        shape = (1200, 1000)
        a = [rng.integers(0, 4096, size=shape) for _ in range(2)]
        per_view = [sum((x - 65535) ** 2 for x in v.ravel().tolist()) for v in a]
        sq, n = sum(per_view), 2 * a[0].size
        assert sq > 2**53 and float(per_view[0]) + float(per_view[1]) != sq
        got = psnr(
            make_lf(a, (1, 2), bit_depth=16),
            make_lf([np.full(shape, 65535)] * 2, (1, 2), bit_depth=16),
        )
        assert got == 10 * math.log10(65535**2 / (sq / n))

    def test_symmetry(self):
        a = random_lf(2, 2, 8, 8, seed=41)
        b = random_lf(2, 2, 8, 8, seed=42)
        assert psnr(a, b) == psnr(b, a)

    def test_dim_mismatch(self):
        a = random_lf(2, 2, 8, 8)
        b = random_lf(2, 2, 9, 8)
        with pytest.raises(ValueError):
            psnr(a, b)


class _FakeStream:
    def __init__(self, n):
        self._n = n


class TestBpp:
    def test_arithmetic(self, monkeypatch):
        import srgc.bench as bench_mod

        monkeypatch.setattr(bench_mod, "serialize", lambda s: b"x" * 1000)
        assert bench_mod.bpp(object(), ((2, 2), (50, 40))) == pytest.approx(1.0)

    def test_doubling(self, monkeypatch):
        import srgc.bench as bench_mod

        sizes = {"a": 500, "b": 1000}
        monkeypatch.setattr(bench_mod, "serialize", lambda s: b"x" * sizes[s])
        dims = ((2, 2), (50, 40))
        assert bench_mod.bpp("b", dims) == pytest.approx(2 * bench_mod.bpp("a", dims))


class TestGroupingRatios:
    def test_known_ratio_quotients(self):
        rep = EncodeReport(grouped_count=1026, coarsened_count=1252, unit_count=4390)
        c, o = grouping_ratios(rep)
        assert round(c, 2) == 0.82
        assert round(o, 2) == 0.23

    def test_sideboard_ratio(self):
        rep = EncodeReport(grouped_count=418, coarsened_count=853, unit_count=5993)
        c, _ = grouping_ratios(rep)
        assert round(c, 2) == 0.49

    def test_zero_grouped(self):
        rep = EncodeReport(grouped_count=0, coarsened_count=10, unit_count=20)
        assert grouping_ratios(rep) == (0.0, 0.0)

    def test_ratio_ordering(self):
        rep = EncodeReport(grouped_count=5, coarsened_count=8, unit_count=30)
        c, o = grouping_ratios(rep)
        assert 0.0 <= o <= c <= 1.0


def _sweep_scene():
    spec = SceneSpec(angular_dims=(2, 2), spatial_dims=(24, 24), background=80, seed=2)
    spec.patches.append(
        Patch(shape="rect", params=(3, 3, 10, 10), disparity=0.5, texture=("noise", 60, 200, 9))
    )
    return synthesize_light_field(spec)


class TestRdSweep:
    def test_single_q_single_row(self):
        lf, dmap = _sweep_scene()
        cfg = CodecConfig(slic_k=4, n_target=64, max_vertices=128)
        rows, csv_text = rd_sweep(lf, dmap, [16.0], cfg)
        assert len(rows) == 1
        lines = csv_text.strip().splitlines()
        assert lines[0] == CSV_COLUMNS
        assert len(lines) == 2

    @pytest.mark.parametrize("q_gft", [2.0, 16.0])
    def test_eig_columns_are_the_reports(self, q_gft):
        """Each point's eigendecomposition columns, in both modes, are
        the reports' counts of one encode and decode at its q_gft: the
        paper's and the LAPACK solves behind them."""
        lf, dmap = _sweep_scene()
        cfg = CodecConfig(slic_k=4, n_target=64, max_vertices=128)
        (row,), csv_text = rd_sweep(lf, dmap, [q_gft], cfg)
        stream, enc = encode(lf, dmap, dataclasses.replace(cfg, q_gft=q_gft))
        _, dec = decode(stream)
        got = (row.eig_enc, row.eig_dec, row.eig_solved_enc, row.eig_solved_dec)
        assert got == (enc.eig_count, dec.eig_count, enc.eig_solved, dec.eig_solved)
        assert 0 < row.eig_solved_dec <= row.eig_dec
        header, values = (line.split(",") for line in csv_text.strip().splitlines())
        assert [int(values[header.index(k)]) for k in (
            "eig_enc", "eig_dec", "eig_solved_enc", "eig_solved_dec"
        )] == list(got)

    def test_monotonic_rate_quality(self):
        lf, dmap = _sweep_scene()
        cfg = CodecConfig(slic_k=4, n_target=64, max_vertices=128)
        rows, _ = rd_sweep(lf, dmap, [64.0, 32.0, 16.0], cfg)
        bpps = [r.bpp for r in rows]
        psnrs = [r.psnr_y for r in rows]
        assert bpps == sorted(bpps)
        assert psnrs == sorted(psnrs)

    def test_grouping_vs_baseline_tradeoff(self):
        lf, dmap = _sweep_scene()
        base = CodecConfig(slic_k=4, n_target=64, max_vertices=128, q_gft=16.0)
        no_group = dataclasses.replace(base, grouping=False)
        rows_g, _ = rd_sweep(lf, dmap, [16.0], base)
        rows_n, _ = rd_sweep(lf, dmap, [16.0], no_group)
        assert rows_g[0].bpp >= rows_n[0].bpp
        if rows_g[0].groups >= 1:
            assert rows_g[0].eig_dec < rows_n[0].eig_dec
        assert rows_g[0].psnr_y >= rows_n[0].psnr_y - 0.05

    def test_constant_cheaper_than_noise(self):
        from srgc.lightfield import DisparityMap

        flat = SceneSpec(angular_dims=(2, 2), spatial_dims=(24, 24), background=80)
        lf_flat, dmap_flat = synthesize_light_field(flat)
        lf_noise = random_lf(2, 2, 24, 24, seed=50)
        dmap_noise = DisparityMap(values=np.zeros((24, 24)))
        # partition mode codes fine signals directly, so content dominates
        cfg = CodecConfig(slic_k=4, n_target=64, q_gft=2.0, max_vertices=128)
        s_flat, _ = encode(lf_flat, dmap_flat, cfg)
        s_noise, _ = encode(lf_noise, dmap_noise, cfg)
        dims = ((2, 2), (24, 24))
        assert bpp(s_flat, dims) < bpp(s_noise, dims)

    def test_inf_serialized_in_csv(self):
        from srgc.bench import RDPoint

        kwargs = {k: 1.0 for k in CSV_COLUMNS.split(",")}
        kwargs["psnr_y"] = math.inf
        text = render_csv([RDPoint(**kwargs)])
        assert ",inf," in text.splitlines()[1] or text.splitlines()[1].endswith("inf")

    def test_empty_q_list(self):
        lf, dmap = _sweep_scene()
        with pytest.raises(ValueError):
            rd_sweep(lf, dmap, [], CodecConfig())
