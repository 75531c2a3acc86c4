"""CLI contract: subcommands, exit codes, reports, determinism."""

import dataclasses
import struct

import numpy as np
import pytest

from srgc.bitstream import Bitstream, serialize
from srgc.cli import main
from srgc.codec import CodecConfig, encode
from srgc.lightfield import DisparityMap, load_light_field

from conftest import four_patch_scene, lf_equal, random_lf

SCENE = """
angular 3 3
spatial 32 32
bitdepth 8
background 90
seed 4
patch rect 2 2 12 12 0.5 noise 40 210 8
patch rect 18 18 12 12 0.5 noise 40 210 8
"""


@pytest.fixture
def scene_dir(tmp_path):
    spec = tmp_path / "scene.txt"
    spec.write_text(SCENE)
    out = tmp_path / "lf"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    return out


def _report_dict(path):
    out = {}
    for line in path.read_text().splitlines():
        k, v = line.split("=", 1)
        out[k] = v
    return out


class TestPipeline:
    def test_synth_encode_decode(self, scene_dir, tmp_path):
        stream = tmp_path / "a.srgc"
        rec = tmp_path / "rec"
        code = main(
            [
                "encode", str(scene_dir),
                "--disparity", str(scene_dir / "gt.lfdm"),
                "--q-gft", "8", "--slic-k", "8", "--n-target", "128",
                "--out", str(stream),
            ]
        )
        assert code == 0 and stream.exists()
        assert main(["decode", str(stream), "--out", str(rec)]) == 0
        loaded = load_light_field(rec)
        assert loaded.spatial_dims == (32, 32)

    def test_views_one_pixel_high_exit_0(self, tmp_path):
        spec = tmp_path / "thin.txt"
        spec.write_text(
            "angular 2 2\nspatial 40 1\nbitdepth 8\nbackground 90\nseed 4\n"
            "patch rect 3 0 10 1 0.0 noise 40 210 8\n"
        )
        lf = tmp_path / "lf"
        assert main(["synth", "--spec", str(spec), "--out", str(lf)]) == 0
        stream = tmp_path / "a.srgc"
        assert main([
            "encode", str(lf), "--disparity", str(lf / "gt.lfdm"),
            "--slic-k", "4", "--n-target", "8", "--out", str(stream),
        ]) == 0
        assert main(["decode", str(stream), "--out", str(tmp_path / "rec")]) == 0
        assert load_light_field(tmp_path / "rec").spatial_dims == (40, 1)

    def test_missing_input_dir_exit_2(self, tmp_path, capsys):
        code = main(
            [
                "encode", str(tmp_path / "nope"),
                "--disparity", str(tmp_path / "gt.lfdm"),
                "--out", str(tmp_path / "a.srgc"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.strip()

    @pytest.mark.parametrize("command", ["decode", "analyze", "config", "spec", "disparity"])
    def test_directory_path_exit_2(self, command, scene_dir, tmp_path, capsys):
        """A directory where a file is read is a data error (exit 2), not an
        internal one: a stream to decode or analyze, a config file, a
        scene spec or a disparity map."""
        folder = tmp_path / "folder"
        folder.mkdir()
        encode = [
            "encode", str(scene_dir), "--disparity", str(scene_dir / "gt.lfdm"),
            "--out", str(tmp_path / "a.srgc"),
        ]
        argv = {
            "decode": ["decode", str(folder), "--out", str(tmp_path / "rec")],
            "analyze": ["analyze", str(folder)],
            "config": [*encode, "--config", str(folder)],
            "spec": ["synth", "--spec", str(folder), "--out", str(tmp_path / "o")],
            "disparity": [*encode[:3], str(folder), *encode[4:]],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Is a directory" in err and "internal error" not in err

    @pytest.mark.parametrize("target", ["disparity", "view"])
    def test_oversized_input_header_exit_2(self, scene_dir, tmp_path, capsys, target):
        """A disparity map of (2**32 - 1)**2 values or a view of
        99999999999**2 samples, declared in a header that its file does not
        back, is a truncated input (exit 2) and is never allocated."""
        disparity = scene_dir / "gt.lfdm"
        if target == "disparity":
            disparity = tmp_path / "big.lfdm"
            disparity.write_bytes(
                b"LFDM" + np.array([2**32 - 1] * 2 + [0], dtype="<u4").tobytes()
            )
        else:
            (scene_dir / "view_00_00.pgm").write_bytes(b"P5 99999999999 99999999999 255\n\0")
        code = main([
            "encode", str(scene_dir), "--disparity", str(disparity),
            "--out", str(tmp_path / "a.srgc"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "truncated" in err and "internal error" not in err

    def test_bad_pnm_header_exit_2(self, scene_dir, tmp_path, capsys):
        """A view whose header holds a width, height or maxval that is not
        a positive decimal integer is a data error naming the file."""
        (scene_dir / "view_00_00.pgm").write_bytes(b"P5 -1 -1 255\n" + bytes(64))
        code = main([
            "encode", str(scene_dir), "--disparity", str(scene_dir / "gt.lfdm"),
            "--out", str(tmp_path / "a.srgc"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "view_00_00.pgm: PNM" in err and "internal error" not in err

    def test_zero_view_grid_stream_exit_2(self, tmp_path, capsys):
        stream, _ = encode(random_lf(2, 2, 8, 8, seed=5),
                           DisparityMap(values=np.zeros((8, 8))),
                           CodecConfig(slic_k=4, n_target=8))
        header = dataclasses.replace(stream.header, angular_dims=(0, 2))
        path = tmp_path / "s0.srgc"
        path.write_bytes(serialize(Bitstream(header=header, sections=stream.sections)))
        assert main(["decode", str(path), "--out", str(tmp_path / "rec")]) == 2
        assert "internal error" not in capsys.readouterr().err

    def test_unknown_flag_exit_1(self, capsys):
        assert main(["encode", "x", "--bogus"]) == 1

    def test_missing_subcommand_exit_1(self):
        assert main([]) == 1

    @pytest.mark.parametrize("flag", ["--n-target"])
    def test_u32_overflow_exit_2_without_output(self, scene_dir, tmp_path, capsys, flag):
        out = tmp_path / "a.srgc"
        code = main([
            "encode", str(scene_dir), "--disparity", str(scene_dir / "gt.lfdm"),
            flag, str(2**32), "--out", str(out),
        ])
        assert code == 2 and not out.exists()
        assert "32 bits" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--max-vertices", "--q-switch"])
    def test_encoder_only_flags_unbounded(self, scene_dir, tmp_path, flag):
        out = tmp_path / "a.srgc"
        assert main([
            "encode", str(scene_dir), "--disparity", str(scene_dir / "gt.lfdm"),
            "--q-gft", "8", "--slic-k", "8", flag, str(2**32), "--out", str(out),
        ]) == 0
        assert main(["decode", str(out), "--out", str(tmp_path / "rec")]) == 0

    def test_unknown_header_flag_bits_exit_2(self, tmp_path, capsys):
        stream, _ = encode(*four_patch_scene(32, 3), CodecConfig(slic_k=16, n_target=64))
        data = bytearray(serialize(stream))
        data[5 + struct.calcsize("<HHIIBB")] = 0xF9
        path = tmp_path / "flags.srgc"
        path.write_bytes(bytes(data))
        assert main(["decode", str(path), "--out", str(tmp_path / "rec")]) == 2
        assert main(["analyze", str(path)]) == 2
        assert "flags" in capsys.readouterr().err

    def test_bad_scene_spec_exit_2(self, tmp_path):
        spec = tmp_path / "bad.txt"
        spec.write_text("patch blob 0 0 1 1 0 const 3")
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("patch", [
        "rect 0 0 inf 4 0 const 10",
        "rect 0 0 4 4 0 gradient nan 1 1",
        "ellipse 4 4 0 2 0 const 10",
        "rect 0 0 4 4 0 noise 200 100",
        "rect 0 0 4 4 nan const 10",
        "rect 0 0 4 4 0 noise 300 400",
        "rect 0 0 0.5 4 0 const 200",
        "rect 0 0 2.7 4 0 const 200",
    ])
    def test_undrawable_patch_exit_2(self, patch, tmp_path, capsys):
        spec = tmp_path / "bad.txt"
        spec.write_text(f"spatial 16 16\npatch {patch}\n")
        out = tmp_path / "o"
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
        assert "internal" not in capsys.readouterr().err and not out.exists()


class TestGroupingFlag:
    def test_no_grouping_vs_default_eig_counts(self, scene_dir, tmp_path):
        common = [
            "encode", str(scene_dir),
            "--disparity", str(scene_dir / "gt.lfdm"),
            "--q-gft", "16", "--slic-k", "8", "--n-target", "128",
        ]
        rep_g = tmp_path / "g.txt"
        rep_n = tmp_path / "n.txt"
        assert main(common + ["--out", str(tmp_path / "g.srgc"), "--report", str(rep_g)]) == 0
        assert main(
            common + ["--no-grouping", "--out", str(tmp_path / "n.srgc"), "--report", str(rep_n)]
        ) == 0
        drep_g = tmp_path / "dg.txt"
        drep_n = tmp_path / "dn.txt"
        assert main(["decode", str(tmp_path / "g.srgc"), "--out", str(tmp_path / "rg"),
                     "--report", str(drep_g)]) == 0
        assert main(["decode", str(tmp_path / "n.srgc"), "--out", str(tmp_path / "rn"),
                     "--report", str(drep_n)]) == 0
        enc_g = _report_dict(rep_g)
        dec_g = _report_dict(drep_g)
        dec_n = _report_dict(drep_n)
        if int(enc_g["groups"]) >= 1:
            assert int(dec_g["eig_decoder"]) < int(dec_n["eig_decoder"])

    def test_grouped_psnr_not_worse(self, scene_dir, tmp_path):
        """Exact member residuals make grouped reconstruction at least as
        good."""
        from srgc.bench import psnr

        common = [
            "encode", str(scene_dir),
            "--disparity", str(scene_dir / "gt.lfdm"),
            "--q-gft", "16", "--slic-k", "8", "--n-target", "128",
        ]
        assert main(common + ["--out", str(tmp_path / "g.srgc")]) == 0
        assert main(common + ["--no-grouping", "--out", str(tmp_path / "n.srgc")]) == 0
        assert main(["decode", str(tmp_path / "g.srgc"), "--out", str(tmp_path / "rg")]) == 0
        assert main(["decode", str(tmp_path / "n.srgc"), "--out", str(tmp_path / "rn")]) == 0
        src = load_light_field(scene_dir)
        p_g = psnr(src, load_light_field(tmp_path / "rg"))
        p_n = psnr(src, load_light_field(tmp_path / "rn"))
        assert p_g >= p_n - 1e-9


class TestDeterminism:
    def test_thread_counts_byte_identical(self, scene_dir, tmp_path):
        """Two encodes of one scene give the same bytes (the CLI offers no
        thread count to vary)."""
        blobs = []
        for run in range(2):
            out = tmp_path / f"r{run}.srgc"
            assert main(
                [
                    "encode", str(scene_dir),
                    "--disparity", str(scene_dir / "gt.lfdm"),
                    "--q-gft", "16", "--slic-k", "8", "--n-target", "128",
                    "--out", str(out),
                ]
            ) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_no_threads_option(self, scene_dir, tmp_path, capsys):
        """No subcommand offers ``--threads`` (a usage error), a config
        file's ``threads`` key is unknown (its file and line named), and a
        decode report names no workers."""
        lf, dmap = four_patch_scene(32, 3)
        stream, _ = encode(lf, dmap, CodecConfig(slic_k=16, q_gft=16.0, n_target=64))
        path = tmp_path / "gate.srgc"
        path.write_bytes(serialize(stream))
        encode_args = ["encode", str(scene_dir), "--disparity", str(scene_dir / "gt.lfdm"),
                       "--out", str(tmp_path / "x.srgc")]
        for argv in (
            encode_args,
            ["sweep", str(scene_dir), "--disparity", str(scene_dir / "gt.lfdm"),
             "--q-list", "16"],
            ["decode", str(path), "--out", str(tmp_path / "rec1")],
        ):
            assert main([*argv, "--threads", "1"]) == 1
            assert "--threads" in capsys.readouterr().err
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("slic_k = 8\nthreads = 1\n")
        assert main([*encode_args, "--config", str(cfgfile)]) == 2
        assert f"{cfgfile}:2: unknown key 'threads'" in capsys.readouterr().err
        assert not (tmp_path / "x.srgc").exists() and not (tmp_path / "rec1").exists()
        report = tmp_path / "dec.txt"
        assert main(["decode", str(path), "--out", str(tmp_path / "rec"),
                     "--report", str(report)]) == 0
        assert "workers" not in _report_dict(report)

    def test_non_finite_quantizer_exit_2(self, scene_dir, tmp_path, capsys):
        """``--q-gft nan`` is refused before a stream is written, not
        written as a stream the decoder then refuses."""
        out = tmp_path / "nan.srgc"
        code = main(["encode", str(scene_dir), "--disparity", str(scene_dir / "gt.lfdm"),
                     "--q-gft", "nan", "--out", str(out)])
        assert code == 2
        assert "q_gft must be finite" in capsys.readouterr().err
        assert not out.exists()


    def test_levels_beyond_coder_range_exit_2(self, scene_dir, tmp_path, capsys):
        """``--q-gft 1e-12`` makes levels the entropy coder cannot carry;
        encode exits 2 and writes no stream."""
        out = tmp_path / "fine.srgc"
        code = main(["encode", str(scene_dir), "--disparity", str(scene_dir / "gt.lfdm"),
                     "--q-gft", "1e-12", "--out", str(out)])
        assert code == 2
        assert "2**49" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_bin_width_beyond_cast_range_exit_2(self, scene_dir, tmp_path, capsys):
        """``--bin-width 1e-300`` puts the pair MSEs in histogram bins
        beyond int64: encode exits 2 with the grouping's message, raising no
        numpy warning on the way."""
        out = tmp_path / "narrow.srgc"
        code = main(["encode", str(scene_dir), "--disparity", str(scene_dir / "gt.lfdm"),
                     "--q-gft", "16", "--slic-k", "8", "--n-target", "128",
                     "--bin-width", "1e-300", "--out", str(out)])
        assert code == 2
        assert "bin width 1e-300" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_step_beyond_cast_range_exit_2(self, scene_dir, tmp_path, capsys):
        """``--q-gft 1e-300`` gives levels beyond int64: encode exits 2 with
        the quantizer's message, raising no numpy warning on the way."""
        out = tmp_path / "finer.srgc"
        code = main(["encode", str(scene_dir), "--disparity", str(scene_dir / "gt.lfdm"),
                     "--q-gft", "1e-300", "--out", str(out)])
        assert code == 2
        assert "quantizer step 1e-300" in capsys.readouterr().err
        assert not out.exists()

class TestConfigPrecedence:
    def test_file_then_flags(self, scene_dir, tmp_path):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("q_gft = 16\nslic_k = 8\nn_target = 128\n")
        out1 = tmp_path / "a.srgc"
        out2 = tmp_path / "b.srgc"
        common = ["encode", str(scene_dir), "--disparity", str(scene_dir / "gt.lfdm"),
                  "--config", str(cfgfile)]
        assert main(common + ["--out", str(out1)]) == 0
        # flag overrides the file: different q -> different stream
        assert main(common + ["--q-gft", "64", "--out", str(out2)]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_unknown_config_key_exit_2(self, scene_dir, tmp_path):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("quality = 3\n")
        assert main(
            ["encode", str(scene_dir), "--disparity", str(scene_dir / "gt.lfdm"),
             "--config", str(cfgfile), "--out", str(tmp_path / "x.srgc")]
        ) == 2

    @pytest.mark.parametrize("line, message", [
        ("n_target = 1e3", "n_target: invalid literal for int()"),
        ("q_gft = 0", "q_gft: q_gft must be positive"),
        ("channels = rgb", "channels: unknown channel mode 'rgb'"),
        ("q_dct = 1.0", "unknown key 'q_dct'"),
        ("residual_mode = raw", "unknown key 'residual_mode'"),
    ])
    def test_bad_config_line_named_exit_2(self, scene_dir, tmp_path, capsys, line, message):
        """A bad value names its file and line like an unknown key does;
        the keys of the retired DCT residuals are unknown."""
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text(f"slic_k = 8\n{line}\n")
        out = tmp_path / "x.srgc"
        assert main(
            ["encode", str(scene_dir), "--disparity", str(scene_dir / "gt.lfdm"),
             "--config", str(cfgfile), "--out", str(out)]
        ) == 2
        assert f"{cfgfile}:2: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--q-dct", "1"], ["--residual-mode", "raw"]])
    def test_retired_residual_flags_usage_error(self, scene_dir, tmp_path, flag):
        assert main(
            ["encode", str(scene_dir), "--disparity", str(scene_dir / "gt.lfdm"),
             *flag, "--out", str(tmp_path / "x.srgc")]
        ) == 1


class TestAnalyze:
    def test_stream_info(self, scene_dir, tmp_path, capsys):
        stream = tmp_path / "a.srgc"
        assert main(
            ["encode", str(scene_dir), "--disparity", str(scene_dir / "gt.lfdm"),
             "--q-gft", "16", "--slic-k", "8", "--out", str(stream)]
        ) == 0
        assert main(["analyze", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "magic=SRGC" in out
        assert "bpp=" in out
        assert "section_coefficients_bytes=" in out
        assert "version=3" in out and "mode=coarse" in out
        assert "max_vertices=" not in out and "q_switch=" not in out
        # version 3 carries neither: groups are stream data
        assert "bin_width=" not in out and "explicit_groups=" not in out

    def test_stream_info_partition_mode(self, scene_dir, tmp_path, capsys):
        stream = tmp_path / "a.srgc"
        assert main(
            ["encode", str(scene_dir), "--disparity", str(scene_dir / "gt.lfdm"),
             "--q-gft", "8", "--slic-k", "8", "--out", str(stream)]
        ) == 0
        assert main(["analyze", str(stream)]) == 0
        assert "mode=partition" in capsys.readouterr().out.splitlines()

    def test_group_flags_clear_without_grouping(self, scene_dir, tmp_path, capsys):
        """``--no-grouping`` clears the grouping flag; the retired
        ``--explicit-groups`` is a usage error."""
        stream = tmp_path / "a.srgc"
        args = ["encode", str(scene_dir), "--disparity", str(scene_dir / "gt.lfdm"),
                "--slic-k", "8", "--no-grouping", "--out", str(stream)]
        assert main([*args, "--explicit-groups"]) == 1
        assert not stream.exists()
        assert main(args) == 0
        assert main(["analyze", str(stream)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "grouping=0" in lines

    def test_psnr_mode(self, scene_dir, tmp_path, capsys):
        assert main(["analyze", "--ref", str(scene_dir), "--rec", str(scene_dir)]) == 0
        assert "psnr_y=inf" in capsys.readouterr().out

    def test_no_args_usage_error(self):
        assert main(["analyze"]) == 1

    def test_ref_without_rec_usage_error(self, scene_dir, tmp_path, capsys):
        # checked before the stream is read, so a PSNR is never dropped silently
        stream = tmp_path / "a.srgc"
        assert main(["analyze", str(stream), "--ref", str(scene_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--rec" in captured.err

    def test_rec_without_ref_usage_error(self, scene_dir, capsys):
        assert main(["analyze", "--rec", str(scene_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--ref" in captured.err


class TestSweep:
    def test_csv_written(self, scene_dir, tmp_path):
        out = tmp_path / "rd.csv"
        assert main(
            [
                "sweep", str(scene_dir),
                "--disparity", str(scene_dir / "gt.lfdm"),
                "--q-list", "16,64",
                "--slic-k", "8", "--n-target", "128",
                "--out", str(out),
            ]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("q_gft,bpp,psnr_y")
        assert len(lines) == 3

    def test_bad_qlist_exit_1(self, scene_dir, tmp_path):
        assert main(
            ["sweep", str(scene_dir), "--disparity", str(scene_dir / "gt.lfdm"),
             "--q-list", "a,b"]
        ) == 1
