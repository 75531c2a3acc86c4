"""Command-line front end: synth, encode, decode, analyze, sweep.

Exit codes: 0 success, 1 usage error, 2 data/format error (an input or
output path that cannot be opened included), 3 internal error.  Config
precedence: built-in defaults < --config file (key=value lines) <
explicit flags.  Reports are line-oriented key=value (or CSV for sweeps),
written to stdout or the --report path.
"""

import argparse
import dataclasses
import os
import sys

from . import bench
from .bitstream import (
    SEC_STRUCTURE,
    SECTION_NAMES,
    VERSION,
    deserialize,
    serialize,
    unpack_section,
)
from .codec import CodecConfig, decode, encode
from .errors import SrgcError
from .lightfield import (
    load_disparity,
    load_light_field,
    parse_scene_spec,
    save_disparity,
    save_light_field,
    synthesize_light_field,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

_CONFIG_FIELDS = {
    "q_gft": float,
    "n_target": int,
    "max_vertices": int,
    "q_switch": int,
    "slic_k": int,
    "compactness": float,
    "bin_width": float,
    "channels": str,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_config_flags(p):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--q-gft", type=float, dest="q_gft")
    p.add_argument("--n-target", type=int, dest="n_target")
    p.add_argument("--max-vertices", type=int, dest="max_vertices")
    p.add_argument("--q-switch", type=int, dest="q_switch")
    p.add_argument("--slic-k", type=int, dest="slic_k")
    p.add_argument("--compactness", type=float, dest="compactness")
    p.add_argument("--bin-width", type=float, dest="bin_width")
    p.add_argument("--channels", choices=("y", "all"), dest="channels")
    p.add_argument("--no-grouping", action="store_true",
                   help="baseline mode: disable super-ray grouping")


def _build_parser():
    parser = _Parser(prog="srgc", description="Graph-based light-field codec")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a synthetic scene")
    p.add_argument("--spec", required=True, help="scene description file")
    p.add_argument("--out", required=True, help="output view directory")
    p.add_argument("--disparity-out", help="ground-truth .lfdm path "
                   "(default <out>/gt.lfdm)")

    p = sub.add_parser("encode", help="encode a view directory")
    p.add_argument("input", help="light-field view directory")
    p.add_argument("--disparity", required=True, help=".lfdm disparity file")
    p.add_argument("--out", required=True, help="output .srgc path")
    p.add_argument("--report", help="write the encode report here")
    _add_config_flags(p)

    p = sub.add_parser("decode", help="decode an .srgc stream")
    p.add_argument("input", help=".srgc stream path")
    p.add_argument("--out", required=True, help="output view directory")
    p.add_argument("--report", help="write the decode report here")

    p = sub.add_parser("analyze", help="inspect a stream or compare two LFs")
    p.add_argument("input", nargs="?", help=".srgc stream path")
    p.add_argument("--ref", help="reference view directory (PSNR mode)")
    p.add_argument("--rec", help="reconstructed view directory (PSNR mode)")
    p.add_argument("--report", help="write the report here")

    p = sub.add_parser("sweep", help="rate-distortion sweep over q_gft values")
    p.add_argument("input", help="light-field view directory")
    p.add_argument("--disparity", required=True)
    p.add_argument("--q-list", required=True, help="comma-separated q_gft values")
    p.add_argument("--out", help="CSV output path (default stdout)")
    _add_config_flags(p)
    return parser


def _load_config(args):
    cfg = CodecConfig()
    values = {}
    if getattr(args, "config", None):
        with open(args.config) as f:
            for lineno, raw in enumerate(f, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise SrgcError(f"{args.config}:{lineno}: expected key=value")
                key, val = (s.strip() for s in line.split("=", 1))
                if key not in _CONFIG_FIELDS:
                    raise SrgcError(f"{args.config}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = _CONFIG_FIELDS[key](val)
                    dataclasses.replace(cfg, **{key: values[key]}).validate()
                except ValueError as e:
                    raise SrgcError(f"{args.config}:{lineno}: {key}: {e}") from e
    for key in _CONFIG_FIELDS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    cfg = dataclasses.replace(cfg, **values)
    if getattr(args, "no_grouping", False):
        cfg.grouping = False
    return cfg


def _emit(lines, path):
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _cmd_synth(args):
    with open(args.spec) as f:
        spec = parse_scene_spec(f.read())
    lf, dmap = synthesize_light_field(spec)
    save_light_field(lf, args.out)
    dpath = args.disparity_out or os.path.join(args.out, "gt.lfdm")
    save_disparity(dmap, dpath)
    print(f"wrote {len(lf.views)} views to {args.out}, disparity to {dpath}")
    return EXIT_OK


def _cmd_encode(args):
    cfg = _load_config(args)
    lf = load_light_field(args.input)
    dmap = load_disparity(args.disparity)
    stream, report = encode(lf, dmap, cfg)
    data = serialize(stream)
    with open(args.out, "wb") as f:
        f.write(data)
    _emit(report.to_lines(), args.report)
    return EXIT_OK


def _cmd_decode(args):
    with open(args.input, "rb") as f:
        stream = deserialize(f.read())
    lf, report = decode(stream)
    save_light_field(lf, args.out)
    _emit(report.to_lines(), args.report)
    return EXIT_OK


def _cmd_analyze(args):
    if bool(args.ref) != bool(args.rec):
        raise _UsageError("analyze needs both --ref and --rec for PSNR")
    lines = []
    if args.input:
        with open(args.input, "rb") as f:
            data = f.read()
        stream = deserialize(data)
        hdr = stream.header
        structure_count, _ = unpack_section(stream.sections[SEC_STRUCTURE], SEC_STRUCTURE)
        lines += [
            f"magic=SRGC",
            f"bytes={len(data)}",
            f"angular={hdr.angular_dims[0]}x{hdr.angular_dims[1]}",
            f"spatial={hdr.spatial_dims[0]}x{hdr.spatial_dims[1]}",
            f"bit_depth={hdr.bit_depth}",
            f"channels={hdr.channels}",
            f"grouping={int(hdr.grouping)}",
            f"label_count={hdr.label_count}",
            f"q_gft={hdr.q_gft}",
            f"n_target={hdr.n_target}",
            f"version={VERSION}",
            f"mode={'partition' if structure_count else 'coarse'}",
            "bpp=%.6f" % bench.bpp(stream, (hdr.angular_dims, hdr.spatial_dims)),
        ]
        for sid in sorted(stream.sections):
            name, section = SECTION_NAMES[sid], stream.sections[sid]
            # the section's declared symbol count: nothing is decoded
            count, _ = unpack_section(section, sid)
            lines += [f"section_{name}_bytes={len(section)}", f"section_{name}_symbols={count}"]
    if args.ref and args.rec:
        a = load_light_field(args.ref)
        b = load_light_field(args.rec)
        value = bench.psnr(a, b)
        lines.append("psnr_y=inf" if value == float("inf") else f"psnr_y={value:.6f}")
    if not lines:
        raise _UsageError("analyze needs a stream path or --ref/--rec")
    _emit(lines, args.report)
    return EXIT_OK


def _cmd_sweep(args):
    cfg = _load_config(args)
    lf = load_light_field(args.input)
    dmap = load_disparity(args.disparity)
    try:
        q_list = [float(q) for q in args.q_list.split(",") if q.strip()]
    except ValueError as e:
        raise _UsageError(f"bad --q-list: {e}") from e
    if not q_list:
        raise _UsageError("--q-list is empty")
    _, csv_text = bench.rd_sweep(lf, dmap, q_list, cfg)
    if args.out:
        with open(args.out, "w") as f:
            f.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"srgc: usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (SrgcError, OSError, ValueError) as e:
        print(f"srgc: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"srgc: internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
