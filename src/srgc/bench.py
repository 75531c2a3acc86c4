"""Quality/rate metrics and the rate-distortion sweep harness.

PSNR is computed over the luma samples of all views; BPP divides the
serialized stream bits by the whole-light-field pixel count S*T*W*H.
Identical inputs yield +inf PSNR, serialized as the string ``inf`` in CSV.
Eigendecomposition counts, the paper's (``eig_enc``, ``eig_dec``) and
the LAPACK solves behind them (``eig_solved_enc``, ``eig_solved_dec``),
are deterministic; wall times are the only nondeterministic columns.
"""

import io
import math
from dataclasses import dataclass, fields, replace

from .bitstream import serialize
from .codec import CodecConfig, decode, encode


@dataclass
class RDPoint:
    """One sweep measurement; wall times are the only nondeterministic
    fields."""

    q_gft: float
    bpp: float
    psnr_y: float
    eig_enc: int
    eig_dec: int
    eig_solved_enc: int
    eig_solved_dec: int
    groups: int
    grouped: int
    coarsened: int
    total_sr: int
    ratio_c: float
    ratio_o: float
    t_enc_s: float
    t_dec_s: float


CSV_COLUMNS = ",".join(f.name for f in fields(RDPoint))


def psnr(a, b):
    """Luma PSNR in dB between two light fields of identical geometry.  The
    squared error is summed exactly in int64, which holds for up to
    2**63 / (2**16 - 1)**2, about 2.1e9, luma samples."""
    if (a.angular_dims, a.spatial_dims, a.bit_depth) != (
        b.angular_dims,
        b.spatial_dims,
        b.bit_depth,
    ):
        raise ValueError("PSNR requires identical dimensions and bit depth")
    d = (a.luma_planes() - b.luma_planes()).ravel()
    sq = int(d @ d)
    if sq == 0:
        return math.inf
    return 10.0 * math.log10(a.max_value ** 2 / (sq / d.size))


def bpp(stream, lf_dims):
    """Bits per pixel: 8 * stream bytes / (S*T*W*H)."""
    (s, t), (w, h) = lf_dims
    return 8.0 * len(serialize(stream)) / (s * t * w * h)


def _fmt(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return f"{x:.6f}"
    return str(x)


def rd_sweep(lf, dmap, q_list, cfg: CodecConfig):
    """One encode+decode per q_gft value; returns (points, csv_text)."""
    if not q_list:
        raise ValueError("q_list must be non-empty")
    points = []
    for q in q_list:
        run_cfg = replace(cfg, q_gft=float(q))
        stream, enc_rep = encode(lf, dmap, run_cfg)
        rec, dec_rep = decode(stream)
        points.append(
            RDPoint(
                q_gft=float(q),
                bpp=bpp(stream, (lf.angular_dims, lf.spatial_dims)),
                psnr_y=psnr(lf, rec),
                eig_enc=enc_rep.eig_count,
                eig_dec=dec_rep.eig_count,
                eig_solved_enc=enc_rep.eig_solved,
                eig_solved_dec=dec_rep.eig_solved,
                groups=enc_rep.group_count,
                grouped=enc_rep.grouped_count,
                coarsened=enc_rep.coarsened_count,
                total_sr=enc_rep.unit_count,
                ratio_c=enc_rep.coarsened_ratio,
                ratio_o=enc_rep.overall_ratio,
                t_enc_s=sum(enc_rep.times.values()),
                t_dec_s=sum(dec_rep.times.values()),
            )
        )
    return points, render_csv(points)


def render_csv(points):
    buf = io.StringIO()
    buf.write(CSV_COLUMNS + "\n")
    for p in points:
        buf.write(",".join(_fmt(getattr(p, k)) for k in CSV_COLUMNS.split(",")) + "\n")
    return buf.getvalue()
