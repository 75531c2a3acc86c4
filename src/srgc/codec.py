"""Encoder and decoder pipelines.

Encoder: SLIC on the reference view -> per-label median disparity ->
label projection -> super-rays -> coarsen (q_gft >= q_switch) or partition
(otherwise) -> eigendecompose every coding unit -> GFT -> quantize ->
group coarsened units on dequantized coefficients -> select main members
-> cross-basis prediction and integer residuals -> entropy-coded sections.

Decoder: rebuilds segmentation, projection, units, coarsening and groups
from transmitted data (labels, disparities, split trees, dequantized
coefficients), reads each group's main index from the stream,
and eigendecomposes only ungrouped units plus one main per group.  Grouped
members are reconstructed as rounded cross-basis prediction plus residual,
which with raw residuals reproduces the coded unit signal exactly.

The structure section is :func:`spectral.partition_super_ray`'s ``bits``
as they are, which the decoder hands to :func:`spectral.partition_with_tree`
to parse and replay; an empty section means coarse mode.

Each side builds the pixel graphs of all its units (super-rays, or
partition parts) in one :func:`spectral.graph_structure` call, their
disjoint union, and :func:`spectral.split_graph` gives each unit its own
graph with local vertex ids.  Units often repeat whole graphs, so units
with one vertex count and edge list share a Laplacian and a bit-equal
basis.  Each side coarsens each distinct pixel graph once and
runs its eigen stage once per stream, as one batched
:func:`spectral.eigendecompose_all` call over the distinct graphs of the
units it decomposes; every unit with that graph shares the result.  The
reports' ``eig_count`` stays the paper's count (every unit on the
encoder, ungrouped units plus one main per group on the decoder) and
``eig_solved`` counts the distinct solves behind it.
Everything outside wall-clock timings is a deterministic function of
(light field, disparity map, config): canonical orderings throughout, and
no thread pool.  ``threads`` (config field, ``decode`` argument) is still
validated but has no effect.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import bitstream as bs
from .bitstream import Bitstream, StreamHeader
from .entropy import SYMBOL_LIMIT, entropy_decode, entropy_encode
from .errors import CorruptStreamError, EmptyLightFieldError, SrgcError
from .grouping import (
    GroupSet,
    SuperRayGroup,
    derive_group_members,
    predict_and_residual,
    run_grouping,
)
from .lightfield import DisparityMap, LightField, View, _sample_dtype
from .segmentation import (
    SegmentationMap,
    assemble_super_rays,
    label_disparities,
    project_labels,
    slic_segment,
)
from .spectral import (
    coarse_mean_signal,
    coarsen,
    eigendecompose,  # not called here; perfbench/spans.py traces this name
    eigendecompose_all,
    graph_signal,
    graph_structure,
    laplacian,
    partition_super_ray,
    partition_with_tree,
    split_graph,
    uncoarsen_signal,
)
from .transform import (
    dct1d,
    gft,
    idct1d,
    predict_signal,
    quantize,
)
from .util import round_half_away, round_half_away_int

_U32_MAX = (1 << 32) - 1


@dataclass
class CodecConfig:
    q_gft: float = 16.0
    q_dct: float = 1.0
    n_target: int = 256
    max_vertices: int = 512
    q_switch: int = 16
    slic_k: int = 100
    compactness: float = 10.0
    bin_width: float = 5.0
    explicit_groups: bool = False
    residual_mode: str = "raw"   # 'raw' (exact) | 'dct' (lossy, for RD sweeps)
    grouping: bool = True
    channels: str = "y"          # 'y' | 'all'
    threads: int = 1

    def validate(self):
        for name in ("q_gft", "q_dct", "compactness", "bin_width"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.q_gft <= 0 or self.q_dct <= 0:
            raise ValueError("quantizer steps must be positive")
        if self.n_target < 1 or self.max_vertices < 1 or self.q_switch < 0:
            raise ValueError("size thresholds must be positive")
        if self.n_target > _U32_MAX:
            raise ValueError("n_target must fit in 32 bits")
        if self.slic_k < 1 or self.compactness <= 0 or self.bin_width <= 0:
            raise ValueError("segmentation/grouping parameters must be positive")
        if self.residual_mode not in ("raw", "dct"):
            raise ValueError(f"unknown residual mode {self.residual_mode!r}")
        if self.channels not in ("y", "all"):
            raise ValueError(f"unknown channel mode {self.channels!r}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


@dataclass
class CodingUnit:
    """One coded graph: a coarsened super-ray (``cmap`` set) or a
    partitioned part (``graph`` is its own pixel graph ``fine``)."""

    index: int
    graph: object
    cmap: object
    fine: object              # the pixel graph the unit covers
    signals: list = None      # per-channel int vectors (encoder side only)

    @property
    def n(self):
        return self.graph.n


@dataclass
class EncodeReport:
    super_ray_count: int = 0
    unit_count: int = 0
    coarsened_count: int = 0
    partitioned_count: int = 0
    pair_count: int = 0
    mse_threshold: float = 0.0
    group_count: int = 0
    grouped_count: int = 0
    eig_count: int = 0        # the paper's count: one per unit
    eig_solved: int = 0       # distinct graphs actually solved
    # seconds per stage in pipeline order; "graphs" builds (and partitions)
    # the pixel graphs, "coarsen" coarsens them and takes the unit signals
    times: dict = field(default_factory=dict)
    debug: object = None

    @property
    def coarsened_ratio(self):
        """Grouped units over coarsened units (0 with nothing grouped)."""
        return self.grouped_count / self.coarsened_count if self.grouped_count else 0.0

    @property
    def overall_ratio(self):
        """Grouped units over all coding units (0 with nothing grouped)."""
        return self.grouped_count / self.unit_count if self.grouped_count else 0.0

    def to_lines(self):
        out = [
            f"super_rays={self.super_ray_count}",
            f"units={self.unit_count}",
            f"coarsened={self.coarsened_count}",
            f"partitioned={self.partitioned_count}",
            f"pairs={self.pair_count}",
            f"mse_threshold={self.mse_threshold}",
            f"groups={self.group_count}",
            f"grouped={self.grouped_count}",
            f"ratio_coarsened={self.coarsened_ratio:.6f}",
            f"ratio_overall={self.overall_ratio:.6f}",
            f"eig_encoder={self.eig_count}",
            f"eig_solved_encoder={self.eig_solved}",
        ]
        out += [f"t_{k}_s={v:.6f}" for k, v in self.times.items()]
        return out


@dataclass
class DecodeReport:
    unit_count: int = 0
    group_count: int = 0
    grouped_count: int = 0
    eig_count: int = 0        # the paper's count: ungrouped units + groups
    eig_solved: int = 0       # distinct graphs actually solved
    # seconds per stage: "entropy" first, the entropy decoding of every
    # section, then the rest in pipeline order without it; "graphs" and
    # "coarsen" as in EncodeReport, without the unit signals
    times: dict = field(default_factory=dict)
    debug: object = None

    def to_lines(self):
        out = [
            f"units={self.unit_count}",
            f"groups={self.group_count}",
            f"grouped={self.grouped_count}",
            f"eig_decoder={self.eig_count}",
            f"eig_solved_decoder={self.eig_solved}",
        ]
        out += [f"t_{k}_s={v:.6f}" for k, v in self.times.items()]
        return out


@dataclass
class _DebugInfo:
    units: list = None
    group_set: object = None
    groupable: list = None
    dequantized: list = None
    reconstructed: list = None


class _Stopwatch:
    def __init__(self):
        self.times = {}
        self._last = time.perf_counter()

    def lap(self, name):
        now = time.perf_counter()
        self.times[name] = now - self._last
        self._last = now

    def aside(self, name, start):
        """Add the time since ``start`` to stage ``name`` and leave it out
        of the running lap, so the stages still sum to the wall time."""
        spent = time.perf_counter() - start
        self.times[name] = self.times.get(name, 0.0) + spent
        self._last += spent


# ---------------------------------------------------------------------------
# Shared structure pipeline
# ---------------------------------------------------------------------------

def _distinct_graphs(graphs):
    """(the distinct graphs in first-seen order, each graph's index among
    them).  A graph is its vertex count and edge list: the edge list
    alone does not show isolated vertices."""
    slot, distinct, which = {}, [], []
    for g in graphs:
        key = (g.n, g.edges.tobytes())
        if key not in slot:
            slot[key] = len(distinct)
            distinct.append(g)
        which.append(slot[key])
    return distinct, which


def _coarsen_graphs(fines, n_target):
    """(coarse graph, CoarseningMap) of every pixel graph, each distinct
    graph coarsened once; units share the pair, which is only read."""
    distinct, which = _distinct_graphs(fines)
    coarse = [coarsen(g, n_target) for g in distinct]
    return [coarse[i] for i in which]


def _eigenbases(graphs):
    """(the eigenbasis of every graph, the number of distinct graphs
    solved).  Each distinct graph's Laplacian is built once and all of
    them are solved in one :func:`eigendecompose_all` call; equal graphs
    share one basis, which is only read."""
    distinct, which = _distinct_graphs(graphs)
    bases = eigendecompose_all(laplacian(g) for g in distinct)
    return [bases[i] for i in which], len(distinct)


def _build_units(sources, angular_dims, mode, n_target, watch):
    """Turn super-rays ('coarse' mode) or partition parts into coding
    units, in order.

    All pixel graphs are built in one :func:`graph_structure` call and
    split apart, and ``watch`` laps ``graphs``.  In 'coarse' mode each
    graph is then coarsened to ``n_target`` vertices; otherwise each part
    is a unit on its own pixel graph.  The caller laps ``coarsen``.
    """
    fines = split_graph(graph_structure(sources, angular_dims), sources)
    watch.lap("graphs")
    pairs = _coarsen_graphs(fines, n_target) if mode == "coarse" else [(g, None) for g in fines]
    return [
        CodingUnit(index=i, graph=graph, cmap=cmap, fine=fine)
        for i, ((graph, cmap), fine) in enumerate(zip(pairs, fines))
    ]


def _coefficient_steps(units, n_channels, q_gft):
    """Quantizer step of every coefficient of every unit and channel, laid
    out back to back (unit-major, channel-minor): min(q_gft, 1) at each
    vector's DC index, so a constant signal survives any q_gft >= 1, and
    q_gft elsewhere.  Returns (steps, start of each vector)."""
    sizes = np.repeat([u.n for u in units], n_channels)
    starts = np.cumsum(sizes) - sizes
    steps = np.full(sizes.sum(), float(q_gft))
    steps[starts] = min(q_gft, 1.0)
    return steps, starts


def _dequantize_units(levels, units, n_channels, q_gft):
    """Dequantize the back-to-back coefficient levels of every unit and
    channel in one multiply by :func:`_coefficient_steps`.  Returns
    deq[unit][channel]."""
    steps, starts = _coefficient_steps(units, n_channels, q_gft)
    flat = np.split(levels.astype(np.float64) * steps, starts[1:])
    return [flat[i : i + n_channels] for i in range(0, len(flat), n_channels)]


def _groupable_positions(units, n_target, grouping):
    if not grouping:
        return []
    return [u.index for u in units if u.cmap is not None and u.n == n_target]


def _predicted_members(groups, groupable):
    """{member unit: main unit} over every grouped unit but the mains, in
    the residual section's order: groups in order, each group's members in
    its order, the main skipped."""
    return {
        groupable[pos]: groupable[g.main_index]
        for g in groups
        for pos in g.members
        if pos != g.main_index
    }


# ---------------------------------------------------------------------------
# Section symbol packing
# ---------------------------------------------------------------------------

def _segmentation_symbols(labels):
    """Raster-order symbols of a label map: 0 copies the left neighbour,
    1 the upper one, ``v + 2`` is label ``v``; left wins over up."""
    left = np.zeros(labels.shape, dtype=bool)
    left[:, 1:] = labels[:, 1:] == labels[:, :-1]
    up = np.zeros(labels.shape, dtype=bool)
    up[1:] = labels[1:] == labels[:-1]
    return np.where(left, 0, np.where(up, 1, labels.astype(np.int64) + 2)).ravel()


def _segmentation_from_symbols(syms, w, h, label_count):
    """Inverse of ``_segmentation_symbols``; the first invalid symbol in
    raster order raises CorruptStreamError."""
    grid = np.asarray(syms, dtype=np.int64).reshape(h, w)
    cols = np.arange(w)
    bad = ((grid == 0) & (cols == 0)) | (grid < 0) | (grid >= label_count + 2)
    bad[0] |= grid[0] == 1
    if bad.any():
        y, x = divmod(int(np.argmax(bad)), w)
        s = int(grid[y, x])
        if s == 0:
            raise CorruptStreamError("corrupt stream: copy-left at row start")
        if s == 1:
            raise CorruptStreamError("corrupt stream: copy-up in first row")
        raise CorruptStreamError(f"corrupt stream: label {s - 2} out of range at ({y},{x})")
    labels = grid - 2
    for y in range(h):
        row = labels[y]
        if y:
            np.copyto(row, labels[y - 1], where=grid[y] == 1)
        # each copy-left pixel takes the label of the last explicit or
        # copy-up pixel to its left
        src = np.where(grid[y] == 0, 0, cols)
        labels[y] = row[np.maximum.accumulate(src)]
    return labels


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------

def encode(lf: LightField, dmap: DisparityMap, cfg: CodecConfig, debug=False):
    """Encode a light field; returns (Bitstream, EncodeReport)."""
    cfg.validate()
    if not lf.views:
        raise EmptyLightFieldError("empty light field")
    w, h = lf.spatial_dims
    if dmap.values.shape != (h, w):
        raise SrgcError(
            f"disparity map {dmap.values.shape} does not match views {h}x{w}"
        )
    # each label's disparity, a value of the map, is sent as round(8 * d)
    extreme = max(dmap.values.min(initial=0.0), dmap.values.max(initial=0.0), key=abs)
    if abs(round_half_away(extreme * 8)) >= SYMBOL_LIMIT:
        raise SrgcError(
            f"disparity {extreme:g} out of range: round(8 * d) must stay below 2**49 in magnitude"
        )
    watch = _Stopwatch()
    maxval = lf.max_value
    # one (views, H, W) int64 sample volume per coded channel
    luma = np.stack(lf.luma_planes())
    volumes = [luma]
    if cfg.channels == "all" and lf.channels == 3:
        volumes = [np.stack(lf.channel_planes(c)) for c in range(3)]
    n_channels = len(volumes)

    seg_ref = slic_segment(luma[0], cfg.slic_k, cfg.compactness)
    disparities = label_disparities(seg_ref, dmap)
    watch.lap("segmentation")

    seg_all = project_labels(seg_ref, disparities, lf.angular_dims)
    srs = assemble_super_rays(seg_all, disparities)
    watch.lap("projection")

    mode = "coarse" if cfg.q_gft >= cfg.q_switch else "part"
    sources, structure = srs, []
    if mode == "part":
        res = partition_super_ray(srs, cfg.max_vertices, lf.angular_dims)
        sources, structure = res.parts, res.bits
    units = _build_units(sources, lf.angular_dims, mode, cfg.n_target, watch)
    for u in units:
        fine = [graph_signal(u.fine, volume) for volume in volumes]
        u.signals = fine if u.cmap is None else [
            np.clip(round_half_away_int(coarse_mean_signal(u.cmap, f)), 0, maxval)
            for f in fine
        ]
    watch.lap("coarsen")

    bases, eig_solved = _eigenbases([u.graph for u in units])
    coeffs = np.concatenate([
        gft(basis, signal) for basis, u in zip(bases, units) for signal in u.signals
    ])
    levels = quantize(coeffs, _coefficient_steps(units, n_channels, cfg.q_gft)[0])
    deq = _dequantize_units(levels, units, n_channels, cfg.q_gft)
    eig_count = len(units)
    watch.lap("eigen_transform")

    groupable = _groupable_positions(units, cfg.n_target, cfg.grouping)
    group_set = run_grouping(
        [deq[u][0] for u in groupable],
        [units[u].signals[0] for u in groupable],
        cfg.bin_width,
    )
    groups = group_set.groups
    watch.lap("grouping")

    residual_syms = []
    for member, main in _predicted_members(groups, groupable).items():
        for c in range(n_channels):
            _, residual = predict_and_residual(
                bases[main], deq[member][c], units[member].signals[c], maxval
            )
            if cfg.residual_mode == "raw":
                residual_syms.extend(int(r) for r in residual)
            else:
                lv = quantize(dct1d(residual.astype(np.float64)), cfg.q_dct)
                residual_syms.extend(int(r) for r in lv)
    watch.lap("residuals")

    group_syms = []
    if cfg.grouping:
        if cfg.explicit_groups:
            group_syms.append(len(groups))
            for g in groups:
                group_syms.append(g.main_index)
                group_syms.append(len(g.members))
                group_syms.extend(g.members)
        else:
            group_syms.extend(g.main_index for g in groups)

    symbols = {
        bs.SEC_SEGMENTATION: _segmentation_symbols(seg_ref.reference),
        bs.SEC_DISPARITY: [
            round_half_away(disparities[l] * 8) for l in range(seg_ref.label_count)
        ],
        bs.SEC_STRUCTURE: structure,
        bs.SEC_COEFFICIENTS: levels.tolist(),
        bs.SEC_GROUPS: group_syms,
        bs.SEC_RESIDUALS: residual_syms,
    }
    sections = {
        sid: bs.pack_section(len(syms), entropy_encode(syms, bs.SECTION_CONTEXTS[sid]))
        for sid, syms in symbols.items()
    }
    header = StreamHeader(
        angular_dims=lf.angular_dims,
        spatial_dims=lf.spatial_dims,
        bit_depth=lf.bit_depth,
        channels=n_channels,
        grouping=cfg.grouping,
        explicit_groups=cfg.grouping and cfg.explicit_groups,
        residual_mode=cfg.residual_mode if cfg.grouping else "raw",
        label_count=seg_ref.label_count,
        n_target=cfg.n_target,
        q_gft=cfg.q_gft,
        q_dct=cfg.q_dct,
        bin_width=cfg.bin_width,
    )
    stream = Bitstream(header=header, sections=sections)
    watch.lap("entropy")

    coarsened = sum(1 for u in units if u.cmap is not None)
    m = len(groupable)
    report = EncodeReport(
        super_ray_count=seg_ref.label_count,
        unit_count=len(units),
        coarsened_count=coarsened,
        partitioned_count=len(units) - coarsened,
        pair_count=m * (m - 1) // 2,
        mse_threshold=group_set.mse_threshold,
        group_count=len(groups),
        grouped_count=group_set.grouped_count,
        eig_count=eig_count,
        eig_solved=eig_solved,
        times=watch.times,
    )
    if debug:
        report.debug = _DebugInfo(
            units=units, group_set=group_set, groupable=groupable, dequantized=deq
        )
    return stream, report


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------

def decode(stream: Bitstream, threads=1, debug=False):
    """Decode a bitstream; returns (LightField, DecodeReport).  ``threads``
    must be >= 1 and has no other effect."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    watch = _Stopwatch()
    hdr = stream.header
    s_count, t_count = hdr.angular_dims
    w, h = hdr.spatial_dims
    maxval = (1 << hdr.bit_depth) - 1

    def section_symbols(sid, expected, at_most=False):
        """Entropy-decode a section whose declared symbol count is
        ``expected`` (or at most that, with ``at_most``); the count is
        checked first, so a lying count costs no decoding work."""
        name = bs.SECTION_NAMES[sid]
        if sid not in stream.sections:
            raise CorruptStreamError(f"corrupt stream: missing section '{name}'")
        count, payload = bs.unpack_section(stream.sections[sid], sid)
        if count > expected or (count < expected and not at_most):
            bound = "at most " if at_most else ""
            raise CorruptStreamError(
                f"corrupt stream: section '{name}' declares {count} symbols, "
                f"expected {bound}{expected}"
            )
        start = time.perf_counter()
        syms = entropy_decode(payload, count, bs.SECTION_CONTEXTS[sid])
        watch.aside("entropy", start)
        return syms

    seg_syms = section_symbols(bs.SEC_SEGMENTATION, w * h)
    ref_labels = _segmentation_from_symbols(seg_syms, w, h, hdr.label_count)
    # every label holds a reference pixel; the count is checked against
    # W*H first, so a lying header never sizes the bincount
    if hdr.label_count > w * h or np.count_nonzero(
        np.bincount(ref_labels.ravel(), minlength=hdr.label_count)
    ) != hdr.label_count:
        raise CorruptStreamError("corrupt stream: reference view misses labels")

    disp_syms = section_symbols(bs.SEC_DISPARITY, hdr.label_count)
    disparities = {l: float(disp_syms[l]) / 8.0 for l in range(hdr.label_count)}
    watch.lap("segmentation")

    seg_ref = SegmentationMap(labels=ref_labels[None], label_count=hdr.label_count)
    seg_all = project_labels(seg_ref, disparities, hdr.angular_dims)
    srs = assemble_super_rays(seg_all, disparities)
    watch.lap("projection")

    # 2P - 1 tree nodes for P parts, and every part keeps at least one
    # reference pixel; an empty section codes every label coarsened
    struct_syms = section_symbols(bs.SEC_STRUCTURE, 2 * w * h, at_most=True)
    mode = "part" if len(struct_syms) else "coarse"
    try:
        sources = srs
        if mode == "part":
            sources = partition_with_tree(srs, struct_syms, hdr.angular_dims)
        units = _build_units(sources, hdr.angular_dims, mode, hdr.n_target, watch)
    except ValueError as e:
        raise CorruptStreamError(f"corrupt stream: {e}") from e
    watch.lap("coarsen")

    n_channels = hdr.channels
    coeff_syms = section_symbols(
        bs.SEC_COEFFICIENTS, sum(u.n for u in units) * n_channels
    )
    deq = _dequantize_units(coeff_syms, units, n_channels, hdr.q_gft)
    watch.lap("dequantize")

    groupable = _groupable_positions(units, hdr.n_target, hdr.grouping)
    groups = []
    threshold = 0.0
    if not hdr.grouping:
        section_symbols(bs.SEC_GROUPS, 0)
    elif hdr.explicit_groups:
        # the count, then per disjoint group of k >= 2: main, k, k members
        group_syms = section_symbols(
            bs.SEC_GROUPS, 1 + 2 * len(groupable), at_most=True
        )
        groups = _parse_explicit_groups(group_syms, len(groupable))
    else:
        try:
            merged, threshold = derive_group_members(
                [deq[u][0] for u in groupable], hdr.bin_width
            )
        except ValueError as e:
            raise CorruptStreamError(f"corrupt stream: {e}") from e
        group_syms = section_symbols(bs.SEC_GROUPS, len(merged))
        for m, main in zip(merged, group_syms):
            if int(main) not in m:
                raise CorruptStreamError("corrupt stream: main outside its group")
            groups.append(SuperRayGroup(members=m, main_index=int(main)))
    predicted = _predicted_members(groups, groupable)
    watch.lap("grouping")

    to_decompose = [u.index for u in units if u.index not in predicted]
    bases, eig_solved = _eigenbases([units[i].graph for i in to_decompose])
    decomposed = dict(zip(to_decompose, bases))
    eig_count = len(to_decompose)
    watch.lap("eigen")

    resid_syms = section_symbols(
        bs.SEC_RESIDUALS,
        sum(units[u].n for u in predicted) * n_channels,
    )
    residuals = {}
    pos = 0
    for uidx in predicted:
        n = units[uidx].n
        residuals[uidx] = [
            resid_syms[pos + c * n : pos + (c + 1) * n] for c in range(n_channels)
        ]
        pos += n * n_channels

    volumes = np.zeros((n_channels, s_count * t_count, h, w), dtype=np.int64)
    recon_units = []
    for u in units:
        per_channel = []
        for c in range(n_channels):
            if u.index in predicted:
                r = residuals[u.index][c]
                if hdr.residual_mode == "dct":
                    r = round_half_away_int(idct1d(r.astype(np.float64) * hdr.q_dct))
                main_basis = decomposed[predicted[u.index]]
                rec = np.clip(
                    predict_signal(main_basis, deq[u.index][c], maxval) + r, 0, maxval
                )
            else:
                rec = predict_signal(decomposed[u.index], deq[u.index][c], maxval)
            per_channel.append(rec)
            fine = uncoarsen_signal(rec, u.cmap) if u.cmap is not None else rec
            volumes[c][tuple(u.fine.vertices.T)] = fine
        recon_units.append(per_channel)
    watch.lap("reconstruct")

    samples = volumes.astype(_sample_dtype(hdr.bit_depth))
    views = [View(planes=list(samples[:, v])) for v in range(s_count * t_count)]
    lf = LightField(views=views, angular_dims=hdr.angular_dims, bit_depth=hdr.bit_depth)
    watch.lap("assembly")

    report = DecodeReport(
        unit_count=len(units),
        group_count=len(groups),
        grouped_count=sum(len(g.members) for g in groups),
        eig_count=eig_count,
        eig_solved=eig_solved,
        times=watch.times,
    )
    if debug:
        report.debug = _DebugInfo(
            units=units,
            group_set=GroupSet.over(groups, len(groupable), threshold),
            groupable=groupable,
            dequantized=deq,
            reconstructed=recon_units,
        )
    return lf, report


def _parse_explicit_groups(syms, groupable_count):
    syms = [int(v) for v in syms]
    if not syms:
        return []
    pos = 0
    count = syms[pos]
    pos += 1
    groups = []
    seen = set()
    for _ in range(count):
        if pos + 2 > len(syms):
            raise CorruptStreamError("corrupt stream: explicit group header short")
        main, n = syms[pos], syms[pos + 1]
        pos += 2
        if n < 2:
            raise CorruptStreamError(
                "corrupt stream: explicit group of fewer than 2 members"
            )
        members = tuple(syms[pos : pos + n])
        pos += n
        if len(members) != n or any(
            m < 0 or m >= groupable_count for m in members
        ) or main not in members:
            raise CorruptStreamError("corrupt stream: explicit group malformed")
        if len(set(members)) != n or seen.intersection(members):
            raise CorruptStreamError("corrupt stream: explicit group member repeated")
        seen.update(members)
        groups.append(SuperRayGroup(members=members, main_index=main))
    if pos != len(syms):
        raise CorruptStreamError("corrupt stream: trailing group symbols")
    return groups
