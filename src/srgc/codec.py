"""Encoder and decoder pipelines.

Encoder: SLIC on the reference view -> per-label median disparity ->
label projection -> super-rays -> pixel graphs (of partition parts when
q_gft < q_switch) -> the flat rule (q_gft >= q_switch) -> coarsen the
units that are not flat -> eigendecompose them -> GFT -> quantize ->
group coarsened units on dequantized coefficients -> select main members
-> cross-basis prediction and integer residuals -> entropy-coded sections.

Decoder: segmentation -> projection -> pixel graphs (split trees replayed
in partition mode), each unit's size taken from its pixel graph
(``min(n_target, n)`` coarsened, ``n`` a partition part) -> coefficient,
groups and residual sections -> the flat rule -> coarsen -> eigen stage
-> reconstruct.  Everything is rebuilt from transmitted data (labels,
disparities, split trees); the groups and each group's main are read from
the groups section, and no groups are derived.  Every section is read
before any coarsening, so a corrupt one costs none.  Every unit names the
graph whose basis it reads, a grouped member its main's, and the eigen
stage solves each distinct graph once, so it runs ``#ungrouped +
#groups`` eigendecompositions.  Each unit comes back as one (channels, n)
block: the rounded inverse GFT, plus for a grouped member its residual,
which always reproduces the coded unit signal exactly; a sum outside the
sample range can only come from a corrupt residual section.

A coarsened unit is flat (:func:`_flat_units`) when every channel's
dequantized vector is zero past index 0, the pixel graph of the basis it
reads (its own, or its main's for a grouped member) is connected, and a
grouped member's residual is one value per channel.  A flat unit
reconstructs as :func:`predict_signal` on :func:`spectral.dc_basis`,
plus its residual, one value per channel written to all its pixels.  It
gets no eigen-stage entry, and no coarse graph or ``fine_to_coarse``
unless a member that is not flat reads it as its main: only the units
that are not flat, and the mains their members read, are coarsened.  A
partition part is never flat, having no coarsening to skip.  The rule is
exact, from three facts: contraction keeps a connected graph connected (a
coarsening of a connected graph never takes the edgeless-residue
branch); the eigen stage gives a connected graph the exact column
``1/sqrt(n)``, through :func:`spectral.dc_basis` or through the spectrum
rule of :func:`spectral.eigendecompose_all` (n below 6 * 10**4, whose
dense Laplacian alone would take 28 GB); and with only ``d[0]`` nonzero,
``V @ d`` gains only signed zeros from the other columns, as for the
column masks below.

The encoder has its own flat rule (:func:`_flat_super_rays`), decided
before any coarsening: a super-ray is flat when its pixel samples are one
value per channel, its pixel graph is connected, and
:func:`spectral.dc_only`'s probe bound holds for that constant signal at
the unit's size ``min(n_target, n)``.  Its signal is that value repeated
``n`` times, as the coarse mean and rounding give it, and its basis
:func:`spectral.dc_basis`; it gets no coarsening, no coarse mean and no
eigen-stage entry.  The same three facts keep its levels those of its
coarsened and solved basis, in which the bound makes every level past
the DC one 0, so grouping, residuals and the stream are unchanged.  A
flat main that a member reads past column 0 has its pixel graph built
again from its rows once grouping has picked it, coarsened, and solved
again, whole, as below.

The structure section is :func:`spectral.partition_super_ray`'s ``bits``
as they are, which the decoder hands to :func:`spectral.partition_with_tree`
to parse and replay; an empty section means coarse mode.  The groups
section is the groups in label form (:func:`_group_symbols`): the
encoder's grouping pass is the only one, and the decoder checks the labels
in one pass (:func:`_groups_from_symbols`).  The coefficient section is
every coefficient vector's extent, then each vector's symbols up to it,
its DC level predicted from the previous unit's
(:func:`_coefficient_symbols`, :func:`_levels_from_symbols`).

Each side builds the pixel graphs of all its units (super-rays, or
partition parts) in one :func:`spectral.graph_structure` call, their
disjoint union, and :func:`spectral.split_graph` gives each unit its own
graph with local vertex ids.  A graph is its vertex count and edge list;
a unit's vertex i is row i of its pixels, where the encoder reads its
samples and the decoder writes them.  Units often repeat whole graphs, so
units with one vertex count and edge list share a Laplacian and a
bit-equal basis.  Each side coarsens each distinct pixel graph that its
units that are not flat read once, keeps only the coarse graph and
``fine_to_coarse`` of each unit, and runs its eigen stage once per
stream, as one batched :func:`spectral.eigendecompose_all` call over the
distinct graphs its units read; every unit that reads a graph shares its
result.  The decoder passes column masks to that call: a basis column is
needed when a dequantized coefficient of any channel at its index is
nonzero, for any unit that reads the basis, so degenerate eigenvalue
clusters that no nonzero coefficient reads are never canonicalized and
come back as zeros.  The samples are those of full bases: the inverse
GFT ``V @ c`` gains only signed zeros from those columns, and rounding
maps a zero sum of either sign to 0.  The encoder passes probes instead:
every unit that is not flat hands the eigen stage its channel signals
and quantizer steps, and the clusters in which every one of them must
quantize to level 0 are dropped the same way.  Their levels are 0 in the
full basis too, so the levels are those of full bases.  A member
predicted from a group's main reads the main's basis at its own nonzero
coefficients, which the main's probe does not see: after grouping, each
main with a dropped column that such a member reads is solved again,
whole, in one more eigen-stage call without probes, so the residuals,
and the stream, are those of full bases.  A connected graph's basis has
the exact constant DC column, and a connected graph whose mask (decoder)
or probe (encoder) shows that nothing past that column is read takes it
alone, with no Laplacian and no solve (:func:`spectral.dc_only`); a
member reading past its main's DC column has the main re-solved as
above.  The reports' ``eig_count``
stays the paper's count (every unit on the encoder, ungrouped units plus
one main per group on the decoder) and ``eig_solved`` counts the
distinct graphs sent to LAPACK behind it, the encoder's re-solved mains
included.
Everything outside wall-clock timings is a deterministic function of
(light field, disparity map, config): canonical orderings throughout, and
no thread pool.  ``CodecConfig.threads`` and ``decode(threads=)`` are
validated (>= 1) and have no other effect; they stay only because
``perfbench/workloads.py``, ``perfbench/harness.py`` and the determinism
criterion of ``tests/test_acceptance.py`` pass them.
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
    select_main,
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
    connected_graphs,
    dc_basis,
    dc_only,
    eigendecompose,  # not called here; perfbench/spans.py traces this name
    eigendecompose_all,
    graph_structure,
    laplacian,
    partition_super_ray,
    partition_with_tree,
    split_graph,
)
from .transform import gft, predict_signal, quantize
from .util import round_half_away, round_half_away_int

_U32_MAX = (1 << 32) - 1


@dataclass
class CodecConfig:
    q_gft: float = 16.0
    n_target: int = 256
    max_vertices: int = 512
    q_switch: int = 16
    slic_k: int = 100
    compactness: float = 10.0
    bin_width: float = 5.0
    grouping: bool = True
    channels: str = "y"          # 'y' | 'all'
    threads: int = 1

    def validate(self):
        for name in ("q_gft", "compactness", "bin_width"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.q_gft <= 0:
            raise ValueError("q_gft must be positive")
        if self.n_target < 1 or self.max_vertices < 1 or self.q_switch < 0:
            raise ValueError("size thresholds must be positive")
        if self.n_target > _U32_MAX:
            raise ValueError("n_target must fit in 32 bits")
        if self.slic_k < 1 or self.compactness <= 0 or self.bin_width <= 0:
            raise ValueError("segmentation/grouping parameters must be positive")
        if self.channels not in ("y", "all"):
            raise ValueError(f"unknown channel mode {self.channels!r}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


@dataclass
class CodingUnit:
    """One coded unit on ``n`` vertices: a coarsened super-ray
    (``fine_to_coarse`` set, each pixel's vertex of ``graph``) or a
    partition part (``graph`` is its own pixel graph).  ``pixels`` are the
    (view, y, x) rows of the super-ray or part, shared with it.  A flat
    unit, of the encoder (:func:`_flat_super_rays`) or of the decoder
    (:func:`_flat_units`), has neither ``graph`` nor ``fine_to_coarse``,
    unless it is the main of a member that reads it past column 0 (the
    encoder) or that is not flat (the decoder)."""

    n: int
    pixels: np.ndarray
    graph: object = None
    fine_to_coarse: np.ndarray = None
    signals: np.ndarray = None  # (channels, n) int samples (encoder side only)


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
    eig_solved: int = 0       # distinct graphs sent to LAPACK, re-solved mains included
    # distinct pixel graphs coarsened: none of a flat unit, unless it is a
    # main solved again (counted in a pass of its own)
    coarsened: int = 0
    # seconds per stage in pipeline order; "graphs" builds (and partitions)
    # the pixel graphs, "coarsen" takes the unit signals, applies the flat
    # rule and coarsens the other units' graphs
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
            f"coarsened_encoder={self.coarsened}",
        ]
        out += [f"t_{k}_s={v:.6f}" for k, v in self.times.items()]
        return out


@dataclass
class DecodeReport:
    unit_count: int = 0
    group_count: int = 0
    grouped_count: int = 0
    eig_count: int = 0        # the paper's count: ungrouped units + groups
    eig_solved: int = 0       # distinct graphs sent to LAPACK
    coarsened: int = 0        # distinct pixel graphs coarsened: none of a flat unit
    # seconds per stage: "entropy" first, the entropy decoding of every
    # section, then the rest in pipeline order without it; "graphs" as in
    # EncodeReport, "coarsen" the flat rule and the coarsening after the
    # groups are read
    times: dict = field(default_factory=dict)
    debug: object = None

    def to_lines(self):
        out = [
            f"units={self.unit_count}",
            f"groups={self.group_count}",
            f"grouped={self.grouped_count}",
            f"eig_decoder={self.eig_count}",
            f"eig_solved_decoder={self.eig_solved}",
            f"coarsened_decoder={self.coarsened}",
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


def _unit_sizes(fines, mode, n_target):
    """Every unit's vertex count, from its pixel graph: ``min(n_target,
    n)`` coarsened, as :func:`coarsen` returns it, ``n`` a partition part."""
    return [min(g.n, n_target) if mode == "coarse" else g.n for g in fines]


def _coarsen_graphs(fines, n_target):
    """((coarse graph, fine_to_coarse) of every pixel graph, the number of
    distinct pixel graphs): each distinct graph is coarsened once, and
    units share the pair, which is only read."""
    distinct, which = _distinct_graphs(fines)
    coarse = [coarsen(g, n_target) for g in distinct]
    return [coarse[i] for i in which], len(distinct)


def _eigenbases(graphs, needed=None, probes=None):
    """(the eigenbasis of every graph, the number of distinct graphs
    solved by LAPACK).  Equal graphs share one basis, which is only read.
    ``needed`` is None or one column mask per graph; a distinct graph's
    mask is the OR of its graphs' masks.  ``probes`` is None or one probe
    (signals, steps) per graph; a distinct graph's probe stacks its
    graphs' signals under the smallest of their steps.  A distinct graph
    that :func:`dc_only` passes takes :func:`dc_basis`, with no Laplacian
    built, and the Laplacians of the others are built once and solved in
    one :func:`eigendecompose_all` call."""
    distinct, which = _distinct_graphs(graphs)
    masks = None
    if needed is not None:
        masks = [np.zeros(g.n, dtype=bool) for g in distinct]
        for i, mask in zip(which, needed):
            masks[i] |= mask
    merged = None
    if probes is not None:
        shared = [[] for _ in distinct]
        for i, probe in zip(which, probes):
            shared[i].append(probe)
        merged = [
            (np.concatenate([s for s, _ in ps]), np.minimum.reduce([q for _, q in ps]))
            for ps in shared
        ]
    closed = dc_only(distinct, masks, merged)
    solve = np.flatnonzero(~closed).tolist()
    solved = iter(eigendecompose_all(
        (laplacian(distinct[i]) for i in solve),
        None if masks is None else [masks[i] for i in solve],
        None if merged is None else [merged[i] for i in solve],
    ))
    bases = [dc_basis(g.n) if c else next(solved) for g, c in zip(distinct, closed.tolist())]
    return [bases[i] for i in which], len(solve)


def _vector_sizes(sizes, n_channels):
    """Length of every coefficient vector of units of ``sizes`` vertices,
    unit-major, channel-minor."""
    return np.repeat(sizes, n_channels)


def _coefficient_steps(sizes, n_channels, q_gft):
    """Quantizer step of every coefficient of every unit and channel, for
    units of ``sizes`` vertices, laid out back to back (unit-major,
    channel-minor): min(q_gft, 1) at each vector's DC index, so a constant
    signal survives any q_gft >= 1, and q_gft elsewhere.  Returns (steps,
    start of each vector)."""
    lengths = _vector_sizes(sizes, n_channels)
    starts = np.cumsum(lengths) - lengths
    steps = np.full(lengths.sum(), float(q_gft))
    steps[starts] = min(q_gft, 1.0)
    return steps, starts


def _dequantize_units(levels, sizes, n_channels, q_gft):
    """Dequantize the back-to-back coefficient levels of every unit and
    channel in one multiply by :func:`_coefficient_steps`.  Returns one
    (channels, n) array per unit."""
    steps, starts = _coefficient_steps(sizes, n_channels, q_gft)
    flat = np.split(levels.astype(np.float64) * steps, starts[n_channels::n_channels])
    return [block.reshape(n_channels, -1) for block in flat]


def _groupable_positions(mode, sizes, n_target, grouping):
    """The units that may group: with grouping on, the coarsened ones
    ('coarse' mode) of exactly ``n_target`` vertices."""
    if not grouping or mode != "coarse":
        return []
    return [i for i, n in enumerate(sizes) if n == n_target]


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


def _predict_dc(prev, n_prev, n):
    """A vector's DC level prediction from ``prev``, the DC level of the
    previous unit's vector in its channel, of length ``n_prev``: a DC
    coefficient is the mean times sqrt(n), so the prediction carries that
    unit's mean to this unit's length."""
    return round_half_away(prev / math.sqrt(n_prev) * math.sqrt(n))


def _coefficient_symbols(levels, sizes, n_channels):
    """Section-4 symbols of the back-to-back levels of vectors of lengths
    ``sizes`` (unit-major, channel-minor): every vector's extent, then
    every vector's coded symbols up to its extent.  A vector's symbol 0 is
    its DC level minus :func:`_predict_dc` (0 for the first unit), its
    extent the index of its last nonzero symbol plus 1.  Returns (symbols,
    head), ``head`` the vector count; a DC residual of 2**49 or more in
    magnitude raises ValueError."""
    starts = np.cumsum(sizes) - sizes
    dc, n = levels[starts].tolist(), sizes.tolist()
    residuals = dc[:n_channels] + [
        dc[j] - _predict_dc(dc[j - n_channels], n[j - n_channels], n[j])
        for j in range(n_channels, len(dc))
    ]
    if any(abs(r) >= SYMBOL_LIMIT for r in residuals):
        raise ValueError("a DC residual has magnitude of 2**49 or more")
    coded = levels.copy()
    coded[starts] = residuals
    local = np.arange(coded.size) - np.repeat(starts, sizes)
    extents = np.maximum.reduceat(np.where(coded != 0, local + 1, 0), starts)
    kept = coded[local < np.repeat(extents, sizes)]
    return extents.tolist() + kept.tolist(), len(dc)


def _levels_from_symbols(syms, sizes, n_channels):
    """Inverse of :func:`_coefficient_symbols`.  A section that no encoder
    writes raises CorruptStreamError: an extent outside 0..n, a count
    other than the vector count plus the extents, a vector whose last
    coded symbol is 0, or a DC level of 2**49 or more in magnitude."""
    m = sizes.size
    extents = syms[:m]
    if ((extents < 0) | (extents > sizes)).any():
        raise CorruptStreamError("corrupt stream: coefficient extent outside 0..n")
    expected = m + int(extents.sum())
    if syms.size != expected:
        raise CorruptStreamError(
            f"corrupt stream: coefficients section holds {syms.size} symbols, "
            f"expected {expected}"
        )
    runs = syms[m:]
    ends = np.cumsum(extents)
    if (runs[ends[extents > 0] - 1] == 0).any():
        raise CorruptStreamError("corrupt stream: coefficient vector ends in a zero")
    starts = np.cumsum(sizes) - sizes
    levels = np.zeros(int(sizes.sum()), dtype=np.int64)
    levels[np.repeat(starts - ends + extents, extents) + np.arange(runs.size)] = runs
    dc, n = levels[starts].tolist(), sizes.tolist()
    for j in range(n_channels, m):
        dc[j] += _predict_dc(dc[j - n_channels], n[j - n_channels], n[j])
        if abs(dc[j]) >= SYMBOL_LIMIT:
            raise CorruptStreamError(f"corrupt stream: DC level of vector {j} reaches 2**49")
    levels[starts] = dc
    return levels


def _group_symbols(groups, m):
    """Label form of ``groups`` over m groupable positions: one symbol per
    position, 0 when it is ungrouped and otherwise its group number 1..G,
    then each group's main as its rank among the group's members.  Groups
    are numbered in the order they are listed, by smallest member."""
    labels = [0] * m
    for number, g in enumerate(groups, start=1):
        for pos in g.members:
            labels[pos] = number
    return labels + [g.members.index(g.main_index) for g in groups]


def _groups_from_symbols(syms, m):
    """Inverse of ``_group_symbols`` in one pass over the labels: groups
    by smallest member, members ascending.  A stream that no encoder
    writes raises CorruptStreamError: too few symbols, a label outside
    0..m // 2, group numbers that do not first appear as 1, 2, ..., G in
    order, a group of fewer than 2 members, a count other than m + G, or
    a rank outside its group."""
    syms = np.asarray(syms, dtype=np.int64)
    if syms.size < m:
        raise CorruptStreamError(
            f"corrupt stream: groups section holds {syms.size} symbols, "
            f"fewer than the {m} groupable units"
        )
    labels = syms[:m]
    if ((labels < 0) | (labels > m // 2)).any():
        raise CorruptStreamError(f"corrupt stream: group label outside 0..{m // 2}")
    # numbered by first appearance: no label exceeds 1 + every label before it
    before = np.maximum.accumulate(np.concatenate([[0], labels]))[:-1]
    if (labels > before + 1).any():
        raise CorruptStreamError("corrupt stream: group numbers not in order of first member")
    sizes = np.bincount(labels, minlength=1)[1:]
    if (sizes < 2).any():
        raise CorruptStreamError("corrupt stream: group of fewer than 2 members")
    if syms.size != m + sizes.size:
        raise CorruptStreamError(
            f"corrupt stream: groups section holds {syms.size} symbols, "
            f"expected {m + sizes.size}"
        )
    ranks = syms[m:]
    if ((ranks < 0) | (ranks >= sizes)).any():
        raise CorruptStreamError("corrupt stream: group main rank out of range")
    members = [[] for _ in sizes]
    for pos, label in enumerate(labels.tolist()):
        if label:
            members[label - 1].append(pos)
    return [
        SuperRayGroup(members=tuple(ms), main_index=ms[rank])
        for ms, rank in zip(members, ranks.tolist())
    ]


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------

def _flat_super_rays(fines, samples, steps):
    """Which super-rays are flat, as a bool array: the pixel samples
    ``samples[i]``, (channels, pixels), are one value per channel, and
    :func:`dc_only` passes the pixel graph ``fines[i]`` (connected) with
    that value repeated over the unit's ``len(steps[i])`` vertices as its
    probe under its quantizer steps ``steps[i]``.  That repetition is the
    unit's coarse signal, and it quantizes to the levels of
    :func:`dc_basis` in the solved basis of its coarse graph too, by the
    facts of the module docstring."""
    candidates = [i for i, s in enumerate(samples) if (s == s[:, :1]).all()]
    flat = np.zeros(len(samples), dtype=bool)
    flat[candidates] = dc_only([fines[i] for i in candidates], probes=[
        (np.repeat(samples[i][:, :1], steps[i].size, axis=1), steps[i]) for i in candidates
    ])
    return flat


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
    # one (views, H, W) int64 sample volume per coded channel; SLIC reads
    # the reference view's luma, and with every channel coded the luma
    # volume goes once it has
    luma = lf.luma_planes()
    seg_ref = slic_segment(luma[0], cfg.slic_k, cfg.compactness)
    volumes = [luma]
    if cfg.channels == "all" and lf.channels == 3:
        volumes = [lf.channel_planes(c) for c in range(3)]
    del luma
    n_channels = len(volumes)

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
    # every unit's pixel graph, out of one graph_structure call
    fines = split_graph(graph_structure(sources, lf.angular_dims), sources)
    sizes = _unit_sizes(fines, mode, cfg.n_target)
    # each unit's quantizer steps, equal in all channels
    steps, starts = _coefficient_steps(sizes, n_channels, cfg.q_gft)
    unit_steps = [steps[lo : lo + n] for lo, n in zip(starts[::n_channels].tolist(), sizes)]
    watch.lap("graphs")
    units = [CodingUnit(n=n, pixels=src.pixels) for n, src in zip(sizes, sources)]
    for u in units:
        u.signals = np.stack([volume[tuple(u.pixels.T)] for volume in volumes])
    flat = [False] * len(units)
    if mode == "coarse":
        flat = _flat_super_rays(fines, [u.signals for u in units], unit_steps).tolist()
    live = [i for i, f in enumerate(flat) if not f]
    # in coarse mode the pixel graphs of the units that are not flat are
    # coarsened to n_target vertices, and freed on return
    pairs, coarsened = (
        _coarsen_graphs([fines[i] for i in live], cfg.n_target) if mode == "coarse"
        else ([(fines[i], None) for i in live], 0)
    )
    del fines
    for i, (graph, f2c) in zip(live, pairs):
        u = units[i]
        u.graph, u.fine_to_coarse = graph, f2c
        if f2c is not None:
            u.signals = np.clip(round_half_away_int(
                [coarse_mean_signal(f2c, f) for f in u.signals]
            ), 0, maxval)
    del pairs
    # a flat unit's coarse signal is its one value per channel
    for u, f in zip(units, flat):
        if f:
            u.signals = np.repeat(u.signals[:, :1], u.n, axis=1)
    watch.lap("coarsen")

    # every unit that is not flat probes with its signals and steps, so the
    # eigen stage drops the clusters whose levels must be 0; a flat unit
    # reads the closed-form DC basis, one per size
    solved, eig_solved = _eigenbases(
        [units[i].graph for i in live], probes=[(units[i].signals, unit_steps[i]) for i in live]
    )
    dc = {n: dc_basis(n) for n in {u.n for u, f in zip(units, flat) if f}}
    solved = iter(solved)
    bases = [dc[u.n] if f else next(solved) for u, f in zip(units, flat)]
    coeffs = np.concatenate([
        gft(basis, signal) for basis, u in zip(bases, units) for signal in u.signals
    ])
    levels = quantize(coeffs, steps)
    deq = _dequantize_units(levels, sizes, n_channels, cfg.q_gft)
    eig_count = len(units)
    watch.lap("eigen_transform")

    groupable = _groupable_positions(mode, sizes, cfg.n_target, cfg.grouping)
    merged, threshold = derive_group_members([deq[u][0] for u in groupable], cfg.bin_width)
    signals = [units[u].signals[0] for u in groupable]
    groups = [
        SuperRayGroup(members=members, main_index=select_main(members, signals))
        for members in merged
    ]
    watch.lap("grouping")

    # a member's prediction reads its main's basis at the member's nonzero
    # coefficients, which the decoder's column mask keeps with full-basis
    # bits: a main whose probe dropped (zeroed) such a column is solved
    # again, whole; a flat main first has its pixel graph built again from
    # its rows, and coarsened
    predicted = _predicted_members(groups, groupable)
    resolve = list(dict.fromkeys(
        main for member, main in predicted.items()
        if ((deq[member] != 0).any(axis=0) & ~bases[main].vectors.any(axis=0)).any()
    ))
    if resolve:
        late = [i for i in resolve if flat[i]]
        if late:
            rows = [sources[i] for i in late]
            pairs, count = _coarsen_graphs(
                split_graph(graph_structure(rows, lf.angular_dims), rows), cfg.n_target
            )
            coarsened += count
            for i, (graph, f2c) in zip(late, pairs):
                units[i].graph, units[i].fine_to_coarse = graph, f2c
        full, count = _eigenbases([units[i].graph for i in resolve])
        for i, basis in zip(resolve, full):
            bases[i] = basis
        eig_solved += count
    residual_syms = []
    for member, main in predicted.items():
        for d, signal in zip(deq[member], units[member].signals):
            _, residual = predict_and_residual(bases[main], d, signal, maxval)
            residual_syms.extend(residual.tolist())
    watch.lap("residuals")

    # (symbols, head): the coefficient section opens with a head of extents
    symbols = {
        bs.SEC_SEGMENTATION: (_segmentation_symbols(seg_ref.reference), 0),
        bs.SEC_DISPARITY: (round_half_away_int(disparities * 8).tolist(), 0),
        bs.SEC_STRUCTURE: (structure, 0),
        bs.SEC_COEFFICIENTS: _coefficient_symbols(
            levels, _vector_sizes(sizes, n_channels), n_channels
        ),
        bs.SEC_GROUPS: (_group_symbols(groups, len(groupable)), 0),
        bs.SEC_RESIDUALS: (residual_syms, 0),
    }
    sections = {
        sid: bs.pack_section(len(syms), entropy_encode(syms, bs.SECTION_CONTEXTS[sid], head))
        for sid, (syms, head) in symbols.items()
    }
    header = StreamHeader(
        angular_dims=lf.angular_dims,
        spatial_dims=lf.spatial_dims,
        bit_depth=lf.bit_depth,
        channels=n_channels,
        grouping=cfg.grouping,
        label_count=seg_ref.label_count,
        n_target=cfg.n_target,
        q_gft=cfg.q_gft,
    )
    stream = Bitstream(header=header, sections=sections)
    watch.lap("entropy")

    coarse_units = len(units) if mode == "coarse" else 0
    m = len(groupable)
    report = EncodeReport(
        super_ray_count=seg_ref.label_count,
        unit_count=len(units),
        coarsened_count=coarse_units,
        partitioned_count=len(units) - coarse_units,
        pair_count=m * (m - 1) // 2,
        mse_threshold=threshold,
        group_count=len(groups),
        grouped_count=sum(len(g.members) for g in groups),
        eig_count=eig_count,
        eig_solved=eig_solved,
        coarsened=coarsened,
        times=watch.times,
    )
    if debug:
        report.debug = _DebugInfo(
            units=units,
            group_set=GroupSet.over(groups, m, threshold),
            groupable=groupable,
            dequantized=deq,
        )
    return stream, report


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------

def _flat_units(fines, deq, predicted, residuals):
    """Which units are flat, as a bool array: every channel's dequantized
    vector ``deq[i]`` is zero past index 0, the pixel graph of the basis
    the unit reads (``fines[i]``, a grouped member's main's) is connected,
    and a grouped member's ``residuals[i]`` is one value per channel.  A
    flat unit's samples are :func:`predict_signal` on :func:`dc_basis`
    plus its residual, exactly those of its coarsening and eigen-stage
    basis, by the three facts of the module docstring."""
    candidates = [
        i for i, d in enumerate(deq)
        if not d[:, 1:].any()
        and (i not in residuals or (residuals[i] == residuals[i][:, :1]).all())
    ]
    distinct, which = _distinct_graphs([fines[predicted.get(i, i)] for i in candidates])
    flat = np.zeros(len(deq), dtype=bool)
    flat[candidates] = connected_graphs(distinct)[which]
    return flat


def decode(stream: Bitstream, threads=1, debug=False):
    """Decode a bitstream; returns (LightField, DecodeReport).  ``threads``
    must be >= 1 and has no other effect."""
    if threads < 1:
        raise ValueError("threads must be >= 1")
    watch = _Stopwatch()
    hdr = stream.header
    hdr.check()
    s_count, t_count = hdr.angular_dims
    w, h = hdr.spatial_dims
    maxval = (1 << hdr.bit_depth) - 1

    def section_symbols(sid, least, most=None, head=0):
        """Entropy-decode a section whose declared symbol count is
        ``least`` (or from ``least`` to ``most``), the first ``head``
        symbols under the extent contexts; the count is checked first, so
        a lying count costs no decoding work."""
        name = bs.SECTION_NAMES[sid]
        if sid not in stream.sections:
            raise CorruptStreamError(f"corrupt stream: missing section '{name}'")
        count, payload = bs.unpack_section(stream.sections[sid], sid)
        most = least if most is None else most
        if not least <= count <= most:
            bound = str(most) if least == most else (
                f"at most {most}" if least == 0 else f"{least} to {most}"
            )
            raise CorruptStreamError(
                f"corrupt stream: section '{name}' declares {count} symbols, "
                f"expected {bound}"
            )
        start = time.perf_counter()
        syms = entropy_decode(payload, count, bs.SECTION_CONTEXTS[sid], head)
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
    disparities = disp_syms / 8.0
    watch.lap("segmentation")

    seg_ref = SegmentationMap(labels=ref_labels[None], label_count=hdr.label_count)
    seg_all = project_labels(seg_ref, disparities, hdr.angular_dims)
    srs = assemble_super_rays(seg_all, disparities)
    watch.lap("projection")

    # 2P - 1 tree nodes for P parts, and every part keeps at least one
    # reference pixel; an empty section codes every label coarsened
    struct_syms = section_symbols(bs.SEC_STRUCTURE, 0, 2 * w * h)
    mode = "part" if len(struct_syms) else "coarse"
    try:
        sources = srs
        if mode == "part":
            sources = partition_with_tree(srs, struct_syms, hdr.angular_dims)
        fines = split_graph(graph_structure(sources, hdr.angular_dims), sources)
    except ValueError as e:
        raise CorruptStreamError(f"corrupt stream: {e}") from e
    sizes = _unit_sizes(fines, mode, hdr.n_target)
    watch.lap("graphs")

    n_channels = hdr.channels
    # one extent per vector, then at most every coefficient
    lengths = _vector_sizes(sizes, n_channels)
    coeff_syms = section_symbols(
        bs.SEC_COEFFICIENTS, lengths.size, lengths.size + int(lengths.sum()), head=lengths.size
    )
    levels = _levels_from_symbols(coeff_syms, lengths, n_channels)
    deq = _dequantize_units(levels, sizes, n_channels, hdr.q_gft)
    watch.lap("dequantize")

    groupable = _groupable_positions(mode, sizes, hdr.n_target, hdr.grouping)
    # m labels and one rank per group of at least 2: at most m + m // 2
    m = len(groupable)
    groups = _groups_from_symbols(section_symbols(bs.SEC_GROUPS, 0, m + m // 2), m)
    predicted = _predicted_members(groups, groupable)
    resid_syms = section_symbols(bs.SEC_RESIDUALS, sum(sizes[i] for i in predicted) * n_channels)
    ends = np.cumsum([sizes[i] * n_channels for i in predicted])
    residuals = {
        i: block.reshape(n_channels, -1)
        for i, block in zip(predicted, np.split(resid_syms, ends[:-1]))
    }
    watch.lap("grouping")

    # every section is read: only now is a pixel graph coarsened, and only
    # one that a non-flat unit reads, its own or a member's main's; a
    # partition part has no coarsening to skip, and the eigen stage gives a
    # connected one that reads only its DC column the closed form once per
    # distinct graph
    flat = [False] * len(sizes)
    if mode == "coarse":
        flat = _flat_units(fines, deq, predicted, residuals).tolist()
    live = [i for i, f in enumerate(flat) if not f]
    need = sorted({*live, *(predicted[i] for i in live if i in predicted)})
    pairs, coarsened = (
        _coarsen_graphs([fines[i] for i in need], hdr.n_target) if mode == "coarse"
        else ([(fines[i], None) for i in need], 0)
    )
    units = [CodingUnit(n=n, pixels=src.pixels) for n, src in zip(sizes, sources)]
    for i, (graph, f2c) in zip(need, pairs):
        units[i].graph, units[i].fine_to_coarse = graph, f2c
    del fines, pairs
    watch.lap("coarsen")

    # each non-flat unit reads the basis of its own graph, a member its
    # main's, at the columns of its nonzero coefficients in any channel; a
    # member's graph is its main's, so the eigen stage solves its main
    # once, at the OR of their columns
    solved, eig_solved = _eigenbases(
        [units[predicted.get(i, i)].graph for i in live],
        [(deq[i] != 0).any(axis=0) for i in live],
    )
    bases = dict(zip(live, solved))
    eig_count = len(units) - len(predicted)
    watch.lap("eigen")

    # reconstructions lie in [0, maxval], so they go straight into the samples
    samples = np.zeros((n_channels, s_count * t_count, h, w), dtype=_sample_dtype(hdr.bit_depth))
    recon_units = []
    for i, u in enumerate(units):
        basis = dc_basis(u.n) if flat[i] else bases[i]
        rec = np.array([predict_signal(basis, d, maxval) for d in deq[i]])
        if i in residuals:
            # the encoder's residual is signal - prediction, with the
            # signal in range: a sum outside it is a corrupt residual
            rec += residuals[i]
            if rec.min() < 0 or rec.max() > maxval:
                raise CorruptStreamError(
                    f"corrupt stream: residual of unit {i} leaves [0, {maxval}]"
                )
        # a flat unit's samples are its one value per channel
        samples[(slice(None), *u.pixels.T)] = (
            rec[:, :1] if flat[i] else rec if u.fine_to_coarse is None
            else rec[:, u.fine_to_coarse]
        )
        if debug:
            recon_units.append(rec)
    watch.lap("reconstruct")

    views = [View(planes=list(samples[:, v])) for v in range(s_count * t_count)]
    lf = LightField(views=views, angular_dims=hdr.angular_dims, bit_depth=hdr.bit_depth)
    watch.lap("assembly")

    report = DecodeReport(
        unit_count=len(units),
        group_count=len(groups),
        grouped_count=sum(len(g.members) for g in groups),
        eig_count=eig_count,
        eig_solved=eig_solved,
        coarsened=coarsened,
        times=watch.times,
    )
    if debug:
        report.debug = _DebugInfo(
            units=units,
            # the decoder never learns the encoder's MSE threshold
            group_set=GroupSet.over(groups, m, None),
            groupable=groupable,
            dequantized=deq,
            reconstructed=recon_units,
        )
    return lf, report
