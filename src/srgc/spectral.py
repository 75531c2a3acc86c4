"""Local graphs per super-ray: Laplacians, eigenbases, coarsening, partitioning.

A super-ray's local graph connects 4-neighbor pixels inside each per-view
super-pixel (spatial edges) and each reference-view pixel to its
disparity-projected pixel in every other view (angular edges, a star over
views).  Vertices are ordered canonically: views in raster (s, t) order,
pixels in raster order inside a view.  That ordering is the contract the
whole codec builds on; encoder and decoder must construct identical graphs
from identical labels and disparities.  A ``SuperRay`` stores its pixels
in that order, as (view, y, x) rows, and row i is its graph's vertex i;
partition children keep the order too.  A ``LocalGraph`` is topology
only, ``(n, edges)``: the codec reads a unit's samples at its pixel rows.
Graphs are built once per stream: :func:`graph_structure` takes all units
of a codec side at once and returns their disjoint union, and
:func:`split_graph` cuts it into each unit's own graph.

Eigendecomposition is deterministic: eigenvalues ascending, near-repeated
eigenvalue subspaces re-based by Gram-Schmidt against coordinate axes in
index order, and every column's largest-magnitude entry made positive
(ties to the lowest index).  The re-basing runs as right-looking modified
Gram-Schmidt on the rows of each cluster block, one step per picked axis:
the pivots are the axes the per-axis projection would pick, in the same
order and under the same 1e-7 tolerance.  For a disconnected graph this
makes the zero-eigenvalue basis the set of normalized component
indicators.  When column 0 is a cluster of its own, which for a
Laplacian means a connected graph (:func:`eigendecompose_all` gives the
bound), it is exactly the constant unit vector ``1 / sqrt(n)``, the null
space of the Laplacian: LAPACK's own column 0 is off by rounding noise,
which would move DC levels that sit on a rounding tie.
:func:`dc_basis` is that column alone, and :func:`dc_only` says when it
is all a caller reads, so the graph needs no LAPACK solve at all; the
codec's ``eig_solved`` counts LAPACK solves only.
:func:`eigendecompose_all` runs the whole stage batched: one
stacked LAPACK call per size n (per 256 KiB of matrices), and one stacked
Gram-Schmidt per stack and cluster size over all such clusters, with
results bit-equal to diagonalizing each Laplacian alone.  Given column
masks, it leaves the clusters with no needed column out of the
Gram-Schmidt and returns them as zeros; given probes (signals and their
quantizer steps), it does the same with the clusters in which every
signal must quantize to level 0 in any orthonormal basis of their span.

Coarsening reduces a graph to an exact target vertex count by repeated
heavy-edge matching (unit weights initially, merged-edge multiplicity as
weight).  Each round scans vertices in index order; an unmatched vertex
takes its unmatched neighbor of largest weight, ties to the smallest
neighbor index, and the scan stops once the remaining budget of pairs is
matched, so the final round may merge as little as one pair.  Graphs whose
components run out of edges fall back to merging the two smallest
supernodes (ties to the smaller first member), so the target count is
always reached.  Supernodes are always ordered by their smallest fine
member.  The graph is held as int arrays throughout: sorted weighted
edge lists and ``fine_to_coarse``, each fine vertex's supernode, which
each contraction composes with its old-to-new id map and
:func:`coarsen` returns with the coarse graph.  Only the matching scan
itself is a Python loop, because its order defines the result.  It reads
only each vertex's higher neighbors, in preference order (weight
descending, then index), and takes the first unmatched one: every lower
neighbor of a vertex is already matched when the scan reaches it, so
this is exactly the scan over all neighbors, run as one forward walk
over the edge list.

Partitioning bisects a super-ray's reference region recursively and
hands each non-reference pixel to the child whose projected reference
pixels reach it, or by majority fill.  Both codec sides walk the split
trees of all super-rays at once, breadth first: stacked reprojections of
up to ``_SPLIT_ROWS`` pixel rows split the nodes of one tree depth
together, and each child keeps the canonical order of its parent's
rows.  The split trees exist in one form, the structure section's bit
list: every super-ray's tree in depth-first preorder, back to back.  The
encoder's walk writes it from its sorted nodes, and the decoder parses
it in one loop into the nodes its walk replays.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError
from .segmentation import SuperRay, fill_cells, label_shifts
from .util import component_roots

_EIG_RECON_TOL = 1e-8
_EIG_ORTHO_TOL = 1e-8
_EIG_CLUSTER_TOL = 1e-9
_EIG_PICK_TOL = 1e-7
_PROBE_REL = 1e-6  # margins of the probe rule: see eigendecompose_all
_PROBE_ABS = 1e-9
_EIG_STACK_BYTES = 1 << 18  # matrices per stacked call: bounds the scratch memory
_SPLIT_ROWS = 1 << 16  # pixel rows per stacked reprojection: bounds the scratch memory


@dataclass
class LocalGraph:
    """Undirected unweighted graph.

    ``edges`` is an (E, 2) int array with i < j per row, lexicographically
    sorted and duplicate-free.
    """

    n: int
    edges: np.ndarray


@dataclass
class Laplacian:
    """L = D - A, symmetric positive semi-definite, integer-valued."""

    matrix: np.ndarray


@dataclass
class EigenBasis:
    """Ascending eigenvalues and the matching orthonormal eigenvector
    columns of a Laplacian, in the deterministic convention above."""

    eigenvalues: np.ndarray
    vectors: np.ndarray


def graph_structure(srs, angular_dims) -> LocalGraph:
    """Assemble the local graph topology of every super-ray (or part) of
    ``srs`` at once, as their disjoint union.

    Spatial edges: 4-neighbor pairs inside each view's pixels of a unit.
    Angular edges: a unit's reference pixel -> its disparity-projected
    pixel in each other view, when that pixel belongs to the same unit.
    Depends only on the pixel rows and the quantized disparities, so
    encoder and decoder build identical graphs from transmitted data.
    Vertex ids run through the units' rows in order, and each unit's
    canonical edge list is one contiguous run of the sorted edge list,
    which :func:`split_graph` cuts into the units' own graphs.

    Precondition: the units are disjoint in pixels (one label per pixel;
    partition children split their parent's rows), so every (view, y, x)
    cell holds at most one vertex.  Every pair has a < b, so the keys
    a * 2**bits + b (2**bits > n) sort into the canonical order with one
    sort, and a shift and a mask take them apart.  No pair repeats, so
    nothing is deduplicated: spatial pairs stay inside a view and angular
    pairs join the reference view to another, and a vertex has one right,
    one down and, per view, one angular partner.
    """
    rows = np.concatenate([sr.pixels for sr in srs] or [np.zeros((0, 3), dtype=np.int64)])
    total = rows.shape[0]
    if not total:
        return LocalGraph(n=0, edges=np.zeros((0, 2), dtype=np.int64))
    bits = total.bit_length()
    keys = _edge_keys(srs, rows, bits, angular_dims)
    keys.sort(kind="stable")  # three ascending runs: timsort merges them
    edges = np.empty((keys.size, 2), dtype=np.int64)
    np.right_shift(keys, bits, out=edges[:, 0])
    np.bitwise_and(keys, (1 << bits) - 1, out=edges[:, 1])
    return LocalGraph(n=total, edges=edges)


def _edge_keys(srs, rows, bits, angular_dims):
    """The keys a * 2**bits + b of every edge of :func:`graph_structure`'s
    union of ``srs``, whose rows are ``rows``: the right, the down and the
    angular pairs, three ascending runs.  Its temporaries are released on
    return, before the edge list is built.

    Vertex ids are scattered into one (views, H + 1, W + 1) index volume
    over the bounding box of all rows (the frame, for a whole stream),
    whose padding row and column read -1, and an owner gather keeps a
    looked-up neighbor only when it is in the same unit.  Inside a unit
    the rows are in canonical order, so a right neighbor is the next row
    (a + 1); a down neighbor is a later row of the same view and an
    angular target, looked up at the unit's label shifts and only inside
    the box, a non-reference row of the unit, so a < b throughout."""
    n_views, t_count = angular_dims[0] * angular_dims[1], angular_dims[1]
    # each row's unit, then -1 for the -1 that empty cells read
    owner = np.append(np.repeat(np.arange(len(srs)), [sr.total_pixels for sr in srs]), -1)
    view, y, x = rows.T
    oy, ox = y.min(), x.min()
    h, w = y.max() - oy + 1, x.max() - ox + 1
    # (v, y, x) is cell v * (h + 1) * (w + 1) + (y - oy) * (w + 1) + x - ox
    corner = oy * (w + 1) + ox
    cell = (view * (h + 1) + y) * (w + 1) + x - corner
    index = np.full(n_views * (h + 1) * (w + 1), -1, dtype=np.int64)
    index[cell] = np.arange(rows.shape[0])

    a = np.flatnonzero((np.diff(cell) == 1) & (owner[1:-1] == owner[:-2]))
    right = (a << bits) + a + 1
    cell += w + 1  # now each row's cell below
    b = index[cell]
    a = np.flatnonzero(owner[b] == owner[:-1])
    down = (a << bits) + b[a]

    ref = np.flatnonzero(view == 0)
    dy, dx = label_shifts(
        np.array([sr.disparity for sr in srs])[:, None, None], n_views, t_count
    ).transpose(2, 0, 1)
    ty = y[ref, None] - dy[owner[ref]]
    tx = x[ref, None] - dx[owner[ref]]
    inside = (ty >= oy) & (ty < oy + h) & (tx >= ox) & (tx < ox + w)
    a = np.broadcast_to(ref[:, None], inside.shape)[inside]
    b = index[((np.arange(1, n_views) * (h + 1) + ty) * (w + 1) + tx - corner)[inside]]
    del cell, index, ty, tx, inside  # released before the keys are gathered
    same = owner[b] == owner[a]
    return np.concatenate([right, down, (a[same] << bits) + b[same]])


def split_graph(union: LocalGraph, srs) -> list:
    """Each unit's own LocalGraph out of ``graph_structure(srs, ...)``, in
    the order of ``srs``: local vertex ids (the unit's run of ids minus
    its first) and its run of the edge list, in an array of its own."""
    sizes = np.array([sr.total_pixels for sr in srs], dtype=np.int64)
    stops = np.cumsum(sizes)
    ends = np.searchsorted(union.edges[:, 0], stops).tolist()
    return [
        LocalGraph(n=sr.total_pixels, edges=union.edges[e0:e1] - lo)
        for sr, lo, e0, e1 in zip(srs, (stops - sizes).tolist(), [0, *ends], ends)
    ]


def laplacian(g: LocalGraph) -> Laplacian:
    """L = D - A from the edge list: the degrees on the diagonal (one
    ``bincount``), -1 at both (i, j) and (j, i) of every edge."""
    a, b = g.edges[:, 0], g.edges[:, 1]
    l = np.zeros((g.n, g.n))
    l[np.diag_indices(g.n)] = np.bincount(g.edges.ravel(), minlength=g.n)
    l[np.concatenate([a, b]), np.concatenate([b, a])] = -1.0
    return Laplacian(matrix=l)


def connected_graphs(graphs) -> np.ndarray:
    """Whether each graph of ``graphs`` (each of at least one vertex) is
    connected, from one :func:`util.component_roots` pass over their
    disjoint union: a graph is connected when every one of its vertices
    has its first vertex as root."""
    sizes = np.array([g.n for g in graphs], dtype=np.int64)
    if not sizes.size:
        return np.zeros(0, dtype=bool)
    firsts = np.cumsum(sizes) - sizes
    edges = np.concatenate([g.edges + lo for g, lo in zip(graphs, firsts.tolist())])
    roots = component_roots(int(sizes.sum()), edges[:, 0], edges[:, 1])
    return np.logical_and.reduceat(roots == np.repeat(firsts, sizes), firsts)


def dc_basis(n) -> EigenBasis:
    """The closed-form basis of a connected graph on n vertices whose
    caller reads column 0 only: column 0 is the constant unit vector, as
    :func:`eigendecompose_all` gives it, every other column is zero, and
    so is every eigenvalue but the first, which is not computed (NaN)."""
    vectors = np.zeros((n, n))
    vectors[:, 0] = 1 / np.sqrt(n)
    eigenvalues = np.full(n, np.nan)
    eigenvalues[0] = 0.0
    return EigenBasis(eigenvalues=eigenvalues, vectors=vectors)


def dc_only(graphs, needed=None, probes=None) -> np.ndarray:
    """Which of ``graphs`` take :func:`dc_basis` instead of a solve, given,
    as for :func:`eigendecompose_all`, each one's column mask or its probe
    (neither: none, and no connectivity pass).  A graph qualifies when it
    is connected (:func:`connected_graphs`) and its mask reads nothing
    beyond column 0, or when for every signal f of its probe

        ||f - mean(f)|| * (1 + 1e-6) + (1e-8 + 1e-9) * ||f|| < q / 2,

    where q is the smallest step over columns 1..n - 1 (n = 1 always
    qualifies).  Then every coefficient but the DC one quantizes to level
    0 in the solved basis too, so the levels are the solved basis's.  The
    derivation: the solved basis has column 0 u = 1 / sqrt(n) exactly,
    and the checks bound every other column b by ||b|| <= 1 + 1e-8 and
    |b^T u| <= 1e-8.  With g = f - mean(f), orthogonal to u, f = g +
    (u^T f) u, so |b^T f| <= ||b|| ||g|| + |b^T u| |u^T f| <= (1 + 1e-8)
    ||g|| + 1e-8 ||f||: the relative margin covers ||b|| and the rounding
    of the computed norm, the absolute one the orthogonality tolerance
    plus, as in :func:`eigendecompose_all`'s probe rule, the rounding of
    b^T f and of the mean, at most about n * 2**-53 * ||f|| each.  This is
    that rule with the whole non-DC subspace as one cluster."""
    if needed is not None:
        reads = [mask[1:].any() for mask in needed]
    elif probes is not None:
        reads = []
        for signals, steps in probes:
            g = np.linalg.norm(signals - signals.mean(axis=1, keepdims=True), axis=1)
            bound = g * (1 + _PROBE_REL) + (_EIG_ORTHO_TOL + _PROBE_ABS) * np.linalg.norm(
                signals, axis=1
            )
            half = 0.5 * steps[1:].min(initial=np.inf)
            reads.append(not (bound < half).all())
    else:
        return np.zeros(len(graphs), dtype=bool)
    return connected_graphs(graphs) & ~np.array(reads, dtype=bool)


def _cluster_bounds(vals):
    """(rows, starts, stops) of the eigenvalue clusters of every row of a
    (B, n) array: runs of ascending eigenvalues whose consecutive gaps stay
    below 1e-9, listed row by row."""
    cut = np.ones((vals.shape[0], vals.shape[1] + 1), dtype=bool)
    cut[:, 1:-1] = np.diff(vals, axis=1) >= _EIG_CLUSTER_TOL
    rows, pos = np.nonzero(cut)
    same = rows[:-1] == rows[1:]
    return rows[:-1][same], pos[:-1][same], pos[1:][same]


def _canonical_cluster_bases(v):
    """Deterministic orthonormal basis of span(v[b]) for every block of a
    (B, n, m) stack ``v`` of n x m blocks with orthonormal columns.

    The basis is the Gram-Schmidt sequence of the coordinate axes'
    projections in index order, skipping residuals of norm <= 1e-7.  Since
    v^T v = I, the projection of axis a is v @ v[a] and inner products of
    projections are inner products of rows, so the process runs on the rows
    of each block in R^m: right-looking modified Gram-Schmidt, one step per
    pick index for the whole stack.  Step k takes in every block the first
    row after that block's last pick whose residual is above the tolerance
    and removes that direction from every row with one batched outer
    product; rows up to the pick are never read again.  The result is
    ``v @ B`` for the m x m matrices B of picked directions.
    """
    count, n, m = v.shape
    rows = v.copy()
    picks = np.empty((count, m, m))
    blocks = np.arange(count)
    after = np.zeros((count, 1), dtype=np.int64)  # each block's next row
    for k in range(m):
        norms = np.sqrt(np.einsum("bij,bij->bi", rows, rows))
        above = (norms > _EIG_PICK_TOL) & (np.arange(n) >= after)
        if not above.any(axis=1).all():
            # unreachable for orthonormal v: the residuals left after k < m
            # picks have squared norms summing to m - k >= 1, so some row's
            # residual exceeds the 1e-7 tolerance unless n >= 1e14
            raise DecompositionError(
                f"degenerate eigenspace of dimension {m} spans only {k} axes"
            )
        first = np.argmax(above, axis=1)
        c = rows[blocks, first] / norms[blocks, first][:, None]
        picks[:, :, k] = c
        after[:, 0] = first + 1
        rows -= (rows @ c[:, :, None]) * c[:, None, :]
    return v @ picks


def _apply_sign_convention(vecs):
    """Make each column's largest-magnitude entry positive, first max
    winning ties; ``vecs`` is one n x m matrix or a stack of them."""
    top = np.argmax(np.abs(vecs), axis=-2)[..., None, :]
    lead = np.take_along_axis(vecs, top, axis=-2)
    vecs *= np.where(lead < 0, -1.0, 1.0)
    return vecs


def _eigendecompose_stack(mats, needed=None, probe=None):
    """Diagonalize a (B, n, n) stack of Laplacians; returns the (B, n)
    eigenvalues and the (B, n, n) eigenvectors in the convention above.
    Column 0 is set to the constant unit vector wherever it is a cluster
    of its own (a connected graph: :func:`eigendecompose_all`), before
    the canonicalization and the sign rule see it.

    ``needed`` is None or a (B, n) bool array of the columns the caller
    reads.  ``probe`` is None or (signals, steps): a (B, k, n) stack of
    the signals the caller transforms (zero rows pad a matrix with fewer)
    and the (B, n) quantizer steps of their coefficients.  A degenerate
    cluster is unread when it has no needed column or when every probe
    signal f quantizes to level 0 in it (:func:`eigendecompose_all`
    states the rule).  An unread cluster is not canonicalized, and once
    the checks have judged LAPACK's columns for it, they are set to zero.
    Every other column is as with neither argument."""
    n = mats.shape[1]
    try:
        vals, vecs = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as e:
        raise DecompositionError(f"decomposition failure for {n}x{n} matrix: {e}") from e
    rows, starts, stops = _cluster_bounds(vals)
    sizes = stops - starts
    vecs[rows[(starts == 0) & (sizes == 1)], :, 0] = 1 / np.sqrt(n)
    canon = sizes > 1
    # the clusters tile each row in order: each starts at its flat offset
    offsets = np.cumsum(sizes) - sizes
    read = np.ones_like(canon)
    if needed is not None:
        read &= np.logical_or.reduceat(needed.ravel(), offsets)
    if probe is not None:
        signals, steps = probe
        # ||V_c^T f|| per cluster and signal, from LAPACK's columns V_c
        energy = np.square(vecs.transpose(0, 2, 1) @ signals.transpose(0, 2, 1))
        norms = np.sqrt(np.add.reduceat(energy.reshape(vals.size, -1), offsets))
        bound = norms * (1 + _PROBE_REL) + _PROBE_ABS * np.linalg.norm(signals, axis=2)[rows]
        half = 0.5 * np.minimum.reduceat(steps.ravel(), offsets)
        read &= ~(bound.max(axis=1, initial=0.0) < half)
    dropped = canon & ~read
    canon &= read
    for m in np.unique(sizes[canon]):
        sel = canon & (sizes == m)
        index = (rows[sel, None], slice(None), starts[sel, None] + np.arange(m))
        # advanced indices around a slice put the block axis first: (K, m, n)
        blocks = np.ascontiguousarray(vecs[index].transpose(0, 2, 1))
        vecs[index] = _canonical_cluster_bases(blocks).transpose(0, 2, 1)
    vecs = _apply_sign_convention(vecs)

    scale = np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))
    vecs_t = vecs.transpose(0, 2, 1)
    recon = np.abs(mats - (vecs * vals[:, None, :]) @ vecs_t).max(axis=(1, 2))
    ortho = np.abs(vecs_t @ vecs - np.eye(n)).max(axis=(1, 2))
    bad = (recon > _EIG_RECON_TOL * scale) | (ortho > _EIG_ORTHO_TOL)
    if bad.any():
        b = int(np.argmax(bad))
        raise DecompositionError(
            f"decomposition failure for {n}x{n} matrix: "
            f"residual {recon[b]:.3e}, orthogonality {ortho[b]:.3e}"
        )
    if dropped.any():
        np.copyto(vecs, 0.0, where=np.repeat(dropped, sizes).reshape(-1, 1, n))
    return vals, vecs


def _stack_probes(probes, part, n):
    """The probe argument of :func:`_eigendecompose_stack` for the
    Laplacians ``part`` of size n, or None without probes."""
    if probes is None:
        return None
    k = max(probes[i][0].shape[0] for i in part)
    signals = np.zeros((len(part), k, n))
    steps = np.empty((len(part), n))
    for b, i in enumerate(part):
        signals[b, : probes[i][0].shape[0]], steps[b] = probes[i]
    return signals, steps


def eigendecompose_all(laplacians, needed=None, probes=None) -> list:
    """Diagonalize an iterable of Laplacians into EigenBases, returned in
    input order.

    Laplacians of one size n are stacked, up to 256 KiB of matrices per
    stack, so scratch memory does not grow with the stream, and each
    matrix is released once stacked.  Each stack takes one LAPACK call
    and, per cluster size m, one canonicalization of all its degenerate
    clusters of size m.  Each basis is bit-equal to the one its Laplacian
    gets alone.

    Column 0 is exactly ``np.full(n, 1 / np.sqrt(n))`` when it is a
    cluster of its own.  A Laplacian's zero eigenvalue is simple exactly
    when its graph is connected (Fiedler 1973), and then the constant
    vector spans its null space; a connected graph's second eigenvalue is
    at least 4 / n**2 (Mohar 1991), above the 1e-9 cluster cut for n
    below 6 * 10**4.  So the rule gives a connected graph the exact
    column and leaves a disconnected one its component indicators, with
    no connectivity pass.

    ``needed`` is None (every column) or one length-n bool mask per
    Laplacian, in order: the columns the caller reads.  A degenerate
    cluster with none of its columns needed is never canonicalized and
    comes back as exact zeros, so no column outside the deterministic
    convention is returned; every other column keeps its unmasked bits.
    Products with coefficients that are zero outside the mask are those
    of the full basis, up to the sign of a zero sum.

    ``probes`` is None or one probe per Laplacian, in order:
    (signals, steps), a (k, n) array of the signals the caller transforms
    with the basis and the n quantizer steps of their coefficients.  A
    degenerate cluster is dropped like one with no needed column when,
    for LAPACK's columns V_c of the cluster, every signal f has
    ||V_c^T f|| * (1 + 1e-6) + 1e-9 * ||f|| < q_c / 2, where q_c is the
    smallest step over the cluster's columns.  Then the full basis
    quantizes every coefficient of the cluster to level 0 as well, so
    the levels are those of the full basis.  The derivation: the full
    basis gives the cluster the columns b = V_c p, where p is a unit
    vector of R^m (a Gram-Schmidt pick of :func:`_canonical_cluster_bases`,
    possibly negated), so by Cauchy-Schwarz |b^T f| = |p^T V_c^T f| <=
    ||p|| ||V_c^T f||, whatever V_c's deviation from orthonormality
    within the 1e-8 tolerance.  In floating point, ||p|| - 1 and the
    relative rounding of the computed norm are a few units of 2**-53,
    inside the relative margin.  Forming V_c p, its product with f and
    V_c^T f err by at most about (n + 2 m**1.5) * 2**-53 * ||f|| in all,
    inside the absolute margin for n up to 10**4.  So the computed
    |b^T f| stays below q_c / 2 by a relative margin of about 1e-6, far
    more than the rounding of |x| / q and of its sum with 0.5, and
    round-half-away gives level 0.

    Raises ValueError for an empty Laplacian, a mask of the wrong
    length, a missing probe, a probe of the wrong shape or a step that is
    not positive, and DecompositionError if LAPACK fails or a basis (LAPACK's own columns,
    for a cluster left out) violates the reconstruction / orthonormality
    tolerances.
    """
    mats = [l.matrix for l in laplacians]
    masks = None if needed is None else [np.asarray(k, dtype=bool) for k in needed]
    if masks is not None and len(masks) != len(mats):
        raise ValueError(f"{len(masks)} column masks for {len(mats)} Laplacians")
    if probes is not None:
        if any(p is None for p in probes):
            raise ValueError("a None probe: give every Laplacian a probe, or probes=None")
        probes = [tuple(np.asarray(a) for a in p) for p in probes]
        if len(probes) != len(mats):
            raise ValueError(f"{len(probes)} probes for {len(mats)} Laplacians")
    by_size = {}
    for i, m in enumerate(mats):
        n = m.shape[0]
        if n < 1:
            raise ValueError("empty Laplacian")
        if masks is not None and masks[i].shape != (n,):
            raise ValueError(f"column mask of shape {masks[i].shape} for a {n}x{n} Laplacian")
        if probes is not None:
            signals, steps = probes[i]
            if signals.ndim != 2 or signals.shape[1] != n or steps.shape != (n,):
                raise ValueError(
                    f"probe of shapes {signals.shape} and {steps.shape} for a {n}x{n} Laplacian"
                )
            if not (steps > 0).all():
                raise ValueError("probe steps must be positive")
        by_size.setdefault(n, []).append(i)
    bases = [None] * len(mats)
    for n, idx in by_size.items():
        per_stack = max(1, _EIG_STACK_BYTES // (8 * n * n))
        for lo in range(0, len(idx), per_stack):
            part = idx[lo : lo + per_stack]
            stack = np.stack([mats[i] for i in part])
            for i in part:
                mats[i] = None
            part_needed = None if masks is None else np.stack([masks[i] for i in part])
            vals, vecs = _eigendecompose_stack(stack, part_needed, _stack_probes(probes, part, n))
            # own arrays, laid out as a lone call returns them, so later BLAS
            # calls on a basis see the same layout and no basis pins the stack
            for i, w, v in zip(part, vals, vecs):
                bases[i] = EigenBasis(eigenvalues=w.copy(), vectors=v.copy())
    return bases


def eigendecompose(l: Laplacian) -> EigenBasis:
    """Diagonalize one Laplacian: ``eigendecompose_all([l])[0]``."""
    return eigendecompose_all([l])[0]


# ---------------------------------------------------------------------------
# Coarsening
# ---------------------------------------------------------------------------

def _merge_edges(a, b, w, old_to_new, k):
    """Map weighted edges through ``old_to_new`` onto ``k`` vertices, drop
    the ones that fall inside a supernode and sum parallel weights.
    Returns (a, b, w) sorted by (a, b) with a < b.

    The contracted keys come out nearly sorted, so a stable argsort
    (timsort) orders them; each run of equal keys is one edge, its weight
    one ``np.add.reduceat`` over the run.  With no crossing edge every
    array is empty and so is the result."""
    na, nb = old_to_new[a], old_to_new[b]
    cross = np.flatnonzero(na != nb)
    na, nb = na[cross], nb[cross]
    keys = np.minimum(na, nb) * k + np.maximum(na, nb)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    first = np.flatnonzero(first)
    a, b = np.divmod(keys[first], k)
    return a, b, np.add.reduceat(w[cross[order]], first)


def _heavy_edge_matching(a, b, w, k, budget):
    """Greedy matching in vertex-scan order: each unmatched vertex takes
    its unmatched neighbor of largest weight, ties to the smallest
    neighbor index; stops after ``budget`` pairs.  Returns (roots, merged)
    int arrays with roots < merged pairwise.

    Only higher neighbors are scanned: when v's turn comes, every lower
    neighbor u is matched, since u, unmatched at its own turn, would have
    taken v or another neighbor.  So the scan is one walk over the edges
    (a < b) sorted by a, then weight descending, then b: an edge whose
    ends are both free is v's first choice.  Unit weights (every first
    round) leave the sorted edge list in that order already.
    """
    wmax = int(w.max()) if w.size else 1
    if wmax > 1:
        b = b[np.argsort(a * (wmax + 1) + (wmax - w), kind="stable")]
    free = [True] * k
    roots, merged = [], []
    left = budget
    for v, u in zip(a.tolist(), b.tolist()):
        if free[v] and free[u]:
            free[v] = free[u] = False
            roots.append(v)
            merged.append(u)
            left -= 1
            if not left:
                break
    return np.array(roots, dtype=np.int64), np.array(merged, dtype=np.int64)


def coarsen(g: LocalGraph, n_target: int):
    """Reduce ``g`` to exactly min(n_target, n) supernodes.

    Returns (coarse LocalGraph, fine_to_coarse): ``fine_to_coarse[i]`` is
    the supernode of fine vertex i, and supernodes are numbered in the
    order of their smallest fine member, so every id below the coarse
    ``n`` holds a fine vertex.  Coarse adjacency has an edge between
    supernodes iff any fine edge crosses them.

    The graph lives in int arrays: weighted edges (a, b, w) with a < b,
    sorted, and ``fine_to_coarse``.  Each round runs the greedy heavy-edge
    scan as one forward walk over the edges (each vertex's row re-sorted
    by weight once weights exceed 1) and contracts in numpy.  Supernodes
    stay ordered by their smallest fine member and each pair's root is
    its smaller index, which keeps the smaller first member, so the new
    ids are ``cumsum(keep) - 1`` and ``fine_to_coarse`` composes with
    them.
    """
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    k = g.n
    a, b = g.edges[:, 0], g.edges[:, 1]
    w = np.ones(a.size, dtype=np.int64)
    fine_to_coarse = np.arange(k)

    while k > n_target:
        roots, merged = _heavy_edge_matching(a, b, w, k, k - n_target)
        if not roots.size:
            # edgeless residue: merge the two smallest supernodes; a stable
            # sort sends size ties to the smaller index, i.e. first member
            sizes = np.bincount(fine_to_coarse, minlength=k)
            roots, merged = np.sort(np.argsort(sizes, kind="stable")[:2]).reshape(2, 1)
        keep = np.ones(k, dtype=bool)
        keep[merged] = False
        old_to_new = np.cumsum(keep) - 1
        old_to_new[merged] = old_to_new[roots]
        k -= merged.size
        fine_to_coarse = old_to_new[fine_to_coarse]
        a, b, w = _merge_edges(a, b, w, old_to_new, k)

    return LocalGraph(n=k, edges=np.column_stack([a, b])), fine_to_coarse


def coarse_mean_signal(fine_to_coarse, fine_signal):
    """Per-supernode mean of a fine signal: the coarse graph's signal.
    One ``bincount`` sum over ``fine_to_coarse`` divided by the supernode
    sizes; exact (and equal to each member mean) for integer signals.
    Every supernode holds a fine vertex, so the counts cover them all."""
    f = np.asarray(fine_signal, dtype=np.float64)
    return np.bincount(fine_to_coarse, weights=f) / np.bincount(fine_to_coarse)


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

@dataclass
class PartitionResult:
    """Leaves of the recursive splits of a list of super-rays, in
    super-ray order and depth-first order inside each, and their split
    trees as the structure section's symbols: one tree per super-ray,
    back to back, each in DFS preorder (1 = internal, 0 = leaf)."""

    parts: list
    bits: list


def _bisect(ref, node, count):
    """Bisect each of ``count`` reference regions at the lower-median
    coordinate of its longer bounding-box axis (ties to x), the other axis
    when that cut leaves one side empty.  ``ref`` holds (view, y, x) rows
    node by node, ``node`` each row's node, and every node has a row.
    Returns (whether each node can be split, per row whether it goes to
    the first child, the side at or below the cut).

    One sort per axis lists each node's coordinates in order, so
    the lower median of a node of n rows is its ((n - 1) // 2)-th."""
    n = np.bincount(node, minlength=count)
    lo = np.cumsum(n) - n
    side, splits, extent = [], [], []
    for coords in (ref[:, 2], ref[:, 1]):
        median = coords[np.lexsort((coords, node))[lo + (n - 1) // 2]]
        below = coords <= median[node]
        k = np.bincount(node[below], minlength=count)
        side.append(below)
        splits.append((k > 0) & (k < n))
        extent.append(np.maximum.reduceat(coords, lo) - np.minimum.reduceat(coords, lo))
    (by_x, by_y), (ok_x, ok_y) = side, splits
    use_x = ok_x & ((extent[0] >= extent[1]) | ~ok_y)
    return ok_x | ok_y, np.where(use_x[node], by_x, by_y)


def _split_level(rows, node, child, shifts, n_views):
    """Split nodes in one stacked reprojection.

    ``rows`` holds the nodes' (view, y, x) rows node by node, each in
    canonical order, ``node`` each row's node, ``child`` each reference
    row's child (node j's children are 2j and 2j + 1, the first the side
    at or below the cut; other rows' entries are overwritten) and
    ``shifts`` each node's (views - 1, 2) label shifts.  Returns the
    children's rows, child by child, and their sizes.

    Node j gets a block of the flat plane: its (views - 1, h + 1, w)
    bounding box with row stride w + 1, under a leading pad row; the pad
    column, the pad row under each view and every cell that is not one
    of the node's pixels read -2, its pixels -1.  The children's
    reference rows are written at their node's shifts in one scatter:
    children of one node share its shifts and hold distinct reference
    pixels, and blocks are disjoint, so no two writes meet.  One
    :func:`fill_cells` fills every block; a block's holes left when it
    stalls take its child 0.  A stable sort of all rows by child then
    lists each child's reference rows and, in canonical order, its other
    views' rows.
    """
    count = shifts.shape[0]
    sizes = np.bincount(node, minlength=count)
    lo = np.cumsum(sizes) - sizes
    origin = [np.minimum.reduceat(rows[:, a], lo) for a in (1, 2)]
    h, w = [np.maximum.reduceat(rows[:, a], lo) - o + 1 for a, o in zip((1, 2), origin)]
    stride = w + 1
    area = stride * (1 + (n_views - 1) * (h + 1))
    # cell of (view v >= 1, y, x) in block j: corner[j] + stride[j] * (v * (h[j] + 1) + y) + x
    corner = np.cumsum(area) - area - stride * (h + origin[0]) - origin[1]
    plane = np.full(area.sum(), -2, dtype=np.int64)

    ref = rows[:, 0] == 0
    other = ~ref
    # every pixel of a non-reference view is a hole until a child claims it
    on = node[other]
    cells = corner[on] + stride[on] * (rows[other, 0] * (h[on] + 1) + rows[other, 1])
    cells += rows[other, 2]
    plane[cells] = -1

    # every reference row, at its node's shift in each other view
    b = node[ref][:, None]
    ty = rows[ref, 1:2] - shifts[b[:, 0], :, 0]
    tx = rows[ref, 2:3] - shifts[b[:, 0], :, 1]
    ok = (ty >= origin[0][b]) & (ty < origin[0][b] + h[b])
    ok &= (tx >= origin[1][b]) & (tx < origin[1][b] + w[b])
    targets = (corner[b] + stride[b] * (np.arange(1, n_views) * (h[b] + 1) + ty) + tx)[ok]
    value = np.broadcast_to(child[ref][:, None], ok.shape)[ok]
    inside = plane[targets] != -2
    plane[targets[inside]] = value[inside]

    holes = plane[cells] == -1
    fill_cells(plane, cells[holes], stride[on][holes])
    claimed = plane[cells]
    stalled = claimed == -1
    claimed[stalled] = 2 * on[stalled]
    child[other] = claimed
    order = np.argsort(child, kind="stable")
    return rows[order], np.bincount(child, minlength=2 * count)


def _level_walk(srs, angular_dims, wants):
    """The split walk both codec sides run, breadth first over the split
    trees of all of ``srs`` at once: per depth, one :func:`_split_level`
    per run of splitting nodes that holds about ``_SPLIT_ROWS`` rows.

    A node is (super-ray index, path), the path being the child indices
    (0 for the side at or below the cut) from the root; depth-first
    preorder is the order of the paths.  ``wants(nodes, sizes)`` says
    which nodes of a depth ask to split; a node splits when it asks and
    :func:`_bisect` can split its reference region.  Returns ({node: 1 if
    it split, 0 if a leaf}, {leaf node: SuperRay}).
    """
    n_views = angular_dims[0] * angular_dims[1]
    shifts = label_shifts(
        np.array([sr.disparity for sr in srs])[:, None, None], n_views, angular_dims[1]
    )
    nodes = [(k, ()) for k in range(len(srs))]
    rows = np.concatenate([sr.pixels for sr in srs] or [np.zeros((0, 3), dtype=np.int64)])
    sizes = np.array([sr.total_pixels for sr in srs], dtype=np.int64)
    bits, leaves = {}, {}
    while nodes:
        node = np.repeat(np.arange(len(nodes)), sizes)
        ref = rows[:, 0] == 0
        can, first = _bisect(rows[ref], node[ref], len(nodes))
        split = wants(nodes, sizes) & can
        stops = np.cumsum(sizes)
        for (k, path), s, lo, hi in zip(nodes, split.tolist(), (stops - sizes).tolist(),
                                        stops.tolist()):
            bits[k, path] = int(s)
            if not s:
                leaves[k, path] = SuperRay(rows[lo:hi].copy(), srs[k].disparity)
        if not split.any():
            break
        parents = [nd for nd, s in zip(nodes, split) if s]
        level_shifts = shifts[[k for k, _ in parents]]
        kept = split[node]
        first = first[split[node[ref]]]
        rows, node = rows[kept], (np.cumsum(split) - 1)[node[kept]]
        child = 2 * node
        child[rows[:, 0] == 0] += ~first
        sizes = sizes[split]
        # runs of whole nodes, each starting in its own _SPLIT_ROWS window
        starts = np.cumsum(sizes) - sizes
        cuts = np.flatnonzero(np.diff(starts // _SPLIT_ROWS)) + 1
        child_sizes = []
        for j0, j1 in zip([0, *cuts.tolist()], [*cuts.tolist(), len(parents)]):
            # a run's children hold exactly its rows, so they take its place
            lo, hi = starts[j0], starts[j1 - 1] + sizes[j1 - 1]
            rows[lo:hi], run_sizes = _split_level(
                rows[lo:hi], node[lo:hi] - j0, child[lo:hi] - 2 * j0,
                level_shifts[j0:j1], n_views,
            )
            child_sizes.append(run_sizes)
        sizes = np.concatenate(child_sizes)
        nodes = [(k, path + (c,)) for k, path in parents for c in (0, 1)]
    return bits, leaves


def partition_super_ray(srs, max_vertices: int, angular_dims) -> PartitionResult:
    """Recursively split each super-ray until every part has at most
    ``max_vertices`` total vertices or an unsplittable reference region.
    The walk's nodes, sorted, are the trees' DFS preorder."""
    s_count, t_count = angular_dims
    if max_vertices < s_count * t_count:
        raise ValueError("max_vertices must be at least the view count")
    tree, leaves = _level_walk(srs, angular_dims, lambda nodes, sizes: sizes > max_vertices)
    return PartitionResult(
        parts=[leaves[key] for key in sorted(leaves)], bits=[tree[key] for key in sorted(tree)]
    )


def partition_with_tree(srs, bits, angular_dims) -> list:
    """Replay transmitted split trees (decoder side): ``bits`` holds one
    tree per super-ray, as :attr:`PartitionResult.bits`, and this loop is
    the one parser of them; split where a tree says 1, no size checks.

    Raises ValueError when the symbols are not exactly one whole tree of
    0/1 bits per super-ray, and, after the walk, 'split tree does not
    match super-ray geometry' when the walk does not reproduce the trees:
    a 1 on a node that cannot be bisected."""
    tree, pos = {}, 0
    bits = [int(b) for b in bits]
    for k in range(len(srs)):
        if pos == len(bits):
            raise ValueError(f"structure holds {k} of {len(srs)} split trees")
        open_paths = [()]
        while open_paths:
            if pos == len(bits):
                raise ValueError("split tree truncated")
            bit = bits[pos]
            pos += 1
            if bit not in (0, 1):
                raise ValueError(f"tree bit {bit}")
            path = open_paths.pop()
            tree[k, path] = bit
            if bit:
                open_paths += [path + (1,), path + (0,)]
    if pos != len(bits):
        raise ValueError("trailing structure symbols")
    walked, leaves = _level_walk(
        srs, angular_dims, lambda nodes, sizes: np.array([tree[nd] for nd in nodes], dtype=bool)
    )
    if walked != tree:
        raise ValueError("split tree does not match super-ray geometry")
    return [leaves[key] for key in sorted(leaves)]
