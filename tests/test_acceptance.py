"""Acceptance criteria, one test per criterion.

Each test prints a `[criterion N] PASS` line (run with `pytest -s` to see
them); the runtime-bounded criteria assert their own elapsed time.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from srgc.bench import bpp, psnr
from srgc.bitstream import serialize
from srgc.codec import CodecConfig, EncodeReport, decode, encode
from srgc.entropy import entropy_decode, entropy_encode
from srgc.grouping import pairwise_mse
from srgc.lightfield import SceneSpec, synthesize_light_field
from srgc.spectral import LocalGraph, eigendecompose, laplacian
from srgc.transform import gft, igft, quantize

from conftest import (
    connected_components,
    four_patch_scene,
    grouping_ratios,
    lf_equal,
    run_grouping,
)
from test_codec import small_scene


def _random_graph(rng, n, connected):
    edges = set()
    if connected:
        for i in range(1, n):
            j = int(rng.integers(0, i))
            edges.add((j, i))
    extra = rng.integers(0, n, size=(2 * n, 2))
    for a, b in extra:
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    e = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    return LocalGraph(n=n, edges=e)


def test_criterion_1_pair_and_ratio_arithmetic():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    for m, expected in ((1252, 783126), (2723, 3706003)):
        vecs = list(rng.normal(size=(m, 2)))
        assert pairwise_mse(vecs).size == expected
    c, o = grouping_ratios(
        EncodeReport(grouped_count=1026, coarsened_count=1252, unit_count=4390)
    )
    assert round(c, 2) == 0.82 and round(o, 2) == 0.23
    c2, _ = grouping_ratios(
        EncodeReport(grouped_count=418, coarsened_count=853, unit_count=5993)
    )
    assert round(c2, 2) == 0.49
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[criterion 1] PASS pair/ratio arithmetic ({elapsed:.3f}s)")


def test_criterion_2_spectral_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 65))
        g = _random_graph(rng, n, connected=True)
        l = laplacian(g).matrix
        assert np.array_equal(l.sum(axis=1), np.zeros(n))  # exact integer sums
        basis = eigendecompose(laplacian(g))
        assert basis.eigenvalues.min() >= -1e-9
        ortho = np.abs(basis.vectors.T @ basis.vectors - np.eye(n)).max()
        assert ortho <= 1e-8
    for _ in range(50):
        n = int(rng.integers(2, 65))
        g = _random_graph(rng, n, connected=bool(rng.integers(0, 2)))
        _, n_comp = connected_components(n, g.edges)
        basis = eigendecompose(laplacian(g))
        assert int((np.abs(basis.eigenvalues) < 1e-7).sum()) == n_comp
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\n[criterion 2] PASS spectral suite ({elapsed:.2f}s)")


def test_criterion_3_transform_suite():
    rng = np.random.default_rng(2)
    bases = {}
    for _ in range(1000):
        n = int(rng.integers(2, 257))
        if n not in bases:
            bases[n] = eigendecompose(laplacian(_random_graph(rng, n, True)))
        basis = bases[n]
        f = rng.normal(size=n) * 10
        c = gft(basis, f)
        back = igft(basis, c)
        assert np.abs(back - f).max() <= 1e-9 * max(1.0, np.abs(f).max())
        assert abs(np.linalg.norm(c) - np.linalg.norm(f)) <= 1e-9
    samples = rng.uniform(-1e4, 1e4, size=100_000)
    for q in (0.5, 2.0, 9.3):
        err = np.abs(quantize(samples, q) * q - samples)
        assert err.max() <= q / 2 + 1e-12
    print("\n[criterion 3] PASS transform suite")


def _oracle_grouping(coeffs, signals, bin_width):
    """Independent evaluation of the grouping rules by exhaustive
    enumeration (no shared code with srgc.grouping)."""
    m = len(coeffs)
    n = len(coeffs[0])
    mse = {}
    for i in range(m):
        for j in range(i + 1, m):
            mse[(i, j)] = sum(
                (float(coeffs[i][k]) - float(coeffs[j][k])) ** 2 for k in range(n)
            ) / n
    bins = {}
    for w in mse.values():
        b = math.floor(w / bin_width)
        bins[b] = bins.get(b, 0) + 1
    top = max(bins.values())
    thr = (min(b for b, c in bins.items() if c == top) + 1) * bin_width

    subs = []
    for i in range(m):
        s = {i}
        for j in range(m):
            if j != i and mse[(min(i, j), max(i, j))] <= thr:
                s.add(j)
        if len(s) >= 2:
            subs.append(s)
    pools = [set(s) for s in subs]
    changed = True
    while changed:
        changed = False
        for i in range(len(pools)):
            for j in range(i + 1, len(pools)):
                if pools[i] and pools[j] and pools[i] & pools[j]:
                    pools[i] |= pools[j]
                    pools[j] = set()
                    changed = True
    merged = sorted((tuple(sorted(p)) for p in pools if p), key=lambda t: t[0])

    groups = []
    for members in merged:
        k = len(members)
        median = []
        for coord in range(n):
            vals = sorted(float(signals[i][coord]) for i in members)
            median.append(vals[(k - 1) // 2])
        best = None
        for i in members:
            ss = sum((float(signals[i][c]) - median[c]) ** 2 for c in range(n))
            if best is None or ss < best[0]:
                best = (ss, i)
        groups.append((members, best[1]))
    ungrouped = tuple(i for i in range(m) if not any(i in g[0] for g in groups))
    return groups, ungrouped, thr


def test_criterion_4_grouping_oracle_equivalence():
    rng = np.random.default_rng(3)
    for trial in range(100):
        m = int(rng.integers(2, 13))
        # integer-valued, power-of-two dimension: all arithmetic is exact in
        # both implementations, so the match must be bit-perfect
        coeffs = [rng.integers(0, 12, size=4).astype(np.float64) for _ in range(m)]
        signals = [rng.integers(0, 40, size=4).astype(np.float64) for _ in range(m)]
        got = run_grouping(coeffs, signals, bin_width=5.0)
        want_groups, want_ungrouped, want_thr = _oracle_grouping(coeffs, signals, 5.0)
        assert got.mse_threshold == want_thr, f"trial {trial}"
        assert [(g.members, g.main_index) for g in got.groups] == want_groups
        assert got.ungrouped == want_ungrouped
    print("\n[criterion 4] PASS grouping oracle equivalence (100 instances)")


def test_criterion_5_residual_identity_and_error_bound():
    qs = (16.0, 64.0)
    scenes = [four_patch_scene(), small_scene(seed=9, disparity=0.5)]
    checked_grouped = 0
    for lf, dmap in scenes:
        for q in qs:
            cfg = CodecConfig(
                slic_k=16 if lf.spatial_dims[0] == 64 else 8,
                q_gft=q, n_target=256 if lf.spatial_dims[0] == 64 else 128,
            )
            stream, enc_rep = encode(lf, dmap, cfg, debug=True)
            rec, dec_rep = decode(stream, debug=True)
            dbg = enc_rep.debug
            grouped_ids = {}
            for g in dbg.group_set.groups:
                for posn in g.members:
                    if posn != g.main_index:
                        grouped_ids[dbg.groupable[posn]] = dbg.groupable[g.main_index]
            for i, unit in enumerate(dbg.units):
                want = unit.signals[0]
                got = dec_rep.debug.reconstructed[i][0]
                if i in grouped_ids:
                    # predicted + residual reproduces the coded signal exactly
                    assert np.array_equal(got, want)
                    checked_grouped += 1
                else:
                    err = np.linalg.norm(got.astype(float) - want.astype(float))
                    assert err <= math.sqrt(unit.n) * q / 2 + 1e-9
    assert checked_grouped > 0
    print(f"\n[criterion 5] PASS residual identity ({checked_grouped} grouped units)")


def test_criterion_6_eigen_count_gate():
    start = time.perf_counter()
    lf, dmap = four_patch_scene(size=64, views=3)
    cfg = CodecConfig(slic_k=16, q_gft=16.0, n_target=256)
    stream, enc_rep = encode(lf, dmap, cfg, debug=True)
    rec, dec_rep = decode(stream)
    ungrouped_units = enc_rep.unit_count - enc_rep.grouped_count
    assert dec_rep.eig_count == ungrouped_units + enc_rep.group_count

    no_group = dataclasses.replace(cfg, grouping=False)
    stream_n, _ = encode(lf, dmap, no_group)
    _, dec_rep_n = decode(stream_n)
    assert dec_rep.eig_count < dec_rep_n.eig_count

    # the four identical patches share one group
    dbg = enc_rep.debug
    patch_positions = set()
    for i, u in enumerate(dbg.units):
        if i not in dbg.groupable:
            continue
        ref = u.pixels[u.pixels[:, 0] == 0]
        ys, xs = ref[:, 1], ref[:, 2]
        corner = (ys.max() < 16 or ys.min() >= 48) and (xs.max() < 16 or xs.min() >= 48)
        if corner and u.signals[0].astype(float).std() > 2:
            patch_positions.add(dbg.groupable.index(i))
    assert len(patch_positions) == 4
    owners = {
        id(g) for g in dbg.group_set.groups if patch_positions & set(g.members)
    }
    assert len(owners) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"\n[criterion 6] PASS eigen-count gate: dec {dec_rep.eig_count} < "
        f"no-grouping {dec_rep_n.eig_count}, enc {enc_rep.eig_count} ({elapsed:.1f}s)"
    )


def test_criterion_7_rate_tradeoff_direction():
    lf, dmap = four_patch_scene(size=64, views=3)
    cfg = CodecConfig(slic_k=16, q_gft=16.0, n_target=256)
    no_group = dataclasses.replace(cfg, grouping=False)
    stream_g, rep_g = encode(lf, dmap, cfg)
    stream_n, _ = encode(lf, dmap, no_group)
    assert rep_g.group_count >= 1
    dims = (lf.angular_dims, lf.spatial_dims)
    assert bpp(stream_g, dims) >= bpp(stream_n, dims)
    rec_g, _ = decode(stream_g)
    rec_n, _ = decode(stream_n)
    p_g, p_n = psnr(lf, rec_g), psnr(lf, rec_n)
    assert p_g >= p_n - 0.05
    print(f"\n[criterion 7] PASS rate tradeoff: bpp {bpp(stream_g, dims):.4f} >= "
          f"{bpp(stream_n, dims):.4f}, psnr {p_g:.2f} vs {p_n:.2f}")


def test_criterion_8_determinism():
    lf, dmap = small_scene(seed=21, disparity=0.25)
    blobs = set()
    for threads in (1, 4, 8):
        cfg = CodecConfig(slic_k=8, q_gft=16.0, n_target=128, threads=threads)
        blobs.add(serialize(encode(lf, dmap, cfg)[0]))
    for _ in range(3):
        cfg = CodecConfig(slic_k=8, q_gft=16.0, n_target=128)
        blobs.add(serialize(encode(lf, dmap, cfg)[0]))
    assert len(blobs) == 1
    print("\n[criterion 8] PASS determinism across threads {1,4,8} and 3 repeats")


def test_criterion_9_entropy_coder():
    rng = np.random.default_rng(4)
    syms = rng.integers(-255, 255, size=1_000_000, endpoint=True)
    payload = entropy_encode(syms, "gft")
    assert np.array_equal(entropy_decode(payload, syms.size, "gft"), syms)
    zeros = np.zeros(10_000, dtype=np.int64)
    zp = entropy_encode(zeros, "residual")
    assert len(zp) < 0.02 * 4 * zeros.size
    print(f"\n[criterion 9] PASS entropy: 1e6 roundtrip, zeros {len(zp)}B < 2%")


def test_criterion_10_constant_lf_identity():
    spec = SceneSpec(angular_dims=(3, 3), spatial_dims=(32, 32), background=203)
    lf, dmap = synthesize_light_field(spec)
    for q in (1.0, 2.0, 8.0, 64.0, 500.0):
        cfg = CodecConfig(slic_k=8, q_gft=q, n_target=128)
        stream, _ = encode(lf, dmap, cfg)
        rec, _ = decode(stream)
        assert lf_equal(rec, lf), f"constant identity broken at q={q}"
    print("\n[criterion 10] PASS constant-LF identity at q in {1,2,8,64,500}")
