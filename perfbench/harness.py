"""Closed-loop encode/decode benchmark over the public srgc API.

One client runs one op at a time: encode, serialize, deserialize, decode,
check.  The next op starts only when the previous one has finished, and
every pool runs one thread.  Set-up (scene synthesis plus an untimed,
checked ``debug=True`` round trip) runs ``SETUP_REPEATS`` times; the timed
ops must then reproduce its stream and decoded samples bit for bit.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced ops and reports the
per-layer metrics derived from the traced ops' spans, plus the tracing
overhead (traced minus untraced median op time).
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np
import scipy

import srgc
import srgc.bitstream as bitstream
import srgc.codec as codec
from spans import Tracer, layer_totals
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

SETUP_REPEATS = 9
MIN_OPS = 4          # at least two traced and two untraced ops with --trace 1

# Host speed on this class of shared 2-core box drifts by +-20% over tens of
# seconds, for the codec and for any fixed Python work alike, so raw medians
# of one run are not steady from run to run.  host_kernel() runs before the
# set-ups and after every set-up and op, and every reported time is in
# reference-host seconds: the raw wall time scaled by REFERENCE_KERNEL_S /
# (mean of the kernel times just before and after it).  The raw wall medians
# and the kernel time are reported as host.* per-layer metrics.
# REFERENCE_KERNEL_S is the kernel's median on a 2-core Xeon with Python
# 3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31.
REFERENCE_KERNEL_S = 0.025

# name -> (unit, better)
END_TO_END = {
    "encode_s": ("s", "lower"),
    "decode_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "bpp": ("bits/pixel", "lower"),
    "psnr_y": ("dB", "higher"),
    "eig_dec": ("count", "lower"),
    "eig_enc": ("count", "lower"),
}

SECTIONS = tuple(bitstream.SECTION_NAMES[k] for k in sorted(bitstream.SECTION_NAMES))


def _per_layer():
    m = {}

    def add(names, unit, better="lower"):
        for n in names:
            m[n] = (unit, better)

    for side in ("enc", "dec"):
        add([f"{side}.spectral.coarsen.s", f"{side}.spectral.graph_structure.s",
             f"{side}.spectral.eigendecompose.self_s", f"{side}.lapack.eigh.s",
             f"{side}.grouping.derive_group_members.s",
             f"{side}.segmentation.project_labels.s",
             f"{side}.segmentation.assemble_super_rays.s",
             f"{side}.spectral.laplacian.s"], "s")
        add([f"{side}.spectral.coarsen.calls",
             f"{side}.spectral.eigendecompose.calls"], "count")
        add([f"{side}.spectral.coarsen.fine_vertices",
             f"{side}.spectral.graph_structure.vertices"], "vertices")
        add([f"{side}.spectral.graph_structure.edges"], "edges")
        add([f"{side}.spectral.eigendecompose.n3"], "n3")
        add([f"{side}.grouping.derive_group_members.pairs"], "pairs")
    add(["enc.entropy.entropy_encode.s", "dec.entropy.entropy_decode.s",
         "enc.segmentation.slic_segment.s", "enc.spectral.partition_super_ray.s",
         "dec.spectral.partition_with_tree.s", "enc.transform.gft.s",
         "enc.transform.quantize.s", "dec.transform.predict_signal.s",
         "enc.grouping.predict_and_residual.s", "enc.bitstream.serialize.s",
         "dec.bitstream.deserialize.s", "enc.codec.encode.s",
         "dec.codec.decode.s", "enc.codec.encode.self_s",
         "dec.codec.decode.self_s", "overhead.encode_s", "overhead.decode_s"], "s")
    add(["enc.entropy.entropy_encode.symbols", "dec.entropy.entropy_decode.symbols"],
        "symbols")
    add(["enc.entropy.entropy_encode.bytes"], "bytes")
    add(["enc.entropy.entropy_encode.sym_per_s", "dec.entropy.entropy_decode.sym_per_s"],
        "1/s", "higher")
    add(["enc.spectral.partition_super_ray.parts"], "parts")
    add(["host.kernel_s", "host.encode_wall_s", "host.decode_wall_s",
         "host.import_s"], "s")
    add(["grouping.saved_ratio"], "ratio", "higher")
    add([f"bitstream.section.{name}.bytes" for name in SECTIONS], "bytes")
    return m


PER_LAYER = _per_layer()


@dataclass
class Reference:
    """What the checked set-up round trip produced; timed ops must match."""

    stream_sha256: str
    samples_sha256: str
    eig_enc: int
    eig_dec: int
    bpp: float
    psnr_y: float
    section_bytes: dict


def host_kernel():
    """Fixed interpreter-bound work, dict updates and small numpy calls like
    the codec's Python stages; returns its wall time."""
    t0 = time.perf_counter()
    counts = {}
    for i in range(60000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    v = np.arange(64.0)
    for _ in range(4000):
        float(v @ v)
    return time.perf_counter() - t0


def samples_sha256(lf):
    h = hashlib.sha256()
    for view in lf.views:
        for plane in view.planes:
            h.update(np.ascontiguousarray(plane).tobytes())
    return h.hexdigest()


def round_trip(lf, dmap, cfg, times, tracer=None, debug=False):
    """One op: encode + serialize, then deserialize + decode.  Fills
    ``times['enc']`` and ``times['dec']`` as each side finishes."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    t0 = time.perf_counter()
    with tracer.op("enc") if tracer else nullcontext():
        with span("codec.encode"):
            stream, enc_rep = codec.encode(lf, dmap, cfg, debug=debug)
        with span("bitstream.serialize"):
            data = bitstream.serialize(stream)
    t1 = time.perf_counter()
    times["enc"] = t1 - t0
    with tracer.op("dec") if tracer else nullcontext():
        with span("bitstream.deserialize"):
            parsed = bitstream.deserialize(data)
        with span("codec.decode"):
            rec, dec_rep = codec.decode(parsed, threads=cfg.threads, debug=debug)
    times["dec"] = time.perf_counter() - t1
    return stream, data, rec, enc_rep, dec_rep


def check_set_up(workload, enc_rep, dec_rep):
    """Problems found in a ``debug=True`` round trip (empty if none)."""
    problems = []
    enc, dec = enc_rep.debug, dec_rep.debug
    enc_groups = [(g.members, g.main_index) for g in enc.group_set.groups]
    dec_groups = [(g.members, g.main_index) for g in dec.group_set.groups]
    if enc_groups != dec_groups:
        problems.append("decoder derived other groups than the encoder")
    for members, main in dec_groups:
        for pos in members:
            if pos == main:
                continue
            u = enc.groupable[pos]
            for c, signal in enumerate(enc.units[u].signals):
                if not np.array_equal(dec.reconstructed[u][c], signal):
                    problems.append(f"grouped unit {u} channel {c} is not exact")
    expected = enc_rep.unit_count - enc_rep.grouped_count + enc_rep.group_count
    if dec_rep.eig_count != expected:
        problems.append(f"eig_dec {dec_rep.eig_count} != ungrouped + groups {expected}")
    if workload.grouped:
        if enc_rep.group_count == 0 or enc_rep.partitioned_count:
            problems.append("no groups formed")
    elif enc_rep.coarsened_count or not enc_rep.partitioned_count:
        problems.append("partition mode is not active")
    return problems


def set_up(workload, seed):
    """Synthesize the scene and run one checked round trip."""
    lf, dmap = workload.scene(seed)
    stream, data, rec, enc_rep, dec_rep = round_trip(
        lf, dmap, workload.config, {}, debug=True
    )
    problems = check_set_up(workload, enc_rep, dec_rep)
    ref = Reference(
        stream_sha256=hashlib.sha256(data).hexdigest(),
        samples_sha256=samples_sha256(rec),
        eig_enc=enc_rep.eig_count,
        eig_dec=dec_rep.eig_count,
        bpp=srgc.bpp(stream, (lf.angular_dims, lf.spatial_dims)),
        psnr_y=srgc.psnr(lf, rec),
        section_bytes={bitstream.SECTION_NAMES[k]: len(v)
                       for k, v in stream.sections.items()},
    )
    return lf, dmap, ref, problems


def git_commit():
    """The checkout's commit, or 'unknown' outside a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(blas_env):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_env,
        "commit": git_commit(),
    }


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def scaled(timed, kernel):
    """Reference-host seconds for each (raw seconds, kernel index) sample:
    the raw time scaled by the kernel samples taken just before and after."""
    return [t * 2 * REFERENCE_KERNEL_S / (kernel[i] + kernel[i + 1]) for t, i in timed]


def run(workload, seed, seconds, trace, blas_env, import_s):
    """Set up, run the closed loop for ``seconds``, return the result.

    Every timed op side is stored as (raw seconds, index of the
    host_kernel() sample taken just before it); another kernel sample
    follows it.  Set-ups are stored as raw seconds.
    """
    kernel = [host_kernel()]
    attempted = failed = 0
    setups = []
    ref = lf = dmap = None
    for _ in range(SETUP_REPEATS):
        attempted += 1
        t0 = time.perf_counter()
        try:
            lf, dmap, this, problems = set_up(workload, seed)
        except Exception:
            traceback.print_exc()
            this, problems = None, ["set-up raised"]
        setups.append(time.perf_counter() - t0)
        kernel.append(host_kernel())
        ref = ref or this
        if this is not None and this != ref:
            problems.append("set-up round trips differ")
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        failed += bool(problems)
    if ref is None:
        raise RuntimeError("every set-up round trip failed")

    tracer = Tracer() if trace else None
    samples = {False: {"enc": [], "dec": []}, True: {"enc": [], "dec": []}}
    op_times = list(setups)
    deadline = time.perf_counter() + seconds
    while attempted - SETUP_REPEATS < MIN_OPS or (
        time.perf_counter() + statistics.median(op_times) <= deadline
    ):
        traced = bool(tracer) and (attempted - SETUP_REPEATS) % 2 == 1
        times = {}
        attempted += 1
        try:
            _, data, rec, enc_rep, dec_rep = round_trip(
                lf, dmap, workload.config, times, tracer if traced else None
            )
            ok = (
                hashlib.sha256(data).hexdigest() == ref.stream_sha256
                and samples_sha256(rec) == ref.samples_sha256
                and enc_rep.eig_count == ref.eig_enc
                and dec_rep.eig_count == ref.eig_dec
            )
            if not ok:
                print("check failed: op output differs from set-up", file=sys.stderr)
        except Exception:
            traceback.print_exc()
            ok = False
        failed += not ok
        for side, t in times.items():
            samples[traced][side].append((t, len(kernel) - 1))
        op_times.append(sum(times.values()))
        kernel.append(host_kernel())

    plain = samples[False]
    metrics = {
        "encode_s": _median(scaled(plain["enc"], kernel)),
        "decode_s": _median(scaled(plain["dec"], kernel)),
        # One kernel sample is a noisy estimate of host speed, and 9 set-ups
        # are too few for the median to absorb that noise, so the set-ups
        # are scaled by the median kernel time of the whole set-up phase.
        "setup_s": statistics.median(setups) * REFERENCE_KERNEL_S
        / statistics.median(kernel[:len(setups) + 1]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bpp": ref.bpp,
        "psnr_y": ref.psnr_y,
        "eig_dec": ref.eig_dec,
        "eig_enc": ref.eig_enc,
    }
    result = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "config": asdict(workload.config),
        "environment": environment(blas_env),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "samples": {"untraced": plain, "traced": samples[True],
                    "setup_s": setups, "import_s": import_s,
                    "kernel_s": kernel},
        "reference": asdict(ref),
        "end_to_end": metrics,
    }
    if tracer:
        result["per_layer"] = per_layer_metrics(tracer, samples, ref, kernel,
                                                import_s)
        result["spans"] = tracer.to_json()
    return result


def per_layer_metrics(tracer, samples, ref, kernel, import_s):
    traced, plain = samples[True], samples[False]
    # span times are scaled by the median host factor of the traced ops
    speed = statistics.median(
        s / t for s, (t, _) in zip(scaled(traced["enc"], kernel), traced["enc"])
    )
    totals = {
        k: v * speed if k.endswith((".s", ".self_s")) else v
        for k, v in layer_totals(tracer.spans, len(traced["enc"])).items()
    }
    for side, name in (("enc", "entropy.entropy_encode"), ("dec", "entropy.entropy_decode")):
        key = f"{side}.{name}"
        secs = totals.get(f"{key}.s", 0.0)
        totals[f"{key}.sym_per_s"] = totals.get(f"{key}.symbols", 0) / secs if secs else 0.0
    totals["grouping.saved_ratio"] = 1 - ref.eig_dec / ref.eig_enc
    for name, size in ref.section_bytes.items():
        totals[f"bitstream.section.{name}.bytes"] = size
    for side, name in (("enc", "encode"), ("dec", "decode")):
        totals[f"overhead.{name}_s"] = (
            _median(scaled(traced[side], kernel)) - _median(scaled(plain[side], kernel))
        )
        totals[f"host.{name}_wall_s"] = _median([t for t, _ in plain[side]])
    totals["host.kernel_s"] = statistics.median(kernel)
    totals["host.import_s"] = import_s
    return {name: totals.get(name, 0.0) for name in PER_LAYER}


def result_line(result, trace):
    """The one-line JSON result: the end-to-end metrics, or with ``trace``
    the per-layer ones, each with its unit."""
    table = PER_LAYER if trace else END_TO_END
    values = result["per_layer"] if trace else result["end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": values[m], "unit": table[m][0]} for m in table},
    }


def emit(result, trace):
    """Human-readable lines, the run record file, then the result line."""
    name = result["workload"]
    line = result_line(result, trace)
    print(f"# {name}: {result['why']}")
    print(f"# environment {json.dumps(result['environment'])}")
    n_ops = len(result["samples"]["untraced"]["enc"])
    for metric, m in line["metrics"].items():
        note = f"  (median of {n_ops} ops)" if metric in ("encode_s", "decode_s") else ""
        print(f"{name} {metric} = {m['value']:.6g} {m['unit']}{note}")
    print(f"{name} error_rate = {result['error_rate']:.6g} ratio"
          f"  ({result['failed']} failed of {result['attempted']} ops)")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}-seed{result['seed']}-trace{trace}.json")
    with open(path, "w") as f:
        json.dump(result, f)
    print(f"# run record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(line))


def run_all(args):
    """Run every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for metric, v in one["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined))


def main(argv, blas_env, import_s):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     args.trace, blas_env, import_s)
        emit(result, args.trace)
    return 0
