"""The benchmark's tracer on a partition-mode and a grouped round trip.

The benchmark's own tests trace only a coarse-mode workload, so a change
that breaks a partition-mode layer counter (such as ``len(r.parts)`` on
``partition_super_ray``'s result) would otherwise show only in traced
benchmark runs.  The tracer wraps codec functions by name, so the grouped
round trip checks that ``codec.derive_group_members`` is still the name
the encoder's grouping pass runs under, and that the decoder runs none,
and every workload's traced round trip pins each layer's call count on
each side, so a codec change cannot quietly leave a per-layer metric
without calls.
"""

import os
import sys

import pytest

import srgc.codec as codec
from conftest import graph_structure_oracle

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from harness import round_trip  # noqa: E402
from spans import Tracer, layer_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_traced_partition_round_trip(monkeypatch):
    workload = WORKLOADS["partition"]
    lf, dmap = workload.scene(1)
    split_parts = []

    def record(union, parts):
        split_parts.append(parts)
        return split_graph(union, parts)

    split_graph = codec.split_graph
    monkeypatch.setattr(codec, "split_graph", record)
    tracer = Tracer()
    round_trip(lf, dmap, workload.config, {}, tracer)
    totals = layer_totals(tracer.spans, 1)
    assert totals["enc.spectral.partition_super_ray.calls"] > 0
    assert totals["dec.spectral.partition_with_tree.calls"] > 0
    # partition mode builds the parts' graphs only, all of a side in one call
    parts = totals["enc.spectral.partition_super_ray.parts"]
    assert [len(p) for p in split_parts] == [parts, parts]
    for side, side_parts in zip(("enc", "dec"), split_parts):
        assert totals[f"{side}.spectral.graph_structure.calls"] == 1
        # the parts cover every pixel of every view once
        assert totals[f"{side}.spectral.graph_structure.vertices"] == sum(
            p.size for p in lf.luma_planes()
        )
        assert totals[f"{side}.spectral.graph_structure.edges"] == sum(
            graph_structure_oracle(p, lf.angular_dims).edges.shape[0]
            for p in side_parts
        )


def test_traced_gate_round_trip_groups_on_the_encoder_only():
    workload = WORKLOADS["gate"]
    lf, dmap = workload.scene(1)
    tracer = Tracer()
    _, _, _, enc_rep, dec_rep = round_trip(lf, dmap, workload.config, {}, tracer)
    totals = layer_totals(tracer.spans, 1)
    assert enc_rep.group_count == dec_rep.group_count > 0
    assert totals["enc.grouping.derive_group_members.calls"] == 1
    assert totals["enc.grouping.derive_group_members.pairs"] == 16 * 15 // 2
    assert not [k for k in totals if k.startswith("dec.grouping.")]


# {layer: (encoder calls, decoder calls)} of one traced round trip at seed
# 1: the layers every workload runs, then each workload's own (each side
# coarsens only the distinct pixel graphs that its units that are not flat
# read, and transforms once per distinct basis: per solved graph, and per
# size of the closed-form DC bases)
_EVERY_ROUND_TRIP = {
    "segmentation.slic_segment": (1, 0),
    "segmentation.project_labels": (1, 1),
    "segmentation.assemble_super_rays": (1, 1),
    "spectral.graph_structure": (1, 1),
    "transform.quantize": (1, 0),
    "grouping.derive_group_members": (1, 0),
    "entropy.entropy_encode": (6, 0),
    "entropy.entropy_decode": (0, 6),
    "bitstream.serialize": (1, 0),
    "bitstream.deserialize": (0, 1),
    "codec.encode": (1, 0),
    "codec.decode": (0, 1),
}
_WORKLOAD_CALLS = {
    "gate": {
        "spectral.coarsen": (1, 1),
        "spectral.laplacian": (1, 1),
        "lapack.eigh": (1, 1),
        "transform.gft": (2, 0),
        "transform.predict_signal": (0, 2),
        "grouping.predict_and_residual": (14, 0),
    },
    "parallax": {
        "spectral.coarsen": (3, 3),
        "spectral.laplacian": (3, 3),
        "lapack.eigh": (1, 1),
        "transform.gft": (4, 0),
        "transform.predict_signal": (0, 4),
        "grouping.predict_and_residual": (4, 0),
    },
    "partition": {
        "spectral.partition_super_ray": (1, 0),
        "spectral.partition_with_tree": (0, 1),
        "spectral.laplacian": (22, 22),
        "lapack.eigh": (17, 17),
        "transform.gft": (45, 0),
        "transform.predict_signal": (0, 45),
    },
}


@pytest.mark.parametrize("name", sorted(_WORKLOAD_CALLS))
def test_traced_round_trip_calls_every_layer_as_pinned(name):
    """Each layer's ``.calls`` on each side of a traced seed-1 round trip;
    a layer left out (``spectral.eigendecompose`` among them) has none."""
    workload = WORKLOADS[name]
    lf, dmap = workload.scene(1)
    tracer = Tracer()
    round_trip(lf, dmap, workload.config, {}, tracer)
    got = {
        key.removesuffix(".calls"): calls
        for key, calls in layer_totals(tracer.spans, 1).items()
        if key.endswith(".calls")
    }
    want = {
        f"{side}.{layer}": calls
        for layer, pair in {**_EVERY_ROUND_TRIP, **_WORKLOAD_CALLS[name]}.items()
        for side, calls in zip(("enc", "dec"), pair)
        if calls
    }
    assert got == want
