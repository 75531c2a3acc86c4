"""In-memory spans around the calls into each codec layer.

A ``Tracer`` replaces the layer functions bound in ``srgc.codec`` (and
``numpy.linalg.eigh``) with wrappers that record one span per call: name,
start, end, parent span, op id and side ('enc' or 'dec'), plus the work
counts that call carried.  Nothing under ``src/`` changes; wrappers are
installed only while a traced op runs, so untraced ops run the plain code.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import srgc.codec as codec


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the tracer's span list, -1 for a root
    op: int
    side: str
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _n(result):
    return {"vertices": result.n, "edges": int(result.edges.shape[0])}


# (object, attribute, layer name, counts(args, result) -> dict or None)
LAYERS = (
    (codec, "slic_segment", "segmentation.slic_segment", None),
    (codec, "project_labels", "segmentation.project_labels", None),
    (codec, "assemble_super_rays", "segmentation.assemble_super_rays", None),
    (codec, "graph_structure", "spectral.graph_structure", lambda a, r: _n(r)),
    (codec, "coarsen", "spectral.coarsen",
     lambda a, r: {"fine_vertices": a[0].n}),
    (codec, "partition_super_ray", "spectral.partition_super_ray",
     lambda a, r: {"parts": len(r.parts)}),
    (codec, "partition_with_tree", "spectral.partition_with_tree", None),
    (codec, "laplacian", "spectral.laplacian", None),
    (codec, "eigendecompose", "spectral.eigendecompose",
     lambda a, r: {"n3": a[0].matrix.shape[0] ** 3}),
    (np.linalg, "eigh", "lapack.eigh", None),
    (codec, "gft", "transform.gft", None),
    (codec, "quantize", "transform.quantize", None),
    (codec, "predict_signal", "transform.predict_signal", None),
    (codec, "derive_group_members", "grouping.derive_group_members",
     lambda a, r: {"pairs": len(a[0]) * (len(a[0]) - 1) // 2}),
    (codec, "predict_and_residual", "grouping.predict_and_residual", None),
    (codec, "entropy_encode", "entropy.entropy_encode",
     lambda a, r: {"symbols": len(a[0]), "bytes": len(r)}),
    (codec, "entropy_decode", "entropy.entropy_decode",
     lambda a, r: {"symbols": int(a[1])}),
)


class Tracer:
    """Records spans for the ops run under ``op()``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1
        self._side = ""

    @contextmanager
    def span(self, name):
        """Record one span; nested spans name it as their parent."""
        rec = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                   self._op, self._side)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counter):
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if counter is not None:
                    rec.counts = counter(args, result)
            return result
        return wrapper

    @contextmanager
    def op(self, side):
        """Trace one side ('enc' or 'dec') of one op: the layer wrappers
        are installed on entry and the originals restored on exit."""
        if side == "enc":
            self._op += 1
        self._side = side
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _, _ in LAYERS]
        for (obj, attr, fn), (_, _, name, counter) in zip(saved, LAYERS):
            setattr(obj, attr, self._wrap(fn, name, counter))
        try:
            yield self
        finally:
            for obj, attr, fn in saved:
                setattr(obj, attr, fn)

    def to_json(self):
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, "side": s.side, "counts": s.counts}
            for s in self.spans
        ]


def self_times(spans):
    """Each span's duration minus the durations of its child spans.  Every
    pool runs one thread, so children nest inside their parent and never
    overlap one another."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def layer_totals(spans, ops):
    """Per-op sums by '<side>.<layer>': ``s`` (span time), ``self_s``,
    ``calls`` and every recorded count."""
    totals = {}
    for s, self_s in zip(spans, self_times(spans)):
        key = f"{s.side}.{s.name}"
        for q, v in (("s", s.duration), ("self_s", self_s), ("calls", 1),
                     *s.counts.items()):
            totals[f"{key}.{q}"] = totals.get(f"{key}.{q}", 0) + v
    return {k: v / ops for k, v in totals.items()}
