"""Same bytes, pinned: the stream and decoded-sample SHA-256 of the three
benchmark scenes at seeds 1 and 17.

A change that claims to keep every stream byte must keep these digests.
The round trips run in a subprocess that pins the BLAS pool to one thread
before numpy loads, as ``perfbench/run.py`` does, because the eigenbases'
last bits can depend on the BLAS kernel's blocking.  The digests are the
benchmark set-up's own (``perfbench/harness.py``: SHA-256 of the
serialized stream, and of every decoded plane's bytes in view order), cut
to their first 16 hex digits.  The stream digests moved once, with the
version-3 container (a 31-byte header and label-form groups); the samples
digests did not.  Both moved for ``gate`` and for ``partition`` at seed 1
when a connected graph's DC column became exactly 1 / sqrt(n): a DC level
or a prediction on a rounding tie no longer follows LAPACK's noise.  The
stream digests moved again with the version-4 coefficient section
(extents and DC prediction), which codes the same levels.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (workload, seed): (stream SHA-256 prefix, decoded samples SHA-256 prefix)
GOLDEN = {
    ("gate", 1): ("8bbbc9fb292963aa", "3c53d0ae3c37b2e9"),
    ("gate", 17): ("2f805bfdad3af5a6", "e684995b6f1efb4c"),
    ("parallax", 1): ("9ab2ca8b56303e68", "154e33137a9c73fb"),
    ("parallax", 17): ("964270716be81501", "3f93cef0a5b4f219"),
    ("partition", 1): ("3ff820a3a4484e81", "430a9b9418cbeb83"),
    ("partition", 17): ("56f1b0cf2f1a0791", "5a90521381b2ee7c"),
}

SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from harness import set_up
from workloads import WORKLOADS
out = []
for name, seed in json.loads(sys.argv[3]):
    _, _, ref, problems = set_up(WORKLOADS[name], seed)
    out.append([name, seed, ref.stream_sha256[:16], ref.samples_sha256[:16], problems])
print(json.dumps(out))
"""


def test_bench_scenes_keep_their_bytes():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "src"),
         os.path.join(ROOT, "perfbench"), json.dumps(list(GOLDEN))],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = {(name, seed): (stream, samples)
           for name, seed, stream, samples, problems in json.loads(proc.stdout)
           if not problems}
    assert got == GOLDEN
