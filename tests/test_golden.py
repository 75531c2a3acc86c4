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
digests did not.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (workload, seed): (stream SHA-256 prefix, decoded samples SHA-256 prefix)
GOLDEN = {
    ("gate", 1): ("441676117ed93106", "5d97895a6655e845"),
    ("gate", 17): ("97fee0c2c48139c1", "7b6caef18052a978"),
    ("parallax", 1): ("8bcaa316f3768b63", "154e33137a9c73fb"),
    ("parallax", 17): ("20064464d6c33650", "3f93cef0a5b4f219"),
    ("partition", 1): ("5b9d81455ec9e31d", "89d13fe3a9462789"),
    ("partition", 17): ("d6b05014dd13218a", "5a90521381b2ee7c"),
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
