"""Repeatability probe: a fresh interpreter replays the start of a run.

``run.py`` starts this script once per run, with the run's own workload,
seed and length, and compares what it prints with its own replay: the
input digest, and the snapshot-stream digest after the same number of
ticks. The probe runs with its own string-hash salt and allocation
history, so outputs that depend on either fail the run's ``repeatable``
check. Arguments: repository root, workload, seed, seconds, ticks and a
scratch directory for the checkpoint store. Prints one JSON object.
"""

import json
import sys
from pathlib import Path

root, workload, seed, seconds, ticks, store_dir = sys.argv[1:7]
sys.path[:0] = [str(Path(root) / "src"), str(Path(__file__).resolve().parent)]

from serve import replay  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

stream = generate(WORKLOADS[workload], int(seed), float(seconds))
out = replay(stream, store_dir, ticks=int(ticks))
print(json.dumps({"input_digest": stream.digest(),
                  "snapshot_digest": out.snapshot_digest,
                  "errors": out.errors}))
