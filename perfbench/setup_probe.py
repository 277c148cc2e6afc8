"""Set-up probe: a fresh interpreter brings the serving stack up, then exits.

``run.py`` takes the CPU time of this script from process spawn to exit,
scaled to the reference host, as the ``setup_s`` metric. Arguments:
repository root, workload name and a scratch directory for the checkpoint
store.
"""

import sys
from pathlib import Path

root, workload, store_dir = Path(sys.argv[1]), sys.argv[2], sys.argv[3]
sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parent)]

from serve import build_stack  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

build_stack(WORKLOADS[workload], store_dir)
