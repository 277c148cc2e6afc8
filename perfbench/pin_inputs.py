"""Rewrite ``inputs.json``: the committed digests of the benchmark inputs.

Every run regenerates the reference stream of its workload and compares
its digest with the one pinned here, and compares its own stream's digest
when its (seed, seconds) pair is pinned too. Re-pin only after a
deliberate change to the generator or to the simulation code it uses.
Run from the repository root::

    python3 perfbench/pin_inputs.py --seconds 10 --seeds 32
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from workloads import WORKLOADS, generate  # noqa: E402

#: The short stream every run regenerates to prove the generator unchanged.
REFERENCE = {"seed": 0, "seconds": 2}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=float, required=True,
                    help="run length the pinned per-seed digests are for")
    ap.add_argument("--seeds", type=int, default=32,
                    help="pin seeds 0 .. SEEDS-1")
    args = ap.parse_args()
    pins = {
        "reference": dict(REFERENCE, digests={
            name: generate(w, REFERENCE["seed"], REFERENCE["seconds"]).digest()
            for name, w in WORKLOADS.items()}),
        "runs": {
            f"{name}:{seed}:{args.seconds:g}":
                generate(w, seed, args.seconds).digest()
            for name, w in WORKLOADS.items() for seed in range(args.seeds)},
    }
    (BENCH / "inputs.json").write_text(
        json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
