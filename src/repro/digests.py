"""Canonical JSON and per-tick digest comparison.

The checkpoint store and the gateway trace hash the canonical JSON text of
what they write, and trace replay, crash recovery and the seeded harnesses
gate on per-tick snapshot digests. Both live here, below the serving
layers and the harnesses alike.
"""

from __future__ import annotations

import json
import math
from typing import Any, List, Sequence, Tuple

__all__ = ["Mismatch", "canonical_json", "digest_mismatches"]

#: ``(tick_index, t, expected_digest, actual_digest)`` for one diverged tick.
Mismatch = Tuple[int, float, str, str]


def canonical_json(value: Any) -> str:
    """The one text a JSON value hashes as: sorted keys, no whitespace,
    non-finite floats kept."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=True)


def digest_mismatches(
    expected: Sequence[str],
    actual: Sequence[str],
    times: Sequence[float],
    first_index: int = 0,
) -> List[Mismatch]:
    """Every tick where two per-tick snapshot-digest streams differ.

    ``times[i]`` is the time of ``expected[i]``; indices start at
    ``first_index``. A tick in only one stream differs from
    ``"<missing>"``, so ``[]`` means identical snapshots at every tick.
    """
    out: List[Mismatch] = []
    for i in range(max(len(expected), len(actual))):
        want = expected[i] if i < len(expected) else "<missing>"
        got = actual[i] if i < len(actual) else "<missing>"
        if want != got:
            t = float(times[i]) if i < len(times) else math.nan
            out.append((first_index + i, t, want, got))
    return out
