"""Render a structured event log for humans: ``python -m repro obs report``.

Reads a JSON-lines event log (written by
:class:`~repro.obs.sinks.JsonLinesSink`, e.g. via
``python -m repro soak --events-log events.jsonl``) and prints a summary —
event volume by name and severity and per-fix provenance statistics —
followed by a tail of the newest records. Malformed
lines are counted, never fatal: a report over a partially-written log from
a crashed process is exactly when this tool is needed most.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["load_events", "summarize_events", "format_summary", "main"]


def load_events(path: Path) -> Tuple[List[Dict[str, Any]], int]:
    """Parse one JSON-lines event log; returns (records, malformed_lines)."""
    records: List[Dict[str, Any]] = []
    bad = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                bad += 1
                continue
            if isinstance(record, dict):
                records.append(record)
            else:
                bad += 1
    return records, bad


def summarize_events(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate a record list into the report's summary structure."""
    by_name: Dict[str, int] = {}
    by_severity: Dict[str, int] = {}
    provenance = {
        "fixes": 0,
        "degraded": 0,
        "cov_fallbacks": 0,
        "env_restarts": 0,
        "confidence_sum": 0.0,
    }
    for r in records:
        name = str(r.get("event", "?"))
        by_name[name] = by_name.get(name, 0) + 1
        severity = str(r.get("severity", "?"))
        by_severity[severity] = by_severity.get(severity, 0) + 1
        if name == "service.fixes_accepted":
            provenance["fixes"] += 1
            if r.get("degraded"):
                provenance["degraded"] += 1
            if r.get("cov_fallback"):
                provenance["cov_fallbacks"] += 1
            provenance["env_restarts"] += int(r.get("env_restarts", 0) or 0)
            provenance["confidence_sum"] += float(r.get("confidence", 0.0) or 0.0)
    return {
        "n_events": len(records),
        "by_name": by_name,
        "by_severity": by_severity,
        "provenance": provenance,
    }


def format_summary(
    summary: Dict[str, Any],
    tail: Optional[List[Dict[str, Any]]] = None,
    malformed: int = 0,
) -> str:
    """Render the summary (and an optional record tail) as aligned text."""
    lines: List[str] = ["=== repro obs event-log report ==="]
    lines.append(f"  events: {summary['n_events']}"
                 + (f"  (+{malformed} malformed lines skipped)"
                    if malformed else ""))
    sev = summary["by_severity"]
    if sev:
        lines.append("  severity: " + ", ".join(
            f"{k}={sev[k]}" for k in ("debug", "info", "warning", "error")
            if k in sev))

    by_name = summary["by_name"]
    if by_name:
        lines.append("")
        lines.append("  -- events by name --")
        name_w = max(len(n) for n in by_name) + 2
        for name in sorted(by_name, key=lambda n: (-by_name[n], n)):
            lines.append(f"  {name.ljust(name_w)}{by_name[name]:>8}")

    prov = summary["provenance"]
    if prov["fixes"]:
        mean_conf = prov["confidence_sum"] / prov["fixes"]
        lines.append("")
        lines.append("  -- fix provenance --")
        lines.append(f"  fixes: {prov['fixes']}  degraded: {prov['degraded']}"
                     f"  cov fallbacks: {prov['cov_fallbacks']}"
                     f"  env restarts: {prov['env_restarts']}")
        lines.append(f"  mean confidence: {mean_conf:.3f}")

    if tail:
        lines.append("")
        lines.append(f"  -- last {len(tail)} events --")
        for r in tail:
            fields = {k: v for k, v in r.items()
                      if k not in ("seq", "t_mono", "wall", "severity",
                                   "component", "event")}
            detail = " ".join(f"{k}={v}" for k, v in fields.items())
            lines.append(
                f"  #{r.get('seq', '?')} [{r.get('severity', '?')}] "
                f"{r.get('component', '?')}/{r.get('event', '?')} {detail}"
            )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro obs report`` (args pre-stripped)."""
    args = list(sys.argv[1:] if argv is None else argv)
    path: Optional[Path] = None
    tail_n = 10
    while args:
        arg = args.pop(0)
        if arg == "--tail" and args:
            tail_n = int(args.pop(0))
        elif arg == "--log" and args:
            path = Path(args.pop(0))
        elif path is None and not arg.startswith("-"):
            path = Path(arg)
        else:
            print(f"error: unrecognised argument {arg!r}", file=sys.stderr)
            return 2
    if path is None:
        print("error: pass an event log path (--log events.jsonl); one is "
              "written by e.g. 'python -m repro soak --events-log "
              "events.jsonl'", file=sys.stderr)
        return 2
    if not path.is_file():
        print(f"error: no event log at {path}", file=sys.stderr)
        return 2
    records, malformed = load_events(path)
    print(format_summary(summarize_events(records),
                         tail=records[-tail_n:] if tail_n > 0 else None,
                         malformed=malformed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
