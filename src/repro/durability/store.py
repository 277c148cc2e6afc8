"""Atomic on-disk checkpoint store: the layer that survives the hardware.

Every prior layer's ``checkpoint()``/``restore()`` pair proves a JSON dict
round-trips bit-identically — but the dict lived in memory, so a process
crash lost the whole fleet state. :class:`CheckpointStore` gives those
dicts a crash-safe home with the classic durability ladder:

* **Atomic visibility.** A snapshot is written to a temp file, flushed,
  (optionally) fsynced, then ``os.replace``\\ d into its final name and the
  directory entry fsynced — a crash at any instant leaves either the old
  state or the new one on disk, never a torn file under the final name.
* **Self-verifying files.** Each snapshot file carries a BLAKE2b digest
  over the canonical JSON of its own body, so corruption (bit rot, torn
  copies, a hostile edit) is detected per file with no external state.
* **A digested manifest.** ``MANIFEST-<kind>.json`` records the retained
  snapshots' digests and is itself digest-protected; restore cross-checks
  file against manifest, so a swap of one valid old snapshot for another
  (a rollback attack / restore-from-the-wrong-backup accident) is caught.
  A manifest that lags one ``save`` — the legal crash window between the
  two renames — is recognised and repaired, not refused.
* **Quarantine, don't delete.** A snapshot that fails verification is
  *moved* to ``quarantine/`` with a ``.reason`` sidecar, never deleted:
  corrupt state is forensic evidence, and the incident you are recovering
  from is exactly when you cannot afford to destroy it.
* **Retention rotation.** Only the newest ``retain`` verified snapshots
  per kind are kept live; older ones are deleted *after* a newer one is
  durably visible (quarantined files are exempt — rotation never touches
  evidence).

Everything a disk can contain is *data*: every refusal is a typed
:class:`~repro.errors.DataQualityError` (or
:class:`~repro.errors.ConfigurationError` for an unusable root path), and
every action is a ``durability.<name>`` :func:`repro.obs.signal` that
also writes the local ``counters`` ledger.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from hashlib import blake2b
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.digests import canonical_json
from repro.errors import ConfigurationError, DataQualityError
from repro.obs.sinks import DURABILITY_POLICIES

__all__ = ["CheckpointStore", "SnapshotInfo", "RestoredSnapshot"]

#: Schema version written into every snapshot file and manifest.
STORE_FORMAT = 1

#: Hex chars of blake2b kept per digest (16 bytes).
_DIGEST_LEN = 32

#: Kinds are path components; keep them boring so the store cannot be
#: talked into writing outside its root.
_KIND_RE = re.compile(r"^[a-z0-9][a-z0-9_-]{0,63}$")

_SNAPSHOT_RE = re.compile(r"^(?P<kind>[a-z0-9][a-z0-9_-]*)-(?P<seq>\d{8})"
                          r"\.ckpt\.json$")


def _hash(text: str) -> str:
    return blake2b(text.encode("utf-8"),
                   digest_size=_DIGEST_LEN // 2).hexdigest()


def _digest(body: Dict[str, Any]) -> str:
    return _hash(canonical_json(body))


def _sealed(body: Dict[str, Any]) -> Tuple[str, str]:
    """``(digest, text)`` of ``body`` from one encode.

    ``text`` is ``canonical_json(body)`` with ``"digest"`` added: sorted keys
    put ``"digest"`` before every key a snapshot or manifest body has, so
    it is spliced in right after the opening brace.
    """
    text = canonical_json(body)
    digest = _hash(text)
    return digest, f'{{"digest":"{digest}",{text[1:]}'


def _fsync_dir(path: Path) -> None:
    """Flush a directory entry (rename durability); no-op where unsupported."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@dataclass(frozen=True)
class SnapshotInfo:
    """One verified snapshot's identity on disk."""

    kind: str
    seq: int
    tick: Optional[int]
    path: str
    digest: str
    n_bytes: int


@dataclass(frozen=True)
class RestoredSnapshot:
    """What :meth:`CheckpointStore.restore_latest` recovered.

    ``skipped`` lists every newer-but-unverifiable snapshot that was
    quarantined on the way down to this one, as ``(filename, reason)``
    pairs — an empty tuple means the newest snapshot verified first try.
    """

    info: SnapshotInfo
    payload: Any
    skipped: Tuple[Tuple[str, str], ...] = ()


class CheckpointStore:
    """Persists checkpoint dicts of any ``kind`` atomically under one root."""

    def __init__(self, root: str, retain: int = 4,
                 durability: str = "fsync"):
        if retain < 1:
            raise ConfigurationError("retain must be >= 1")
        if durability not in DURABILITY_POLICIES:
            raise ConfigurationError(
                f"durability must be 'flush' or 'fsync', got {durability!r}")
        self.root = Path(root)
        self.retain = int(retain)
        self.durability = durability
        #: The ``durability.*`` signal ledger.
        self.counters: Dict[str, int] = {}
        #: File name -> (hash of its text, digest, tick) for every snapshot
        #: this store wrote or verified, so an unchanged file is not
        #: parsed and re-digested again (see :meth:`_verified`).
        self._known: Dict[str, Tuple[str, str, Any]] = {}
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            (self.root / "quarantine").mkdir(exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot create checkpoint store at {str(self.root)!r}: "
                f"{exc}")

    # -- saving --------------------------------------------------------------

    def save(self, kind: str, payload: Any,
             tick: Optional[int] = None) -> SnapshotInfo:
        """Durably persist one snapshot; returns its on-disk identity.

        The snapshot becomes visible atomically (temp file → fsync →
        rename → directory fsync under the default ``"fsync"`` policy),
        then the manifest is rewritten the same way, then retention
        rotates out snapshots older than the newest ``retain``.
        """
        self._check_kind(kind)
        if tick is not None:
            tick = int(tick)
        seq = self._next_seq(kind)
        body = {
            "format": STORE_FORMAT,
            "kind": kind,
            "seq": seq,
            "tick": tick,
            "payload": payload,
        }
        try:
            digest, data = _sealed(body)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"snapshot payload for kind {kind!r} is not "
                f"JSON-serialisable: {exc}")
        name = f"{kind}-{seq:08d}.ckpt.json"
        self._atomic_write(name, data)
        # The written text passes _verify_file by construction: canonical
        # JSON of string-keyed data parses and re-encodes to itself.
        self._known[name] = (_hash(data + "\n"), digest, tick)
        info = SnapshotInfo(kind=kind, seq=seq, tick=tick,
                            path=str(self.root / name),
                            digest=digest, n_bytes=len(data))
        self._rewrite_manifest(kind)
        self._rotate(kind)
        obs.signal("durability.saved", ledger=self.counters,
                   kind=kind, seq=seq, tick=tick, bytes=info.n_bytes)
        return info

    # -- restoring -----------------------------------------------------------

    def restore_latest(self, kind: str) -> RestoredSnapshot:
        """The newest snapshot of ``kind`` that verifies, or a typed refusal.

        Candidates are scanned newest-first; each one that fails
        verification (unparseable, digest mismatch, manifest
        disagreement) is quarantined — moved, never deleted — and the
        scan continues. When nothing verifies, the
        :class:`~repro.errors.DataQualityError` names every candidate and
        why it was refused.
        """
        self._check_kind(kind)
        manifest = self._load_manifest(kind)
        skipped: List[Tuple[str, str]] = []
        for name, seq in self._scan(kind):
            reason = None
            body = self._verify_file(name)
            if isinstance(body, str):
                reason = body
            elif manifest is not None:
                listed = manifest.get(seq)
                if listed is not None and listed != body["digest"]:
                    reason = (f"digest disagrees with manifest "
                              f"(file {body['digest']}, manifest {listed})")
                elif listed is None and seq < max(manifest, default=seq + 1):
                    # Not the legal one-save lag: an *older* snapshot the
                    # manifest never recorded is foreign state.
                    reason = "snapshot absent from a newer manifest"
                elif listed is None:
                    obs.signal("durability.manifest_lag", ledger=self.counters,
                               kind=kind, seq=seq)
            if reason is not None:
                self._quarantine(name, reason)
                skipped.append((name, reason))
                continue
            payload = body["payload"]
            tick = body["tick"]
            info = SnapshotInfo(
                kind=kind, seq=seq, tick=None if tick is None else int(tick),
                path=str(self.root / name), digest=body["digest"],
                n_bytes=len(canonical_json(body)),
            )
            if skipped:
                # Newer snapshots were refused on the way here; heal the
                # manifest so the survivor is what it now attests to.
                self._rewrite_manifest(kind)
            obs.signal("durability.restored", ledger=self.counters,
                       kind=kind, seq=seq, tick=info.tick, skipped=len(skipped))
            return RestoredSnapshot(info=info, payload=payload,
                                    skipped=tuple(skipped))
        detail = "; ".join(f"{n}: {r}" for n, r in skipped) or "none on disk"
        obs.signal("durability.restore_failed", ledger=self.counters,
                   severity="error", kind=kind, candidates=len(skipped))
        raise DataQualityError(
            f"no verifiable {kind!r} snapshot in store "
            f"{str(self.root)!r} ({detail})")

    def latest(self, kind: str) -> Optional[SnapshotInfo]:
        """The newest *verifiable* snapshot's identity, without side effects.

        A read-only probe: nothing is quarantined, the manifest is not
        rewritten. ``None`` when no candidate verifies.
        """
        self._check_kind(kind)
        manifest = self._load_manifest(kind)
        for name, seq in self._scan(kind):
            body = self._verify_file(name)
            if isinstance(body, str):
                continue
            if manifest is not None and manifest.get(seq) not in (
                    None, body["digest"]):
                continue
            tick = body["tick"]
            return SnapshotInfo(
                kind=kind, seq=seq, tick=None if tick is None else int(tick),
                path=str(self.root / name), digest=body["digest"],
                n_bytes=len(canonical_json(body)),
            )
        return None

    def verify(self) -> Dict[str, List[Tuple[str, Optional[str]]]]:
        """Audit every snapshot file; ``{kind: [(file, problem-or-None)]}``.

        Read-only like :meth:`latest` — an operator's ``fsck`` for the
        store, not a mutation.
        """
        report: Dict[str, List[Tuple[str, Optional[str]]]] = {}
        for entry in sorted(p.name for p in self.root.iterdir()
                            if p.is_file()):
            match = _SNAPSHOT_RE.match(entry)
            if match is None:
                continue
            body = self._verify_file(entry)
            problem = body if isinstance(body, str) else None
            report.setdefault(match.group("kind"), []).append(
                (entry, problem))
        return report

    # -- internals: verification and quarantine ------------------------------

    def _read(self, name: str) -> Tuple[Optional[str], str]:
        """``(text, "")`` of one snapshot file, or ``(None, reason)``."""
        try:
            return (self.root / name).read_text(encoding="utf-8"), ""
        except OSError as exc:
            return None, f"unreadable: {exc}"
        except UnicodeDecodeError as exc:
            return None, f"not UTF-8 (bit rot?): {exc}"

    def _verify_file(self, name: str, raw: Optional[str] = None) -> Any:
        """Parse + digest-check one snapshot file (``raw``: its text, when
        the caller already read it).

        Returns the verified body dict, or a ``str`` reason when the file
        is refused (the caller decides whether that means quarantine).
        """
        if raw is None:
            raw, problem = self._read(name)
            if raw is None:
                return problem
        try:
            body = json.loads(raw)
        except ValueError as exc:
            return f"not JSON (torn write?): {exc}"
        if not isinstance(body, dict):
            return "snapshot body must be a JSON object"
        if body.get("format") != STORE_FORMAT:
            return f"unsupported store format {body.get('format')!r}"
        recorded = body.get("digest")
        if not isinstance(recorded, str):
            return "missing digest"
        check = {k: v for k, v in body.items() if k != "digest"}
        try:
            actual = _digest(check)
        except (TypeError, ValueError) as exc:
            return f"undigestable body: {exc}"
        if actual != recorded:
            return (f"digest mismatch (recorded {recorded}, "
                    f"actual {actual})")
        match = _SNAPSHOT_RE.match(name)
        if match is None or body.get("kind") != match.group("kind") \
                or body.get("seq") != int(match.group("seq")):
            return "snapshot identity disagrees with its filename"
        return body

    def _verified(self, name: str) -> Any:
        """``(digest, tick)`` of one snapshot file, or a ``str`` reason.

        The file is always read, but parsed and re-digested only when its
        text differs from what this store last wrote or verified under
        that name. :meth:`_verify_file` is a pure function of (name,
        text), so unchanged text keeps its verdict and changed text
        (corrupt, truncated, foreign) always takes the full check.
        """
        raw, problem = self._read(name)
        if raw is None:
            return problem
        key = _hash(raw)
        known = self._known.get(name)
        if known is not None and known[0] == key:
            return known[1:]
        body = self._verify_file(name, raw)
        if isinstance(body, str):
            return body
        self._known[name] = (key, body["digest"], body["tick"])
        return body["digest"], body["tick"]

    def _quarantine(self, name: str, reason: str) -> None:
        """Move a refused file into ``quarantine/`` with a reason sidecar."""
        self._known.pop(name, None)
        src = self.root / name
        dst = self.root / "quarantine" / name
        suffix = 1
        while dst.exists():
            suffix += 1
            dst = self.root / "quarantine" / f"{name}.{suffix}"
        try:
            os.replace(str(src), str(dst))
            dst.with_name(dst.name + ".reason").write_text(
                reason + "\n", encoding="utf-8")
        except OSError:
            pass  # best effort: quarantine must never block recovery
        obs.signal("durability.quarantined", ledger=self.counters,
                   severity="warning", file=name, reason=reason)

    # -- internals: layout ---------------------------------------------------

    def _scan(self, kind: str) -> List[Tuple[str, int]]:
        """Snapshot files of ``kind``, newest (highest seq) first."""
        out: List[Tuple[str, int]] = []
        for path in self.root.iterdir():
            if not path.is_file():
                continue
            match = _SNAPSHOT_RE.match(path.name)
            if match is not None and match.group("kind") == kind:
                out.append((path.name, int(match.group("seq"))))
        return sorted(out, key=lambda item: -item[1])

    def _next_seq(self, kind: str) -> int:
        scan = self._scan(kind)
        live = scan[0][1] if scan else 0
        quarantined = 0
        for path in (self.root / "quarantine").iterdir():
            match = _SNAPSHOT_RE.match(path.name.split(".ckpt.json")[0]
                                       + ".ckpt.json")
            if match is not None and match.group("kind") == kind:
                quarantined = max(quarantined, int(match.group("seq")))
        return max(live, quarantined) + 1

    def _atomic_write(self, name: str, data: str) -> None:
        tmp = self.root / f".tmp-{name}"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(data + "\n")
                fh.flush()
                if self.durability == "fsync":
                    os.fsync(fh.fileno())
            os.replace(str(tmp), str(self.root / name))
            if self.durability == "fsync":
                _fsync_dir(self.root)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot write snapshot {name!r} in "
                f"{str(self.root)!r}: {exc}")

    # -- internals: manifest -------------------------------------------------

    def _manifest_name(self, kind: str) -> str:
        return f"MANIFEST-{kind}.json"

    def _load_manifest(self, kind: str) -> Optional[Dict[int, str]]:
        """``{seq: digest}`` from the manifest, or None when unusable.

        A corrupt manifest is quarantined (it is evidence too) and
        restore falls back to the snapshots' self-digests.
        """
        path = self.root / self._manifest_name(kind)
        if not path.exists():
            return None
        try:
            body = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError, UnicodeDecodeError) as exc:
            self._quarantine(self._manifest_name(kind),
                             f"manifest unreadable: {exc}")
            return None
        if (not isinstance(body, dict)
                or body.get("format") != STORE_FORMAT
                or not isinstance(body.get("entries"), list)
                or not isinstance(body.get("digest"), str)):
            self._quarantine(self._manifest_name(kind),
                             "manifest shape invalid")
            return None
        check = {k: v for k, v in body.items() if k != "digest"}
        if _digest(check) != body["digest"]:
            self._quarantine(self._manifest_name(kind),
                             "manifest digest mismatch")
            return None
        out: Dict[int, str] = {}
        for entry in body["entries"]:
            if (isinstance(entry, dict)
                    and isinstance(entry.get("seq"), int)
                    and isinstance(entry.get("digest"), str)):
                out[entry["seq"]] = entry["digest"]
        return out

    def _rewrite_manifest(self, kind: str) -> None:
        entries = []
        for name, seq in reversed(self._scan(kind)):
            verdict = self._verified(name)
            if isinstance(verdict, str):
                continue  # restore/rotation will deal with it
            digest, tick = verdict
            entries.append({"seq": seq, "file": name,
                            "digest": digest, "tick": tick})
        manifest = {"format": STORE_FORMAT, "kind": kind,
                    "entries": entries}
        self._atomic_write(self._manifest_name(kind), _sealed(manifest)[1])

    # -- internals: retention ------------------------------------------------

    def _rotate(self, kind: str) -> None:
        """Delete verified snapshots beyond ``retain`` (never quarantine)."""
        scan = self._scan(kind)
        for name, seq in scan[self.retain:]:
            verdict = self._verified(name)
            if isinstance(verdict, str):
                # Unverifiable: rotation quarantines rather than deletes,
                # so corruption cannot be aged out of the evidence trail.
                self._quarantine(name, f"refused during rotation: {verdict}")
                continue
            try:
                (self.root / name).unlink()
            except OSError:
                continue
            self._known.pop(name, None)
            obs.signal("durability.rotated", ledger=self.counters,
                       severity="debug", kind=kind, seq=seq)
        if len(scan) > self.retain:
            self._rewrite_manifest(kind)

    def _check_kind(self, kind: str) -> None:
        if not isinstance(kind, str) or not _KIND_RE.match(kind):
            raise ConfigurationError(
                f"snapshot kind must match {_KIND_RE.pattern!r}, "
                f"got {kind!r}")
