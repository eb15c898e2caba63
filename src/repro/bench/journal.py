"""Resumable evaluation campaigns: the JSONL run-journal.

Multi-config campaigns (Figure 2 grids, batch/resolution sweeps) are long
enough that losing every partial result to one crash is the dominant cost
of edge evaluation. The journal makes the *campaign* fault-tolerant: every
completed cell — a (model, backend, batch, image size, ...) configuration —
is appended to a JSONL file the moment it finishes, with its stats. A
killed campaign restarted against the same journal skips every recorded
cell and re-measures nothing.

Format — one JSON object per line:

* ``{"kind": "header", "version": 1}`` — first line of a fresh journal.
* ``{"kind": "measurement", "key": {...}, "payload": {"times": [...]}}``
* ``{"kind": "exclusion", "key": {...}, "payload": {"reason": "..."}}``
* ``{"kind": "failure", "key": {...}, "payload": {FailureRow fields}}``

``key`` identifies the cell *and* its measurement protocol (repeats,
warmup, image size...), so resuming with different flags never
reuses mismatched numbers. Writes are append-and-flush per entry: a kill
between entries loses at most the in-flight cell. A truncated final line
(killed mid-write) is tolerated on load *and trimmed from the file*, so
the next append starts a clean line; any other malformed line raises
:class:`~repro.errors.JournalError`.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os

from repro.bench.harness import FailureRow
from repro.errors import JournalError

JOURNAL_VERSION = 1

#: entry kinds a journal line may carry (besides the header)
KINDS = ("measurement", "exclusion", "failure")


def cell_key(**fields: object) -> str:
    """Canonical string form of a cell key (order-insensitive)."""
    return json.dumps(
        {name: fields[name] for name in sorted(fields)},
        sort_keys=True, separators=(",", ":"))


@dataclasses.dataclass(frozen=True)
class JournalEntry:
    """One completed cell: what it was, and what came out of it."""

    kind: str            # "measurement" | "exclusion" | "failure"
    key: dict
    payload: dict

    def to_failure_row(self) -> FailureRow:
        if self.kind != "failure":
            raise JournalError(f"entry is a {self.kind}, not a failure")
        return FailureRow(
            label=str(self.payload.get("label", "")),
            stage=str(self.payload.get("stage", "run")),
            error_type=str(self.payload.get("error_type", "OrpheusError")),
            message=str(self.payload.get("message", "")),
            attempts=int(self.payload.get("attempts", 1)))


class RunJournal:
    """Append-only JSONL record of a campaign's completed cells.

    Args:
        path: journal file location.
        resume: load existing entries and append (``True``) or start a
            fresh journal, truncating anything already there (``False``).
    """

    def __init__(self, path: str | os.PathLike, resume: bool = False) -> None:
        self.path = os.fspath(path)
        self.entries: dict[str, JournalEntry] = {}
        self.skipped = 0          # cells answered from the journal this run
        self.corrupt_lines = 0    # tolerated truncated trailing line(s)
        if resume and os.path.exists(self.path):
            self._load()
        else:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(self.path, "w", encoding="utf-8") as handle:
                self._write_line(handle, {
                    "kind": "header", "version": JOURNAL_VERSION})

    # -- loading ---------------------------------------------------------------

    def _load(self) -> None:
        with open(self.path, "rb") as handle:
            raw = handle.read()
        keep = len(raw)
        newline_at = raw.rfind(b"\n")
        tail = raw[newline_at + 1:] if newline_at >= 0 else raw
        if tail:
            # Killed mid-append before the newline made it out. Tolerating
            # the partial record on load is not enough: the file must also
            # be trimmed back to the last complete line, or the next
            # append concatenates onto the partial tail and turns a
            # recoverable truncation into permanent mid-file corruption.
            self.corrupt_lines += 1
            keep = newline_at + 1 if newline_at >= 0 else 0
        lines = raw[:keep].split(b"\n")[:-1] if keep else []
        for index, line_bytes in enumerate(lines):
            line = line_bytes.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if index == len(lines) - 1:
                    # A torn final line that still got its newline out:
                    # same treatment — drop, count, trim.
                    self.corrupt_lines += 1
                    keep -= len(line_bytes) + 1
                    continue
                raise JournalError(
                    f"{self.path}:{index + 1}: malformed journal line")
            kind = record.get("kind")
            if kind == "header":
                version = record.get("version")
                if version != JOURNAL_VERSION:
                    raise JournalError(
                        f"{self.path}: journal version {version!r}, "
                        f"this runtime writes {JOURNAL_VERSION}")
                continue
            if kind not in KINDS:
                raise JournalError(
                    f"{self.path}:{index + 1}: unknown entry kind {kind!r}")
            key = record.get("key")
            if not isinstance(key, dict):
                raise JournalError(
                    f"{self.path}:{index + 1}: entry without a key")
            entry = JournalEntry(
                kind=kind, key=key, payload=record.get("payload") or {})
            self.entries[cell_key(**key)] = entry
        if keep < len(raw):
            with open(self.path, "rb+") as handle:
                handle.truncate(keep)

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, **key: object) -> JournalEntry | None:
        """The recorded entry for this cell, or ``None``. Counts a skip."""
        entry = self.entries.get(cell_key(**key))
        if entry is not None:
            self.skipped += 1
        return entry

    def has(self, **key: object) -> bool:
        return cell_key(**key) in self.entries

    # -- recording -------------------------------------------------------------

    def record_measurement(self, key: dict, times: "tuple[float, ...] | list[float]",
                           **extra: object) -> JournalEntry:
        payload: dict = {"times": [float(t) for t in times]}
        payload.update(extra)
        return self.record("measurement", key, payload)

    def record_exclusion(self, key: dict, reason: str) -> JournalEntry:
        return self.record("exclusion", key, {"reason": reason})

    def record_failure(self, key: dict, failure: FailureRow) -> JournalEntry:
        return self.record("failure", key, dataclasses.asdict(failure))

    def record(self, kind: str, key: dict, payload: dict) -> JournalEntry:
        """Append one completed cell (durable immediately: flush + fsync)."""
        if kind not in KINDS:
            raise JournalError(f"unknown entry kind {kind!r}")
        entry = JournalEntry(kind=kind, key=dict(key), payload=payload)
        self.entries[cell_key(**key)] = entry
        with open(self.path, "a", encoding="utf-8") as handle:
            self._write_line(handle, {
                "kind": kind, "key": entry.key, "payload": payload})
        return entry

    @staticmethod
    def _write_line(handle: io.TextIOBase, record: dict) -> None:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())

    def __repr__(self) -> str:
        return (f"RunJournal({self.path!r}: {len(self.entries)} cell(s), "
                f"{self.skipped} skipped this run)")


def open_journal(
    journal: "RunJournal | str | os.PathLike | None", resume: bool = True,
) -> RunJournal | None:
    """Normalise the ``journal=`` argument the bench entry points accept.

    ``None`` passes through; a :class:`RunJournal` is used as-is; a path
    opens (by default resuming — handing a path to a sweep means "reuse
    what this file already knows").
    """
    if journal is None or isinstance(journal, RunJournal):
        return journal
    return RunJournal(journal, resume=resume)
