"""Write-ahead log used for durability (paper section 3.3).

The paper relies on a high-performance disk-based write-ahead log (such as
BookKeeper) to persist writes before they reach the in-memory store and to
make the broker/proxy configuration recoverable.  This module implements the
same contract: append-only records, sequence numbers, replay from a given
sequence number, and optional on-disk persistence (each append is flushed
and ``fsync``-ed before it returns) so recovery can be exercised end to end
in the tests.

The log keeps its records as columns — ``array`` columns for the sequence
numbers, timestamps and users, lists of the (shared) kind and payload
strings — and builds :class:`LogRecord` objects only on the way out: to
the file, or to :meth:`WriteAheadLog.replay`.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from ..exceptions import PersistenceError


@dataclass(frozen=True)
class LogRecord:
    """One durable record: a user write or a configuration change."""

    sequence: int
    timestamp: float
    kind: str
    user: int
    payload: str = ""

    def to_json(self) -> str:
        """Serialise the record as a single JSON line."""
        return json.dumps(
            {
                "sequence": self.sequence,
                "timestamp": self.timestamp,
                "kind": self.kind,
                "user": self.user,
                "payload": self.payload,
            },
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(line: str) -> "LogRecord":
        """Parse a record from its JSON representation."""
        try:
            data = json.loads(line)
            return LogRecord(
                sequence=int(data["sequence"]),
                timestamp=float(data["timestamp"]),
                kind=str(data["kind"]),
                user=int(data["user"]),
                payload=str(data.get("payload", "")),
            )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise PersistenceError(f"corrupt log record: {line!r}") from exc


class WriteAheadLog:
    """Append-only durable log with sequence numbers and replay."""

    def __init__(self, path: str | Path | None = None) -> None:
        # One entry per record in every column; sequences strictly increase.
        self._sequences = array("q")
        self._timestamps = array("d")
        self._users = array("q")
        self._kinds: list[str] = []
        self._payloads: list[str] = []
        self._path = Path(path) if path is not None else None
        self._next_sequence = 0
        if self._path is not None and self._path.exists():
            self._load()

    # -------------------------------------------------------------- appending
    def append(self, kind: str, user: int, timestamp: float, payload: str = "") -> int:
        """Durably append a record and return its sequence number.

        With a path, the record reaches stable storage (written, flushed and
        ``fsync``-ed) before it joins the in-memory columns; without one, no
        :class:`LogRecord` is built.
        """
        sequence = self._next_sequence
        if self._path is not None:
            record = LogRecord(sequence, timestamp, kind, user, payload)
            with self._path.open("a", encoding="utf-8") as handle:
                handle.write(record.to_json() + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        self._push(sequence, timestamp, kind, user, payload)
        return sequence

    def _push(
        self, sequence: int, timestamp: float, kind: str, user: int, payload: str
    ) -> None:
        self._sequences.append(sequence)
        self._timestamps.append(timestamp)
        self._users.append(user)
        # Every record of a kind shares one string, loaded ones included.
        self._kinds.append(sys.intern(kind))
        self._payloads.append(payload)
        self._next_sequence = sequence + 1

    # ---------------------------------------------------------------- replay
    def replay(self, from_sequence: int = 0) -> list[LogRecord]:
        """Records with sequence number ≥ ``from_sequence``, in order."""
        start = bisect_left(self._sequences, from_sequence)
        return [
            LogRecord(sequence, timestamp, kind, user, payload)
            for sequence, timestamp, kind, user, payload in zip(
                self._sequences[start:],
                self._timestamps[start:],
                self._kinds[start:],
                self._users[start:],
                self._payloads[start:],
            )
        ]

    def scan(self, kind: str) -> Iterator[tuple[int, float, str]]:
        """``(user, timestamp, payload)`` of every record of ``kind``, in order.

        Reads the columns directly: no :class:`LogRecord` is built.
        """
        for record_kind, user, timestamp, payload in zip(
            self._kinds, self._users, self._timestamps, self._payloads
        ):
            if record_kind == kind:
                yield user, timestamp, payload

    def last_sequence(self) -> int:
        """Sequence number of the most recent record, -1 when empty."""
        return self._next_sequence - 1

    def __len__(self) -> int:
        return len(self._sequences)

    def _load(self) -> None:
        assert self._path is not None
        with self._path.open("r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped:
                    continue
                record = LogRecord.from_json(stripped)
                if self._sequences and record.sequence <= self._sequences[-1]:
                    raise PersistenceError(
                        f"{self._path}:{number}: sequence {record.sequence} does not "
                        f"follow {self._sequences[-1]}"
                    )
                self._push(
                    record.sequence, record.timestamp, record.kind, record.user, record.payload
                )


__all__ = ["LogRecord", "WriteAheadLog"]
