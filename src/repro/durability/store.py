"""Pluggable persistence backends for durable reconfiguration state.

A :class:`Store` is the one protocol every durable consumer speaks: an
append-only collection of named *logs*, each a sequence of
JSON-serializable records numbered from 1.  The write-ahead change log,
migration snapshots and the durable audit sink all sit on top of it, so
swapping the backend (in-memory for tests, sqlite for crash safety,
pooled Postgres later) never touches the callers.

Backends:

* :class:`MemoryStore` — plain dicts; survives *simulated* crashes
  (an abandoned transaction object) because the store outlives it, but
  not a real process death.
* :class:`SqliteStore` — one stdlib ``sqlite3`` file, every append its
  own committed transaction, so a SIGKILL between appends never loses or
  tears a record.

:func:`open_store` maps a URL (``memory://``, ``sqlite:///path``) to a
backend, the seam a pooled ``postgres://`` backend will slot into.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from typing import Any, Iterable, Protocol, runtime_checkable

from repro.errors import StoreError


def canonical_json(record: Any) -> str:
    """Serialize a JSON value deterministically (sorted keys, no
    whitespace drift) — the byte form checksums and audit diffs rely on."""
    try:
        return _ENCODER.encode(record)
    except (TypeError, ValueError) as exc:
        raise StoreError(f"record is not serializable: {exc}") from exc


def _fallback(value: Any) -> Any:
    if isinstance(value, (set, frozenset)):
        return sorted(str(v) for v in value)
    if isinstance(value, tuple):
        return list(value)
    return str(value)


#: The encoder ``json.dumps`` would build on every call with these
#: arguments; ``encode`` keeps no state between calls, so one is shared.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            default=_fallback)


@runtime_checkable
class Store(Protocol):
    """Append-only record store with named logs.

    ``append`` returns the record's 1-based sequence number within its
    log; ``read`` yields ``(seq, record)`` pairs in sequence order.
    Implementations raise :class:`~repro.errors.StoreError` on backend
    failure — never a bare backend exception.
    """

    def append(self, log: str, record: dict[str, Any]) -> int: ...

    def read(self, log: str, start: int = 1) -> list[tuple[int, dict]]: ...

    def logs(self) -> list[str]: ...

    def truncate(self, log: str) -> int: ...

    def close(self) -> None: ...


class MemoryStore:
    """Dict-backed store: zero I/O, survives abandoned transactions."""

    def __init__(self) -> None:
        self._logs: dict[str, list[str]] = {}
        self._closed = False

    def append(self, log: str, record: dict[str, Any]) -> int:
        self._check_open()
        payload = canonical_json(record)
        entries = self._logs.setdefault(log, [])
        entries.append(payload)
        return len(entries)

    def read(self, log: str, start: int = 1) -> list[tuple[int, dict]]:
        self._check_open()
        entries = self._logs.get(log, [])
        return [(seq, json.loads(payload))
                for seq, payload in enumerate(entries, start=1)
                if seq >= start]

    def logs(self) -> list[str]:
        self._check_open()
        return sorted(name for name, entries in self._logs.items() if entries)

    def truncate(self, log: str) -> int:
        self._check_open()
        removed = len(self._logs.get(log, []))
        self._logs.pop(log, None)
        return removed

    def close(self) -> None:
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise StoreError("store is closed")


class SqliteStore:
    """Sqlite-backed store: one file, one row per record.

    Every append runs in its own committed transaction with
    ``synchronous=FULL`` semantics left at sqlite's journaled default,
    so a process killed between appends reopens to a prefix of the log —
    exactly the property write-ahead recovery needs.
    """

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS records (
            log     TEXT    NOT NULL,
            seq     INTEGER NOT NULL,
            payload TEXT    NOT NULL,
            PRIMARY KEY (log, seq)
        )
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        try:
            self._conn = sqlite3.connect(self.path, check_same_thread=False)
            self._conn.execute(self._SCHEMA)
            self._conn.commit()
        except sqlite3.Error as exc:
            raise StoreError(
                f"could not open sqlite store at {self.path!r}: {exc}"
            ) from exc
        self._closed = False

    def append(self, log: str, record: dict[str, Any]) -> int:
        payload = canonical_json(record)
        with self._lock:
            self._check_open()
            try:
                cursor = self._conn.execute(
                    "SELECT COALESCE(MAX(seq), 0) FROM records WHERE log = ?",
                    (log,))
                seq = cursor.fetchone()[0] + 1
                self._conn.execute(
                    "INSERT INTO records (log, seq, payload) VALUES (?, ?, ?)",
                    (log, seq, payload))
                self._conn.commit()
            except sqlite3.Error as exc:
                raise StoreError(
                    f"sqlite append to log {log!r} failed: {exc}") from exc
        return seq

    def read(self, log: str, start: int = 1) -> list[tuple[int, dict]]:
        with self._lock:
            self._check_open()
            try:
                rows = self._conn.execute(
                    "SELECT seq, payload FROM records "
                    "WHERE log = ? AND seq >= ? ORDER BY seq",
                    (log, start)).fetchall()
            except sqlite3.Error as exc:
                raise StoreError(
                    f"sqlite read of log {log!r} failed: {exc}") from exc
        return [(seq, json.loads(payload)) for seq, payload in rows]

    def logs(self) -> list[str]:
        with self._lock:
            self._check_open()
            try:
                rows = self._conn.execute(
                    "SELECT DISTINCT log FROM records ORDER BY log").fetchall()
            except sqlite3.Error as exc:
                raise StoreError(f"sqlite log listing failed: {exc}") from exc
        return [row[0] for row in rows]

    def truncate(self, log: str) -> int:
        with self._lock:
            self._check_open()
            try:
                cursor = self._conn.execute(
                    "DELETE FROM records WHERE log = ?", (log,))
                self._conn.commit()
            except sqlite3.Error as exc:
                raise StoreError(
                    f"sqlite truncate of log {log!r} failed: {exc}") from exc
        return cursor.rowcount

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._conn.close()

    def _check_open(self) -> None:
        if self._closed:
            raise StoreError("store is closed")


def open_store(url: str) -> Store:
    """Open a backend by URL: ``memory://`` or ``sqlite:///path/to.db``
    (a bare filesystem path also means sqlite)."""
    if url == "memory://":
        return MemoryStore()
    if url.startswith("sqlite:///"):
        return SqliteStore(url[len("sqlite:///"):])
    if url.startswith("sqlite://"):
        return SqliteStore(url[len("sqlite://"):])
    if "://" in url:
        scheme = url.split("://", 1)[0]
        raise StoreError(
            f"unknown store backend {scheme!r}; "
            "available: memory://, sqlite:///")
    return SqliteStore(url)


def copy_log(source: Store, target: Store, log: str) -> int:
    """Stream one log between backends (migration/backup helper);
    returns the number of records copied."""
    copied = 0
    for _seq, record in source.read(log):
        target.append(log, record)
        copied += 1
    return copied


def iter_records(store: Store, logs: Iterable[str]
                 ) -> Iterable[tuple[str, int, dict]]:
    """Flatten several logs as ``(log, seq, record)`` triples."""
    for log in logs:
        for seq, record in store.read(log):
            yield log, seq, record
