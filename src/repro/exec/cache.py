"""The content-addressed persistent result cache.

Simulation results are pure functions of their inputs, so they are
cached under a :func:`canonical_key`: the SHA-256 of a canonical JSON
document covering *everything* the result depends on (model layers,
partition, full ``FelaConfig``, cluster spec, straggler seed/params)
plus a schema-version salt.  Changing any input — or bumping
:data:`CACHE_SCHEMA` after a semantics change — changes the key, so a
stale entry can never be returned for a new computation.

Robustness contract:

* **Writes are atomic.**  Entries are written to a temp file in the
  cache directory and ``os.replace``-d into place, so concurrent
  writers (two pool workers computing the same key) cannot tear an
  entry — the last full write wins and both are identical anyway.
* **Reads are strict but never fatal.**  Corrupted JSON, truncated
  files, a stale schema version, or a stored key that does not match
  the requested hash (a collision or a renamed file) all *evict* the
  entry and report a miss; the caller recomputes.  A damaged cache
  costs time, never correctness.

``ResultCache(None)`` is a memory-only cache (the in-process memo
without the disk tier): the default for library use, so tests and
one-shot scripts do not touch the filesystem.  The memo also guarantees
that two lookups of the same key in one process return the *same
object*, preserving identity-based caching semantics for callers.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import typing as _t

from repro.errors import CacheError
from repro.exec.codec import encode_value

#: Salt baked into every key and entry envelope.  Bump on any change to
#: the simulation semantics or the cached payload layout: old entries
#: then mismatch and are evicted instead of silently resurfacing.
CACHE_SCHEMA = 2

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/fela-repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return pathlib.Path(override).expanduser()
    return pathlib.Path.home() / ".cache" / "fela-repro"


def canonical_key(kind: str, payload: _t.Any) -> str:
    """Content hash of a result's full input description.

    ``kind`` namespaces result families (``"tuning-case"``, ``"run"``,
    ``"tuning-result"``) so structurally similar payloads of different
    meanings can never alias.
    """
    document = json.dumps(
        {
            "kind": kind,
            "schema": CACHE_SCHEMA,
            "payload": encode_value(payload),
        },
        sort_keys=True,
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


class ResultCache:
    """Two-tier (memo + optional disk) cache of simulation results.

    Values must never be ``None`` — ``None`` is the miss marker.
    ``decode``/``encode`` hooks translate between result objects and
    JSON-safe payloads (see :mod:`repro.exec.codec`); without them the
    payload itself is stored/returned.
    """

    def __init__(
        self, directory: str | os.PathLike[str] | None = None
    ) -> None:
        self.directory = (
            pathlib.Path(directory).expanduser()
            if directory is not None
            else None
        )
        self._memo: dict[str, _t.Any] = {}
        self._tmp_serial = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    # -- lookup ---------------------------------------------------------------

    def get(
        self,
        key: str,
        decode: _t.Callable[[_t.Any], _t.Any] | None = None,
    ) -> _t.Any | None:
        """The cached value for ``key``, or ``None`` on a miss.

        Any malformed on-disk entry is deleted (counted as an eviction)
        and reported as a miss.
        """
        if key in self._memo:
            self.hits += 1
            return self._memo[key]
        if self.directory is None:
            self.misses += 1
            return None
        path = self._entry_path(key)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        value = self._decode_entry(key, text, decode)
        if value is None:
            self._evict(path)
            self.misses += 1
            return None
        self._memo[key] = value
        self.hits += 1
        return value

    def _decode_entry(
        self,
        key: str,
        text: str,
        decode: _t.Callable[[_t.Any], _t.Any] | None,
    ) -> _t.Any | None:
        try:
            envelope = json.loads(text)
        except ValueError:
            return None
        if not isinstance(envelope, dict):
            return None
        if envelope.get("schema") != CACHE_SCHEMA:
            return None
        if envelope.get("key") != key:
            return None
        payload = envelope.get("payload")
        if payload is None:
            return None
        if decode is None:
            return payload
        try:
            return decode(payload)
        except (CacheError, KeyError, TypeError, ValueError):
            return None

    def _evict(self, path: pathlib.Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
        self.evictions += 1

    # -- storage --------------------------------------------------------------

    def put(
        self,
        key: str,
        value: _t.Any,
        encode: _t.Callable[[_t.Any], _t.Any] | None = None,
    ) -> None:
        """Store ``value`` under ``key`` (memo always, disk if enabled)."""
        if value is None:
            raise CacheError(
                "cannot cache None results (None marks a cache miss)"
            )
        payload = encode(value) if encode is not None else encode_value(value)
        self._memo[key] = value
        self.stores += 1
        if self.directory is None:
            return
        envelope = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "payload": payload,
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        self._tmp_serial += 1
        tmp = self.directory / (
            f".tmp-{os.getpid()}-{self._tmp_serial}-{key[:16]}"
        )
        # No sort_keys here (unlike canonical_key): JSON objects keep
        # member order, so decoded dicts preserve insertion order and a
        # cached result reprs identically to a fresh one.
        tmp.write_text(json.dumps(envelope))
        os.replace(tmp, self._entry_path(key))

    def _entry_path(self, key: str) -> pathlib.Path:
        assert self.directory is not None
        return self.directory / f"{key}.json"

    # -- maintenance ----------------------------------------------------------

    def entries(self) -> list[tuple[str, int]]:
        """All persisted ``(key, size_bytes)`` pairs, key-sorted."""
        if self.directory is None or not self.directory.is_dir():
            return []
        found = []
        for path in sorted(self.directory.glob("*.json")):
            try:
                found.append((path.stem, path.stat().st_size))
            except OSError:
                continue
        return found

    def clear(self) -> int:
        """Drop the memo and every persisted entry; returns the count."""
        self._memo.clear()
        removed = 0
        if self.directory is None or not self.directory.is_dir():
            return removed
        for pattern in ("*.json", ".tmp-*"):
            for path in self.directory.glob(pattern):
                try:
                    path.unlink()
                except OSError:
                    continue
                removed += 1
        return removed

    def stats(self) -> dict[str, _t.Any]:
        """Counters plus the persisted footprint, for ``repro cache``."""
        entries = self.entries()
        return {
            "directory": (
                str(self.directory) if self.directory is not None else None
            ),
            "entries": len(entries),
            "bytes": sum(size for _, size in entries),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
        }
