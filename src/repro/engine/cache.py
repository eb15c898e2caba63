"""Persistent caches: autotune results and compiled engine files.

:class:`AutotuneCache` makes tuning survive across processes — a campaign
that tunes ResNet-50 once should never pay for it again. One JSON file
holds ``{key: winning_impl}`` entries under a file-level format version
and host fingerprint; a version or host mismatch evicts the whole file
(tuning results from another machine or an older runtime are worthless,
and silently reusing them is how benchmarks lie).

Concurrent writers are expected — bench sweeps fan out processes — so
writes go through a lock file (``O_CREAT | O_EXCL``, the portable
primitive) with stale-lock breaking, and follow read-merge-replace: merge
our new entries over whatever a sibling flushed first, then atomically
``os.replace``. A torn read is impossible and last-writer-wins applies
per entry, not per file.

:class:`EngineCache` is a directory of compiled engine files keyed by the
compile request (model, backend, threads, batch, ...). The bench harness
points ``--engine-cache`` at one directory and every sweep configuration
warm-starts after its first compile.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
import time
import warnings
from typing import Any

from repro.engine.fingerprint import host_fingerprint

AUTOTUNE_CACHE_VERSION = 1

#: Defensive cap on cache files; a tuning cache is a few KiB per model.
MAX_CACHE_BYTES = 16 << 20


class _FileLock:
    """Best-effort cross-process lock via an ``O_EXCL`` lock file.

    Not reentrant. A lock older than ``stale_s`` is presumed abandoned
    (crashed writer) and broken; a writer that cannot acquire within
    ``timeout_s`` proceeds *without* the lock — for a cache, a lost
    update beats a deadlocked benchmark.
    """

    def __init__(self, path: str, timeout_s: float = 5.0,
                 stale_s: float = 30.0) -> None:
        self.path = path + ".lock"
        self.timeout_s = timeout_s
        self.stale_s = stale_s
        self._held = False

    def __enter__(self) -> "_FileLock":
        deadline = time.monotonic() + self.timeout_s
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    # Wall clock on purpose: mtime is epoch time, so the
                    # monotonic clock cannot age it. A backwards NTP step
                    # makes `age` negative — abs() keeps an abandoned lock
                    # from being pinned "fresh" forever by such a step.
                    age = abs(time.time()  # lint: disable=ORL003
                              - os.path.getmtime(self.path))
                except OSError:
                    continue  # holder released between open and stat; retry
                if age > self.stale_s:
                    try:
                        os.unlink(self.path)  # break the abandoned lock
                    except OSError:
                        pass
                    continue
                if time.monotonic() > deadline:
                    return self  # proceed unlocked; see class docstring
                time.sleep(0.01)
                continue
            os.write(fd, str(os.getpid()).encode("ascii"))
            os.close(fd)
            self._held = True
            return self

    def __exit__(self, *exc_info: object) -> None:
        if self._held:
            try:
                os.unlink(self.path)
            except OSError:
                pass
            self._held = False


def _atomic_write_json(path: str, payload: dict[str, Any]) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


class AutotuneCache:
    """Persistent ``{tuning key: winning implementation}`` store.

    Usage::

        cache = AutotuneCache("~/.cache/orpheus/autotune.json")
        overrides = autotune(graph, candidates, cache=cache)  # hits skip racing
        cache.flush()   # merge + atomically persist new measurements

    One instance may be shared across threads (a serving pool compiles
    several backends concurrently against one cache): an internal mutex
    serializes entry/counter access, while the lock *file* keeps separate
    processes from clobbering each other's flushes.

    Attributes:
        hits / misses: lookup counters for this process.
        evicted: entries dropped at load because the file's version or
            host fingerprint did not match (stale-cache eviction).
    """

    def __init__(self, path: str | os.PathLike[str],
                 host: dict[str, str] | None = None) -> None:
        self.path = os.fspath(os.path.expanduser(path))
        self.host = dict(host) if host is not None else host_fingerprint()
        self.hits = 0        # guarded-by: _mutex
        self.misses = 0      # guarded-by: _mutex
        self.evicted = 0     # guarded-by: _mutex
        self._mutex = threading.Lock()
        self._dirty: set[str] = set()   # guarded-by: _mutex
        self._entries: dict[str, str] = (  # guarded-by: _mutex
            self._read_entries(count_evictions=True))

    # -- lookups ---------------------------------------------------------------

    def get(self, key: str) -> str | None:
        with self._mutex:
            winner = self._entries.get(key)
            if winner is None:
                self.misses += 1
            else:
                self.hits += 1
            return winner

    def put(self, key: str, winner: str) -> None:
        with self._mutex:
            if self._entries.get(key) == winner:
                return
            self._entries[key] = winner
            self._dirty.add(key)

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._mutex:
            return key in self._entries

    # -- persistence -----------------------------------------------------------

    def flush(self) -> int:
        """Persist new entries; returns how many were written.

        Read-merge-replace under the lock file: a sibling process's
        concurrent flush survives (its keys are merged back in), and the
        final rename is atomic so readers never see a torn file.
        """
        with self._mutex:
            if not self._dirty:
                return 0
            written = len(self._dirty)
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            with _FileLock(self.path):
                merged = self._read_entries(count_evictions=False)
                for key in self._dirty:
                    merged[key] = self._entries[key]
                _atomic_write_json(self.path, {
                    "version": AUTOTUNE_CACHE_VERSION,
                    "host": self.host,
                    "entries": dict(sorted(merged.items())),
                })
                self._entries = merged
            self._dirty.clear()
            return written

    def _read_entries(self, count_evictions: bool) -> dict[str, str]:  # requires-lock: _mutex
        """Load the on-disk entries; anything suspect reads as empty.

        A cache must never take a process down: unreadable files, bad
        JSON, oversized files, wrong version, or a different host all
        degrade to a cold cache (with the eviction counted).
        """
        try:
            if os.path.getsize(self.path) > MAX_CACHE_BYTES:
                return {}
            with open(self.path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return {}
        if not isinstance(payload, dict):
            return {}
        entries = payload.get("entries")
        if not isinstance(entries, dict):
            return {}
        stale = (payload.get("version") != AUTOTUNE_CACHE_VERSION
                 or payload.get("host") != self.host)
        if stale:
            if count_evictions:
                self.evicted += len(entries)
            return {}
        return {
            key: value for key, value in entries.items()
            if isinstance(key, str) and isinstance(value, str)
        }

    def stats(self) -> dict[str, int]:
        with self._mutex:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evicted": self.evicted,
            }


# -- engine directory cache ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class EngineCacheEntry:
    """One resolved cache slot: where the engine for a request lives."""

    key: str
    path: str

    @property
    def exists(self) -> bool:
        return os.path.exists(self.path)


class EngineCache:
    """A directory of compiled engine files keyed by compile request.

    The key digests the request (model name, backend, threads, batch,
    image size, seed, ...); host/config staleness is *not* encoded in the
    key because the engine file's own fingerprint already rejects stale
    loads — a stale hit degrades to a recompile, not a wrong answer.
    """

    def __init__(self, directory: str | os.PathLike[str]) -> None:
        self.directory = os.fspath(os.path.expanduser(directory))

    @classmethod
    def coerce(
        cls, where: "str | os.PathLike[str] | EngineCache",
    ) -> "EngineCache":
        """``where`` as a cache: a cache is itself, a path is its directory.

        What every ``engine_cache=`` parameter accepts. Anything else is
        ``os.fspath``'s ``TypeError`` — never a silently absent cache.
        """
        return where if isinstance(where, cls) else cls(where)

    def entry(self, **request: Any) -> EngineCacheEntry:
        canonical = json.dumps(request, sort_keys=True, separators=(",", ":"))
        key = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]
        name = request.get("model")
        prefix = f"{name}-" if isinstance(name, str) and name else ""
        return EngineCacheEntry(
            key=key, path=os.path.join(self.directory, f"{prefix}{key}.oeng"))

    def load_or_compile(
        self,
        graph: Any,
        *,
        model: str,
        backend: Any = "orpheus",
        threads: int = 1,
        optimize: bool = True,
        batch: int = 1,
        image_size: int | None = None,
        seed: int = 0,
        tune: bool = False,
        autotune_cache: "AutotuneCache | None" = None,
    ) -> "tuple[Any, bool]":
        """The compiled :class:`~repro.engine.format.Engine`, cached.

        Returns ``(engine, hit)``. A hit is only reported after the stored
        engine passes the full fingerprint check (host, config, source
        graph) — a stale or corrupt file degrades to a recompile, never an
        error and never a silently-wrong engine. The recompile path
        threads ``autotune_cache`` through, so even when the warm artifact
        is lost, tuning restarts from persisted winners instead of
        re-racing every candidate (and ``tune=True`` on a cold cache still
        pays the race only once per cache lifetime).
        """
        # Imported here: the session module imports this package lazily,
        # and a module-level import would close the cycle.
        from repro.backends import get_backend
        from repro.engine.compiler import compile_graph
        from repro.engine.fingerprint import fingerprint_mismatch, graph_digest
        from repro.engine.format import load_engine, save_engine
        from repro.errors import EngineError, EngineFallbackWarning

        backend_obj = get_backend(backend) if isinstance(backend, str) \
            else backend
        entry = self.entry(
            model=model, backend=backend_obj.name, threads=threads,
            optimize=optimize, batch=batch, image_size=image_size, seed=seed,
            # Only keyed when tuning so pre-existing untuned digests (and
            # their cached files) stay valid.
            **({"tune": True} if tune else {}))
        def try_load(warn: bool) -> Any:
            reason = None
            try:
                engine = load_engine(entry.path)
            except EngineError as exc:
                reason = str(exc)
            else:
                reason = fingerprint_mismatch(
                    engine.fingerprint, backend_obj, threads, optimize,
                    source_digest=graph_digest(graph))
                if reason is None:
                    return engine
            if warn:
                warnings.warn(EngineFallbackWarning(entry.path, reason))
            return None

        if entry.exists:
            engine = try_load(warn=True)
            if engine is not None:
                return engine, True
        # Miss: compile under a cross-process lock so N process workers
        # warm-starting against one cache directory compile the artifact
        # once pool-wide instead of N times concurrently. Generous bounds
        # — a real compile can take a while, and on lock timeout we
        # degrade to a redundant compile, never to a stall or an error.
        self.prepare_dir()
        with _FileLock(entry.path, timeout_s=120.0, stale_s=600.0):
            if entry.exists:
                # Another process compiled it while we waited for the lock.
                engine = try_load(warn=False)
                if engine is not None:
                    return engine, True
            engine = compile_graph(
                graph, backend=backend_obj, threads=threads,
                optimize=optimize, tune=tune, autotune_cache=autotune_cache,
                metadata={"model": model, "cache_key": entry.key})
            try:
                save_engine(engine, entry.path)
            except (OSError, EngineError):
                pass  # a failed save must not break the caller
        return engine, False

    def session(
        self,
        graph: Any,
        *,
        model: str,
        backend: Any = "orpheus",
        threads: int = 1,
        optimize: bool = True,
        batch: int = 1,
        image_size: int | None = None,
        seed: int = 0,
        **session_kwargs: Any,
    ) -> "tuple[Any, bool]":
        """An ``InferenceSession`` for ``graph``, warm-started when cached.

        Returns ``(session, hit)``. Built on :meth:`load_or_compile`, so a
        stale or corrupt cache file degrades to a recompile.
        """
        from repro.runtime.session import InferenceSession

        engine, hit = self.load_or_compile(
            graph, model=model, backend=backend, threads=threads,
            optimize=optimize, batch=batch, image_size=image_size, seed=seed)
        session = InferenceSession.from_engine(
            engine, backend=backend, **session_kwargs)
        return session, hit

    def prepare_dir(self) -> None:
        os.makedirs(self.directory, exist_ok=True)

    def entries(self) -> list[str]:
        try:
            return sorted(
                name for name in os.listdir(self.directory)
                if name.endswith(".oeng"))
        except OSError:
            return []
