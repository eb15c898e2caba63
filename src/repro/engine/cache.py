"""The best-effort warm start: a directory of compiled engine files.

:class:`EngineCache` keys each file by the compile request (model,
backend, batch, ...). The bench harness and the serving pools
point ``--engine-cache`` at one directory, and every configuration
warm-starts after its first compile. A miss, a corrupt file or a stale
one compiles cold and re-freezes the entry; the strict warm start is
:meth:`~repro.runtime.session.InferenceSession.from_engine`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
import warnings
from typing import Any


class _FileLock:
    """Best-effort cross-process lock: an ``flock`` on ``<path>.lock``.

    Not reentrant. The kernel holds the lock, so a holder that exits,
    however it exits (SIGKILL included), releases it, and a live holder
    keeps it for as long as it runs. A waiter that cannot take it within
    ``timeout_s`` proceeds *without* it: for a cache, a redundant compile
    beats a deadlocked benchmark. The lock file itself stays behind; it
    is only a name to lock.
    """

    def __init__(self, path: str, timeout_s: float = 5.0) -> None:
        self.path = path + ".lock"
        self.timeout_s = timeout_s
        self._fd: int | None = None

    def __enter__(self) -> "_FileLock":
        import fcntl  # POSIX only, as is the serve layer's SIGKILL

        deadline = time.monotonic() + self.timeout_s
        fd = os.open(self.path, os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except BlockingIOError:
                    if time.monotonic() > deadline:
                        return self  # proceed unlocked; see class docstring
                    time.sleep(0.01)
            self._fd = fd
            return self
        finally:
            if self._fd != fd:
                os.close(fd)  # not held: the descriptor is of no use

    def __exit__(self, *exc_info: object) -> None:
        if self._fd is not None:
            os.close(self._fd)  # closing the descriptor drops the flock
            self._fd = None


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

    The key digests the request (model name, backend, batch,
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
        optimize: bool = True,
        batch: int = 1,
        image_size: int | None = None,
        seed: int = 0,
    ) -> "tuple[Any, bool]":
        """The compiled :class:`~repro.engine.format.Engine`, cached.

        Returns ``(engine, hit)``. A hit is only reported after the stored
        engine passes the full fingerprint check (host, config, source
        graph) — a stale or corrupt file warns
        :class:`~repro.errors.EngineFallbackWarning` and degrades to a
        recompile, never an error and never a silently-wrong engine.
        """
        # Imported here: the session module imports this package lazily,
        # and a module-level import would close the cycle.
        from repro.backends import get_backend
        from repro.config import RuntimeConfig
        from repro.engine.compiler import compile_graph
        from repro.engine.fingerprint import fingerprint_mismatch, graph_digest
        from repro.engine.format import load_engine, save_engine
        from repro.errors import EngineError, EngineFallbackWarning

        backend_obj = get_backend(backend) if isinstance(backend, str) \
            else backend
        entry = self.entry(
            model=model, backend=backend_obj.name, optimize=optimize,
            batch=batch, image_size=image_size, seed=seed)

        def try_load(warn: bool) -> Any:
            reason = None
            try:
                engine = load_engine(entry.path)
            except EngineError as exc:
                reason = str(exc)
            else:
                reason = fingerprint_mismatch(
                    engine.fingerprint, backend_obj,
                    RuntimeConfig(optimize=optimize),
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
        os.makedirs(self.directory, exist_ok=True)
        with _FileLock(entry.path, timeout_s=120.0):
            if entry.exists:
                # Another process compiled it while we waited for the lock.
                engine = try_load(warn=False)
                if engine is not None:
                    return engine, True
            engine = compile_graph(
                graph, backend=backend_obj, optimize=optimize,
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
            graph, model=model, backend=backend, optimize=optimize,
            batch=batch, image_size=image_size, seed=seed)
        session = InferenceSession.from_engine(
            engine, backend=backend, **session_kwargs)
        return session, hit
