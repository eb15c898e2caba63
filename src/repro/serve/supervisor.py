"""Process-isolated worker supervision: crash containment for the pool.

The threaded :class:`~repro.serve.pool.SessionPool` shares one address
space — a segfaulting kernel, a runaway allocation, or a hung native call
takes every worker (and the admission queue, and the caller) down with
it. :class:`WorkerSupervisor` runs each pool slot as a separate OS
process instead (:mod:`repro.serve.worker`), so the blast radius of any
single failure is one worker, one in-flight batch, and nothing else.

Containment contract, in order of the machinery below:

* **Isolation** — workers are spawned as fresh interpreters that rebuild
  their sessions from the on-disk engine cache; weights load from the
  shared artifact, nothing is pickled across the pipe.
* **Detection** — each worker heartbeats on a side thread; the monitor
  declares a worker dead when its process exits, its beats stop, or an
  in-flight request overstays its deadline (plus grace).
* **Structural failure** — the in-flight request of a dead worker is
  resolved with :class:`~repro.errors.WorkerCrashError`; the dispatcher
  turns that into a breaker failure and a reroute or a ``Failed``
  outcome. Nothing is silently dropped, ever.
* **Recovery** — dead workers restart with exponential backoff, under a
  restart-storm budget (at most ``restart_budget`` restarts per rolling
  ``restart_window_s``); a slot that blows the budget is *disabled* and
  reported, instead of burning CPU in a crash loop.
* **Quarantine** — a request id observed in the in-flight batch of
  ``quarantine_threshold`` worker deaths is a *poison request*: further
  dispatches are refused with :class:`~repro.errors.PoisonRequestError`
  (the service sheds it ``quarantined``) instead of sacrificing a third
  worker to it.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Any

import numpy as np

from repro.config import RuntimeConfig
from repro.errors import PoisonRequestError, WorkerCrashError
from repro.serve import worker as worker_mod
from repro.serve.protocol import pack_arrays, read_frame, unpack_arrays, \
    write_frame

#: Slack added to a request's own deadline before its worker is declared
#: stuck on it: a second, so a reply that is merely late (the session's own
#: deadline check fires at the next node boundary) still arrives as the
#: structured DeadlineExceededError instead of costing a worker.
DEADLINE_GRACE_S = 1.0

_STARTING = "starting"
_READY = "ready"
_RESTARTING = "restarting"
_DISABLED = "disabled"
_CLOSED = "closed"


class _Slot:
    """One in-flight request on one worker incarnation."""

    __slots__ = ("seq", "ids", "event", "outputs", "error")

    def __init__(self, seq: int, ids: tuple[str, ...]) -> None:
        self.seq = seq
        self.ids = ids
        self.event = threading.Event()
        self.outputs: dict[str, np.ndarray] | None = None
        self.error: Exception | None = None

    def resolve(self, outputs: dict | None, error: Exception | None) -> None:
        if self.event.is_set():
            return
        self.outputs = outputs
        self.error = error
        self.event.set()


class _Handle:
    """Mutable supervisor-side state for one worker slot."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.state = _STARTING
        self.generation = 0
        self.proc: subprocess.Popen | None = None
        self.reader: threading.Thread | None = None
        self.last_beat = 0.0
        self.started_at = 0.0
        self.hello: dict | None = None
        self.init_error: str | None = None
        self.inflight: _Slot | None = None
        self.request_lock = threading.Lock()   # serializes run() callers
        self.stdin_lock = threading.Lock()     # serializes frame writes
        self.seq = 0
        self.consecutive_deaths = 0
        self.restart_at = 0.0
        self.restart_times: list[float] = []
        self.restarts = 0


@dataclasses.dataclass(frozen=True)
class WorkerSnapshot:
    """Point-in-time view of one worker slot."""

    index: int
    state: str
    pid: int | None
    restarts: int
    consecutive_deaths: int
    inflight_ids: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class SupervisorStats:
    """Supervision counters for health surfaces and the chaos harness."""

    workers: int
    alive: int
    disabled: int
    restarts: int
    deaths: dict[str, int]            # reason -> count
    quarantined: tuple[str, ...]      # poisoned request ids
    slots: tuple[WorkerSnapshot, ...]

    def to_dict(self) -> dict:
        document = dataclasses.asdict(self)
        document["slots"] = [dataclasses.asdict(s) for s in self.slots]
        return document


class WorkerSupervisor:
    """Spawn, monitor, restart, and quarantine a pool of process workers.

    Args:
        model: zoo model name (or ``"@loopback"`` for the diagnostic
            session) — workers rebuild it themselves; graphs are never
            pickled.
        backends / workers / batch / image_size / seed /
            optimize / engine_cache / fault_spec / fault_seed /
            session_kwargs: forwarded to every worker's init spec (see
            :mod:`repro.serve.worker`). ``engine_cache`` is a directory
            (``str`` or ``os.PathLike``) or an ``EngineCache``; workers
            are handed its directory so all share the artifact.
        threads: must be 1 (:class:`~repro.config.RuntimeConfig`); checked
            before any process spawns.
        heartbeat_interval_s: how often workers beat.
        heartbeat_timeout_s: silence after which a worker is declared
            hung and killed.
        request_timeout_s: wait bound for requests without deadlines
            (one with a deadline gets it plus :data:`DEADLINE_GRACE_S`).
        backoff_base_s / backoff_cap_s: exponential restart backoff
            (``base * 2**(deaths-1)``, capped).
        restart_budget / restart_window_s: restart-storm budget — more
            than ``restart_budget`` restarts inside a rolling window
            disables the slot instead of restarting it again.
        quarantine_threshold: worker deaths a request id may appear
            in-flight for before it is quarantined as poison.
        spawn_timeout_s: bound on initial spawn + session rebuild.
    """

    def __init__(
        self,
        model: Any,
        *,
        backends: tuple[str, ...] = ("orpheus",),
        workers: int = 2,
        batch: int = 1,
        threads: int = 1,
        image_size: int | None = None,
        seed: int = 0,
        optimize: bool = True,
        engine_cache: Any = None,
        fault_spec: str | None = None,
        fault_seed: int = 0,
        session_kwargs: dict | None = None,
        loopback_delay_s: float = 0.0,
        heartbeat_interval_s: float = 0.05,
        heartbeat_timeout_s: float = 1.0,
        request_timeout_s: float = 60.0,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        restart_budget: int = 8,
        restart_window_s: float = 30.0,
        quarantine_threshold: int = 2,
        spawn_timeout_s: float = 120.0,
    ) -> None:
        RuntimeConfig(threads=threads)  # any other value raises here
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not isinstance(model, str):
            raise ValueError(
                "process workers rebuild their model from its name; pass a "
                "zoo model name (or '@loopback'), not a graph object")
        if quarantine_threshold < 1:
            raise ValueError(
                f"quarantine_threshold must be >= 1, got {quarantine_threshold}")
        self.model_name = model
        self.backends = tuple(backends)
        self.workers = workers
        self.batch = batch
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.request_timeout_s = request_timeout_s
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.restart_budget = restart_budget
        self.restart_window_s = restart_window_s
        self.quarantine_threshold = quarantine_threshold
        self.spawn_timeout_s = spawn_timeout_s
        if engine_cache is not None:
            # Workers get the directory: a path crosses the process
            # boundary, and every worker then shares the one artifact.
            from repro.engine.cache import EngineCache
            engine_cache = EngineCache.coerce(engine_cache).directory
        self._spec = {
            "model": model,
            "backends": list(self.backends),
            "batch": batch,
            "image_size": image_size,
            "seed": seed,
            "optimize": optimize,
            "engine_cache": engine_cache,
            "fault_spec": fault_spec,
            "session_kwargs": dict(session_kwargs or {}),
            "loopback_delay_s": loopback_delay_s,
            "heartbeat_interval_s": heartbeat_interval_s,
        }
        self._fault_seed = fault_seed
        self._lock = threading.Lock()
        self._closed = False                           # guarded-by: _lock
        self._death_counts: dict[str, int] = {}        # guarded-by: _lock
        self._quarantined: set[str] = set()            # guarded-by: _lock
        self._deaths_by_reason: dict[str, int] = {}    # guarded-by: _lock
        self._restarts_total = 0                       # guarded-by: _lock
        self.input_name = "input"
        self.sample_shape: tuple[int, ...] | None = None
        self.buckets: tuple[int, ...] = (batch,)
        self.engine_hits: dict[str, bool] = {}
        self._monitor: threading.Thread | None = None
        self._handles = [_Handle(index) for index in range(workers)]
        for handle in self._handles:
            self._spawn(handle)
        self._await_initial_hellos()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="worker-supervisor", daemon=True)
        self._monitor.start()

    # -- spawning --------------------------------------------------------------

    def _spawn(self, handle: _Handle) -> None:
        """Start a fresh incarnation for ``handle`` (caller sets no locks)."""
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        existing = env.get("PYTHONPATH")
        if src_root not in (existing or "").split(os.pathsep):
            env["PYTHONPATH"] = (f"{src_root}{os.pathsep}{existing}"
                                 if existing else src_root)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.worker"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=env)
        with self._lock:
            handle.generation += 1
            generation = handle.generation
            handle.proc = proc
            handle.state = _STARTING
            handle.hello = None
            handle.init_error = None
            handle.seq = 0
            handle.started_at = time.monotonic()
            handle.last_beat = handle.started_at
        spec = dict(self._spec)
        # Distinct per-incarnation seeds keep probabilistic fault draws
        # decorrelated across workers and across restarts, while staying
        # deterministic for a fixed (fault_seed, slot, generation).
        spec["fault_seed"] = (self._fault_seed + handle.index
                              + 1000 * (generation - 1))
        try:
            with handle.stdin_lock:
                write_frame(proc.stdin, {"kind": "init", "spec": spec})
        except (OSError, ValueError):
            pass  # already dead; the monitor will pick the corpse up
        reader = threading.Thread(
            target=self._reader_loop, args=(handle, generation, proc),
            name=f"worker-{handle.index}-reader", daemon=True)
        handle.reader = reader
        reader.start()

    def _await_initial_hellos(self) -> None:
        deadline = time.monotonic() + self.spawn_timeout_s
        for handle in self._handles:
            while True:
                with self._lock:
                    if handle.state == _READY:
                        break
                    failure = handle.init_error
                    proc = handle.proc
                if failure is not None or (proc is not None
                                           and proc.poll() is not None):
                    self.close()
                    raise WorkerCrashError(
                        f"worker {handle.index} failed during startup: "
                        f"{failure or 'process exited'}",
                        worker=handle.index, reason="init-failed",
                        exit_code=proc.poll() if proc else None)
                if time.monotonic() > deadline:
                    self.close()
                    raise WorkerCrashError(
                        f"worker {handle.index} did not come up within "
                        f"{self.spawn_timeout_s:.0f}s",
                        worker=handle.index, reason="spawn-timeout")
                time.sleep(0.005)

    # -- reader / monitor threads ----------------------------------------------

    def _reader_loop(self, handle: _Handle, generation: int,
                     proc: subprocess.Popen) -> None:
        try:
            while True:
                frame = read_frame(proc.stdout)
                if frame is None:
                    return  # EOF; the monitor reaps the exit status
                header, blob = frame
                kind = header.get("kind")
                if kind == "beat":
                    with self._lock:
                        if handle.generation == generation:
                            handle.last_beat = time.monotonic()
                elif kind == "hello":
                    with self._lock:
                        if handle.generation != generation:
                            continue
                        handle.hello = header
                        handle.state = _READY
                        handle.last_beat = time.monotonic()
                        self.input_name = header.get(
                            "input_name") or self.input_name
                        shape = header.get("sample_shape")
                        if shape:
                            self.sample_shape = tuple(shape)
                        self.buckets = tuple(
                            header.get("buckets") or self.buckets)
                        for backend, hit in (header.get(
                                "engine_hits") or {}).items():
                            self.engine_hits.setdefault(backend, hit)
                elif kind in ("ok", "err"):
                    with self._lock:
                        slot = handle.inflight
                        if (handle.generation != generation or slot is None
                                or slot.seq != header.get("seq")):
                            if header.get("fatal"):
                                handle.init_error = header.get("message")
                            continue
                        handle.inflight = None
                        handle.consecutive_deaths = 0  # real progress
                    if kind == "ok":
                        outputs = unpack_arrays(
                            header.get("arrays") or [], blob)
                        slot.resolve(outputs, None)
                    else:
                        slot.resolve(None, _remote_error(header))
                # "bye" and unknown kinds fall through silently
        except Exception:  # noqa: BLE001 - protocol corruption == death
            proc.kill()
            self._reap(handle, generation, reason="protocol-error")

    def _monitor_loop(self) -> None:
        poll_s = max(0.01, self.heartbeat_interval_s / 2)
        while True:
            with self._lock:
                if self._closed:
                    return
                handles = list(self._handles)
            now = time.monotonic()
            for handle in handles:
                with self._lock:
                    state = handle.state
                    proc = handle.proc
                    generation = handle.generation
                    last_beat = handle.last_beat
                    restart_at = handle.restart_at
                if state in (_DISABLED, _CLOSED):
                    continue
                if state == _RESTARTING:
                    if now >= restart_at:
                        self._spawn(handle)
                    continue
                if proc is not None and proc.poll() is not None:
                    self._reap(handle, generation, reason=None)
                    continue
                if state == _STARTING:
                    if now - last_beat > self.spawn_timeout_s:
                        proc.kill()
                        self._reap(handle, generation, reason="spawn-timeout")
                    continue
                if now - last_beat > self.heartbeat_timeout_s:
                    proc.kill()
                    self._reap(handle, generation, reason="heartbeat-lost")
            time.sleep(poll_s)

    # -- death handling --------------------------------------------------------

    def _reap(self, handle: _Handle, generation: int,
              reason: str | None) -> None:
        """Declare one incarnation dead: fail in-flight, plan recovery."""
        with self._lock:
            if self._closed or handle.generation != generation \
                    or handle.state in (_RESTARTING, _DISABLED, _CLOSED):
                return
            exit_code = handle.proc.poll() if handle.proc else None
            if reason is None:
                reason = _classify_exit(exit_code)
            slot = handle.inflight
            handle.inflight = None
            self._deaths_by_reason[reason] = \
                self._deaths_by_reason.get(reason, 0) + 1
            handle.consecutive_deaths += 1
            quarantined_now: list[str] = []
            if slot is not None:
                for rid in slot.ids:
                    count = self._death_counts.get(rid, 0) + 1
                    self._death_counts[rid] = count
                    if count >= self.quarantine_threshold:
                        self._quarantined.add(rid)
                        quarantined_now.append(rid)
            now = time.monotonic()
            handle.restart_times = [
                t for t in handle.restart_times
                if now - t <= self.restart_window_s]
            if len(handle.restart_times) >= self.restart_budget:
                handle.state = _DISABLED
            else:
                handle.restart_times.append(now)
                handle.restarts += 1
                self._restarts_total += 1
                backoff = min(
                    self.backoff_cap_s,
                    self.backoff_base_s
                    * (2 ** max(0, handle.consecutive_deaths - 1)))
                handle.restart_at = now + backoff
                handle.state = _RESTARTING
        if slot is not None:
            detail = ""
            if quarantined_now:
                detail = (f"; quarantined poison request(s) "
                          f"{', '.join(sorted(quarantined_now))}")
            slot.resolve(None, WorkerCrashError(
                f"worker {handle.index} died ({reason}) with request(s) "
                f"{', '.join(slot.ids)} in flight{detail}",
                worker=handle.index, reason=reason, exit_code=exit_code))

    # -- request path ----------------------------------------------------------

    def quarantined(self, request_ids) -> set[str]:
        """The subset of ``request_ids`` that is quarantined as poison."""
        with self._lock:
            return {rid for rid in request_ids if rid in self._quarantined}

    def run(
        self,
        worker: int,
        backend: str,
        feeds: dict[str, np.ndarray],
        deadline_ms: float | None = None,
        request_ids: tuple[str, ...] = (),
    ) -> dict[str, np.ndarray]:
        """Execute one batch on ``worker``; raises structurally on death.

        Raises:
            PoisonRequestError: a request id is quarantined.
            WorkerCrashError: the worker is down/restarting/disabled, died
                mid-request, or overstayed the request deadline + grace
                (in which case it is killed here — a worker stuck on a
                request is indistinguishable from a hung native call).
        """
        ids = tuple(str(rid) for rid in request_ids)
        poisoned = self.quarantined(ids)
        if poisoned:
            raise PoisonRequestError(tuple(sorted(poisoned)))
        handle = self._handles[worker]
        with handle.request_lock:
            with self._lock:
                if self._closed:
                    raise WorkerCrashError(
                        "supervisor is closed", worker=worker,
                        reason="closed")
                if handle.state != _READY:
                    raise WorkerCrashError(
                        f"worker {worker} is {handle.state}",
                        worker=worker, reason=handle.state)
                handle.seq += 1
                slot = _Slot(handle.seq, ids)
                handle.inflight = slot
                generation = handle.generation
                proc = handle.proc
            meta, blob = pack_arrays(feeds)
            header = {
                "kind": "run", "seq": slot.seq, "ids": list(ids),
                "backend": backend, "deadline_ms": deadline_ms,
                "arrays": meta,
            }
            try:
                with handle.stdin_lock:
                    write_frame(proc.stdin, header, blob)
            except (OSError, ValueError):
                self._reap(handle, generation, reason="pipe-broken")
            timeout = self.request_timeout_s
            if deadline_ms is not None:
                timeout = deadline_ms / 1e3 + DEADLINE_GRACE_S
            if not slot.event.wait(timeout):
                proc.kill()
                self._reap(handle, generation, reason="request-timeout")
                slot.event.wait(1.0)
            if slot.error is not None:
                raise slot.error
            if slot.outputs is None:
                raise WorkerCrashError(
                    f"worker {worker} produced no outcome",
                    worker=worker, reason="unresolved")
            return slot.outputs

    # -- chaos hooks -----------------------------------------------------------

    def kill_worker(self, worker: int, sig: int = signal.SIGKILL) -> int | None:
        """Kill one worker process (chaos hook); returns the pid killed.

        Blocks until the process is actually gone (signal delivery is
        asynchronous), so callers can observe the death — ``alive_workers``
        dropping, then recovering — without racing the kernel.
        """
        with self._lock:
            handle = self._handles[worker]
            proc = handle.proc
            if proc is None or proc.poll() is not None:
                return None
            pid = proc.pid
        os.kill(pid, sig)
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            pass  # stuck in an uninterruptible state; the monitor will see it
        return pid

    def alive_workers(self) -> int:
        with self._lock:
            return sum(
                1 for handle in self._handles
                if handle.state == _READY and handle.proc is not None
                and handle.proc.poll() is None)

    # -- health ----------------------------------------------------------------

    def stats(self) -> SupervisorStats:
        with self._lock:
            slots = tuple(
                WorkerSnapshot(
                    index=handle.index,
                    state=handle.state,
                    pid=(handle.proc.pid if handle.proc is not None
                         and handle.proc.poll() is None else None),
                    restarts=handle.restarts,
                    consecutive_deaths=handle.consecutive_deaths,
                    inflight_ids=(handle.inflight.ids
                                  if handle.inflight else ()),
                )
                for handle in self._handles)
            return SupervisorStats(
                workers=self.workers,
                alive=sum(1 for s in slots
                          if s.state == _READY and s.pid is not None),
                disabled=sum(1 for s in slots if s.state == _DISABLED),
                restarts=self._restarts_total,
                deaths=dict(self._deaths_by_reason),
                quarantined=tuple(sorted(self._quarantined)),
                slots=slots,
            )

    # -- lifecycle -------------------------------------------------------------

    def close(self, timeout_s: float = 2.0) -> None:
        """Shut every worker down (politely, then firmly)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles)
        for handle in handles:
            with self._lock:
                handle.state = _CLOSED
                proc = handle.proc
                slot = handle.inflight
                handle.inflight = None
            if slot is not None:
                slot.resolve(None, WorkerCrashError(
                    f"worker {handle.index} shut down with request(s) "
                    f"{', '.join(slot.ids)} in flight",
                    worker=handle.index, reason="closed"))
            if proc is None:
                continue
            try:
                with handle.stdin_lock:
                    write_frame(proc.stdin, {"kind": "shutdown"})
                    proc.stdin.close()
            except (OSError, ValueError):
                pass
            try:
                proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=timeout_s)
        if self._monitor is not None and self._monitor.is_alive() \
                and threading.current_thread() is not self._monitor:
            self._monitor.join(timeout=timeout_s)

    def __enter__(self) -> "WorkerSupervisor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # best effort; never raise from a finalizer
        try:
            self.close(timeout_s=0.2)
        except Exception:  # noqa: BLE001
            pass


def _classify_exit(exit_code: int | None) -> str:
    if exit_code is None:
        return "exited"
    if exit_code == worker_mod.EXIT_CRASH:
        return "crashed"
    if exit_code in (worker_mod.EXIT_OOM, -signal.SIGKILL):
        return "oom-killed" if exit_code == worker_mod.EXIT_OOM else "killed"
    if exit_code == worker_mod.EXIT_INIT_FAILED:
        return "init-failed"
    if exit_code < 0:
        return "signaled"
    return "exited"


def _remote_error(header: dict) -> Exception:
    """Rebuild a structured error from a worker ``err`` frame."""
    from repro import errors as errors_mod

    name = str(header.get("error_type") or "ExecutionError")
    message = str(header.get("message") or "")
    candidate = getattr(errors_mod, name, None)
    if (isinstance(candidate, type)
            and issubclass(candidate, errors_mod.OrpheusError)):
        try:
            return candidate(message)
        except TypeError:
            pass  # error type with required kwargs; fall through
    return errors_mod.ExecutionError(f"{name}: {message}")


# -- pool facade ---------------------------------------------------------------


class _WorkerSession:
    """Session-shaped proxy for one (worker, backend) slot.

    Quacks like an ``InferenceSession`` for the dispatcher's purposes;
    ``accepts_request_ids`` tells the service to thread request ids
    through so deaths can be attributed for quarantine.
    """

    accepts_request_ids = True

    def __init__(self, supervisor: WorkerSupervisor, worker: int,
                 backend: str) -> None:
        self._supervisor = supervisor
        self._worker = worker
        self._backend = backend

    def run(self, feeds: dict, deadline_ms: float | None = None,
            request_ids: tuple[str, ...] = ()) -> dict:
        return self._supervisor.run(
            self._worker, self._backend, feeds,
            deadline_ms=deadline_ms, request_ids=request_ids)


class ProcessWorkerPool:
    """The :class:`~repro.serve.pool.SessionPool` surface, process-backed.

    Drop-in for ``InferenceService(pool=...)``: exposes the same
    ``backends`` / ``workers`` / ``batch`` / ``input_name`` /
    ``session()`` shape, but every session proxies to a supervised
    process, and the same six members the service reads off either pool:
    ``worker_mode``, ``sample_shape`` and ``buckets`` (both from the
    workers' hello), ``quarantined()`` (the poison filter),
    ``supervision()`` (the supervisor's stats) and ``close()`` (shuts the
    supervisor down).
    """

    worker_mode = "process"

    def __init__(self, supervisor: WorkerSupervisor) -> None:
        self.supervisor = supervisor
        self.backends = supervisor.backends
        self.workers = supervisor.workers
        self.batch = supervisor.batch
        self.model_name = supervisor.model_name
        self._sessions = {
            (backend, worker): _WorkerSession(supervisor, worker, backend)
            for backend in supervisor.backends
            for worker in range(supervisor.workers)
        }

    @property
    def input_name(self) -> str:
        return self.supervisor.input_name

    @property
    def sample_shape(self) -> tuple[int, ...] | None:
        return self.supervisor.sample_shape

    @property
    def buckets(self) -> tuple[int, ...]:
        return self.supervisor.buckets

    @property
    def engine_hits(self) -> dict[str, bool]:
        return dict(self.supervisor.engine_hits)

    def session(self, backend: str, worker: int) -> _WorkerSession:
        return self._sessions[(backend, worker)]

    def sessions(self, backend: str) -> list[_WorkerSession]:
        return [self._sessions[(backend, worker)]
                for worker in range(self.workers)]

    def quarantined(self, request_ids) -> set[str]:
        return self.supervisor.quarantined(request_ids)

    def supervision(self) -> SupervisorStats:
        return self.supervisor.stats()

    def close(self) -> None:
        self.supervisor.close()

    def __len__(self) -> int:
        return len(self._sessions)
