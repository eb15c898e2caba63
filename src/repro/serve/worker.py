"""Spawn-safe process worker: one pool slot, isolated in its own process.

Launched by the :class:`~repro.serve.supervisor.WorkerSupervisor` as
``python -m repro.serve.worker`` with *no* arguments — everything the
worker needs arrives as an ``init`` frame on stdin (see
:mod:`repro.serve.protocol`), and every reply leaves on stdout. Using the
standard streams as the pipes keeps the spawn path trivial (no fd
inheritance games, works identically under any start method) and means a
worker can be driven by hand for debugging::

    PYTHONPATH=src python -m repro.serve.worker < frames.bin

The worker **rebuilds** its sessions instead of receiving pickled state:
the init spec names the model and an on-disk
:class:`~repro.engine.cache.EngineCache` directory, and the worker loads
the compiled ``.oeng`` artifact (or compiles it, under the cache's
cross-process lock, exactly once pool-wide). Weights come from the shared
artifact on disk — nothing large ever crosses the pipe, and a restarted
worker warm-starts the same way the first incarnation did.

Lifecycle on stdout:

* ``hello`` — sent once sessions are ready: pid, input name, per-sample
  shape, batch buckets (the widths a ``run`` frame may carry — the
  worker holds one prepared plan per width, see :mod:`repro.serve.pool`),
  engine-cache hits.
* ``beat`` — heartbeats from a side thread every ``heartbeat_interval_s``,
  carrying the id of the request currently executing (if any). The
  supervisor kills a worker whose beats stop.
* ``ok`` / ``err`` — one reply per ``run`` frame, correlated by ``seq``.
* ``bye`` — acknowledges a ``shutdown`` frame; the worker then exits 0.

Process-level fault injection (``crash`` / ``hang`` / ``oom`` specs, see
:mod:`repro.runtime.faults`) is evaluated *here*, per request, against
request ids — the executor never sees those modes, so only a process that
is designed to be expendable ever dies from them.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Any, BinaryIO

import numpy as np

from repro.errors import OrpheusError, WorkerProtocolError
from repro.runtime.faults import FaultPlan, parse_fault_plan
from repro.serve.loopback import (
    LOOPBACK_MODEL,
    LOOPBACK_SAMPLE_SHAPE,
    LoopbackSession,
)
from repro.serve.pool import SessionPool, batch_buckets
from repro.serve.protocol import (
    pack_arrays,
    read_frame,
    unpack_arrays,
    write_frame,
)

#: Exit codes the supervisor maps back to a structured death reason.
EXIT_CRASH = 70        # injected ``crash`` fault (stands in for a segfault)
EXIT_OOM = 137         # what the kernel OOM-killer's SIGKILL looks like
EXIT_INIT_FAILED = 3   # session build failed; details went out as an err frame

#: Bytes the ``oom`` fault mode actually allocates before dying — enough
#: to be an allocation, bounded enough to never endanger the host.
_OOM_ALLOC_BYTES = 32 << 20


def _build_sessions(spec: dict[str, Any]) -> tuple[dict[str, Any], dict]:
    """``(sessions_by_backend, hello_extras)`` for the init spec."""
    backends = tuple(spec.get("backends") or ("orpheus",))
    batch = int(spec.get("batch", 1))
    model = spec.get("model")
    if model == LOOPBACK_MODEL:
        sessions = {
            backend: LoopbackSession(
                backend=backend, batch=batch,
                delay_s=float(spec.get("loopback_delay_s", 0.0)))
            for backend in backends
        }
        return sessions, {
            "input_name": "input",
            "sample_shape": list(LOOPBACK_SAMPLE_SHAPE),
            "buckets": batch_buckets(batch),
            "engine_hits": {},
        }
    # The real path reuses SessionPool's build machinery with workers=1:
    # engine-cache warm start, batch buckets, the primary's fault plan —
    # one code path for both worker modes.
    pool = SessionPool(
        model,
        backends=backends,
        workers=1,
        batch=batch,
        image_size=spec.get("image_size"),
        seed=int(spec.get("seed", 0)),
        optimize=bool(spec.get("optimize", True)),
        engine_cache=spec.get("engine_cache"),
        fault_spec=spec.get("fault_spec"),
        fault_seed=int(spec.get("fault_seed", 0)),
        session_kwargs=spec.get("session_kwargs") or None,
    )
    sessions = {backend: pool.session(backend, 0) for backend in backends}
    return sessions, {
        "input_name": pool.input_name,
        "sample_shape": pool.sample_shape,
        "buckets": pool.buckets,
        "engine_hits": dict(pool.engine_hits),
    }


class _Heartbeat(threading.Thread):
    """Emit ``beat`` frames until stopped — or silenced by a hang fault."""

    def __init__(self, out: BinaryIO, write_lock: threading.Lock,
                 interval_s: float) -> None:
        super().__init__(name="worker-heartbeat", daemon=True)
        self.out = out
        self.write_lock = write_lock
        self.interval_s = interval_s
        self.stop = threading.Event()
        self.silenced = threading.Event()
        self.busy_with: str | None = None
        self._seq = 0

    def run(self) -> None:
        while not self.stop.wait(self.interval_s):
            if self.silenced.is_set():
                continue
            self._seq += 1
            try:
                with self.write_lock:
                    write_frame(self.out, {
                        "kind": "beat", "seq": self._seq,
                        "busy": self.busy_with})
            except (OSError, ValueError):
                return  # supervisor went away; the worker is about to die


def _apply_process_fault(plan: FaultPlan | None, ids: list[str],
                         heartbeat: _Heartbeat) -> None:
    """Fire a matching crash/hang/oom fault (may never return)."""
    if plan is None:
        return
    spec = plan.draw_process(ids)
    if spec is None:
        return
    if spec.mode == "crash":
        # No goodbye frame, no flush — a segfault does not say goodbye.
        os._exit(EXIT_CRASH)
    if spec.mode == "oom":
        hog = np.ones(_OOM_ALLOC_BYTES // 8, dtype=np.float64)
        hog[0] = hog[-1]  # touch it so the allocation is real
        os._exit(EXIT_OOM)
    if spec.mode == "hang":
        # Stop heartbeating *and* stop serving: the supervisor must
        # notice the silence, not a reply.
        heartbeat.silenced.set()
        while True:
            time.sleep(3600.0)


def serve_forever(stdin: BinaryIO, stdout: BinaryIO) -> int:
    """The worker main loop; returns the process exit code."""
    write_lock = threading.Lock()
    frame = read_frame(stdin)
    if frame is None:
        return 0
    header, _ = frame
    if header.get("kind") != "init":
        raise WorkerProtocolError(
            f"expected init frame, got {header.get('kind')!r}")
    spec = header.get("spec") or {}
    heartbeat = _Heartbeat(
        stdout, write_lock,
        interval_s=float(spec.get("heartbeat_interval_s", 0.1)))
    try:
        sessions, extras = _build_sessions(spec)
    except Exception as exc:  # noqa: BLE001 - report, then die visibly
        with write_lock:
            write_frame(stdout, {
                "kind": "err", "seq": -1, "fatal": True,
                "error_type": type(exc).__name__, "message": str(exc)})
        return EXIT_INIT_FAILED
    fault_plan = None
    if spec.get("fault_spec"):
        plan = parse_fault_plan(
            spec["fault_spec"], seed=int(spec.get("fault_seed", 0)))
        if plan.has_process_specs():
            fault_plan = plan
    with write_lock:
        write_frame(stdout, {"kind": "hello", "pid": os.getpid(), **extras})
    heartbeat.start()
    while True:
        frame = read_frame(stdin)
        if frame is None:
            return 0  # supervisor closed our stdin: orderly shutdown
        header, blob = frame
        kind = header.get("kind")
        if kind == "shutdown":
            with write_lock:
                write_frame(stdout, {"kind": "bye"})
            return 0
        if kind != "run":
            raise WorkerProtocolError(f"unexpected frame kind {kind!r}")
        seq = header.get("seq")
        ids = [str(rid) for rid in header.get("ids") or []]
        _apply_process_fault(fault_plan, ids, heartbeat)
        session = sessions.get(header.get("backend"))
        if session is None:
            with write_lock:
                write_frame(stdout, {
                    "kind": "err", "seq": seq,
                    "error_type": "BackendError",
                    "message": f"worker has no session for backend "
                               f"{header.get('backend')!r}"})
            continue
        heartbeat.busy_with = ids[0] if ids else None
        try:
            feeds = unpack_arrays(header.get("arrays") or [], blob)
            started = time.perf_counter()
            outputs = session.run(feeds, deadline_ms=header.get("deadline_ms"))
            elapsed_ms = (time.perf_counter() - started) * 1e3
        except OrpheusError as exc:
            with write_lock:
                write_frame(stdout, {
                    "kind": "err", "seq": seq,
                    "error_type": type(exc).__name__, "message": str(exc)})
            continue
        finally:
            heartbeat.busy_with = None
        meta, out_blob = pack_arrays(outputs)
        with write_lock:
            write_frame(stdout, {
                "kind": "ok", "seq": seq, "arrays": meta,
                "elapsed_ms": round(elapsed_ms, 3)}, out_blob)


def main() -> int:
    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    # Anything that print()s during model build would corrupt the frame
    # stream; route the text-level stdout to stderr defensively.
    sys.stdout = sys.stderr
    try:
        return serve_forever(stdin, stdout)
    except WorkerProtocolError as exc:
        print(f"worker protocol error: {exc}", file=sys.stderr)
        return 1
    except (BrokenPipeError, KeyboardInterrupt):
        return 0


if __name__ == "__main__":
    sys.exit(main())
