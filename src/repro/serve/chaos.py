"""Serve-chaos scenario family: kill workers mid-load and close the books.

An acceptance battery, not a benchmark: its verdicts are robustness
checks, so no snapshot of the document is committed. Three scenarios,
each checking one acceptance criterion of process-isolated serving
(``worker_mode="process"``, see :mod:`repro.serve.supervisor`):

* **worker-kill** — drive open-loop load at a sub-saturation rate, then
  SIGKILL ``kill`` of the ``workers`` worker processes mid-run. The
  books must close (zero silent drops: every offered request completes,
  is rejected, or fails *structurally*), the supervisor must restart the
  dead workers, and the pool must return to full strength within
  ``recovery_window_s`` of the last kill.
* **poison-quarantine** — a ``crash:node=poison-*`` fault makes any
  worker die the moment it picks up the poison request. Resubmitting the
  same request id must be quarantined after at most
  ``quarantine_threshold`` (= 2) worker deaths — rejected with the
  structured reason ``"quarantined"`` instead of cycling the pool — and
  innocent requests must keep completing afterwards.
* **hang-heartbeat** — a ``hang:node=hang-*`` fault makes the worker
  stop heartbeating and block forever. The supervisor must detect the
  silence (heartbeat loss or request deadline), kill the worker, fail
  the in-flight request structurally, and restart the slot.

The offered rate is calibrated from warm batch times when a real model
is used; the ``@loopback`` diagnostic model runs the same scenarios in
well under a second for tests and smoke jobs.
"""

from __future__ import annotations

import threading
import time
from typing import Any

import numpy as np

from repro.serve.loadgen import run_load
from repro.serve.service import InferenceService
from repro.serve.types import Completed, Failed, Rejected

DEFAULT_MODEL = "wrn-40-2"
DEFAULT_IMAGE_SIZE = 8

#: Seconds the pool gets to return to full strength after the last kill.
DEFAULT_RECOVERY_WINDOW_S = 10.0

#: Offered rate for the loopback model (calibration is meaningless at
#: microsecond service times; the point is concurrency, not throughput).
_LOOPBACK_RPS = 150.0


#: Rounds of full batches that settle the service-time EWMA before it is
#: read: at alpha 0.2 eight observations leave 0.8**8 = 17 % of the 50 ms
#: seed, close enough for a rate that is then scaled by 0.7.
_WARM_ROUNDS = 8


def calibrate_saturation_rps(service: InferenceService) -> float:
    """Measure the pool's sustainable request rate from warm batch times.

    Settles the service-time EWMA, then returns ``workers * batch /
    ewma_batch_s`` — the rate at which every dispatcher is busy all the
    time. The EWMA is a batch time at whatever width traffic produces, so
    each warm-up round keeps ``workers * batch`` requests outstanding:
    every dispatcher then times a *full* batch, which is what saturation
    runs. (One request at a time would settle it on the width-1 plan's
    time and overstate the rate about ``batch``-fold on a real model.)

    This rests on each round being queued before a dispatcher wakes: it
    is submitted from this one thread, and ``submit`` never blocks or
    releases the GIL, so the round is taken as one batch. A dispatcher
    that took the round's first request before the rest were queued
    would dispatch it alone (a lone request never waits for the window)
    and time a width-1 batch.
    """
    sample = np.zeros(service.sample_shape, dtype=np.float32)
    pool = service.pool
    for _ in range(_WARM_ROUNDS):
        outstanding = [service.submit(sample)
                       for _ in range(pool.workers * pool.batch)]
        for pending in outstanding:
            if hasattr(pending, "result"):
                pending.result(timeout=30.0)
    ewma = service.queue.ewma_batch_s
    return max(0.5, (pool.workers * pool.batch) / max(ewma, 1e-4))


def _scenario_doc(name: str, service: InferenceService,
                  checks: dict[str, bool], notes: str = "",
                  **extra: Any) -> dict:
    stats = service.pool.supervision()
    doc = {
        "scenario": name,
        "supervision": {
            "workers": stats.workers,
            "alive": stats.alive,
            "disabled": stats.disabled,
            "restarts": stats.restarts,
            "deaths": dict(stats.deaths),
            "quarantined": list(stats.quarantined),
        },
        "sheds": dict(service.stats().rejected),
        "checks": checks,
        "passed": all(checks.values()),
    }
    doc.update(extra)
    if notes:
        doc["notes"] = notes
    return doc


def _await_full_strength(supervisor: Any, workers: int,
                         timeout_s: float) -> float | None:
    """Seconds until every worker is alive again, or ``None`` on timeout."""
    started = time.monotonic()
    deadline = started + timeout_s
    while time.monotonic() < deadline:
        if supervisor.alive_workers() >= workers:
            return time.monotonic() - started
        time.sleep(0.02)
    return None


def run_chaos_bench(
    model: str = DEFAULT_MODEL,
    workers: int = 4,
    kill: int = 2,
    batch: int = 2,
    image_size: int | None = DEFAULT_IMAGE_SIZE,
    duration_s: float = 3.0,
    clients: int = 4,
    deadline_ms: float = 2000.0,
    rps: float | None = None,
    engine_cache: Any = None,
    seed: int = 0,
    recovery_window_s: float = DEFAULT_RECOVERY_WINDOW_S,
    progress: Any = None,
) -> dict:
    """Run the chaos scenario family and return its document."""
    if not 1 <= kill <= workers:
        raise ValueError(
            f"kill must be in [1, workers={workers}], got {kill}")

    def say(message: str) -> None:
        if progress is not None:
            progress(message)

    is_loopback = model == "@loopback"
    pool_kwargs = dict(
        workers=workers, batch=batch, seed=seed, engine_cache=engine_cache,
        backoff_base_s=0.05, backoff_cap_s=1.0)
    if not is_loopback:
        pool_kwargs["image_size"] = image_size
    else:
        # A little service time so batches are actually in flight when
        # the kills land.
        pool_kwargs["loopback_delay_s"] = 0.003
    # Crash containment is the subject here; a tripped breaker would
    # convert worker deaths into breaker-open sheds and hide the
    # restart/recovery behaviour being measured.
    service_kwargs = dict(
        worker_mode="process", queue_capacity=max(8, workers * batch * 2),
        breaker_threshold=max(20, workers * 10), breaker_cooldown_s=0.2,
        jitter_seed=seed)
    scenarios = []

    # -- scenario 1: kill K of N workers mid-load ---------------------------
    say(f"worker-kill: {model} x{workers} process workers, "
        f"killing {kill} mid-load")
    with InferenceService(model, **service_kwargs, **pool_kwargs) as service:
        supervisor = service.pool.supervisor
        if rps is not None:
            load_rps = rps
        elif is_loopback:
            load_rps = _LOOPBACK_RPS
        else:
            load_rps = max(1.0, 0.7 * calibrate_saturation_rps(service))
        say(f"offered load {load_rps:.1f} rps for {duration_s:.1f}s")

        outcome = {"killed": [], "recovery_s": None}

        def killer() -> None:
            time.sleep(max(0.2, duration_s * 0.35))
            for index in range(kill):
                pid = supervisor.kill_worker(index)
                if pid is not None:
                    outcome["killed"].append({"worker": index, "pid": pid})
                time.sleep(0.15)
            outcome["recovery_s"] = _await_full_strength(
                supervisor, workers, recovery_window_s + 5.0)

        chaos_thread = threading.Thread(target=killer, daemon=True)
        chaos_thread.start()
        report = run_load(service, rps=load_rps, duration_s=duration_s,
                          clients=clients, deadline_ms=deadline_ms,
                          seed=seed)
        chaos_thread.join(timeout=recovery_window_s + 10.0)
        stats = supervisor.stats()
        recovery_s = outcome["recovery_s"]
        scenarios.append(_scenario_doc(
            "worker-kill", service,
            checks={
                "zero_silent_drops": report.silent_drops == 0,
                "some_completions": report.completed > 0,
                "killed_requested_workers":
                    len(outcome["killed"]) == kill,
                "deaths_recorded": sum(stats.deaths.values()) >= kill,
                "restarted": stats.restarts >= kill,
                "recovered_within_window":
                    recovery_s is not None
                    and recovery_s <= recovery_window_s,
                "no_worker_disabled": stats.disabled == 0,
            },
            rps=round(load_rps, 2),
            load=report.to_dict(),
            killed=outcome["killed"],
            recovery_s=(round(recovery_s, 3)
                        if recovery_s is not None else None),
            recovery_window_s=recovery_window_s,
            notes=f"SIGKILLed {kill}/{workers} workers mid-load; books "
                  f"must close and the pool must refill within "
                  f"{recovery_window_s:g}s"))

    # -- scenario 2: poison request -> quarantine within 2 deaths ----------
    say("poison-quarantine: crash:node=poison-* fault, resubmitting the "
        "same request id")
    poison_kwargs = dict(pool_kwargs)
    poison_kwargs["fault_spec"] = "crash:node=poison-*"
    poison_kwargs["fault_seed"] = seed
    with InferenceService(
            model, **service_kwargs,
            **{**poison_kwargs, "batch": 1}) as service:
        supervisor = service.pool.supervisor
        sample = np.zeros(service.sample_shape, dtype=np.float32)
        crash_failures = 0
        quarantine_seen = False
        attempts = 0
        for attempt in range(supervisor.quarantine_threshold + 3):
            attempts += 1
            pending = service.submit(sample, deadline_ms=5000.0,
                                     request_id="poison-1")
            result = pending if isinstance(pending, Rejected) \
                else pending.result(timeout=15.0)
            if isinstance(result, Rejected) and \
                    result.reason == "quarantined":
                quarantine_seen = True
                break
            if isinstance(result, Failed):
                crash_failures += 1
            # Let the killed worker's slot restart before resubmitting so
            # the retry measures quarantine, not a restarting-state error.
            _await_full_strength(supervisor, workers, 5.0)
        innocents_ok = True
        for index in range(4):
            pending = service.submit(sample, deadline_ms=5000.0,
                                     request_id=f"innocent-{index}")
            result = pending if isinstance(pending, Rejected) \
                else pending.result(timeout=15.0)
            innocents_ok &= isinstance(result, Completed)
        stats = supervisor.stats()
        scenarios.append(_scenario_doc(
            "poison-quarantine", service,
            checks={
                "quarantined": quarantine_seen,
                "within_threshold_deaths":
                    crash_failures <= supervisor.quarantine_threshold,
                "supervisor_lists_poison":
                    "poison-1" in stats.quarantined,
                "innocents_unaffected": innocents_ok
                and not any(q.startswith("innocent")
                            for q in stats.quarantined),
            },
            attempts=attempts,
            crash_failures=crash_failures,
            quarantine_threshold=supervisor.quarantine_threshold,
            notes="a request that kills its worker "
                  f"{supervisor.quarantine_threshold}x is refused as "
                  "poison; innocent traffic keeps completing"))

    # -- scenario 3: hang -> heartbeat loss -> contained restart -----------
    say("hang-heartbeat: hang:node=hang-* fault silences one worker")
    hang_kwargs = dict(pool_kwargs)
    hang_kwargs["fault_spec"] = "hang:node=hang-*:max=1"
    hang_kwargs["fault_seed"] = seed
    hang_kwargs["heartbeat_timeout_s"] = 0.5
    hang_kwargs["request_timeout_s"] = 8.0
    with InferenceService(
            model, **service_kwargs,
            **{**hang_kwargs, "batch": 1}) as service:
        supervisor = service.pool.supervisor
        sample = np.zeros(service.sample_shape, dtype=np.float32)
        pending = service.submit(sample, request_id="hang-1")
        result = pending if isinstance(pending, Rejected) \
            else pending.result(timeout=20.0)
        hang_recovery = _await_full_strength(supervisor, workers, 10.0)
        stats = supervisor.stats()
        hang_deaths = stats.deaths.get("heartbeat-lost", 0) \
            + stats.deaths.get("request-timeout", 0)
        scenarios.append(_scenario_doc(
            "hang-heartbeat", service,
            checks={
                "structural_outcome": isinstance(result, Failed),
                "silence_detected": hang_deaths >= 1,
                "recovered": hang_recovery is not None,
            },
            outcome=type(result).__name__ if result is not None else None,
            recovery_s=(round(hang_recovery, 3)
                        if hang_recovery is not None else None),
            notes="a worker that stops heartbeating is killed, its "
                  "request fails structurally, and the slot restarts"))

    return {
        "schema": "repro/serve-chaos@1",
        "model": model,
        "workers": workers,
        "killed": kill,
        "max_batch": batch,
        "image_size": None if is_loopback else image_size,
        "duration_s": duration_s,
        "clients": clients,
        "deadline_ms": deadline_ms,
        "recovery_window_s": recovery_window_s,
        "scenarios": scenarios,
        "passed": all(s["passed"] for s in scenarios),
    }


def format_chaos_bench(document: dict) -> str:
    """The serve-chaos document as an aligned text report."""
    lines = [
        f"serve chaos: {document['model']} "
        f"workers={document['workers']} killed={document['killed']} "
        f"max_batch={document['max_batch']} "
        f"(recovery window {document['recovery_window_s']:g}s)",
    ]
    for scenario in document["scenarios"]:
        supervision = scenario["supervision"]
        deaths = ", ".join(
            f"{reason} x{count}"
            for reason, count in sorted(supervision["deaths"].items()))
        status = "pass" if scenario["passed"] else "FAIL"
        lines.append(
            f"  {scenario['scenario']:18s} {status:>4s}  "
            f"alive {supervision['alive']}/{supervision['workers']}, "
            f"{supervision['restarts']} restart(s)"
            + (f", deaths: {deaths}" if deaths else ""))
        if scenario.get("recovery_s") is not None:
            lines.append(
                f"    recovered in {scenario['recovery_s']:.2f}s")
        if supervision["quarantined"]:
            lines.append(
                f"    quarantined: "
                f"{', '.join(supervision['quarantined'])}")
        load = scenario.get("load")
        if load:
            lines.append(
                f"    load: {load['completed']}/{load['offered']} "
                f"completed, {sum(load['rejected'].values())} shed, "
                f"{load['failed']} failed, "
                f"{load['silent_drops']} silent drop(s)")
        failed_checks = [name for name, ok in scenario["checks"].items()
                         if not ok]
        if failed_checks:
            lines.append(f"    failed checks: {', '.join(failed_checks)}")
    lines.append(f"overall: {'pass' if document['passed'] else 'FAIL'}")
    return "\n".join(lines)
