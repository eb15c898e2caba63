"""Chrome-trace export of per-layer profiles.

Converts a :class:`~repro.runtime.profiler.ProfileResult` into the Chrome
``chrome://tracing`` / Perfetto JSON event format, laying the layers out on
a single timeline in schedule order (median duration per layer). Open the
file in any trace viewer for a flame-style view of where an inference
spends its time.
"""

from __future__ import annotations

import json

from repro.runtime.profiler import ProfileResult


def to_chrome_trace(profile: ProfileResult, process_name: str = "orpheus") -> str:
    """Serialise ``profile`` as Chrome trace-event JSON."""
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": process_name},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": "inference"},
        },
    ]
    cursor_us = 0.0
    for layer in profile.layers:
        duration_us = layer.median * 1e6
        events.append({
            "name": layer.node_name,
            "cat": layer.op_type,
            "ph": "X",                 # complete event
            "ts": round(cursor_us, 3),
            "dur": round(duration_us, 3),
            "pid": 1,
            "tid": 1,
            "args": {
                "op": layer.op_type,
                "impl": layer.impl,
                "median_ms": round(layer.median * 1e3, 4),
                "min_ms": round(layer.best * 1e3, 4),
                "repeats": profile.repeats,
            },
        })
        cursor_us += duration_us
    return json.dumps({"traceEvents": events,
                       "displayTimeUnit": "ms"}, indent=1)


def save_chrome_trace(profile: ProfileResult, path: str,
                      process_name: str = "orpheus") -> None:
    """Write the trace JSON to ``path`` (open with chrome://tracing)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_chrome_trace(profile, process_name=process_name))
