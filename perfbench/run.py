"""perfbench runner: one command from kernel to served request.

Two ways in, one measurement underneath (a *round*: one workload, one fresh
subprocess, thread pins and PYTHONPATH set here):

``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
    One round of one workload; the last line of standard output is the
    result object the benchmark contract asks for.

``python3 perfbench/run.py [--rounds 5] [--trace] [--check-repeat] ...``
    Every workload, ``--rounds`` rounds interleaved (w1..w8, w1..w8, ...)
    so minute-scale host drift lands on every workload alike, samples pooled
    across rounds, every metric printed by name with its unit.

This file imports nothing heavy: numpy and the program are loaded only in
the round subprocesses, after the thread pins are in their environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys

if __package__ in (None, ""):
    # Run as a script: drop perfbench/ from the module path (its file names
    # must not shadow anything) and import through the package instead.
    _here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [entry for entry in sys.path
                   if os.path.abspath(entry or os.getcwd()) != _here]
    sys.path.insert(0, os.path.dirname(_here))

from perfbench import spec                                    # noqa: E402
from perfbench.stats import (                                 # noqa: E402
    highest_percentile,
    median,
    quantile,
)

ROUND_SECONDS = 6.0
ROUND_TIMEOUT_S = 170.0
DEFAULT_SEED = 1


# -- one round in a subprocess ---------------------------------------------------


def round_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(spec.THREAD_PINS)
    paths = [os.path.join(spec.ROOT, "src"), spec.ROOT]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_round(workload: str, seed: int, seconds: float, trace: bool,
              setups: int = spec.SETUP_REPEATS) -> dict:
    """Run one round; raises ``RuntimeError`` if the subprocess fails."""
    os.makedirs(spec.OUT_DIR, exist_ok=True)
    out_path = os.path.join(spec.OUT_DIR, f"round-{os.getpid()}.json")
    command = [sys.executable, "-m", "perfbench.workloads",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--setups", str(setups), "--out", out_path]
    sys.stdout.flush()
    # Its own session, so a timeout can stop the round *and* any worker
    # process it spawned.
    child = subprocess.Popen(command, cwd=spec.ROOT, env=round_env(),
                             start_new_session=True)
    try:
        code = child.wait(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    try:
        if code != 0:
            raise RuntimeError(
                f"round {workload!r} "
                + ("timed out" if code is None else f"exited with {code}"))
        with open(out_path, encoding="utf-8") as stream:
            return json.load(stream)
    finally:
        if os.path.exists(out_path):
            os.remove(out_path)


# -- summarising rounds ------------------------------------------------------------


def summarise(rounds: list[dict]) -> dict:
    """End-to-end metrics of one workload from its rounds' raw material.

    Times are in reference-host units (each sample divided by its block's
    host-speed factor); ``raw`` carries the same statistics uncalibrated.
    Percentiles are over samples pooled across rounds; ``setup_s`` and
    ``peak_rss_mb`` are medians over rounds.
    """
    workload = spec.WORKLOADS[rounds[0]["workload"]]
    calibrated, raw = [], []
    busy_calibrated = busy_raw = 0.0
    for document in rounds:
        for block in document["blocks"]:
            if block["traced"]:
                continue
            raw.extend(block["latency_s"])
            calibrated.extend(s / block["factor"] for s in block["latency_s"])
            busy_raw += block["wall"]
            busy_calibrated += block["wall"] / block["factor"]
    # An open loop's duration is its schedule's, whatever the host's speed.
    busy = busy_raw if workload.loop == "open" else busy_calibrated
    setups = [median([s / f for s, f in document["setup"]])
              for document in rounds]
    top = highest_percentile(len(calibrated))
    return {
        "metrics": {
            "latency_ms_p50": quantile(calibrated, 50.0) * 1e3,
            "latency_ms_p90": quantile(calibrated, 90.0) * 1e3,
            "throughput_ops_s": len(calibrated) / busy,
            "setup_s": median(setups),
            "peak_rss_mb": median([d["peak_rss_mb"] for d in rounds]),
        },
        "raw": {
            "latency_ms_p50": quantile(raw, 50.0) * 1e3,
            "latency_ms_p90": quantile(raw, 90.0) * 1e3,
            "throughput_ops_s": len(raw) / busy_raw,
            "setup_s": median([median([s for s, _ in d["setup"]])
                               for d in rounds]),
        },
        "samples": len(calibrated),
        "tail": {"percentile": top,
                 "latency_ms": quantile(calibrated, top) * 1e3,
                 "latency_ms_p99_ungated": quantile(calibrated, 99.0) * 1e3},
        "attempted": sum(d["attempted"] for d in rounds),
        "failed": sum(d["failed"] for d in rounds),
        "failures": sorted({f for d in rounds for f in d["failures"]}),
        "lateness_ms_p90": quantile(
            [s for d in rounds for b in d["blocks"]
             for s in b["lateness_s"]], 90.0) * 1e3,
        "host_speed_factor_p50": median(
            [f for d in rounds for f in d["probe_factors"]]),
    }


def per_layer_metrics(document: dict, names: dict[str, str]) -> dict:
    """Every per-layer metric BENCHMARK.json names; 0 where not exercised."""
    layer = document["layer"]
    unknown = sorted(set(layer) - set(names))
    if unknown:
        print(f"perfbench: per-layer metrics not in BENCHMARK.json, "
              f"dropped: {unknown}", file=sys.stderr)
    return {name: float(layer.get(name, 0.0)) for name in names}


def with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


# -- the full run ------------------------------------------------------------------


def host_stamp() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(),
            "thread_pins": spec.THREAD_PINS}


def run_set(names: list[str], seed: int, rounds: int, seconds: float,
            setups: int, trace: bool) -> dict:
    """One full set: interleaved rounds, then (optionally) traced rounds."""
    benchmark = spec.load_benchmark()
    collected: dict[str, list[dict]] = {name: [] for name in names}
    for index in range(rounds):
        for name in names:
            print(f"perfbench: round {index + 1}/{rounds} of {name}",
                  file=sys.stderr)
            collected[name].append(
                run_round(name, seed, seconds, trace=False, setups=setups))
    report = {"host": host_stamp(), "seed": seed, "rounds": rounds,
              "seconds_per_round": seconds, "workloads": {}}
    for name in names:
        entry = summarise(collected[name])
        entry["host"] = collected[name][0]["host"]
        if trace:
            print(f"perfbench: traced round of {name}", file=sys.stderr)
            document = run_round(name, seed, seconds, trace=True, setups=1)
            entry["per_layer"] = per_layer_metrics(
                document, spec.metric_units(benchmark, "per_layer"))
        report["workloads"][name] = entry
    return report


def print_report(report: dict) -> None:
    benchmark = spec.load_benchmark()
    units = spec.metric_units(benchmark, "end_to_end")
    layer_units = spec.metric_units(benchmark, "per_layer")
    host = report["host"]
    print(f"host: {host['nproc']} cpu(s), {host['cpu']}, python "
          f"{host['python']}, pins {host['thread_pins']}")
    for name, entry in report["workloads"].items():
        print(f"\n{name}  ({entry['samples']} samples, "
              f"{entry['attempted']} attempted, {entry['failed']} failed, "
              f"host speed factor {entry['host_speed_factor_p50']:.3f}, "
              f"{entry['host']})")
        for metric, unit in units.items():
            raw = entry["raw"].get(metric)
            beside = f"   (raw {raw:.4f})" if raw is not None else ""
            print(f"  {metric:<22s} {entry['metrics'][metric]:12.4f} "
                  f"{unit:<6s}{beside}")
        tail = entry["tail"]
        print(f"  highest percentile with >=10 samples beyond: "
              f"p{tail['percentile']:g} = {tail['latency_ms']:.4f} ms; "
              f"p99 (ungated) = {tail['latency_ms_p99_ungated']:.4f} ms; "
              f"generator lateness p90 = {entry['lateness_ms_p90']:.4f} ms")
        for failure in entry["failures"]:
            print(f"  failure: {failure}")
        layer = entry.get("per_layer", {})
        for metric, value in layer.items():
            if value:
                print(f"    {metric:<42s} {value:16.4f} {layer_units[metric]}")
        zero = [metric for metric, value in layer.items() if not value]
        if zero:
            print(f"    0 (layer not entered, or nothing to count): "
                  f"{', '.join(zero)}")


def compare_sets(first: dict, second: dict) -> list[str]:
    """Metrics of two sets of the same code that differ beyond their bound."""
    bounds = {entry["name"]: entry["bound"]
              for entry in spec.load_benchmark()["end_to_end"]}
    problems = []
    for name, entry in first["workloads"].items():
        other = second["workloads"][name]
        if entry["failed"] or other["failed"]:
            problems.append(f"{name}: failed operations "
                            f"({entry['failed']}, {other['failed']})")
        for metric, bound in bounds.items():
            a, b = entry["metrics"][metric], other["metrics"][metric]
            share = abs(b - a) / a
            verdict = "ok" if share <= bound else "DIFFERS"
            print(f"  {name:<24s} {metric:<20s} {a:12.4f} {b:12.4f} "
                  f"{share:7.3f} (bound {bound}) {verdict}")
            if share > bound:
                problems.append(f"{name}: {metric} differs by {share:.3f}")
    return problems


# -- command line ------------------------------------------------------------------


def contract_run(name: str, seed: int, seconds: float, trace: bool) -> int:
    """One round, then the contract's result object as the last line."""
    benchmark = spec.load_benchmark()
    document = run_round(name, seed, seconds, trace)
    for failure in document["failures"]:
        print(f"perfbench: failed operation: {failure}", file=sys.stderr)
    if trace:
        units = spec.metric_units(benchmark, "per_layer")
        values = per_layer_metrics(document, units)
    else:
        units = spec.metric_units(benchmark, "end_to_end")
        values = summarise([document])["metrics"]
    print(json.dumps({
        "correct": document["failed"] == 0,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": with_units(values, units),
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="perfbench: the repository's performance benchmark")
    parser.add_argument("--workload", action="append",
                        choices=sorted(spec.WORKLOADS),
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure one round of one workload for this "
                             "long and print the contract's result line")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="also (with --seconds: only) the traced pass")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--json", metavar="FILE",
                        help="write the full report here")
    parser.add_argument("--smoke", action="store_true",
                        help="1 round, tiny counts: does it run at all")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two sets; exit 1 if any end-to-end metric "
                             "differs by more than its bound")
    args = parser.parse_args(argv)
    names = args.workload or list(spec.WORKLOADS)
    try:
        if args.seconds is not None:
            if len(names) != 1:
                parser.error("--seconds needs exactly one --workload")
            return contract_run(names[0], args.seed, args.seconds,
                                bool(args.trace))
        rounds, seconds, setups = args.rounds, ROUND_SECONDS, \
            spec.SETUP_REPEATS
        if args.smoke:
            rounds, seconds, setups = 1, 0.5, 1
        report = run_set(names, args.seed, rounds, seconds, setups,
                         bool(args.trace))
        print_report(report)
        problems = []
        if args.check_repeat:
            second = run_set(names, args.seed, rounds, seconds, setups,
                             trace=False)
            print("\ncheck-repeat: first set, second set, difference")
            problems = compare_sets(report, second)
            report["repeat"] = second
        if args.json:
            with open(args.json, "w", encoding="utf-8") as stream:
                json.dump(report, stream, indent=1)
        failed = sum(e["failed"] for e in report["workloads"].values())
        for problem in problems:
            print(f"check-repeat: {problem}")
        return 1 if problems or failed else 0
    except (RuntimeError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
