"""The ``orpheus`` command-line interface.

Subcommands::

    orpheus models                  # list the model zoo
    orpheus backends                # list registered backends
    orpheus inspect MODEL           # print a model's graph (or an .onnx file)
    orpheus run MODEL               # one inference (MODEL may be an .oeng)
    orpheus profile MODEL           # per-layer timing (MODEL may be an .oeng)
    orpheus convert MODEL OUT.onnx  # export a zoo model to ONNX
    orpheus compile MODEL OUT.oeng  # compile a model to an engine file
    orpheus engine-info FILE.oeng   # inspect a compiled engine
    orpheus lint PATH...            # static analysis over Python sources
    orpheus verify TARGET...        # validate model graphs / .oeng engines
    orpheus serve MODEL             # inference service under generated load
    orpheus serve-chaos MODEL       # kill/poison/hang acceptance battery
    orpheus bench figure2           # regenerate the paper's Figure 2
    orpheus bench table1            # regenerate the paper's Table I
    orpheus bench layers            # per-layer conv algorithm race
    orpheus bench sweep             # latency vs batch size / resolution
    orpheus bench quant             # fp32 vs int8 crossover

Performance claims are measured by ``perfbench/`` (see BENCHMARK.json),
not by a verb here.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro import __version__
from repro.backends import get_backend, list_backends
from repro.models import zoo


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orpheus",
        description="Orpheus edge-inference framework (ISPASS 2020 reproduction)")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list zoo models")
    sub.add_parser("backends", help="list registered backends")

    inspect = sub.add_parser("inspect", help="print a model graph")
    inspect.add_argument("model", help="zoo model name or .onnx path")
    inspect.add_argument("--no-shapes", action="store_true")
    inspect.add_argument("--optimize", action="store_true",
                         help="print the simplified graph")
    inspect.add_argument("--dot", metavar="PATH",
                         help="also write Graphviz DOT source to PATH")

    run = sub.add_parser("run", help="run one inference on synthetic input")
    _session_flags(run)

    profile = sub.add_parser("profile", help="per-layer timing")
    _session_flags(profile)
    profile.add_argument("--repeats", type=int, default=5)
    profile.add_argument("--top", type=int, default=15)
    profile.add_argument("--trace", metavar="PATH",
                         help="write a chrome://tracing JSON to PATH")

    convert = sub.add_parser("convert", help="export a zoo model to ONNX")
    convert.add_argument("model")
    convert.add_argument("output", help="output .onnx path")
    convert.add_argument("--seed", type=int, default=0)

    compile_ = sub.add_parser(
        "compile", help="ahead-of-time compile a model to an engine file")
    compile_.add_argument("model", help="zoo model name or .onnx path")
    compile_.add_argument("output", help="output .oeng path")
    compile_.add_argument("--backend", default="orpheus")
    compile_.add_argument("--no-optimize", action="store_true")
    compile_.add_argument("--seed", type=int, default=0)
    compile_.add_argument("--batch", type=int, default=1)
    compile_.add_argument("--image-size", type=int, default=None)
    compile_.add_argument(
        "--tune", action="store_true",
        help="race every registered kernel per Conv before freezing")
    compile_.add_argument("--tune-repeats", type=int, default=2)

    engine_info = sub.add_parser(
        "engine-info", help="inspect a compiled engine file")
    engine_info.add_argument("path", help=".oeng path")

    lint = sub.add_parser(
        "lint", help="static analysis: lock discipline + hygiene rules")
    lint.add_argument("paths", nargs="+", metavar="PATH",
                      help="Python files or directories to lint")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the findings report as JSON")
    lint.add_argument("--strict", action="store_true",
                      help="warnings also fail the run")

    verify = sub.add_parser(
        "verify",
        help="statically validate a model graph or compiled engine")
    verify.add_argument("targets", nargs="+", metavar="TARGET",
                        help="zoo model name, .onnx model, or .oeng engine")
    verify.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the findings report as JSON")
    verify.add_argument("--strict", action="store_true",
                        help="warnings (e.g. stale fingerprints) also fail")
    verify.add_argument("--seed", type=int, default=0,
                        help="weight seed for zoo model targets")

    quantize = sub.add_parser(
        "quantize", help="post-training int8 quantization -> ONNX")
    quantize.add_argument("model", help="zoo model name or .onnx path")
    quantize.add_argument("output", help="output .onnx path")
    quantize.add_argument("--batches", type=int, default=4,
                          help="calibration batches")
    quantize.add_argument("--observer", choices=("minmax", "percentile"),
                          default="minmax")
    quantize.add_argument("--seed", type=int, default=0)

    analyze = sub.add_parser(
        "analyze", help="static cost report: MACs, memory, energy")
    analyze.add_argument("model", help="zoo model name or .onnx path")
    analyze.add_argument("--no-optimize", action="store_true")
    analyze.add_argument("--seed", type=int, default=0)

    compare = sub.add_parser(
        "compare", help="per-layer comparison of two backends on one model")
    compare.add_argument("model", help="zoo model name or .onnx path")
    compare.add_argument("backends", nargs=2, help="two backend names")
    compare.add_argument("--repeats", type=int, default=5)
    compare.add_argument("--top", type=int, default=15)
    compare.add_argument("--seed", type=int, default=0)

    conformance = sub.add_parser(
        "conformance", help="run the backend conformance battery")
    conformance.add_argument("backend", nargs="?", default=None,
                             help="backend name (default: all registered)")

    serve = sub.add_parser(
        "serve", help="run the inference service under a self-generated "
                      "load and report health/robustness")
    _serve_pool_flags(serve)
    serve.add_argument("--rps", type=float, default=4.0,
                       help="offered load while the service runs")
    serve.add_argument("--clients", type=int, default=2,
                       help="concurrent load-generator clients")
    serve.add_argument("--duration", type=float, default=3.0,
                       help="seconds to keep the service under load")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="per-request deadline (admission control sheds "
                            "requests that cannot make it)")
    serve.add_argument("--inject-faults", metavar="SPEC", default=None,
                       help="fault spec applied to the primary backend's "
                            "worker sessions (per-worker seeds), e.g. "
                            "'raise:op=Conv:max=3'")
    serve.add_argument("--fault-seed", type=int, default=0)
    serve.add_argument("--no-fallback", action="store_true",
                       help="disable per-node kernel fallback chains in "
                            "worker sessions")
    serve.add_argument("--json", action="store_true",
                       help="print a JSON document (errors included) "
                            "instead of text")

    serve_chaos = sub.add_parser(
        "serve-chaos", help="chaos scenario family for process workers: "
                            "kill K of N mid-load, poison-request "
                            "quarantine, hang detection")
    serve_chaos.add_argument("model", nargs="?", default="wrn-40-2",
                             help="zoo model name, or '@loopback' for the "
                                  "millisecond-startup diagnostic model")
    serve_chaos.add_argument("--workers", type=int, default=4,
                             help="process workers in the pool")
    serve_chaos.add_argument("--kill", type=int, default=2,
                             help="workers to SIGKILL mid-load")
    serve_chaos.add_argument("--batch", type=int, default=2,
                             help="max dynamic batch size")
    serve_chaos.add_argument("--image-size", type=int, default=8,
                             help="input resolution for real models")
    serve_chaos.add_argument("--duration", type=float, default=3.0,
                             help="seconds of load in the kill scenario")
    serve_chaos.add_argument("--clients", type=int, default=4)
    serve_chaos.add_argument("--deadline-ms", type=float, default=2000.0)
    serve_chaos.add_argument("--rps", type=float, default=None,
                             help="override the calibrated offered rate")
    serve_chaos.add_argument("--recovery-window-s", type=float,
                             default=10.0,
                             help="seconds the pool gets to return to "
                                  "full strength after the last kill")
    serve_chaos.add_argument("--engine-cache", metavar="DIR", default=None,
                             help="shared .oeng directory the worker "
                                  "processes warm-start from")
    serve_chaos.add_argument("--seed", type=int, default=0)
    serve_chaos.add_argument("--save", metavar="PATH", default=None,
                             help="also write the JSON document to PATH")
    serve_chaos.add_argument("--json", action="store_true",
                             help="print the JSON document (errors "
                                  "included) instead of text")

    bench = sub.add_parser("bench", help="paper experiments")
    bench_sub = bench.add_subparsers(dest="experiment", required=True)
    figure2 = bench_sub.add_parser("figure2", help="Figure 2 grid")
    figure2.add_argument("--repeats", type=int, default=5)
    figure2.add_argument("--models", nargs="*", default=None)
    figure2.add_argument("--frameworks", nargs="*", default=None)
    figure2.add_argument("--image-size", type=int, default=None)
    figure2.add_argument("--csv", help="also write CSV to this path")
    figure2.add_argument("--chart", action="store_true",
                         help="render ASCII bars instead of the table")
    figure2.add_argument("--retries", type=int, default=1,
                         help="extra tries per failing cell before it "
                              "degrades into a failure row")
    figure2.add_argument("--engine-cache", metavar="DIR", default=None,
                         help="warm-start each cell's prepare from this "
                              "directory of compiled engines (populated "
                              "on the first pass)")
    _journal_flags(figure2)
    table1 = bench_sub.add_parser("table1", help="Table I")
    table1.add_argument("--rationale", action="store_true")
    layers = bench_sub.add_parser("layers", help="conv algorithm race")
    layers.add_argument("--repeats", type=int, default=5)
    sweep = bench_sub.add_parser(
        "sweep", help="latency vs batch size or input resolution")
    sweep.add_argument("model", help="zoo model name")
    sweep.add_argument("--parameter", choices=("batch", "resolution"),
                       default="batch")
    sweep.add_argument("--values", nargs="+", type=int, default=None,
                       help="batch sizes or image sizes to sweep "
                            "(default: 1 2 4 8 batches)")
    sweep.add_argument("--backend", default="orpheus")
    sweep.add_argument("--repeats", type=int, default=5)
    sweep.add_argument("--retries", type=int, default=1)
    sweep.add_argument("--csv", help="also write CSV to this path")
    sweep.add_argument("--engine-cache", metavar="DIR", default=None,
                       help="warm-start each configuration's prepare from "
                            "this directory of compiled engines")
    _journal_flags(sweep)
    quant = bench_sub.add_parser(
        "quant", help="fp32 vs int8 crossover with accuracy proxy")
    quant.add_argument("--save", metavar="PATH", default=None,
                       help="also write the JSON document to PATH")
    quant.add_argument("--repeats", type=int, default=7)
    quant.add_argument("--models", nargs="*", default=None,
                       help="restrict the steady-state sweep to these "
                            "zoo models")
    quant.add_argument("--no-scenarios", action="store_true",
                       help="skip the memory-budget deployment scenarios")
    return parser


def _serve_pool_flags(parser: argparse.ArgumentParser) -> None:
    """The pool-shape flags of ``serve``."""
    parser.add_argument("model", nargs="?", default="wrn-40-2",
                        help="zoo model name (default: wrn-40-2)")
    parser.add_argument("--backends", nargs="+",
                        default=["orpheus", "direct"],
                        help="ordered backend chain; breakers reroute "
                             "down it (avoid 'reference' here — its "
                             "naive kernels are orders of magnitude "
                             "slower than every other backend)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker sessions per backend")
    parser.add_argument("--worker-mode", choices=("thread", "process"),
                        default="thread",
                        help="'process' isolates every worker in its own "
                             "OS process (crash containment, heartbeats, "
                             "poison-request quarantine)")
    parser.add_argument("--batch", type=int, default=4,
                        help="max dynamic batch size")
    parser.add_argument("--queue-capacity", type=int, default=None,
                        help="bounded request queue size (default: "
                             "8 * workers * batch)")
    parser.add_argument("--image-size", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--breaker-threshold", type=int, default=3,
                        help="consecutive failures before a backend's "
                             "breaker trips open")
    parser.add_argument("--breaker-cooldown-s", type=float, default=1.0,
                        help="seconds an open breaker waits before its "
                             "half-open probe")
    parser.add_argument("--engine-cache", metavar="DIR", default=None,
                        help="load each backend's engine from this "
                             "directory of compiled .oeng files "
                             "(populated on first start)")


def _session_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "model", help="zoo model name, .onnx path, or .oeng engine "
                      "(a strict warm start)")
    # Unset (None) asserts nothing: a cold MODEL gets orpheus, optimised;
    # an .oeng MODEL keeps what it was compiled with. A set flag must
    # match an engine's fingerprint.
    parser.add_argument("--backend", default=None,
                        help="backend (default: orpheus, or the engine's)")
    parser.add_argument("--no-optimize", dest="optimize",
                        action="store_const", const=False, default=None,
                        help="skip the pass pipeline")
    parser.add_argument("--seed", type=int, default=0)
    _robustness_flags(parser)
    _guardrail_flags(parser)


def _robustness_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--check-numerics", action="store_true",
        help="treat NaN/Inf kernel outputs as failures (triggers fallback)")
    parser.add_argument(
        "--no-fallback", action="store_true",
        help="abort on the first kernel failure instead of falling back "
             "to the next applicable implementation")
    parser.add_argument(
        "--inject-faults", metavar="SPEC", default=None,
        help="deterministic fault injection, e.g. "
             "'raise:op=Conv:attempt=0;nan:node=conv1*:p=0.5:seed=7'")
    parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for --inject-faults probability draws")


def _journal_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--journal", metavar="PATH", default=None,
        help="append every completed cell to this JSONL run-journal")
    parser.add_argument(
        "--resume", action="store_true",
        help="load the journal first and skip every cell it already "
             "holds (without this flag an existing journal is restarted)")


def _open_journal(args: argparse.Namespace):
    """The RunJournal requested by --journal/--resume, or None."""
    if not args.journal:
        if args.resume:
            raise SystemExit("--resume requires --journal PATH")
        return None
    from repro.bench.journal import RunJournal
    return RunJournal(args.journal, resume=args.resume)


def _guardrail_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--deadline-ms", type=float, default=None,
        help="wall-clock budget per run; expiry raises "
             "DeadlineExceededError with the partial per-layer timeline")
    parser.add_argument(
        "--memory-budget-mb", type=float, default=None,
        help="reject runs whose planned peak resident activations exceed "
             "this budget (admission control, before anything executes)")


def _session_kwargs(args: argparse.Namespace) -> dict:
    """Robustness-related InferenceSession kwargs from parsed flags.

    A flag left unset hands over ``None``, which the session reads as
    "not overridden" (:meth:`repro.config.RuntimeConfig.overridden`).
    """
    from repro.runtime.faults import parse_fault_plan
    budget_mb = args.memory_budget_mb
    return {
        "check_numerics": args.check_numerics or None,
        "kernel_fallback": False if args.no_fallback else None,
        "fault_plan": (parse_fault_plan(args.inject_faults,
                                        seed=args.fault_seed)
                       if args.inject_faults else None),
        "memory_budget_bytes": (None if budget_mb is None
                                else int(budget_mb * (1 << 20))),
    }


def _write_json(path: str, document: dict) -> None:
    """What every ``--save PATH`` flag writes."""
    import json
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def _print_robustness(session) -> None:
    """Print the robustness report when anything noteworthy happened."""
    report = session.robustness_report()
    if not report.clean:
        print()
        print(report.summary())


def _load_graph(name: str, seed: int = 0):
    if os.path.exists(name) or name.endswith(".onnx"):
        from repro.onnx import load_model
        return load_model(name)
    return zoo.build(name, seed=seed)


def _model_feed(graph) -> dict[str, np.ndarray]:
    from repro.bench.workloads import synthetic_image_batch
    feeds = {}
    for info in graph.inputs:
        shape = tuple(1 if dim == -1 else dim for dim in info.shape)
        if len(shape) == 4:
            feeds[info.name] = synthetic_image_batch(shape)
        else:
            feeds[info.name] = np.zeros(shape, dtype=info.dtype.np)
    return feeds


def _cmd_models(args: argparse.Namespace) -> int:
    for entry in zoo.list_models():
        print(f"{entry.name:14s} {entry.image_size}x{entry.image_size}  "
              f"{entry.num_classes:5d} classes  {entry.description}")
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    for backend in list_backends():
        print(f"{backend.name:14s} gemm={backend.gemm:8s} {backend.description}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.ir.printer import print_graph, summarize
    graph = _load_graph(args.model)
    if args.optimize:
        from repro.passes import default_pipeline
        graph = default_pipeline().run(graph)
    print(print_graph(graph, with_shapes=not args.no_shapes))
    print()
    print(summarize(graph))
    if args.dot:
        from repro.ir.dot import save_dot
        save_dot(graph, args.dot, with_shapes=not args.no_shapes)
        print(f"wrote {args.dot}")
    return 0


def _open_session(args: argparse.Namespace):
    """``run``/``profile``'s session, or None after one stderr line.

    An ``.oeng`` MODEL is loaded with the strict
    :meth:`~repro.runtime.session.InferenceSession.from_engine`; an
    unloadable or mismatched engine is reported the way ``engine-info``
    reports it. Any other MODEL is prepared cold.
    """
    from repro.errors import EngineError
    from repro.runtime.session import InferenceSession
    knobs = {"optimize": args.optimize, **_session_kwargs(args)}
    if not args.model.endswith(".oeng"):
        return InferenceSession(
            _load_graph(args.model, seed=args.seed),
            backend=args.backend or "orpheus", **knobs)
    try:
        return InferenceSession.from_engine(
            args.model, backend=args.backend, **knobs)
    except EngineError as exc:
        print(f"not a loadable engine: {exc}", file=sys.stderr)
        return None


def _cmd_run(args: argparse.Namespace) -> int:
    session = _open_session(args)
    if session is None:
        return 1
    outputs = session.run(_model_feed(session.graph),
                          deadline_ms=args.deadline_ms)
    for name, array in outputs.items():
        flat = array.reshape(-1)
        top = int(flat.argmax())
        print(f"{name}: shape {array.shape}, argmax {top}, "
              f"max {flat[top]:.4f}")
    _print_robustness(session)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    session = _open_session(args)
    if session is None:
        return 1
    profile = session.profile(_model_feed(session.graph), repeats=args.repeats,
                              deadline_ms=args.deadline_ms)
    print(profile.table(count=args.top))
    print("\nby op type (ms):")
    for op, seconds in profile.by_op_type().items():
        print(f"  {op:24s} {seconds * 1e3:9.2f}")
    if args.trace:
        from repro.runtime.trace import save_chrome_trace
        save_chrome_trace(profile, args.trace, process_name=args.model)
        print(f"\nwrote {args.trace}")
    _print_robustness(session)
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.onnx import save_model
    graph = zoo.build(args.model, seed=args.seed)
    save_model(graph, args.output)
    size = os.path.getsize(args.output)
    print(f"wrote {args.output} ({size / (1 << 20):.2f} MiB)")
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    import time

    from repro.engine import compile_to_file
    if os.path.exists(args.model) or args.model.endswith(".onnx"):
        from repro.onnx import load_model
        graph = load_model(args.model)
    else:
        graph = zoo.build(args.model, batch=args.batch,
                          image_size=args.image_size, seed=args.seed)
    started = time.perf_counter()
    engine = compile_to_file(
        graph, args.output,
        backend=get_backend(args.backend),
        optimize=not args.no_optimize, tune=args.tune,
        tune_repeats=args.tune_repeats,
        metadata={"model": args.model})
    elapsed = time.perf_counter() - started
    size = os.path.getsize(args.output)
    print(f"compiled {args.model} -> {args.output} "
          f"({size / (1 << 20):.2f} MiB in {elapsed:.2f}s)")
    _print_engine_info(engine)
    return 0


def _cmd_engine_info(args: argparse.Namespace) -> int:
    from repro.engine import load_engine
    from repro.errors import EngineError
    try:
        engine = load_engine(args.path)
    except EngineError as exc:
        print(f"not a loadable engine: {exc}", file=sys.stderr)
        return 1
    print(f"{args.path} ({os.path.getsize(args.path) / (1 << 20):.2f} MiB)")
    _print_engine_info(engine)
    return 0


def _print_engine_info(engine) -> None:
    for key, value in engine.info().items():
        if isinstance(value, dict):
            print(f"  {key}:")
            for inner, inner_value in value.items():
                print(f"    {inner:18s} {inner_value}")
        elif isinstance(value, list):
            print(f"  {key:20s} {', '.join(map(str, value))}")
        else:
            print(f"  {key:20s} {value}")


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import lint_paths
    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        print(f"no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    report = lint_paths(args.paths)
    if args.as_json:
        print(report.to_json())
    else:
        print(report.format_text())
    return report.exit_code(strict=args.strict)


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.lint import Report, verify_target
    report = Report()
    for target in args.targets:
        report.extend(verify_target(target, seed=args.seed))
    if args.as_json:
        print(report.to_json())
    else:
        print(report.format_text())
        clean = [t for t in args.targets
                 if not any(f.path == t for f in report.errors)]
        if clean and len(args.targets) > 1:
            print(f"verified clean: {', '.join(clean)}")
    return report.exit_code(strict=args.strict)


def _cmd_quantize(args: argparse.Namespace) -> int:
    from repro.onnx import save_model
    from repro.passes import default_pipeline
    from repro.quant import calibrate, quantize_graph

    graph = _load_graph(args.model, seed=args.seed)
    # Quantize the unfused simplification so the result stays ONNX-clean
    # (the fused `activation` attribute is framework-internal).
    optimized = default_pipeline(fuse=False).run(graph)
    batches = []
    for index in range(args.batches):
        feeds = {}
        for info in optimized.inputs:
            shape = tuple(1 if dim == -1 else dim for dim in info.shape)
            from repro.bench.workloads import synthetic_image_batch
            feeds[info.name] = (
                synthetic_image_batch(shape, seed=args.seed + index)
                if len(shape) == 4
                else np.zeros(shape, dtype=info.dtype.np))
        batches.append(feeds)
    ranges = calibrate(optimized, batches, observer=args.observer)
    quantized, report = quantize_graph(optimized, ranges)
    print(report)
    save_model(quantized, args.output)
    size = os.path.getsize(args.output)
    print(f"wrote {args.output} ({size / (1 << 20):.2f} MiB)")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import count_graph, estimate_energy_mj, footprint
    graph = _load_graph(args.model, seed=args.seed)
    if not args.no_optimize:
        from repro.passes import default_pipeline
        graph = default_pipeline().run(graph)
    cost = count_graph(graph)
    print(cost.summary())
    print(footprint(graph, args.model).summary())
    print(f"energy proxy: {estimate_energy_mj(graph):.2f} mJ/inference (f32), "
          f"{estimate_energy_mj(graph, quantized=True):.2f} mJ (int8)")
    print("\nMACs by op type:")
    for op, macs in cost.by_op_type().items():
        if macs:
            print(f"  {op:24s} {macs / 1e6:10.1f} M")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.bench.reporting import format_table
    from repro.runtime.session import InferenceSession

    graph = _load_graph(args.model, seed=args.seed)
    first, second = args.backends
    profiles = {}
    for name in (first, second):
        session = InferenceSession(graph, backend=get_backend(name))
        feed = _model_feed(session.graph)
        profiles[name] = session.profile(feed, repeats=args.repeats)
    base = {layer.node_name: layer for layer in profiles[first].layers}
    rows = []
    for layer in profiles[second].layers:
        reference = base.get(layer.node_name)
        if reference is None:
            continue  # backends may fuse differently; compare common nodes
        ratio = reference.median / layer.median if layer.median else float("inf")
        rows.append([
            layer.node_name, layer.op_type,
            reference.impl, reference.median * 1e3,
            layer.impl, layer.median * 1e3, ratio,
        ])
    rows.sort(key=lambda row: -max(row[3], row[5]))
    table = format_table(
        ["node", "op", f"{first} impl", f"{first} ms",
         f"{second} impl", f"{second} ms", f"{first}/{second}"],
        rows[:args.top] if args.top else rows,
        title=f"{args.model}: {first} vs {second} (median of {args.repeats})")
    print(table)
    total_first = profiles[first].total_median * 1e3
    total_second = profiles[second].total_median * 1e3
    print(f"\ntotal: {first} {total_first:.2f} ms, "
          f"{second} {total_second:.2f} ms "
          f"({total_first / total_second:.2f}x)")
    return 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    from repro.backends import list_backends
    from repro.testing import check_backend

    backends = ([get_backend(args.backend)] if args.backend
                else list_backends())
    all_ok = True
    for backend in backends:
        report = check_backend(backend)
        print(report.summary())
        all_ok = all_ok and report.ok
    return 0 if all_ok else 1


#: serve/serve-chaos exit codes: 0 = healthy, 1 = structured Orpheus
#: failure, 2 = usage (argparse), 4 = service ran but degraded below its
#: invariants (zero successes, silent drops, or a failed scenario check).
EXIT_DEGRADED = 4


def _serve_error(exc: BaseException, as_json: bool) -> int:
    """The --json error envelope (or a stderr line) for serve commands."""
    if as_json:
        import json
        print(json.dumps({"error": {
            "type": type(exc).__name__, "message": str(exc)}}))
    else:
        print(f"error: [{type(exc).__name__}] {exc}", file=sys.stderr)
    return 1


class _GracefulSignal(Exception):
    """SIGTERM/SIGINT arrived while ``serve`` was running; drain and exit."""

    def __init__(self, signum: int) -> None:
        super().__init__(f"signal {signum}")
        self.signum = signum


def _drain_on_signal(service, sig: "_GracefulSignal", as_json: bool) -> int:
    """The graceful-shutdown path of ``orpheus serve``.

    Stops admitting (new arrivals shed ``draining``), resolves every
    already-admitted request, then closes. Exit 0 when the books closed
    inside the drain timeout, EXIT_DEGRADED when work had to be cut off.
    """
    import json
    import signal as signal_mod

    name = signal_mod.Signals(sig.signum).name
    drained = service.drain(timeout=10.0)
    stats = service.stats()
    service.close(drain=False)
    closed_books = drained and stats.outstanding == 0
    if as_json:
        print(json.dumps({
            "signal": name,
            "drained": drained,
            "outstanding": stats.outstanding,
            "health": service.health(),
        }, sort_keys=True))
    else:
        print(f"received {name}: drained={'yes' if drained else 'NO'}, "
              f"outstanding={stats.outstanding}, "
              f"resolved {stats.completed} completed / "
              f"{stats.total_rejected} shed / {stats.failed} failed")
    return 0 if closed_books else EXIT_DEGRADED


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    import signal as signal_mod

    from repro.errors import OrpheusError
    from repro.serve import InferenceService, run_load

    capacity = args.queue_capacity or 8 * args.workers * args.batch
    service = None
    previous_handlers = {}

    def _on_signal(signum: int, frame: object) -> None:
        raise _GracefulSignal(signum)

    for signum in (signal_mod.SIGTERM, signal_mod.SIGINT):
        previous_handlers[signum] = signal_mod.signal(signum, _on_signal)
    try:
        service_kwargs = dict(
            queue_capacity=capacity,
            default_deadline_ms=args.deadline_ms,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown_s=args.breaker_cooldown_s,
            jitter_seed=args.seed)
        pool_kwargs = dict(
            backends=tuple(args.backends), workers=args.workers,
            batch=args.batch, image_size=args.image_size, seed=args.seed,
            engine_cache=args.engine_cache)
        if args.inject_faults:
            # Both pool kinds fault the primary backend, backends[0].
            pool_kwargs["fault_spec"] = args.inject_faults
            pool_kwargs["fault_seed"] = args.fault_seed
        if args.no_fallback:
            pool_kwargs["session_kwargs"] = {"kernel_fallback": False}
        service = InferenceService(
            args.model, worker_mode=args.worker_mode,
            **service_kwargs, **pool_kwargs)
        # Readiness marker on stderr (stdout stays pure for --json): a
        # process supervisor can wait for this before sending traffic —
        # or signals, whose graceful handling starts here.
        print(f"serving {args.model}: {args.workers} {args.worker_mode} "
              f"worker(s) ready", file=sys.stderr, flush=True)
        report = run_load(
            service, rps=args.rps, duration_s=args.duration,
            clients=args.clients, deadline_ms=args.deadline_ms,
            seed=args.seed)
        health = service.health()
        service.close()
    except OrpheusError as exc:
        if service is not None:
            service.close(drain=False)
        return _serve_error(exc, args.json)
    except _GracefulSignal as sig:
        if service is None:
            return EXIT_DEGRADED
        return _drain_on_signal(service, sig, args.json)
    finally:
        for signum, handler in previous_handlers.items():
            signal_mod.signal(signum, handler)
    healthy = report.completed > 0 and report.silent_drops == 0
    stats = health["stats"]
    robustness = {
        "sheds": stats["rejected"],
        "breaker_trips": sum(b["trips"] for b in stats["breakers"]),
        "breaker_recoveries": sum(b["recoveries"] for b in stats["breakers"]),
        "reroutes": stats["reroutes"],
        "deadline_misses": stats["deadline_misses"],
        "failed_requests": stats["failed"],
    }
    if args.json:
        print(json.dumps({
            "health": health,
            "load": report.to_dict(),
            "robustness": robustness,
            "healthy": healthy,
        }, sort_keys=True))
    else:
        print(f"served {args.model} for {report.duration_s:.1f}s at "
              f"{args.rps:g} rps ({args.clients} client(s)); "
              f"engine cache hits: {service.pool.engine_hits or 'n/a'}")
        print(f"  completed {report.completed}/{report.offered}, "
              f"shed {report.total_rejected}, failed {report.failed}, "
              f"silent drops {report.silent_drops}")
        print(f"  latency ms: p50 {report.latency_ms(50):.2f} "
              f"p99 {report.latency_ms(99):.2f}")
        widths = " ".join(
            f"{width}x{runs}" for width, runs in stats["runs_by_width"].items())
        print(f"  batches by width {widths or 'none'}, "
              f"padded rows {stats['padded_rows']}")
        print(f"  robustness: {sum(robustness['sheds'].values())} shed, "
              f"{robustness['breaker_trips']} breaker trip(s), "
              f"{robustness['breaker_recoveries']} recover(ies), "
              f"{robustness['reroutes']} rerouted batch(es), "
              f"{robustness['deadline_misses']} deadline miss(es), "
              f"{robustness['failed_requests']} failed request(s)")
        for reason, count in sorted(robustness["sheds"].items()):
            print(f"    shed[{reason}] x{count}")
        print(f"health: {health['status']}")
    return 0 if healthy else EXIT_DEGRADED


def _cmd_serve_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.errors import OrpheusError
    from repro.serve.chaos import format_chaos_bench, run_chaos_bench

    try:
        document = run_chaos_bench(
            model=args.model, workers=args.workers, kill=args.kill,
            batch=args.batch, image_size=args.image_size,
            duration_s=args.duration, clients=args.clients,
            deadline_ms=args.deadline_ms, rps=args.rps,
            engine_cache=args.engine_cache, seed=args.seed,
            recovery_window_s=args.recovery_window_s,
            progress=None if args.json else lambda m: print(f"  .. {m}"))
    except (OrpheusError, ValueError) as exc:
        return _serve_error(exc, args.json)
    if args.json:
        print(json.dumps(document, sort_keys=True))
    else:
        print(format_chaos_bench(document))
    if args.save:
        _write_json(args.save, document)
        if not args.json:
            print(f"wrote {args.save}")
    return 0 if document["passed"] else EXIT_DEGRADED


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.experiment == "table1":
        from repro.bench.table1 import render_table1
        print(render_table1(with_rationale=args.rationale))
        return 0
    if args.experiment == "layers":
        from repro.bench.layerwise import race_conv_impls
        print(race_conv_impls(repeats=args.repeats).table())
        return 0
    if args.experiment == "sweep":
        from repro.bench.sweeps import batch_sweep, resolution_sweep
        journal = _open_journal(args)
        if args.parameter == "batch":
            result = batch_sweep(
                args.model, batches=tuple(args.values or (1, 2, 4, 8)),
                backend=args.backend,
                repeats=args.repeats, retries=args.retries,
                journal=journal, engine_cache=args.engine_cache)
        else:
            if not args.values:
                raise SystemExit(
                    "--parameter resolution requires --values SIZE...")
            result = resolution_sweep(
                args.model, image_sizes=tuple(args.values),
                backend=args.backend,
                repeats=args.repeats, retries=args.retries,
                journal=journal, engine_cache=args.engine_cache)
        print(result.table())
        if journal is not None:
            print(f"journal: resumed {result.resumed} cell(s), "
                  f"{len(journal)} total recorded at {journal.path}")
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as handle:
                handle.write(result.csv() + "\n")
            print(f"wrote {args.csv}")
        return 0 if result.complete else 1
    if args.experiment == "quant":
        from repro.bench.quant import (
            STEADY_STATE_CONFIGS,
            format_quant_bench,
            measure_quant_crossover,
        )
        configs = None
        if args.models:
            wanted = set(args.models)
            configs = tuple(entry for entry in STEADY_STATE_CONFIGS
                            if entry[0] in wanted)
            missing = wanted - {model for model, _ in configs}
            if missing:
                raise SystemExit(
                    f"unknown quant-bench models: {', '.join(sorted(missing))}")
        document = measure_quant_crossover(
            configs=configs,
            scenarios=(() if args.no_scenarios else None),
            repeats=args.repeats)
        print(format_quant_bench(document))
        if args.save:
            _write_json(args.save, document)
            print(f"wrote {args.save}")
        return 0
    from repro.bench.figure2 import run_figure2
    from repro.frameworks.adapters import EVALUATION_ORDER
    from repro.models.zoo import FIGURE2_MODELS
    journal = _open_journal(args)
    result = run_figure2(
        models=tuple(args.models or FIGURE2_MODELS),
        frameworks=tuple(args.frameworks or EVALUATION_ORDER),
        repeats=args.repeats,
        image_size=args.image_size,
        verbose=True,
        retries=args.retries,
        journal=journal,
        engine_cache=args.engine_cache,
    )
    print()
    print(result.chart() if args.chart else result.table())
    print("\n" + result.claims_table())
    print(f"\nrobustness: {len(result.measurements)} cell(s) measured, "
          f"{len(result.exclusions)} excluded, "
          f"{len(result.failures)} failed")
    if journal is not None:
        print(f"journal: resumed {result.resumed} cell(s), "
              f"{len(journal)} total recorded at {journal.path}")
    for failure in result.failures:
        print(f"  {failure}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(result.csv() + "\n")
        print(f"\nwrote {args.csv}")
    return 0


_COMMANDS = {
    "models": _cmd_models,
    "backends": _cmd_backends,
    "inspect": _cmd_inspect,
    "run": _cmd_run,
    "profile": _cmd_profile,
    "convert": _cmd_convert,
    "compile": _cmd_compile,
    "engine-info": _cmd_engine_info,
    "lint": _cmd_lint,
    "verify": _cmd_verify,
    "compare": _cmd_compare,
    "conformance": _cmd_conformance,
    "quantize": _cmd_quantize,
    "analyze": _cmd_analyze,
    "serve": _cmd_serve,
    "serve-chaos": _cmd_serve_chaos,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
