"""Which ``src/repro`` functions do the repository's own entry points reach?

Runs, each in a fresh interpreter under a call profiler:

* every script in ``examples/``;
* ``perfbench/run.py --smoke`` (its round subprocesses too);
* every ``orpheus ...`` command the docs show — the set
  ``tests/integration/test_documented_commands.py`` parses — in document
  order, in one scratch working directory (with ``src`` linked in and an
  empty ``results/``), so a command that reads a file an earlier one wrote
  (``convert`` then ``run r18.onnx``) finds it.

then prints, per ``src/repro`` file, how many lines of ``def`` bodies no
run entered and which functions they belong to. A function reached only
from ``tests/`` is a deletion candidate that needs a reason to stay.

    python tests/tools/reachability.py

The profiler is ``sys.setprofile`` + ``threading.setprofile`` installed by
a generated ``sitecustomize`` placed first on ``PYTHONPATH``, so every
Python process the runs start — perfbench rounds, serve worker processes
— is traced as well. Each process appends a code object's
``(file, first line)`` the first time it is entered, so a process that is
killed still leaves what it reached. This file is not a test module:
pytest does not collect it, and it reads no clock (the per-command
timeout is the subprocess module's).

A run that times out, or exits other than expected (0, or 1 for the two
``verify`` commands on files that do not exist), stopped
before reaching everything it would have, so its reach is under-reported
— the direction that makes live code look deletable. Such runs are
listed above the table and the exit status is 1; the table is not
evidence for a deletion until a rerun leaves none.

Blind spots of a run that completes — each makes the report say
"reached" too often:

* class bodies (and module bodies) run at import and count as calls, so
  only ``def`` bodies are judged: a class nothing instantiates shows up
  only through its methods;
* applicability predicates run while fallback chains are built, so a
  kernel's predicate is reached even when its kernel never runs;
* registry enumeration: ``orpheus conformance`` runs its operator battery
  through every registered backend and ``bench layers`` races a list of
  Conv impls, so a kernel that only a single-algorithm backend selects
  counts as reached through those commands alone.
"""

from __future__ import annotations

import ast
import os
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src", "repro")

# Seconds before a run's process group is killed. The slowest runs
# (`bench figure2`, `perfbench/run.py --smoke`) take a few minutes on a
# 2-core host; a hung serve or chaos command must not stall the report.
TIMEOUT = 300.0

# Documented commands whose expected exit is not 0: these two show the
# verify syntax on files the docs never create.
_EXPECTED_EXIT = {
    ("verify", "model.onnx", "out.oeng"): 1,
    ("verify", "--strict", "out.oeng"): 1,
}

_SITECUSTOMIZE = '''\
import os
import sys
import threading

_OUT = {out!r}
_PREFIXES = {prefixes!r}
_seen = set()


def _profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    key = (code.co_filename, code.co_firstlineno)
    if key in _seen:
        return
    _seen.add(key)
    if key[0].startswith(_PREFIXES):
        with open(os.path.join(_OUT, f"{{os.getpid()}}.txt"), "a") as stream:
            stream.write(f"{{key[0]}}\\t{{key[1]}}\\n")


sys.setprofile(_profile)
threading.setprofile(_profile)
'''


def _runs() -> list[tuple[str, list[str], int]]:
    """``(label, argv, expected exit)`` of everything to trace, in order."""
    runs = [(os.path.relpath(path, ROOT), [sys.executable, path], 0)
            for path in sorted(
                os.path.join(ROOT, "examples", name)
                for name in os.listdir(os.path.join(ROOT, "examples"))
                if name.endswith(".py"))]
    runs.append(("perfbench/run.py --smoke", [
        sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--smoke"],
        0))
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from tests.integration.test_documented_commands import (
        _DOCUMENTS,
        _documented_commands,
    )
    for path in _DOCUMENTS:
        for number, argv in _documented_commands(path):
            label = (f"{os.path.relpath(path, ROOT)}:{number}: "
                     f"orpheus {' '.join(argv)}")
            runs.append((label, [sys.executable, "-m", "repro.cli", *argv],
                         _EXPECTED_EXIT.get(tuple(argv), 0)))
    return runs


def _run(argv: list[str], cwd: str, env: dict[str, str]) -> str:
    """Run one traced command; its process group is killed afterwards."""
    child = subprocess.Popen(argv, cwd=cwd, env=env,
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL,
                             start_new_session=True)
    try:
        status = f"exit {child.wait(timeout=TIMEOUT)}"
    except subprocess.TimeoutExpired:
        status = "timeout"
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    return status


def _reached(out_dir: str) -> set[tuple[str, int]]:
    reached = set()
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name), encoding="utf-8") as stream:
            for line in stream:
                filename, first = line.rstrip("\n").rsplit("\t", 1)
                reached.add((os.path.realpath(filename), int(first)))
    return reached


def _functions(path: str) -> list[tuple[str, int, int]]:
    """``(name, first line, own line count)`` of every ``def`` in ``path``.

    The first line is the first decorator's, as in ``co_firstlineno``; a
    line belongs to the innermost ``def`` around it, so nested functions
    are not counted twice.
    """
    with open(path, encoding="utf-8") as stream:
        tree = ast.parse(stream.read())
    spans = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                first = min([child.lineno] + [
                    decorator.lineno for decorator in child.decorator_list])
                spans.append((name, first, child.end_lineno))
                name += "."
            elif isinstance(child, ast.ClassDef):
                name = f"{prefix}{child.name}."
            visit(child, name)

    visit(tree, "")
    owner: dict[int, int] = {}
    for index, (_, first, last) in sorted(
            enumerate(spans), key=lambda item: item[1][2] - item[1][1],
            reverse=True):
        for line in range(first, last + 1):
            owner[line] = index      # shorter (inner) spans overwrite
    counts = [0] * len(spans)
    for index in owner.values():
        counts[index] += 1
    return [(name, first, counts[index])
            for index, (name, first, _) in enumerate(spans)]


def report(reached: set[tuple[str, int]]) -> dict[str, dict]:
    """Per source file: function lines, unreached lines, unreached names."""
    table = {}
    for folder, _, names in sorted(os.walk(SRC)):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            real = os.path.realpath(path)
            functions = _functions(path)
            missed = [(fn, first, lines) for fn, first, lines in functions
                      if (real, first) not in reached]
            table[os.path.relpath(path, os.path.dirname(SRC))] = {
                "lines": sum(lines for _, _, lines in functions),
                "unreached": sum(lines for _, _, lines in missed),
                "functions": [f"{fn}:{first}" for fn, first, _ in missed],
            }
    return table


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        hook_dir = os.path.join(scratch, "hook")
        out_dir = os.path.join(scratch, "calls")
        work_dir = os.path.join(scratch, "work")
        for directory in (hook_dir, out_dir, os.path.join(work_dir, "results")):
            os.makedirs(directory)
        # The docs' paths are relative to the repository root
        # (`orpheus lint src/repro`, `--journal results/...`); outputs land
        # in the scratch directory, never in the checkout.
        os.symlink(os.path.join(ROOT, "src"), os.path.join(work_dir, "src"))
        prefixes = tuple(sorted({SRC, os.path.realpath(SRC)}))
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w",
                  encoding="utf-8") as stream:
            stream.write(_SITECUSTOMIZE.format(out=out_dir,
                                               prefixes=prefixes))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [hook_dir, os.path.join(ROOT, "src"), ROOT]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        incomplete = []
        for label, command, expected in _runs():
            status = _run(command, work_dir, env)
            print(f"{status:8s} {label}", flush=True)
            if status != f"exit {expected}":
                incomplete.append(f"{status} (expected exit {expected}): "
                                  f"{label}")
        table = report(_reached(out_dir))

    if incomplete:
        print(f"\n{len(incomplete)} run(s) stopped early or failed; their "
              "reach is incomplete, so the table under-reports:")
        for line in incomplete:
            print(f"  {line}")
    total = sum(row["lines"] for row in table.values())
    missed = sum(row["unreached"] for row in table.values())
    print(f"\n{'unreached':>9s} {'of':>6s}  file")
    for path, row in table.items():
        if row["unreached"]:
            print(f"{row['unreached']:9d} {row['lines']:6d}  {path}")
            for name in row["functions"]:
                print(f"{'':17s}  - {name}")
    print(f"{missed:9d} {total:6d}  total function lines under src/repro")
    print("\nBlind spots (each over-reports reach): class and module bodies "
          "run at import and count as calls; applicability predicates run "
          "while fallback chains are built; registry enumeration "
          "(conformance runs every backend, bench layers races Conv impls) "
          "reaches kernels no default selection runs.")
    return 1 if incomplete else 0


if __name__ == "__main__":
    sys.exit(main())
