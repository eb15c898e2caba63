"""Every ``orpheus ...`` line the docs show must still parse.

Parsing only — nothing runs. This is what keeps README/EXPERIMENTS/docs
from citing a verb or flag the CLI no longer has.
"""

import argparse
import ast
import dataclasses
import inspect
import pathlib
import re
import shlex

from repro import cli
from repro.cli import _build_parser
from repro.config import RuntimeConfig

_ROOT = pathlib.Path(__file__).resolve().parents[2]
_DOCUMENTS = [_ROOT / "README.md", _ROOT / "EXPERIMENTS.md",
              *sorted((_ROOT / "docs").glob("*.md"))]


def _documented_commands(path):
    """(line number, argv) of each ``orpheus`` command in fenced blocks."""
    lines = path.read_text(encoding="utf-8").splitlines()
    fenced, index = False, 0
    while index < len(lines):
        line = lines[index].strip()
        index += 1
        if line.startswith("```"):
            fenced = not fenced
            continue
        line = line.removeprefix("$ ")
        if not fenced or not line.startswith("orpheus "):
            continue
        number = index
        while line.endswith("\\"):
            line = line[:-1] + " " + lines[index].strip()
            index += 1
        yield number, shlex.split(line, comments=True)[1:]


def _subverbs(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from _parsers(child)


def test_every_registered_option_is_read():
    """A flag argparse accepts and no handler reads changes no run."""
    source = inspect.getsource(cli)
    dests = {action.dest for parser in _parsers(_build_parser())
             for action in parser._actions
             if not isinstance(action, (argparse._HelpAction,
                                        argparse._VersionAction))}
    assert len(dests) > 40          # the walk itself still works
    dropped = sorted(dest for dest in dests
                     if not re.search(rf"\bargs\.{dest}\b", source))
    assert not dropped, f"parsed and never read: {dropped}"


def _callers(tree, callee):
    """Names of the innermost functions of ``tree`` that call ``callee``."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Call) and callee in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            found.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return found


def test_one_lowering_and_every_config_field_is_read():
    """Session construction is written once, and no config field is inert.

    The cold lowering (pass pipeline, auto-quantization) has exactly one
    caller under runtime/engine/serve — ``lower`` — so a warm start equals
    a cold one by construction; and every ``RuntimeConfig`` field is read
    off a config somewhere outside ``config.py``, or it cannot change a run.
    """
    source = _ROOT / "src" / "repro"
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(source.rglob("*.py"))}
    assert len(trees) > 100         # the walk itself still works

    for callee in ("default_pipeline", "auto_quantize"):
        callers = {f"{path.relative_to(source)}:{function}"
                   for path, tree in trees.items()
                   if path.parent.name in ("runtime", "engine", "serve")
                   for function in _callers(tree, callee)}
        assert callers == {"runtime/session.py:lower"}, callee

    read = {node.attr
            for path, tree in trees.items() if path.name != "config.py"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and "config" in (getattr(node.value, "id", None),
                             getattr(node.value, "attr", None))}
    inert = [field.name for field in dataclasses.fields(RuntimeConfig)
             if field.name not in read]
    assert not inert, f"RuntimeConfig fields nothing reads: {inert}"


def test_every_documented_command_parses(capsys):
    parser = _build_parser()
    commands = [(path, number, argv) for path in _DOCUMENTS
                for number, argv in _documented_commands(path)]
    assert len(commands) > 40       # the extraction itself still works
    rejected = []
    for path, number, argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            message = capsys.readouterr().err.strip().splitlines()[-1]
            rejected.append(f"{path.relative_to(_ROOT)}:{number}: "
                            f"orpheus {' '.join(argv)}\n    {message}")
    assert not rejected, "\n".join(rejected)


def test_verb_set_has_no_performance_fork():
    """perfbench is the ruler; the CLI keeps only the paper's experiments."""
    top = _subverbs(_build_parser())
    assert "serve-bench" not in top
    assert set(_subverbs(top["bench"])) == {
        "figure2", "table1", "layers", "sweep", "quant"}
