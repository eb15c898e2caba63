"""The source-lint driver: files in, :class:`Report` out.

Responsibilities that belong to neither analyzer:

* reading files and extracting comments (the annotation and suppression
  channels both live in comments, keyed by physical line);
* rule scoping by path — ORL003 (monotonic clocks) only applies under
  ``serve/``, ``runtime/``, ``engine/``; ORL007 (bounded reads) only
  under ``serve/``; ORL010 (no measurement clock) only under ``bench/``,
  ``frameworks/``, ``tests/``; everything else applies everywhere;
* suppression handling — ``# lint: disable=ORL003`` on the flagged line
  silences that rule there, and a disable naming an id that is not in
  the catalog is itself a finding (ORL009), so typos cannot silently
  turn a rule off.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize

from repro.lint.concurrency import check_concurrency
from repro.lint.findings import Finding, Report
from repro.lint.hygiene import check_hygiene
from repro.lint.rules import RULES

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+)")

#: All hygiene rule ids, with the directory scopes of the path-scoped ones.
_HYGIENE_RULES = {"ORL003", "ORL004", "ORL005", "ORL006", "ORL007", "ORL008",
                  "ORL010"}
_RULE_SCOPES: dict[str, tuple[str, ...]] = {
    "ORL003": ("/serve/", "/runtime/", "/engine/"),
    "ORL007": ("/serve/",),
    "ORL010": ("/bench/", "/frameworks/", "/tests/"),
}

_SKIP_DIRS = {"__pycache__", ".git", ".mypy_cache", ".ruff_cache", ".venv",
              "node_modules"}


def _norm(path: str) -> str:
    """Forward-slash path with a leading slash, for substring scoping."""
    return "/" + os.path.normpath(path).replace(os.sep, "/").lstrip("/")


def enabled_rules(path: str) -> set[str]:
    """The hygiene rules applicable to ``path`` (scoped rules filtered)."""
    norm = _norm(path)
    enabled = set(_HYGIENE_RULES)
    for rule, scopes in _RULE_SCOPES.items():
        if not any(scope in norm for scope in scopes):
            enabled.discard(rule)
    return enabled


def extract_comments(source: str) -> dict[int, str]:
    """Physical line number -> comment text, via the tokenizer.

    Tokenization failures (the file will not parse anyway) yield an empty
    map — the parser's own SyntaxError becomes the finding.
    """
    comments: dict[int, str] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                comments[tok.start[0]] = tok.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return {}
    return comments


def _suppressions(
    comments: dict[int, str], path: str,
) -> tuple[dict[int, set[str]], list[Finding]]:
    """Per-line suppressed rule ids, plus ORL009 findings for unknown ids."""
    table: dict[int, set[str]] = {}
    findings: list[Finding] = []
    for line, comment in comments.items():
        match = _SUPPRESS_RE.search(comment)
        if not match:
            continue
        ids = {token.strip() for token in match.group(1).split(",")
               if token.strip()}
        known = {rule for rule in ids if rule in RULES}
        for rule in sorted(ids - known):
            findings.append(Finding(
                "ORL009", path, line,
                f"suppression names unknown rule id {rule!r}; it silences "
                f"nothing"))
        if known:
            table.setdefault(line, set()).update(known)
    return table, findings


def lint_source(source: str, path: str) -> list[Finding]:
    """Lint one file's source text under its path's rule scope."""
    comments = extract_comments(source)
    suppressed, findings = _suppressions(comments, path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding("ORL000", path, exc.lineno or 1,
                        f"file does not parse: {exc.msg}")]
    findings.extend(check_concurrency(tree, path, comments))
    findings.extend(check_hygiene(tree, path, enabled_rules(path)))
    return [f for f in findings
            if f.rule not in suppressed.get(f.line, frozenset())]


def lint_file(path: str) -> list[Finding]:
    """Read and lint one file; unreadable files become ORL000 findings."""
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        return [Finding("ORL000", path, 1, f"cannot read file: {exc}")]
    return lint_source(source, path)


def _python_files(root: str) -> list[str]:
    files: list[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
        files.extend(os.path.join(dirpath, name)
                     for name in sorted(filenames) if name.endswith(".py"))
    return files


def lint_paths(paths: "list[str] | tuple[str, ...]") -> Report:
    """Lint every ``.py`` file under the given files/directories."""
    report = Report()
    for path in paths:
        if os.path.isdir(path):
            for file_path in _python_files(path):
                report.extend(lint_file(file_path))
        else:
            report.extend(lint_file(path))
    return report
