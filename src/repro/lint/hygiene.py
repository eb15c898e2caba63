"""Hygiene rules (ORL003–ORL008, ORL010): the invariants tests cannot see.

Each rule targets a failure mode the serving and runtime layers have
already been engineered around — the lint keeps regressions out:

* ORL003 — ``time.time()`` in timing paths. Deadlines, heartbeats, and
  EWMA windows must use the monotonic clock; NTP steps would otherwise
  expire every in-flight request (or none, forever).
* ORL004 — pickle imports. The frame protocol and engine container exist
  precisely so that nothing ever unpickles bytes from another process.
* ORL005 — bare ``except:``. Swallows ``KeyboardInterrupt`` and
  ``SystemExit``, which breaks the CLI's signal-drain contract.
* ORL006 — unseeded / process-global RNG. Determinism is part of the
  measurement protocol; every generator must be constructed with an
  explicit seed.
* ORL007 — unbounded ``recv``/``read`` in the serving layer. All wire
  input goes through :mod:`repro.serve.protocol`'s capped frame reads.
* ORL008 — mutable default arguments.
* ORL010 — ``time.perf_counter()`` outside the timing path. Samples come
  from ``runtime/`` (``InferenceSession.time``/``profile``,
  ``autotune.time_kernel``); a bench module, adapter, or test that reads
  the clock has grown its own timing loop or a wall-clock verdict.

Rule scoping (which rules apply to which directories) is the runner's
job; this module checks whatever set it is handed.
"""

from __future__ import annotations

import ast

from repro.lint.findings import Finding

#: ``random`` module-level functions that use the process-global RNG.
_GLOBAL_RANDOM_FNS = {
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "normalvariate", "paretovariate", "randbytes",
    "randint", "random", "randrange", "sample", "seed", "shuffle",
    "triangular", "uniform", "vonmisesvariate",
}

#: ``numpy.random`` attributes that are legitimate *constructors*; with a
#: seed argument they are the sanctioned way in. Everything else on the
#: module (``np.random.rand``, ``np.random.seed``, ...) drives the global
#: legacy RNG and is flagged unconditionally.
_NP_CONSTRUCTORS = {"default_rng", "Generator", "SeedSequence", "RandomState"}

#: Seedable constructors that are unseeded when called with no arguments.
_SEEDABLE_CTORS = {"Random", "SystemRandom", "default_rng", "SeedSequence",
                   "RandomState"}

_PICKLE_MODULES = {"pickle", "cPickle", "_pickle", "dill", "cloudpickle",
                   "shelve"}

_MEASUREMENT_CLOCKS = {"perf_counter", "perf_counter_ns"}
_ORL010_MESSAGE = ("measurement clock read outside the timing path; take "
                   "samples from InferenceSession.time/profile or "
                   "autotune.time_kernel")

_RECV_METHODS = {"recv", "recv_into", "recvfrom", "recvfrom_into", "recvmsg"}

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp)
_MUTABLE_CTORS = {"list", "dict", "set", "bytearray", "deque", "defaultdict",
                  "OrderedDict", "Counter"}


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` -> ``"a.b.c"``, for Name/Attribute chains only."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _HygieneVisitor(ast.NodeVisitor):
    def __init__(self, path: str, enabled: set[str]) -> None:
        self.path = path
        self.enabled = enabled
        self.findings: list[Finding] = []
        # Local names bound to modules of interest by this file's imports.
        self.time_modules: set[str] = set()
        self.time_funcs: set[str] = set()        # `from time import time [as x]`
        self.perf_funcs: set[str] = set()        # `from time import perf_counter`
        self.random_modules: set[str] = set()
        self.numpy_modules: set[str] = set()
        self.np_random_modules: set[str] = set()  # `import numpy.random as X`
        self.seedable_ctors: dict[str, str] = {}  # local name -> ctor name

    def _add(self, rule: str, line: int, message: str) -> None:
        if rule in self.enabled:
            self.findings.append(Finding(rule, self.path, line, message))

    # -- imports -----------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            root = alias.name.split(".")[0]
            if root in _PICKLE_MODULES:
                self._add("ORL004", node.lineno,
                          f"import of pickle-based module {alias.name!r}")
            if alias.name == "time":
                self.time_modules.add(local)
            if alias.name == "random":
                self.random_modules.add(local)
            if alias.name == "numpy":
                self.numpy_modules.add(local)
            if alias.name == "numpy.random":
                self.np_random_modules.add(alias.asname or "numpy")
                if alias.asname is None:
                    self.numpy_modules.add("numpy")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        root = module.split(".")[0]
        if root in _PICKLE_MODULES:
            self._add("ORL004", node.lineno,
                      f"import from pickle-based module {module!r}")
        for alias in node.names:
            local = alias.asname or alias.name
            if module == "time" and alias.name == "time":
                self.time_funcs.add(local)
            if module == "time" and alias.name in _MEASUREMENT_CLOCKS:
                self.perf_funcs.add(local)
            if module == "numpy" and alias.name == "random":
                self.np_random_modules.add(local)
            if (module in ("random", "numpy.random")
                    and alias.name in _SEEDABLE_CTORS):
                self.seedable_ctors[local] = alias.name
        self.generic_visit(node)

    # -- calls -------------------------------------------------------------------

    def _is_np_random(self, node: ast.expr) -> bool:
        """Is ``node`` an expression naming the numpy.random module?"""
        if isinstance(node, ast.Name):
            return node.id in self.np_random_modules
        return (isinstance(node, ast.Attribute)
                and node.attr == "random"
                and isinstance(node.value, ast.Name)
                and node.value.id in self.numpy_modules)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        has_args = bool(node.args or node.keywords)

        if isinstance(func, ast.Attribute):
            owner = func.value
            # ORL003: time.time()
            if (func.attr == "time" and isinstance(owner, ast.Name)
                    and owner.id in self.time_modules):
                self._add("ORL003", node.lineno,
                          "time.time() is a wall clock; deadlines and "
                          "heartbeats must use time.monotonic()")
            # ORL010: time.perf_counter() / perf_counter_ns()
            if (func.attr in _MEASUREMENT_CLOCKS
                    and isinstance(owner, ast.Name)
                    and owner.id in self.time_modules):
                self._add("ORL010", node.lineno, _ORL010_MESSAGE)
            # ORL006: process-global random.* functions
            if (isinstance(owner, ast.Name)
                    and owner.id in self.random_modules
                    and func.attr in _GLOBAL_RANDOM_FNS):
                self._add("ORL006", node.lineno,
                          f"random.{func.attr}() uses the process-global "
                          f"RNG; construct a seeded random.Random instead")
            # ORL006: numpy.random.* — global legacy fns always, seedable
            # constructors only when called with no seed.
            if self._is_np_random(owner):
                if func.attr not in _NP_CONSTRUCTORS:
                    self._add("ORL006", node.lineno,
                              f"np.random.{func.attr}() drives the global "
                              f"legacy RNG; use a seeded default_rng()")
                elif func.attr in _SEEDABLE_CTORS and not has_args:
                    self._add("ORL006", node.lineno,
                              f"np.random.{func.attr}() without a seed is "
                              f"entropy-seeded; pass an explicit seed")
            # ORL006: random.Random() with no seed
            if (isinstance(owner, ast.Name)
                    and owner.id in self.random_modules
                    and func.attr in _SEEDABLE_CTORS and not has_args):
                self._add("ORL006", node.lineno,
                          f"random.{func.attr}() without a seed is "
                          f"entropy-seeded; pass an explicit seed")
            # ORL007: unbounded reads in the serving layer
            if func.attr in _RECV_METHODS:
                self._add("ORL007", node.lineno,
                          f".{func.attr}() in the serving layer; all wire "
                          f"input must go through the frame protocol's "
                          f"capped reads")
            elif func.attr == "read" and not has_args:
                self._add("ORL007", node.lineno,
                          ".read() with no byte bound reads until EOF; pass "
                          "an explicit size")

        elif isinstance(func, ast.Name):
            # ORL003: `from time import time` then time()
            if func.id in self.time_funcs:
                self._add("ORL003", node.lineno,
                          "time() (imported from time) is a wall clock; use "
                          "time.monotonic()")
            # ORL010: `from time import perf_counter` then perf_counter()
            if func.id in self.perf_funcs:
                self._add("ORL010", node.lineno, _ORL010_MESSAGE)
            # ORL006: directly-imported seedable constructors, unseeded
            if func.id in self.seedable_ctors and not has_args:
                ctor = self.seedable_ctors[func.id]
                self._add("ORL006", node.lineno,
                          f"{ctor}() without a seed is entropy-seeded; pass "
                          f"an explicit seed")

        self.generic_visit(node)

    # -- statements --------------------------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._add("ORL005", node.lineno,
                      "bare 'except:' also catches KeyboardInterrupt and "
                      "SystemExit; name the exception type")
        self.generic_visit(node)

    def _check_defaults(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
    ) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(default, _MUTABLE_LITERALS) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CTORS)
            if mutable:
                self._add("ORL008", default.lineno,
                          "mutable default argument is evaluated once and "
                          "shared across calls; default to None")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)


def check_hygiene(
    tree: ast.Module, path: str, enabled: set[str],
) -> list[Finding]:
    """Run the enabled hygiene rules over ``tree``."""
    visitor = _HygieneVisitor(path, enabled)
    visitor.visit(tree)
    return visitor.findings
