"""Fixture battery for the hygiene rules: each rule fires on a known
violation and stays quiet on the idiomatic clean counterpart."""

import textwrap

import pytest

from repro.lint.runner import lint_source

# Paths chosen so every scoped rule is active (ORL003 needs serve/runtime/
# engine, ORL007 needs serve, ORL010 needs bench/frameworks/tests).
SERVE_PATH = "src/repro/serve/fixture.py"
LIB_PATH = "src/repro/bench/fixture.py"


def rules_at(source: str, path: str = SERVE_PATH) -> list[str]:
    return [f.rule for f in lint_source(textwrap.dedent(source), path)]


# -- ORL003: wall clock in timing paths ----------------------------------------


def test_wall_clock_flagged_in_timing_scope():
    src = """
        import time

        def deadline(budget_s):
            return time.time() + budget_s
    """
    assert rules_at(src) == ["ORL003"]


def test_wall_clock_via_from_import_flagged():
    src = """
        from time import time

        def heartbeat():
            return time()
    """
    assert rules_at(src) == ["ORL003"]


def test_monotonic_clock_clean():
    src = """
        import time

        def deadline(budget_s):
            return time.monotonic() + budget_s
    """
    assert rules_at(src) == []


def test_wall_clock_outside_timing_scope_not_flagged():
    src = """
        import time

        def stamp():
            return time.time()
    """
    assert rules_at(src, LIB_PATH) == []


# -- ORL004: pickle imports ----------------------------------------------------


@pytest.mark.parametrize("stmt", [
    "import pickle",
    "import pickle as pkl",
    "from pickle import loads",
    "import cloudpickle",
    "import shelve",
])
def test_pickle_imports_flagged(stmt):
    assert rules_at(stmt + "\n", LIB_PATH) == ["ORL004"]


def test_json_import_clean():
    assert rules_at("import json\n", LIB_PATH) == []


# -- ORL005: bare except -------------------------------------------------------


def test_bare_except_flagged():
    src = """
        def load(path):
            try:
                return open(path)
            except:
                return None
    """
    assert "ORL005" in rules_at(src, LIB_PATH)


def test_typed_except_clean():
    src = """
        def load(path):
            try:
                return open(path)
            except OSError:
                return None
    """
    assert rules_at(src, LIB_PATH) == []


# -- ORL006: unseeded RNG ------------------------------------------------------


def test_global_random_functions_flagged():
    src = """
        import random

        def jitter():
            return random.random()
    """
    assert rules_at(src, LIB_PATH) == ["ORL006"]


def test_unseeded_random_instance_flagged():
    src = """
        import random

        def make_rng():
            return random.Random()
    """
    assert rules_at(src, LIB_PATH) == ["ORL006"]


def test_seeded_random_instance_clean():
    src = """
        import random

        def make_rng(seed):
            return random.Random(seed)
    """
    assert rules_at(src, LIB_PATH) == []


def test_numpy_global_rng_flagged():
    src = """
        import numpy as np

        def noise(n):
            return np.random.rand(n)
    """
    assert rules_at(src, LIB_PATH) == ["ORL006"]


def test_numpy_seed_call_flagged():
    src = """
        import numpy as np

        def reset():
            np.random.seed(0)
    """
    assert rules_at(src, LIB_PATH) == ["ORL006"]


def test_unseeded_default_rng_flagged():
    src = """
        import numpy as np

        def make_rng():
            return np.random.default_rng()
    """
    assert rules_at(src, LIB_PATH) == ["ORL006"]


def test_seeded_default_rng_clean():
    src = """
        import numpy as np

        def make_rng(seed):
            return np.random.default_rng(seed)
    """
    assert rules_at(src, LIB_PATH) == []


def test_directly_imported_default_rng_unseeded_flagged():
    src = """
        from numpy.random import default_rng

        def make_rng():
            return default_rng()
    """
    assert rules_at(src, LIB_PATH) == ["ORL006"]


# -- ORL007: unbounded reads in the serving layer ------------------------------


def test_recv_flagged_in_serve():
    src = """
        def pump(sock):
            return sock.recv(4096)
    """
    assert rules_at(src) == ["ORL007"]


def test_unbounded_read_flagged_in_serve():
    src = """
        def slurp(stream):
            return stream.read()
    """
    assert rules_at(src) == ["ORL007"]


def test_bounded_read_clean_in_serve():
    src = """
        def read_exact(stream, count):
            return stream.read(count)
    """
    assert rules_at(src) == []


def test_recv_outside_serve_not_flagged():
    src = """
        def pump(sock):
            return sock.recv(4096)
    """
    assert rules_at(src, LIB_PATH) == []


# -- ORL008: mutable default arguments -----------------------------------------


@pytest.mark.parametrize("default", ["[]", "{}", "set()", "list()", "dict()"])
def test_mutable_default_flagged(default):
    src = f"""
        def collect(items={default}):
            return items
    """
    assert rules_at(src, LIB_PATH) == ["ORL008"]


def test_none_default_clean():
    src = """
        def collect(items=None):
            return items or []
    """
    assert rules_at(src, LIB_PATH) == []


def test_mutable_kwonly_default_flagged():
    src = """
        def collect(*, items=[]):
            return items
    """
    assert rules_at(src, LIB_PATH) == ["ORL008"]


# -- ORL010: measurement clock outside the timing path --------------------------


@pytest.mark.parametrize("path", [
    LIB_PATH, "src/repro/frameworks/fixture.py", "tests/bench/test_fixture.py"])
def test_measurement_clock_flagged_outside_timing_path(path):
    src = """
        import time
        from time import perf_counter_ns as ticks

        def timed(fn):
            started = time.perf_counter()
            fn()
            return time.perf_counter() - started, ticks()
    """
    assert rules_at(src, path) == ["ORL010", "ORL010", "ORL010"]


def test_measurement_clock_clean_in_runtime_and_monotonic_everywhere():
    timed = """
        import time

        def timed(fn):
            started = time.perf_counter()
            fn()
            return time.perf_counter() - started
    """
    assert rules_at(timed, "src/repro/runtime/session.py") == []
    poll = """
        import time

        def wait_until(ready, timeout_s):
            give_up = time.monotonic() + timeout_s
            while not ready() and time.monotonic() < give_up:
                pass
    """
    assert rules_at(poll, "tests/serve/test_fixture.py") == []


def test_measurement_clock_suppressed_with_a_reason():
    src = """
        import time

        def stamp():
            # progress print, not a sample
            return time.perf_counter()  # lint: disable=ORL010
    """
    assert rules_at(src, LIB_PATH) == []


# -- ORL000: syntax errors -----------------------------------------------------


def test_syntax_error_reported_not_raised():
    findings = lint_source("def broken(:\n", LIB_PATH)
    assert [f.rule for f in findings] == ["ORL000"]
    assert findings[0].severity == "error"


# -- suppressions --------------------------------------------------------------


def test_suppression_silences_rule_on_its_line():
    src = """
        import time

        def deadline(budget_s):
            return time.time() + budget_s  # lint: disable=ORL003
    """
    assert rules_at(src) == []


def test_suppression_is_line_scoped():
    src = """
        import time

        def deadline(budget_s):
            a = time.time()  # lint: disable=ORL003
            b = time.time()
            return a + b + budget_s
    """
    assert rules_at(src) == ["ORL003"]


def test_suppression_of_other_rule_does_not_silence():
    src = """
        import time

        def deadline(budget_s):
            return time.time() + budget_s  # lint: disable=ORL004
    """
    assert rules_at(src) == ["ORL003"]


def test_unknown_suppression_id_is_a_finding():
    src = """
        def fine():
            return 1  # lint: disable=ORL999
    """
    findings = lint_source(textwrap.dedent(src), LIB_PATH)
    assert [f.rule for f in findings] == ["ORL009"]
    assert findings[0].severity == "warning"


def test_multiple_ids_in_one_suppression():
    src = """
        import time

        def deadline(budget_s, acc=[]):  # lint: disable=ORL008
            acc.append(time.time())  # lint: disable=ORL003
            return budget_s
    """
    assert rules_at(src) == []
