"""The rule catalog: one id per invariant, shared by lint and verify.

Source-lint rules are ``ORL``-prefixed, artifact-verifier rules are
``ORV``-prefixed. Every finding names exactly one rule id, which is also
the token a suppression comment uses (``# lint: disable=ORL003``) — so
the catalog doubles as the suppression vocabulary.
"""

from __future__ import annotations

import dataclasses

ERROR = "error"
WARNING = "warning"


@dataclasses.dataclass(frozen=True)
class Rule:
    """One checkable invariant."""

    id: str
    name: str
    severity: str
    description: str


_CATALOG = (
    # -- source lint: parsing & suppressions -----------------------------------
    Rule("ORL000", "syntax-error", ERROR,
         "file does not parse; nothing else can be checked"),
    Rule("ORL009", "unknown-suppression", WARNING,
         "a '# lint: disable=' comment names a rule id not in the catalog"),
    # -- source lint: concurrency ----------------------------------------------
    Rule("ORL001", "guarded-attr-unlocked", ERROR,
         "attribute declared '# guarded-by: <lock>' is read or written "
         "outside a 'with self.<lock>:' block"),
    Rule("ORL002", "unknown-guard-lock", ERROR,
         "a '# guarded-by:' annotation names a lock attribute the class "
         "never assigns"),
    # -- source lint: hygiene --------------------------------------------------
    Rule("ORL003", "wall-clock-in-timing-path", ERROR,
         "time.time() in a deadline/heartbeat path; wall clocks step — "
         "use time.monotonic() or time.perf_counter()"),
    Rule("ORL004", "pickle-import", ERROR,
         "pickle (or a pickle-based serializer) imported in library code; "
         "the frame protocol and engine format exist so nothing is ever "
         "unpickled from an untrusted peer"),
    Rule("ORL005", "bare-except", ERROR,
         "bare 'except:' swallows KeyboardInterrupt/SystemExit; catch a "
         "concrete exception type (or Exception, with a reason)"),
    Rule("ORL006", "unseeded-rng", ERROR,
         "unseeded or process-global RNG in library code; determinism is "
         "part of the measurement contract — construct a seeded "
         "Generator/Random instead"),
    Rule("ORL007", "unbounded-read", ERROR,
         "raw .recv()/.read() without a byte bound in the serving layer; "
         "go through repro.serve.protocol's capped frame reads"),
    Rule("ORL008", "mutable-default-arg", ERROR,
         "mutable default argument (list/dict/set) is shared across calls"),
    Rule("ORL010", "measurement-clock-outside-timing-path", ERROR,
         "time.perf_counter() in bench/, frameworks/ or tests/; samples "
         "come from InferenceSession.time/profile or autotune.time_kernel, "
         "never from a second timing loop or a wall-clock verdict"),
    # -- artifact verifier -----------------------------------------------------
    Rule("ORV100", "unreadable-artifact", ERROR,
         "the artifact cannot be parsed at all (truncation, corruption, "
         "bad magic/checksum)"),
    Rule("ORV101", "dangling-input", ERROR,
         "a node reads a value no node, graph input, or initializer "
         "produces"),
    Rule("ORV102", "unproduced-output", ERROR,
         "a declared graph output is never produced"),
    Rule("ORV103", "duplicate-producer", ERROR,
         "two nodes produce the same value name (SSA violation)"),
    Rule("ORV104", "type-inference-mismatch", ERROR,
         "recorded value shapes/dtypes disagree with shape inference run "
         "fresh over the graph"),
    Rule("ORV107", "fallback-chain-incomplete", ERROR,
         "a node has no kernel chain, an empty chain, or a chain that "
         "does not start with the recorded winner"),
    Rule("ORV108", "plan-graph-mismatch", ERROR,
         "schedule/kernel plan does not cover exactly the graph's nodes"),
    Rule("ORV110", "fingerprint-stale", WARNING,
         "the engine was built by a different host/runtime than the one "
         "verifying it; loads here will fall back to cold prepare"),
    Rule("ORV111", "graph-cycle", ERROR,
         "the node dependency relation contains a cycle; no schedule "
         "exists"),
    Rule("ORV112", "schedule-order-violation", ERROR,
         "the frozen schedule runs a node before one of its producers"),
    Rule("ORV113", "no-reference-fallback", WARNING,
         "a node's kernel chain does not bottom out at the canonical "
         "'reference' implementation; fallback insurance is thinner than "
         "it could be"),
    Rule("ORV114", "bad-quant-params", ERROR,
         "a quantized node carries an invalid scale (non-positive, NaN, "
         "or infinite) or a zero point outside its dtype's range; "
         "requantization through it would produce garbage"),
    Rule("ORV115", "quantization-header-mismatch", ERROR,
         "the engine's quantization header disagrees with the graph it "
         "ships (QLinearConv nodes present without a report, or a report "
         "whose counts do not match the graph)"),
)

RULES: dict[str, Rule] = {rule.id: rule for rule in _CATALOG}

