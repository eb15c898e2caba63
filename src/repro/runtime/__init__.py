"""Runtime: session, executor, fault tolerance, memory planner, profiler."""

from repro.runtime.executor import (
    Executor,
    FallbackEvent,
    NodeTiming,
    PreparedNode,
    RobustnessReport,
)
from repro.runtime.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    parse_fault_plan,
)
from repro.runtime.memory_planner import MemoryPlan, plan_memory
from repro.runtime.profiler import LayerProfile, ProfileResult, collate
from repro.runtime.session import InferenceSession

__all__ = [
    "Executor",
    "FallbackEvent",
    "FaultPlan",
    "FaultSpec",
    "InferenceSession",
    "InjectedFault",
    "LayerProfile",
    "MemoryPlan",
    "NodeTiming",
    "PreparedNode",
    "ProfileResult",
    "RobustnessReport",
    "collate",
    "parse_fault_plan",
    "plan_memory",
]
