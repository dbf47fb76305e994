"""The Syzkaller-like fuzzing substrate: programs, generation, execution, campaigns."""

from .crash import CrashLog, CrashReport
from .executor import ExecutionResult, KernelExecutor
from .fuzzer import (
    FuzzCampaign,
    Fuzzer,
    average_coverage,
    average_crashes,
    merge_campaigns,
    run_campaign,
    run_repeated_campaigns,
    union_coverage,
)
from .generation import INTERESTING_VALUES, ProgramGenerator
from .program import BytesValue, Call, Program, ResourceValue, StructValue
from .vm import VMInstance, VMPool

__all__ = [
    "Program",
    "Call",
    "StructValue",
    "BytesValue",
    "ResourceValue",
    "ProgramGenerator",
    "INTERESTING_VALUES",
    "KernelExecutor",
    "ExecutionResult",
    "CrashReport",
    "CrashLog",
    "Fuzzer",
    "FuzzCampaign",
    "run_campaign",
    "run_repeated_campaigns",
    "merge_campaigns",
    "average_coverage",
    "average_crashes",
    "union_coverage",
    "VMInstance",
    "VMPool",
]
