"""KernelGPT's core: iterative analysis, generation, validation and repair."""

from .filtering import TargetSelection, described_interfaces, scan_missing_specs, select_target_handlers
from .generator import DiscoveredOp, GenerationResult, GenerationRun, KernelGPT
from .iterative import DEFAULT_MAX_ITERATIONS, IterationTrace, IterativeAnalyzer
from .repair import (
    REPAIR_MODES,
    REPAIR_ROUTE_TAG,
    RepairCommit,
    RepairItem,
    RepairTransaction,
)
from .session import GenerationSession, run_session

__all__ = [
    "KernelGPT",
    "GenerationResult",
    "GenerationRun",
    "GenerationSession",
    "run_session",
    "REPAIR_MODES",
    "REPAIR_ROUTE_TAG",
    "RepairTransaction",
    "RepairItem",
    "RepairCommit",
    "DiscoveredOp",
    "IterativeAnalyzer",
    "IterationTrace",
    "DEFAULT_MAX_ITERATIONS",
    "TargetSelection",
    "select_target_handlers",
    "scan_missing_specs",
    "described_interfaces",
]
