"""The paper's core contribution: the GHSOM model and detector."""

from repro.core.compiled import CompiledGhsom, compile_ghsom
from repro.core.config import GhsomConfig, SomTrainingConfig
from repro.core.detector import (
    ALARM_THRESHOLD,
    BaseAnomalyDetector,
    DetectionResult,
    GhsomDetector,
    alarm_decisions,
)
from repro.core.ensemble import EnsembleDetector
from repro.core.ghsom import Ghsom, GhsomNode, LeafAssignment
from repro.core.grid import MapGrid
from repro.core.growing_som import GrowingSom, GrowthEvent
from repro.core.kernels import FUSED_DISTANCE_RTOL, fused_available, host_engine
from repro.core.inspection import (
    component_plane,
    describe_tree,
    hit_map,
    render_grid,
    u_matrix,
    unit_summaries,
)
from repro.core.labeling import UNLABELED, LeafLabel, UnitLabeler
from repro.core.quantization import (
    average_sample_error,
    dataset_quantization_error,
    mean_quantization_error,
    topographic_error,
    unit_quantization_errors,
)
from repro.core.serialization import (
    load_detector,
    load_ghsom,
    save_detector,
    save_ghsom,
)
from repro.core.som import Som
from repro.core.thresholds import GlobalThreshold, PerUnitThreshold, make_threshold_strategy

__all__ = [
    "CompiledGhsom",
    "compile_ghsom",
    "GhsomConfig",
    "SomTrainingConfig",
    "ALARM_THRESHOLD",
    "alarm_decisions",
    "BaseAnomalyDetector",
    "DetectionResult",
    "GhsomDetector",
    "EnsembleDetector",
    "Ghsom",
    "GhsomNode",
    "LeafAssignment",
    "MapGrid",
    "GrowingSom",
    "GrowthEvent",
    "FUSED_DISTANCE_RTOL",
    "fused_available",
    "host_engine",
    "component_plane",
    "describe_tree",
    "hit_map",
    "render_grid",
    "u_matrix",
    "unit_summaries",
    "UNLABELED",
    "LeafLabel",
    "UnitLabeler",
    "average_sample_error",
    "dataset_quantization_error",
    "mean_quantization_error",
    "topographic_error",
    "unit_quantization_errors",
    "load_detector",
    "load_ghsom",
    "save_detector",
    "save_ghsom",
    "Som",
    "GlobalThreshold",
    "PerUnitThreshold",
    "make_threshold_strategy",
]
