"""Online / streaming detection: sliding windows, drift detection, adaptive thresholds."""

from repro.streaming.alerts import AlertAggregator, Incident
from repro.streaming.window import EwmaEstimator, SlidingMatrixWindow, SlidingWindow
from repro.streaming.drift import DriftDetector, MeanShiftDetector
from repro.streaming.online_detector import OnlineDetector
from repro.streaming.pipeline import StreamingPipeline, WindowReport

__all__ = [
    "AlertAggregator",
    "Incident",
    "EwmaEstimator",
    "SlidingMatrixWindow",
    "SlidingWindow",
    "DriftDetector",
    "MeanShiftDetector",
    "OnlineDetector",
    "StreamingPipeline",
    "WindowReport",
]
