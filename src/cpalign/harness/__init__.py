"""Multi-agent latency simulation harness."""

from .scenario import (
    AgentSpec,
    ObjectTrack,
    RenderConfig,
    Scenario,
    generate_scenario,
    ideal_motion_field,
    render_pointcloud,
    save_scenario,
)
from .codec import CodecConfig, encode_decode, transmit_tensors
from .detect import DetectionReport, detection_map, evaluate_detection
from .pipeline import (
    PipelineOptions,
    RunContext,
    RunReport,
    build_pipeline_weights,
    run_pipeline,
    sweep,
    write_sweep_csv,
)

__all__ = [
    "AgentSpec", "ObjectTrack", "RenderConfig", "Scenario",
    "generate_scenario", "ideal_motion_field",
    "render_pointcloud", "save_scenario",
    "CodecConfig", "encode_decode", "transmit_tensors",
    "DetectionReport", "detection_map", "evaluate_detection",
    "PipelineOptions", "RunContext", "RunReport", "build_pipeline_weights",
    "run_pipeline", "sweep", "write_sweep_csv",
]
