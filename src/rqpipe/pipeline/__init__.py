"""Experiment orchestration: codecs, configs, manifests, runner, reports."""

from .codecs import ExternalCodec, MockCodec, mock_encode_decode, quant_step
from .config import (
    DEFAULT_QP_PAIRS,
    HALF_RES_QP_OFFSET,
    ExperimentConfig,
    MethodConfig,
    PostprocConfig,
    QpPair,
    SequenceConfig,
    load_experiment,
)
from .manifest import JobRecord, RunManifest, sha256_file
from .report import ReportBundle, assemble_report, dump_patch
from .runner import run_experiment

__all__ = [
    "DEFAULT_QP_PAIRS",
    "HALF_RES_QP_OFFSET",
    "ExperimentConfig",
    "ExternalCodec",
    "JobRecord",
    "MethodConfig",
    "MockCodec",
    "PostprocConfig",
    "QpPair",
    "ReportBundle",
    "RunManifest",
    "SequenceConfig",
    "assemble_report",
    "dump_patch",
    "load_experiment",
    "mock_encode_decode",
    "quant_step",
    "run_experiment",
    "sha256_file",
]
