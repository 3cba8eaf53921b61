"""Experiment orchestration: per-table configs, runners, and reporting."""

from .config import EvalProtocol, MethodSpec, PretrainConfig
from .runner import (
    PretrainOutcome,
    finetune_grid,
    linear_eval_point,
    pretrain,
    untrained_outcome,
)
from .tables import format_table, render_grid_rows

__all__ = [
    "MethodSpec",
    "PretrainConfig",
    "EvalProtocol",
    "PretrainOutcome",
    "pretrain",
    "finetune_grid",
    "linear_eval_point",
    "untrained_outcome",
    "format_table",
    "render_grid_rows",
]
