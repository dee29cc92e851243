"""Bento core: the paper's evaluation framework.

Preparators (Table 3), pipelines declared in JSON, the three measurement modes
(function-core / pipeline-stage / pipeline-full), speedup and impact metrics,
and the Pandas-API compatibility matrix.
"""

from .compat import Compatibility, compatibility, compatibility_table, coverage_fraction
from .expr_spec import parse_expression
from .metrics import format_speedup, geometric_mean_speedup, impact_percentages, speedup
from .pipeline import Pipeline, PipelineStep
from .preparators import PREPARATOR_NAMES, PREPARATORS, Preparator, PreparatorResult, get_preparator
from .runner import MatrixRunner
from .stages import Stage

__all__ = [
    "Stage",
    "Preparator",
    "PreparatorResult",
    "PREPARATORS",
    "PREPARATOR_NAMES",
    "get_preparator",
    "Pipeline",
    "PipelineStep",
    "parse_expression",
    "MatrixRunner",
    "speedup",
    "impact_percentages",
    "geometric_mean_speedup",
    "format_speedup",
    "Compatibility",
    "compatibility",
    "compatibility_table",
    "coverage_fraction",
]
