"""Simulated Modin engines (Dask and Ray executors).

Modin keeps the Pandas data format but partitions the dataframe (by rows,
columns or blocks) and dispatches partition-level tasks to an execution
engine: Dask (centralized scheduler) or Ray (distributed bottom-up
scheduler).  Its 15 core operators cover ~90 % of the Pandas API; anything
else triggers the *default-to-Pandas* mode — the whole frame is converted back
to a single Pandas partition, processed single-threaded, and re-partitioned,
which the paper identifies as Modin's main weakness.

The physical execution below really partitions the substrate frame for
row-parallel preparators (the partition count follows the machine's Ray/Dask
worker configuration) and falls back to whole-frame execution — with the cost
penalty of the Pandas round trip — for preparators outside the core-operator
set.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..core.compat import Compatibility
from ..core.preparators import Preparator, PreparatorResult
from ..frame.frame import DataFrame, concat_rows
from .base import BaseEngine

__all__ = ["ModinDaskEngine", "ModinRayEngine"]

#: Preparators that are embarrassingly row-parallel and therefore executed
#: per-partition (same result, genuinely partitioned code path).  ``norm`` is
#: excluded: its min-max/z-score statistics are global, so a per-partition
#: pass would change results (real Modin computes them frame-wide too).
_ROW_PARALLEL = {"fillna", "calccol", "setcase", "replace", "edit", "isna", "query"}

#: Cost penalty of the default-to-Pandas round trip (partition merge, single
#: threaded execution, re-partitioning).
_DEFAULT_TO_PANDAS_PENALTY = 4.0


def partition_bounds(rows: int, parts: int) -> list[tuple[int, int]]:
    """Balanced ``[start, stop)`` row ranges: ``min(rows, parts)`` non-empty
    pieces whose sizes differ by at most one row."""
    bounds = [rows * i // parts for i in range(parts + 1)]
    return [(start, stop) for start, stop in zip(bounds, bounds[1:]) if stop > start]


class _ModinEngine(BaseEngine):
    """Shared behaviour of the two Modin executors."""

    def _partition_count(self) -> int:
        return max(2, self.machine.ray_workers if self.profile_name == "modin_ray"
                   else self.machine.dask_workers)

    def _execute_preparator(self, preparator: Preparator, frame: DataFrame,
                            params: Mapping[str, Any]) -> PreparatorResult:
        if preparator.name in _ROW_PARALLEL and frame.num_rows >= 4:
            return self._execute_partitioned(preparator, frame, params)
        return preparator.apply(frame, params)

    def _preparator_path_tag(self, preparator: Preparator, frame: DataFrame) -> str:
        if preparator.name in _ROW_PARALLEL and frame.num_rows >= 4:
            pieces = len(partition_bounds(frame.num_rows, self._partition_count()))
            return f"part{pieces}"
        return super()._preparator_path_tag(preparator, frame)

    def _execute_partitioned(self, preparator: Preparator, frame: DataFrame,
                             params: Mapping[str, Any]) -> PreparatorResult:
        pieces: list[DataFrame] = []
        chained = True
        for start, stop in partition_bounds(frame.num_rows, self._partition_count()):
            chunk = frame.slice(start, stop - start)
            result = preparator.apply(chunk, params)
            chained = result.chained
            pieces.append(result.frame if result.chained else chunk)
        if not chained:
            # Inspection preparators: run once more on the whole frame to get
            # the side output (cheap on the physical sample).
            return preparator.apply(frame, params)
        return PreparatorResult(concat_rows(pieces))

    def _fallback_penalty(self, preparator: Preparator) -> float:
        # Missing API entries trigger Modin's default-to-Pandas mode.
        return _DEFAULT_TO_PANDAS_PENALTY

    def compatibility_for(self, preparator: str) -> Compatibility:
        return super().compatibility_for(preparator)


class ModinDaskEngine(_ModinEngine):
    """Modin running on the Dask executor (centralized scheduler)."""

    profile_name = "modin_dask"


class ModinRayEngine(_ModinEngine):
    """Modin running on the Ray executor (distributed bottom-up scheduler)."""

    profile_name = "modin_ray"
