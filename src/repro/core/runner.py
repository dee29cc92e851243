"""Bento's execution runner: the paper's three measurement modes.

Section 3 defines how every number in the evaluation is produced:

* **function-core** — each preparator is executed (and timed) alone; lazy
  engines are forced to materialize after every call;
* **pipeline-stage** — each of the four stages (I/O, EDA, DT, DC) is executed
  as a unit, so lazy engines may optimize within a stage;
* **pipeline-full** — the entire pipeline runs end to end, with or without
  lazy evaluation (the Figure 5 comparison).

Every measurement is repeated ``runs`` times and averaged with the 20th-80th
percentile trimming protocol; failures raised by the memory model are recorded
as OOM outcomes (the ✕ entries of Table 5 and the OOM markers of Figure 6).

:class:`MatrixRunner` is the canonical implementation: every mode emits
unified :class:`~repro.results.Measurement` records, which the
:class:`~repro.session.Session` facade collects into
:class:`~repro.results.ResultSet` objects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from ..frame.frame import DataFrame
from ..results import Measurement
from ..simulate.clock import RunReport, trimmed_mean
from ..simulate.memory import SimulatedOOMError
from .pipeline import Pipeline, PipelineStep
from .stages import Stage

if TYPE_CHECKING:  # imported only for type checking to avoid a circular import
    from ..engines.base import BaseEngine, SimulationContext

__all__ = ["MatrixRunner"]


class MatrixRunner:
    """Runs pipelines on engines under the three measurement modes.

    Every ``measure_*`` method returns unified
    :class:`~repro.results.Measurement` records carrying the full matrix
    coordinates (engine, dataset, pipeline, mode, stage, step, machine).
    """

    def __init__(self, runs: int = 3):
        if runs < 1:
            raise ValueError("runs must be at least 1")
        self.runs = runs

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _average(self, per_run: Sequence[float]) -> float:
        return trimmed_mean(per_run)

    @staticmethod
    def _is_io_step(step: PipelineStep) -> bool:
        return step.preparator in ("read", "write")

    def _run_io_step(self, engine: BaseEngine, frame: DataFrame, step: PipelineStep,
                     sim: SimulationContext, run_index: int,
                     streaming: bool = False) -> tuple[DataFrame, float]:
        file_format = str(step.params.get("format", "csv"))
        if step.preparator == "read":
            loaded, record = engine.read_dataset(frame, sim, file_format=file_format,
                                                 run_index=run_index, streaming=streaming)
            return loaded, record.seconds
        record = engine.write_dataset(frame, sim, file_format=file_format,
                                      run_index=run_index, streaming=streaming)
        return frame, record.seconds

    def _base_measurement(self, engine: BaseEngine, sim: SimulationContext,
                          pipeline: Pipeline, mode: str, **extra) -> Measurement:
        return Measurement(engine=engine.name, dataset=sim.dataset_name,
                           pipeline=pipeline.name, mode=mode,
                           machine=sim.machine.name, **extra)

    # ------------------------------------------------------------------ #
    # function-core mode
    # ------------------------------------------------------------------ #
    def measure_function_core(self, engine: BaseEngine, frame: DataFrame,
                              pipeline: Pipeline, sim: SimulationContext
                              ) -> list[Measurement]:
        """Execute and price every preparator call in isolation.

        One measurement per pipeline position; a single failed measurement
        when the memory model kills the run.
        """
        try:
            per_call: dict[int, list[float]] = {}
            for run_index in range(self.runs):
                current = frame
                for position, step in enumerate(pipeline.steps):
                    if self._is_io_step(step):
                        current, seconds = self._run_io_step(engine, current, step, sim, run_index)
                    else:
                        outcome, record = engine.execute_step(current, step, sim,
                                                              run_index=run_index,
                                                              pipeline_scope=False)
                        seconds = record.seconds
                        if outcome.chained:
                            current = outcome.frame
                    per_call.setdefault(position, []).append(seconds)
        except SimulatedOOMError as oom:
            return [self._base_measurement(engine, sim, pipeline, "core",
                                           failed=True, failure_reason=str(oom))]
        return [self._base_measurement(engine, sim, pipeline, "core",
                                       stage=step.stage.value, step=step.preparator,
                                       step_index=position,
                                       seconds=self._average(per_call[position]))
                for position, step in enumerate(pipeline.steps)]

    # ------------------------------------------------------------------ #
    # pipeline-stage mode
    # ------------------------------------------------------------------ #
    def measure_stage(self, engine: BaseEngine, frame: DataFrame, pipeline: Pipeline,
                      stage: "Stage | str", sim: SimulationContext,
                      lazy: bool | None = None,
                      streaming: bool | None = None) -> Measurement:
        """Execute one stage of the pipeline as a unit.

        The whole pipeline runs in order (later steps may depend on columns
        produced by earlier ones), but only the steps belonging to the target
        stage contribute to the reported time.  Lazy engines may defer within
        each contiguous block of target-stage steps — the stage-granularity
        optimization of Figure 1.  ``streaming=True`` runs the target blocks
        through the morsel-driven executor on streaming-capable engines.
        """
        stage = Stage.parse(stage)
        use_lazy = engine.effective_lazy(lazy)
        use_streaming = engine.effective_streaming(streaming)
        measurement = self._base_measurement(engine, sim, pipeline, "stage",
                                             stage=stage.value, lazy=use_lazy,
                                             streaming=use_streaming)
        if not pipeline.steps_for_stage(stage):
            return measurement
        try:
            per_run: list[float] = []
            spilled = False
            for run_index in range(self.runs):
                current = frame
                total = 0.0
                for in_stage, block in self._stage_blocks(pipeline, stage):
                    io_steps = [s for s in block if self._is_io_step(s)]
                    other = [s for s in block if not self._is_io_step(s)]
                    for step in io_steps:
                        current, seconds = self._run_io_step(
                            engine, current, step, sim, run_index,
                            streaming=use_streaming if in_stage else False)
                        if in_stage:
                            total += seconds
                    if not other:
                        continue
                    report = RunReport(engine=engine.name,
                                       label=f"{pipeline.name}:{stage.value}")
                    current, report = engine.execute_steps(
                        current, other, sim, lazy=use_lazy if in_stage else False,
                        run_index=run_index, report=report, pipeline_scope=False,
                        streaming=use_streaming if in_stage else False)
                    if in_stage:
                        total += report.total_seconds
                        spilled = spilled or any(r.spilled for r in report.records)
                per_run.append(total)
            measurement.seconds = self._average(per_run)
            measurement.spilled = spilled
        except SimulatedOOMError as oom:
            measurement.failed = True
            measurement.failure_reason = str(oom)
        return measurement

    @staticmethod
    def _stage_blocks(pipeline: Pipeline, stage: Stage) -> list[tuple[bool, list[PipelineStep]]]:
        """Split the pipeline into contiguous blocks in/out of the target stage."""
        blocks: list[tuple[bool, list[PipelineStep]]] = []
        for step in pipeline.steps:
            in_stage = step.stage is stage
            if blocks and blocks[-1][0] == in_stage:
                blocks[-1][1].append(step)
            else:
                blocks.append((in_stage, [step]))
        return blocks

    def measure_stages(self, engine: BaseEngine, frame: DataFrame, pipeline: Pipeline,
                       sim: SimulationContext, lazy: bool | None = None,
                       stages: "Iterable[Stage | str] | None" = None,
                       streaming: bool | None = None) -> list[Measurement]:
        """Stage measurements for the requested stages present in the pipeline."""
        wanted = [Stage.parse(s) for s in stages] if stages is not None else pipeline.stages()
        present = set(pipeline.stages())
        return [self.measure_stage(engine, frame, pipeline, stage, sim, lazy,
                                   streaming=streaming)
                for stage in wanted if stage in present]

    # ------------------------------------------------------------------ #
    # I/O read/write modes (the Figure 3 / Figure 4 matrix)
    # ------------------------------------------------------------------ #
    def measure_io(self, engine: BaseEngine, frame: DataFrame, sim: SimulationContext,
                   operation: str, file_format: str) -> Measurement:
        """Price reading or writing the dataset in one file format.

        ``operation`` is ``"read"`` or ``"write"``; formats the engine does
        not support are recorded as failed measurements (the ✕ entries of
        Figures 3 and 4), exactly like OOM outcomes.
        """
        from ..engines.base import EngineUnavailableError  # avoids an import cycle

        measurement = Measurement(engine=engine.name, dataset=sim.dataset_name,
                                  mode=operation, stage=Stage.IO.value,
                                  step=file_format, machine=sim.machine.name)
        try:
            per_run: list[float] = []
            for run_index in range(self.runs):
                if operation == "read":
                    _, record = engine.read_dataset(frame, sim, file_format=file_format,
                                                    run_index=run_index)
                else:
                    record = engine.write_dataset(frame, sim, file_format=file_format,
                                                  run_index=run_index)
                per_run.append(record.seconds)
            measurement.seconds = self._average(per_run)
        except EngineUnavailableError as err:
            measurement.failed = True
            measurement.failure_reason = f"unsupported: {err}"
        except SimulatedOOMError as oom:
            measurement.failed = True
            measurement.failure_reason = str(oom)
        return measurement

    # ------------------------------------------------------------------ #
    # pipeline-full mode
    # ------------------------------------------------------------------ #
    def measure_full(self, engine: BaseEngine, frame: DataFrame, pipeline: Pipeline,
                     sim: SimulationContext, lazy: bool | None = None,
                     streaming: bool | None = None) -> Measurement:
        """Execute the entire pipeline end to end.

        ``streaming=True`` selects the morsel-driven streaming executor on
        engines that support it (bit-identical results; the memory model
        prices bounded batch windows and records spill instead of OOM).
        """
        use_lazy = engine.effective_lazy(lazy)
        use_streaming = engine.effective_streaming(streaming)
        measurement = self._base_measurement(engine, sim, pipeline, "full",
                                             lazy=use_lazy, streaming=use_streaming)
        try:
            per_run: list[float] = []
            peak = 0
            spilled = False
            for run_index in range(self.runs):
                current = frame
                total = 0.0
                report = RunReport(engine=engine.name, label=pipeline.name)
                non_io: list[PipelineStep] = []
                for step in pipeline.steps:
                    if self._is_io_step(step):
                        # flush accumulated transformation steps first
                        if non_io:
                            current, report = engine.execute_steps(
                                current, non_io, sim, lazy=use_lazy, run_index=run_index,
                                report=report, pipeline_scope=True,
                                streaming=use_streaming)
                            non_io = []
                        current, seconds = self._run_io_step(engine, current, step, sim,
                                                             run_index,
                                                             streaming=use_streaming)
                        total += seconds
                    else:
                        non_io.append(step)
                if non_io:
                    current, report = engine.execute_steps(current, non_io, sim,
                                                           lazy=use_lazy, run_index=run_index,
                                                           report=report, pipeline_scope=True,
                                                           streaming=use_streaming)
                total += report.total_seconds
                peak = max(peak, report.peak_bytes)
                spilled = spilled or any(r.spilled for r in report.records)
                per_run.append(total)
            measurement.seconds = self._average(per_run)
            measurement.peak_bytes = peak
            measurement.spilled = spilled
        except SimulatedOOMError as oom:
            measurement.failed = True
            measurement.failure_reason = str(oom)
        return measurement
