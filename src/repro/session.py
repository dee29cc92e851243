"""The ``Session`` facade: one entry point for the whole evaluation matrix.

A :class:`Session` owns lazily-built datasets, engines, simulation contexts
and a runner, and sweeps any slice of the paper's engine × dataset × pipeline
× mode × laziness matrix with one call::

    from repro import Session, ExperimentConfig

    session = Session(ExperimentConfig(scale=0.2, runs=2))
    results = session.run(mode="full", engines=["pandas", "polars"],
                          datasets=["taxi"], lazy="both")
    print(results.speedup_vs("pandas"))

Every measurement is emitted as a unified
:class:`~repro.results.Measurement` record collected into a
:class:`~repro.results.ResultSet`; the experiment drivers
(:mod:`repro.experiments`), the examples, the benchmarks and the
``python -m repro`` CLI are all built on top of this facade.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Mapping, Sequence

from .config import ExperimentConfig
from .core.pipeline import Pipeline
from .core.runner import MatrixRunner
from .core.stages import Stage
from .datasets.base import GeneratedDataset
from .datasets.pipelines import get_pipelines
from .datasets.registry import generate_dataset
from .engines.base import BaseEngine, EngineUnavailableError, SimulationContext
from .engines.registry import create_engine, create_engines
from .results import ResultSet
from .sweep import (
    Cell,
    PlannedCell,
    SweepScheduler,
    SweepStats,
    context_fingerprint,
    dataset_fingerprint,
    execute_cell,
    pipeline_fingerprint,
    resolve_cache,
)

__all__ = ["Session"]

#: Accepted spellings for the measurement modes.
_MODE_ALIASES = {
    "core": "core", "function-core": "core", "function_core": "core",
    "stage": "stage", "pipeline-stage": "stage", "pipeline_stage": "stage",
    "full": "full", "pipeline-full": "full", "pipeline_full": "full",
    "read": "read", "write": "write", "tpch": "tpch",
}

_IO_FORMATS = ("csv", "parquet")


class Session:
    """Datasets, engines, contexts and a runner behind one ``run()`` method.

    Everything is built lazily and cached: constructing a ``Session`` is free,
    and repeated ``run()`` calls share generated datasets, engine instances
    and simulation contexts.  Keyword overrides are applied on top of the
    configuration, so ``Session(scale=0.1, runs=1)`` is shorthand for
    ``Session(ExperimentConfig(scale=0.1, runs=1))``.

    ``datasets`` may inject pre-built :class:`GeneratedDataset` objects (e.g.
    the incremental samples of Figure 6 / Table 5); when given, the mapping
    fully defines the dataset axis of the matrix.

    A session is safe to share across threads: lazy construction of datasets,
    engines, contexts and the runner is serialized behind an internal lock,
    so a long-running server (:mod:`repro.service`) can plan and execute many
    concurrent jobs against one warm session — see :meth:`warm`.
    """

    def __init__(self, config: ExperimentConfig | None = None, *,
                 datasets: Mapping[str, GeneratedDataset] | None = None,
                 **overrides):
        config = config or ExperimentConfig()
        self.config = config.but(**overrides) if overrides else config
        self._injected_datasets = dict(datasets) if datasets else None
        self._datasets: dict[str, GeneratedDataset] = dict(self._injected_datasets or {})
        self._pipelines: dict[str, list[Pipeline]] = {}
        self._contexts: dict[tuple[str, str], SimulationContext] = {}
        self._engines: dict[str, BaseEngine] | None = None
        self._extra_engines: dict[str, BaseEngine] = {}
        self._runner: MatrixRunner | None = None
        self._tpch_data: dict[float, object] = {}
        #: Serializes lazy construction, so concurrent jobs can share a session.
        self._lock = threading.RLock()
        #: Statistics of the most recent scheduled sweep: cache hits, workers,
        #: the executed-vs-overhead wall-clock split (execute/serialize/setup
        #: seconds, batch count) and — for ``run(profile=True)`` — the
        #: per-cell timing records behind ``profile_table()``.
        self.last_sweep: SweepStats | None = None

    # ------------------------------------------------------------------ #
    # lazily-built components
    # ------------------------------------------------------------------ #
    @property
    def datasets(self) -> dict[str, GeneratedDataset]:
        """The dataset axis of the matrix (generated on first access)."""
        if self._injected_datasets is not None:
            return dict(self._injected_datasets)
        for name in self.config.datasets:
            self.dataset(name)
        return {name: self._datasets[name] for name in self.config.datasets}

    def dataset(self, name: str) -> GeneratedDataset:
        """One generated dataset by name (cached)."""
        with self._lock:
            if name not in self._datasets:
                self._datasets[name] = generate_dataset(name, scale=self.config.scale,
                                                        seed=self.config.seed)
            return self._datasets[name]

    @property
    def engines(self) -> dict[str, BaseEngine]:
        """The engine axis: configured engines available on the machine."""
        with self._lock:
            if self._engines is None:
                self._engines = create_engines(list(self.config.engines),
                                               machine=self.config.machine,
                                               skip_unavailable=True)
            return self._engines

    @property
    def engine_names(self) -> list[str]:
        return list(self.engines)

    @property
    def pipelines(self) -> dict[str, list[Pipeline]]:
        """Registered pipelines per configured dataset."""
        return {name: self.pipelines_for(name) for name in self.datasets}

    @property
    def matrix_runner(self) -> MatrixRunner:
        """The measurement core executing every cell of the matrix."""
        with self._lock:
            if self._runner is None:
                self._runner = MatrixRunner(runs=self.config.runs)
            return self._runner

    # ------------------------------------------------------------------ #
    # per-dataset helpers
    # ------------------------------------------------------------------ #
    def context_for(self, dataset: "str | GeneratedDataset",
                    backend: str | None = None) -> SimulationContext:
        """Simulation context for a dataset of the matrix (cached per name).

        ``backend`` prices the dataset on a specific column backend (defaults
        to the configured one); contexts are cached per (dataset, backend).
        """
        backend = self._resolve_backend(backend)
        if isinstance(dataset, GeneratedDataset):
            return dataset.simulation_context(self.config.machine,
                                              runs=self.config.runs, backend=backend)
        with self._lock:
            key = (dataset, backend)
            if key not in self._contexts:
                self._contexts[key] = self.dataset(dataset).simulation_context(
                    self.config.machine, runs=self.config.runs, backend=backend)
            return self._contexts[key]

    def _resolve_backend(self, backend: str | None) -> str:
        from .frame.backends import known_backends

        backend = backend if backend is not None else self.config.backend
        backend = backend or "object"
        known = known_backends()
        if backend not in known:
            raise ValueError(f"unknown column backend {backend!r}; "
                             f"registered: {known}")
        return backend

    def pipelines_for(self, dataset: str) -> list[Pipeline]:
        """Registered pipelines of a dataset (empty for ad-hoc datasets)."""
        with self._lock:
            if dataset not in self._pipelines:
                try:
                    self._pipelines[dataset] = get_pipelines(dataset)
                except KeyError:
                    self._pipelines[dataset] = []
            return self._pipelines[dataset]

    def baseline(self) -> BaseEngine:
        """The Pandas baseline engine (created on demand if not selected)."""
        return self._engine("pandas")

    def _engine(self, name: str) -> BaseEngine:
        with self._lock:
            if name in self.engines:
                return self.engines[name]
            if name not in self._extra_engines:
                self._extra_engines[name] = create_engine(name, self.config.machine)
            return self._extra_engines[name]

    def warm(self) -> "Session":
        """Build every configured dataset, engine, context and pipeline list.

        A long-running server calls this once at startup so that no request
        ever pays generation latency; repeated calls are free.  Returns the
        session for chaining.
        """
        self.engines
        for name in self.datasets:
            self.context_for(name)
            self.pipelines_for(name)
        self.matrix_runner
        return self

    # ------------------------------------------------------------------ #
    # selection of matrix slices
    # ------------------------------------------------------------------ #
    def _select_engines(self, names: Sequence[str] | None) -> dict[str, BaseEngine]:
        if names is None:
            return dict(self.engines)
        selected: dict[str, BaseEngine] = {}
        for name in names:
            try:
                selected[name] = self._engine(name)
            except EngineUnavailableError:
                continue
        return selected

    def _select_datasets(self, names: Sequence[str] | None) -> dict[str, GeneratedDataset]:
        if names is None:
            return self.datasets
        return {name: self.dataset(name) for name in names}

    def _select_pipelines(self, dataset: str,
                          pipelines: "Sequence[Pipeline | str | int] | Pipeline | None"
                          ) -> list[Pipeline]:
        if pipelines is None:
            return self.pipelines_for(dataset)
        if isinstance(pipelines, Pipeline):
            pipelines = [pipelines]
        selected: list[Pipeline] = []
        for item in pipelines:
            if isinstance(item, Pipeline):
                selected.append(item)
            elif isinstance(item, int):
                selected.append(self.pipelines_for(dataset)[item])
            else:
                registered = self.pipelines_for(dataset)
                match = next((p for p in registered if p.name == item), None)
                if match is None:
                    raise KeyError(f"unknown pipeline {item!r} for dataset {dataset!r}; "
                                   f"registered: {[p.name for p in registered]}")
                selected.append(match)
        return selected

    @staticmethod
    def _lazy_variants(engine: BaseEngine, lazy: "bool | str | None",
                       mode: str) -> list[bool | None]:
        if mode == "core":  # function-core always forces materialization
            return [False]
        if lazy == "both":
            variants: list[bool | None] = [False]
            if engine.supports_lazy:
                variants.append(True)
            return variants
        return [lazy]

    def _strategy_variants(self, engine: BaseEngine, lazy: "bool | str | None",
                           streaming: "bool | str | None",
                           mode: str) -> list[tuple[bool | None, bool]]:
        """Concrete (lazy, streaming) execution strategies for one engine.

        ``streaming=True`` selects morsel-driven execution where the engine
        supports it (other engines fall back to the requested laziness);
        ``"both"`` adds a streaming variant next to the eager/lazy ones, so a
        single sweep compares all three physical strategies.
        """
        if mode == "core":  # function-core always forces materialization
            return [(False, False)]
        if streaming is True:
            if engine.supports_streaming:
                return [(True, True)]
            return [(flag, False) for flag in self._lazy_variants(engine, lazy, mode)]
        variants = [(flag, False) for flag in self._lazy_variants(engine, lazy, mode)]
        if streaming == "both" and engine.supports_streaming:
            variants.append((True, True))
        return variants

    # ------------------------------------------------------------------ #
    # sweep planning: the matrix slice as independent work units
    # ------------------------------------------------------------------ #
    def plan(self, mode: str = "full", *,
             engines: Sequence[str] | None = None,
             datasets: Sequence[str] | None = None,
             pipelines: "Sequence[Pipeline | str | int] | Pipeline | None" = None,
             lazy: "bool | str | None" = None,
             streaming: "bool | str | None" = None,
             stages: "Iterable[Stage | str] | None" = None,
             formats: Sequence[str] = _IO_FORMATS,
             backend: str | None = None) -> list[PlannedCell]:
        """Enumerate the requested matrix slice as independent sweep cells.

        Cells are emitted in exactly the nested-loop order of the historical
        sequential sweep (dataset → [pipeline →] engine → strategy), which is
        the order the scheduler reassembles results in — so any worker count
        yields the same :class:`~repro.results.ResultSet`.  ``streaming``
        follows the ``lazy`` convention: ``True`` selects morsel-driven
        execution on streaming-capable engines, ``"both"`` adds streaming
        cells next to the eager/lazy ones.  ``backend`` selects the physical
        column backend cells run on (``"object"``/``"dict"``, defaulting to
        the configured one); frames are converted once per dataset and the
        simulation context is priced on the converted columns.
        """
        try:
            mode = _MODE_ALIASES[mode]
        except KeyError:
            raise ValueError(f"unknown mode {mode!r}; "
                             f"expected one of {sorted(set(_MODE_ALIASES))}") from None
        if mode == "tpch":
            raise ValueError("TPC-H sweeps are planned by run_tpch()")
        backend = self._resolve_backend(backend)
        selected_engines = self._select_engines(engines)
        selected_datasets = self._select_datasets(datasets)
        runner = self.matrix_runner
        machine = self.config.machine
        stage_names = (tuple(Stage.parse(s).value for s in stages)
                       if stages is not None else ())
        if mode == "stage" and stages is not None and not stage_names:
            return []  # an explicitly empty stage selection measures nothing
        plan: list[PlannedCell] = []

        def add(cell: Cell, execute, generated: GeneratedDataset,
                sim: SimulationContext, pipeline: Pipeline | None,
                engine: BaseEngine) -> None:
            payload = {"cell": cell, "machine": machine,
                       "optimizer": engine.optimizer_settings,
                       "frame": generated.frame_for(backend), "sim": sim,
                       "pipeline": pipeline}
            plan.append(PlannedCell(cell=cell, execute=execute, payload=payload))

        if mode in ("read", "write"):
            for dataset_name, generated in selected_datasets.items():
                sim = self.context_for(dataset_name, backend)
                dataset_fp = dataset_fingerprint(generated)
                for file_format in formats:
                    for engine in selected_engines.values():
                        cell = Cell(
                            mode=mode, engine=engine.name, dataset=sim.dataset_name,
                            file_format=file_format, backend=backend,
                            machine=machine.name,
                            runs=self.config.runs, seed=self.config.seed,
                            scale=self.config.scale,
                            fingerprint=context_fingerprint(
                                machine, engine.optimizer_settings, dataset_fp))
                        add(cell, self._cell_thunk(cell, runner, engine, generated, sim, None),
                            generated, sim, None, engine)
            return plan

        for dataset_name, generated in selected_datasets.items():
            sim = self.context_for(dataset_name, backend)
            dataset_fp = dataset_fingerprint(generated)
            for pipeline in self._select_pipelines(dataset_name, pipelines):
                pipeline_fp = pipeline_fingerprint(pipeline)
                for engine in selected_engines.values():
                    fingerprint = context_fingerprint(
                        machine, engine.optimizer_settings, dataset_fp, pipeline_fp)
                    if mode == "core":
                        cell = Cell(
                            mode="core", engine=engine.name, dataset=sim.dataset_name,
                            pipeline=pipeline.name, backend=backend,
                            machine=machine.name,
                            runs=self.config.runs, seed=self.config.seed,
                            scale=self.config.scale, fingerprint=fingerprint)
                        add(cell, self._cell_thunk(cell, runner, engine, generated,
                                                   sim, pipeline),
                            generated, sim, pipeline, engine)
                        continue
                    for lazy_flag, streaming_flag in self._strategy_variants(
                            engine, lazy, streaming, mode):
                        cell = Cell(
                            mode=mode, engine=engine.name, dataset=sim.dataset_name,
                            pipeline=pipeline.name,
                            lazy=engine.effective_lazy(lazy_flag),
                            streaming=engine.effective_streaming(streaming_flag),
                            backend=backend,
                            stages=stage_names,
                            machine=machine.name, runs=self.config.runs,
                            seed=self.config.seed, scale=self.config.scale,
                            fingerprint=fingerprint)
                        add(cell, self._cell_thunk(cell, runner, engine, generated,
                                                   sim, pipeline),
                            generated, sim, pipeline, engine)
        return plan

    @staticmethod
    def _cell_thunk(cell, runner, engine, generated, sim, pipeline):
        """Sequential-path thunk: :func:`~repro.sweep.execute_cell` over the
        session's shared components (batched workers use their own).
        The frame is pre-converted to the cell's backend here, so every cell
        of a sweep shares one converted copy (``execute_cell``'s own
        conversion then no-ops).  ``attempt`` is threaded through for the
        retry/fault-injection machinery and never influences results."""
        return lambda attempt=1: execute_cell(
            cell, engine, runner=runner,
            frame=generated.frame_for(cell.backend),
            sim=sim, pipeline=pipeline, attempt=attempt)

    # ------------------------------------------------------------------ #
    # the front door
    # ------------------------------------------------------------------ #
    def run(self, mode: str = "full", *,
            engines: Sequence[str] | None = None,
            datasets: Sequence[str] | None = None,
            pipelines: "Sequence[Pipeline | str | int] | Pipeline | None" = None,
            lazy: "bool | str | None" = None,
            streaming: "bool | str | None" = None,
            stages: "Iterable[Stage | str] | None" = None,
            formats: Sequence[str] = _IO_FORMATS,
            backend: str | None = None,
            workers: int = 1,
            cache: "bool | str | object | None" = None,
            executor: str = "thread",
            progress: "Callable[[Cell, list, str], None] | None" = None,
            profile: bool = False,
            retry: "object | int | None" = None,
            hosts: "int | Sequence[str] | None" = None,
            bind: "str | tuple[str, int] | None" = None) -> ResultSet:
        """Sweep a slice of the matrix and return the collected measurements.

        ``mode`` is one of ``full``/``stage``/``core`` (the paper's three
        measurement modes, aliases like ``pipeline-full`` accepted),
        ``read``/``write`` (the Figure 3/4 I/O matrix) or ``tpch``.  ``lazy``
        may be ``None`` (each engine's default), ``True``/``False``, or
        ``"both"`` to measure eager and, where supported, lazy evaluation.
        ``streaming`` selects the morsel-driven executor the same way:
        ``True`` streams on streaming-capable engines, ``"both"`` measures a
        streaming variant next to the eager/lazy ones.  ``stages`` restricts
        stage mode to specific stages; ``formats`` restricts the I/O modes.
        ``backend`` selects the physical column backend (``"object"`` — the
        reference representation — or ``"dict"`` for dictionary-encoded
        strings with vectorized join/groupby kernels); it is part of each
        cell's content address, so cached results never alias across
        backends.

        The sweep is executed by the :mod:`repro.sweep` scheduler:
        ``workers`` sets the worker-pool size (results are identical for any
        value), ``cache`` enables the persistent result cache (``True`` for
        the default ``~/.cache/repro``, or a directory path, or a
        :class:`~repro.sweep.SweepCache`) so repeated or interrupted sweeps
        skip completed cells, and ``executor`` selects ``"thread"`` (shared
        components, default) or ``"process"`` (persistent workers attached to
        shared-memory frame segments) pools.  Parallel sweeps run through the
        batched tier of :mod:`repro.sweep.workers`: cells are grouped by
        (dataset, scale, engine), ordered longest-first from recorded timing
        hints, and dispatched with dataset affinity to long-lived workers.

        Statistics of the last sweep are exposed as :attr:`last_sweep` — a
        :class:`~repro.sweep.SweepStats` with the cell counts plus the
        executed-vs-overhead wall-clock split (``execute_seconds``,
        ``serialize_seconds``, ``setup_seconds``, ``batches``).  With
        ``profile=True`` it also carries one per-cell
        dispatch/serialize/setup/execute/cache timing record per executed
        cell (render with ``last_sweep.profile_table()``).

        ``progress`` is a job-granular callback invoked as each cell lands:
        ``progress(cell, measurements, source)`` with ``source`` one of
        ``"cache"``/``"executed"``/``"quarantined"`` — what the service layer
        uses to stream incremental results while a sweep is still running.

        ``retry`` makes the sweep fault-tolerant: a
        :class:`~repro.sweep.RetryPolicy` (or an int, shorthand for that many
        retries per cell) retries failed cells with deterministic backoff,
        quarantines poison cells into error-status measurements instead of
        aborting, and — on the process executor — respawns crashed workers
        and re-dispatches their uncommitted cells.  ``None`` (default) gives
        every cell one attempt and fails fast: the first error stops the
        sweep and is raised once the finished cells are cached.

        ``hosts`` distributes the sweep across worker-host processes via the
        :mod:`repro.sweep.distributed` coordinator: an int spawns that many
        local ``python -m repro sweep-worker`` agents (each running
        ``workers`` pool workers on ``executor``); a list mixes ``"local"``
        entries (spawned) with any other label, which waits for an external
        agent to connect to the coordinator's ``bind`` address (default
        ``127.0.0.1`` on an ephemeral port; pass ``"host:port"`` to listen
        for remote machines).  Cells shard across hosts by content hash,
        idle hosts steal from the slowest shard, every host commits to the
        shared ``cache``, and host loss follows the ``retry`` policy —
        results stay bit-identical to a sequential run.
        """
        try:
            resolved_mode = _MODE_ALIASES[mode]
        except KeyError:
            raise ValueError(f"unknown mode {mode!r}; "
                             f"expected one of {sorted(set(_MODE_ALIASES))}") from None
        if resolved_mode == "tpch":
            if hosts is not None:
                raise ValueError("TPC-H sweeps do not support hosts=; "
                                 "use workers/executor instead")
            return self.run_tpch(engines=engines, backend=backend,
                                 workers=workers, cache=cache,
                                 executor=executor, progress=progress,
                                 profile=profile, retry=retry)
        if hosts is not None:
            return self._run_distributed(
                mode=resolved_mode, engines=engines, datasets=datasets,
                pipelines=pipelines, lazy=lazy, streaming=streaming,
                stages=stages, formats=formats, backend=backend,
                hosts=hosts, bind=bind, workers=workers, cache=cache,
                executor=executor, progress=progress, profile=profile,
                retry=retry)
        plan = self.plan(resolved_mode, engines=engines, datasets=datasets,
                         pipelines=pipelines, lazy=lazy, streaming=streaming,
                         stages=stages, formats=formats, backend=backend)
        return self._run_plan(plan, workers=workers, cache=cache, executor=executor,
                              progress=progress, profile=profile, retry=retry)

    def _run_plan(self, plan: list[PlannedCell], *, workers: int,
                  cache: "bool | str | object | None", executor: str,
                  progress: "Callable[[Cell, list, str], None] | None" = None,
                  profile: bool = False,
                  retry: "object | int | None" = None) -> ResultSet:
        scheduler = SweepScheduler(workers=workers, cache=resolve_cache(cache),
                                   executor=executor, on_result=progress,
                                   profile=profile, retry=retry)
        try:
            return scheduler.run(plan)
        finally:
            # also on failure/interruption, so callers can inspect how far
            # the sweep got before resuming it
            self.last_sweep = scheduler.last_stats

    # ------------------------------------------------------------------ #
    # distributed sweeps: coordinator + sweep-worker host agents
    # ------------------------------------------------------------------ #
    def _run_distributed(self, *, mode: str, engines, datasets, pipelines,
                         lazy, streaming, stages, formats, backend,
                         hosts, bind, workers: int, cache, executor: str,
                         progress, profile: bool, retry) -> ResultSet:
        import os
        import subprocess
        import sys
        from dataclasses import asdict
        from pathlib import Path

        from .sweep.distributed import RunSpec, SweepCoordinator
        from .sweep.resilience import resolve_retry
        from .testing.faults import active_fault_plan

        if self._injected_datasets is not None:
            raise ValueError(
                "distributed sweeps cannot ship injected datasets; worker "
                "hosts rebuild every dataset from (name, scale, seed)")
        if pipelines is not None:
            items = (pipelines if isinstance(pipelines, (list, tuple))
                     else [pipelines])
            for item in items:
                if not isinstance(item, (str, int)):
                    raise ValueError(
                        "distributed sweeps select pipelines by name or "
                        "index; ad-hoc Pipeline objects cannot cross hosts")
        expected, spawn_local = _parse_host_spec(hosts)

        plan = self.plan(mode, engines=engines, datasets=datasets,
                         pipelines=pipelines, lazy=lazy, streaming=streaming,
                         stages=stages, formats=formats, backend=backend)
        resolved_cache = resolve_cache(cache)
        retry = resolve_retry(retry)
        stage_names = ([Stage.parse(s).value for s in stages]
                       if stages is not None else None)
        spec = RunSpec(
            config=RunSpec.config_to_wire(self.config),
            plan_kwargs={
                "mode": mode,
                "engines": list(engines) if engines is not None else None,
                "datasets": list(datasets) if datasets is not None else None,
                "pipelines": (list(items) if pipelines is not None else None),
                "lazy": lazy, "streaming": streaming, "stages": stage_names,
                "formats": list(formats), "backend": backend,
            },
            cache_dir=str(resolved_cache.root) if resolved_cache else None,
            retry=asdict(retry) if retry is not None else None,
            faults=RunSpec.faults_to_wire(active_fault_plan()),
            profile=profile)
        coordinator = SweepCoordinator(
            plan, spec=spec, hosts=expected, cache=resolved_cache,
            retry=retry, on_result=progress, profile=profile,
            bind=_parse_bind_address(bind))
        host, port = coordinator.start()

        # Spawn the requested local worker-host agents.  Forked children are
        # preferred: they reuse the parent's already-imported modules (an
        # interpreter boot plus `import repro` costs ~0.5 s per host, pure
        # overhead at fleet sizes) while still speaking the same TCP protocol
        # and rebuilding their plan from the wire spec like any remote agent.
        # Platforms without fork fall back to real `python -m repro
        # sweep-worker` subprocesses on a PYTHONPATH resolving this package.
        import multiprocessing

        agents: "list[object]" = []
        use_fork = "fork" in multiprocessing.get_all_start_methods()
        try:
            if use_fork:
                ctx = multiprocessing.get_context("fork")
                for _ in range(spawn_local):
                    agent = ctx.Process(
                        target=_local_host_agent,
                        args=(host, port, workers, executor, self))
                    agent.start()
                    agents.append(agent)
            else:
                env = dict(os.environ)
                src_root = str(Path(__file__).resolve().parent.parent)
                env["PYTHONPATH"] = (src_root + os.pathsep + env["PYTHONPATH"]
                                     if env.get("PYTHONPATH") else src_root)
                for _ in range(spawn_local):
                    agents.append(subprocess.Popen(
                        [sys.executable, "-m", "repro", "sweep-worker",
                         "--connect", f"{host}:{port}",
                         "--jobs", str(workers), "--executor", executor],
                        stdout=subprocess.DEVNULL, env=env))
            try:
                return coordinator.run()
            finally:
                self.last_sweep = coordinator.stats
        finally:
            for agent in agents:
                if isinstance(agent, subprocess.Popen):
                    try:
                        agent.wait(timeout=15)
                    except subprocess.TimeoutExpired:
                        agent.kill()
                        agent.wait()
                else:
                    agent.join(timeout=15)
                    if agent.is_alive():
                        agent.kill()
                        agent.join()

    # ------------------------------------------------------------------ #
    # the advisor: predicted-fastest configuration, nothing executed
    # ------------------------------------------------------------------ #
    def advise(self, *, engines: Sequence[str] | None = None,
               datasets: Sequence[str] | None = None,
               pipelines: "Sequence[Pipeline | str | int] | Pipeline | None" = None):
        """Rank engine × eager/lazy/streaming candidates by estimated cost.

        For every (dataset, pipeline) cell of the selected slice, the
        :class:`~repro.plan.advisor.Advisor` prices each candidate through
        the statistics layer and the cost model — no engine work is executed
        — and returns one :class:`~repro.plan.advisor.AdvisorReport` per
        cell, ranked fastest-first with infeasible (predicted-OOM,
        unsupported-format) candidates last.
        """
        from .plan.advisor import Advisor

        selected_engines = self._select_engines(engines)
        advisor = Advisor(self.config.machine, engines=selected_engines)
        reports = []
        for dataset_name, generated in self._select_datasets(datasets).items():
            sim = self.context_for(dataset_name)
            for pipeline in self._select_pipelines(dataset_name, pipelines):
                reports.append(advisor.advise(generated.frame, pipeline, sim,
                                              dataset=dataset_name))
        return reports

    def advise_tpch(self, *, engines: Sequence[str] | None = None,
                    queries: Sequence[str] | None = None,
                    physical_scale_factor: float = 0.002):
        """Advisor reports for the TPC-H engine × query matrix (estimated)."""
        from .plan.advisor import Advisor
        from .tpch.datagen import generate_tpch
        from .tpch.queries import query_names

        with self._lock:
            if physical_scale_factor not in self._tpch_data:
                self._tpch_data[physical_scale_factor] = generate_tpch(
                    physical_scale_factor, seed=self.config.seed)
            data = self._tpch_data[physical_scale_factor]
        names = list(engines) if engines is not None else list(self.config.tpch_engines)
        engine_map = create_engines(names, machine=self.config.machine,
                                    skip_unavailable=True)
        advisor = Advisor(self.config.machine, engines=engine_map)
        return [advisor.advise_tpch(data, query)
                for query in (list(queries) if queries is not None else query_names())]

    # ------------------------------------------------------------------ #
    # TPC-H (the Figure 7 matrix)
    # ------------------------------------------------------------------ #
    def run_tpch(self, *, engines: Sequence[str] | None = None,
                 queries: Sequence[str] | None = None,
                 physical_scale_factor: float = 0.002,
                 backend: str | None = None,
                 workers: int = 1,
                 cache: "bool | str | object | None" = None,
                 executor: str = "thread",
                 progress: "Callable[[Cell, list, str], None] | None" = None,
                 profile: bool = False,
                 retry: "object | int | None" = None) -> ResultSet:
        """Run TPC-H queries on the TPC-H engine set and collect measurements.

        Like :meth:`run`, the engine × query matrix goes through the sweep
        scheduler: ``workers``/``cache``/``executor``/``backend`` behave
        identically (TPC-H tables are built inside the query runner, so the
        backend coordinate switches the substrate's active backend for the
        duration of each query rather than pre-converting frames).
        """
        from .tpch.datagen import generate_tpch
        from .tpch.queries import query_names
        from .tpch.runner import TPCHRunner

        with self._lock:
            if physical_scale_factor not in self._tpch_data:
                self._tpch_data[physical_scale_factor] = generate_tpch(
                    physical_scale_factor, seed=self.config.seed)
            data = self._tpch_data[physical_scale_factor]
        backend = self._resolve_backend(backend)
        runner = TPCHRunner(data, runs=self.config.runs)
        names = list(engines) if engines is not None else list(self.config.tpch_engines)
        engine_map = create_engines(names, machine=self.config.machine,
                                    skip_unavailable=True)
        dataset_name = f"tpch-sf{data.nominal_scale_factor:g}"
        machine = self.config.machine
        dataset_fp = {"name": dataset_name,
                      "physical_rows": data.total_physical_rows(),
                      "physical_scale_factor": physical_scale_factor,
                      "seed": self.config.seed}
        plan: list[PlannedCell] = []
        for engine_name, engine in engine_map.items():
            for query in (list(queries) if queries is not None else query_names()):
                cell = Cell(
                    mode="tpch", engine=engine_name, dataset=dataset_name,
                    pipeline=query, lazy=engine.supports_lazy, backend=backend,
                    machine=machine.name,
                    runs=self.config.runs, seed=self.config.seed,
                    scale=physical_scale_factor,
                    fingerprint=context_fingerprint(
                        machine, engine.optimizer_settings, dataset_fp,
                        {"query": query}))
                # workers regenerate the (deterministic) TPC-H data instead of
                # unpickling the whole database once per cell
                payload = {"cell": cell, "machine": machine,
                           "optimizer": engine.optimizer_settings,
                           "tpch_scale_factor": physical_scale_factor,
                           "tpch_seed": self.config.seed}
                plan.append(PlannedCell(
                    cell=cell,
                    execute=self._tpch_thunk(cell, engine, runner),
                    payload=payload))
        return self._run_plan(plan, workers=workers, cache=cache, executor=executor,
                              progress=progress, profile=profile, retry=retry)

    @staticmethod
    def _tpch_thunk(cell, engine, tpch_runner):
        return lambda attempt=1: execute_cell(cell, engine,
                                              tpch_runner=tpch_runner,
                                              attempt=attempt)

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover
        return (f"Session(scale={self.config.scale}, runs={self.config.runs}, "
                f"machine={self.config.machine.name!r}, "
                f"engines={list(self.config.engines)}, "
                f"datasets={list(self.config.datasets)})")


def _local_host_agent(host: str, port: int, jobs: int, executor: str,
                      session: "Session | None" = None) -> None:
    """Forked local worker-host agent: same protocol as the CLI agent.

    The child inherits the parent's imported modules and warm session (the
    fork start method passes ``session`` by memory image, not pickling), so
    it skips the interpreter boot, ``import repro`` and dataset regeneration
    a remote ``python -m repro sweep-worker`` pays — the TCP protocol and
    the plan rebuild from the wire spec are identical.
    """
    from .sweep.distributed import HostWorker

    raise SystemExit(HostWorker(host, port, jobs=jobs, executor=executor,
                                session=session).run())


def _parse_host_spec(hosts: "int | Sequence[str]") -> "tuple[int, int]":
    """Normalize ``hosts=`` to (expected host count, local agents to spawn).

    An int spawns that many local agents; a list counts ``"local"`` entries
    as spawned agents and any other label as an external host the
    coordinator should wait for.
    """
    if isinstance(hosts, bool) or hosts is None:
        raise ValueError("hosts must be a positive int or a list of host labels")
    if isinstance(hosts, int):
        if hosts < 1:
            raise ValueError("hosts must be at least 1")
        return hosts, hosts
    labels = list(hosts)
    if not labels:
        raise ValueError("hosts list must not be empty")
    spawn_local = sum(1 for label in labels if str(label) == "local")
    return len(labels), spawn_local


def _parse_bind_address(bind: "str | tuple[str, int] | None") -> "tuple[str, int]":
    """Normalize ``bind=`` to a (host, port) the coordinator listens on."""
    if bind is None:
        return ("127.0.0.1", 0)
    if isinstance(bind, str):
        host, _, port = bind.rpartition(":")
        if not host:
            host, port = bind, "0"
        try:
            return (host, int(port))
        except ValueError:
            raise ValueError(f"bad bind address {bind!r}; "
                             f"expected 'host:port'") from None
    host, port = bind
    return (str(host), int(port))
