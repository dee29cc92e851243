"""Persistent batch-execution tier of the sweep scheduler.

The PR 2 process path shipped a pickled frame + sim context inside *every*
cell payload and rebuilt the engine from scratch per cell, so "parallel"
sweeps ran slower than sequential (``BENCH_sweep.json`` flatline).  This
module replaces per-cell dispatch with **batched dispatch to persistent
workers**:

* pending cells are grouped into :class:`CellBatch` units by
  ``(dataset, scale, engine)`` — one frame handle and one warm engine per
  batch — and ordered longest-first using per-cell wall-clock hints
  (:meth:`~repro.sweep.cache.SweepCache.seconds_hint` backed by cache entry
  metadata, with an in-process :class:`HintMemory` fallback);
* batches are sharded across workers **by dataset** (affinity dispatch):
  every batch touching one physical frame lands on the same worker, so the
  frame is attached once and the worker's :class:`~repro.core.memo.
  SubstrateMemo` deduplicates the physical substrate work that the benchmark
  matrix repeats across engines, strategies and runs — this, not raw core
  count, is where the wall-clock win comes from (and it is exactly the
  affinity structure the distributed-sweep roadmap item will reuse);
* process workers receive frames as :class:`~repro.frame.sharing.
  FrameManifest` handles and attach zero-copy to shared-memory segments the
  dispatcher exported once per distinct frame;
* results flow back as per-cell events, drained by the scheduling thread —
  per-cell cache commits (and therefore resume semantics) are unchanged, and
  ``on_result`` callbacks keep firing from the scheduling thread.

Both executors run this tier: ``thread`` workers share one memo and the
session's live frames; ``process`` workers are long-lived forked processes
with per-worker caches of engines, attached frames, TPC-H data and memo.
The sequential path never uses this module — it stays the naive reference
implementation every other strategy is property-tested against.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .cells import Cell

__all__ = ["CellTask", "CellBatch", "HintMemory", "hint_memory", "build_batches",
           "assign_shards", "ThreadBatchExecutor", "ProcessWorkerPool",
           "DEFAULT_SECONDS_HINT"]

#: Assumed duration of a cell nothing is known about (hints only shape
#: scheduling order, never results).
DEFAULT_SECONDS_HINT = 1.0

#: Batch ids are unique across every ``build_batches`` call in the process:
#: a persistent pool (reused across scheduler runs by a worker-host agent)
#: may still hold events from an abandoned thread of an earlier run, and
#: those must never alias a later run's batches.
_batch_ids = itertools.count()


# --------------------------------------------------------------------------- #
# scheduling hints
# --------------------------------------------------------------------------- #
class HintMemory:
    """Process-local memory of recent per-cell wall-clock durations.

    Keyed coarsely by ``(mode, engine, dataset)`` so a hint survives changes
    to run count or scale — it only has to rank cells relative to each other
    for longest-first batch ordering.  The scheduler records every executed
    cell here; :func:`build_batches` consults it when the persistent cache
    has no ``seconds`` metadata for a cell.
    """

    def __init__(self) -> None:
        self._seconds: dict[tuple, float] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _key(cell: Cell) -> tuple:
        return (cell.mode, cell.engine, cell.dataset)

    def record(self, cell: Cell, seconds: float) -> None:
        with self._lock:
            self._seconds[self._key(cell)] = float(seconds)

    def lookup(self, cell: Cell) -> "float | None":
        with self._lock:
            return self._seconds.get(self._key(cell))


#: The module-level instance the scheduler feeds and consults.
hint_memory = HintMemory()


# --------------------------------------------------------------------------- #
# batches
# --------------------------------------------------------------------------- #
@dataclass
class CellTask:
    """One cell of a batch, with everything a worker needs to execute it."""

    index: int  # slot position in the plan (results land back here)
    cell: Cell
    machine: Any
    optimizer: Any = None
    sim: Any = None
    pipeline: Any = None
    #: Live frame object (thread executor only; never pickled).
    frame: Any = None
    #: Shared-memory handle (process executor only).
    manifest: Any = None
    tpch_scale_factor: "float | None" = None
    tpch_seed: "int | None" = None
    seconds_hint: float = DEFAULT_SECONDS_HINT
    #: Share of the frame's shared-memory export time attributed to this cell
    #: (parent-side bookkeeping for the profiler; not shipped usefully).
    serialize_share: float = 0.0
    #: 1-based execution attempt this dispatch represents (resilient
    #: scheduling re-dispatches a failed cell with an incremented attempt;
    #: fault injection gates on it).
    attempt: int = 1


@dataclass
class CellBatch:
    """Cells sharing one ``(dataset, scale, engine)`` coordinate."""

    batch_id: int
    key: tuple
    tasks: "list[CellTask]" = field(default_factory=list)

    @property
    def seconds_hint(self) -> float:
        return sum(task.seconds_hint for task in self.tasks)

    @property
    def shard_key(self) -> tuple:
        """Affinity key: batches of one dataset stick to one worker."""
        return self.key[:2]  # (dataset, scale)

    def segments(self) -> "set[str]":
        return {task.manifest.segment for task in self.tasks
                if task.manifest is not None}


def _task_from_payload(index: int, payload: "dict[str, Any]",
                       hint: float) -> CellTask:
    return CellTask(
        index=index, cell=payload["cell"], machine=payload["machine"],
        optimizer=payload.get("optimizer"), sim=payload.get("sim"),
        pipeline=payload.get("pipeline"), frame=payload.get("frame"),
        tpch_scale_factor=payload.get("tpch_scale_factor"),
        tpch_seed=payload.get("tpch_seed"), seconds_hint=hint)


def build_batches(plan: Sequence, pending: "Sequence[int]",
                  cache=None) -> "list[CellBatch]":
    """Group pending cells into batches keyed by (dataset, scale, engine).

    Within a batch, cells keep plan order; the batch list itself is returned
    unordered (ordering happens per worker in :func:`assign_shards`).  Each
    task carries its wall-clock hint — cache metadata first, then the
    in-process :data:`hint_memory`, then :data:`DEFAULT_SECONDS_HINT`.
    """
    grouped: "dict[tuple, CellBatch]" = {}
    for index in pending:
        planned = plan[index]
        cell: Cell = planned.cell
        hint = cache.seconds_hint(cell) if cache is not None else None
        if hint is None:
            hint = hint_memory.lookup(cell)
        if hint is None:
            hint = DEFAULT_SECONDS_HINT
        key = (cell.dataset, cell.scale, cell.engine)
        batch = grouped.get(key)
        if batch is None:
            batch = grouped[key] = CellBatch(batch_id=next(_batch_ids), key=key)
        batch.tasks.append(_task_from_payload(index, planned.payload, hint))
    return list(grouped.values())


def assign_shards(batches: "Iterable[CellBatch]",
                  workers: int) -> "list[list[CellBatch]]":
    """Distribute batches across workers with dataset affinity.

    All batches of one dataset form a *shard* and land on the same worker, so
    the frame attaches once and the worker's memo can share substrate work
    across that dataset's engines.  Shards go longest-first onto the
    least-loaded worker; within each worker, batches run longest-first.
    Returns one batch list per worker actually used (≤ ``workers``).
    """
    shards: "dict[tuple, list[CellBatch]]" = {}
    for batch in batches:
        shards.setdefault(batch.shard_key, []).append(batch)
    ordered = sorted(shards.values(),
                     key=lambda group: -sum(b.seconds_hint for b in group))
    used = max(1, min(workers, len(ordered)))
    assignments: "list[list[CellBatch]]" = [[] for _ in range(used)]
    loads = [0.0] * used
    for group in ordered:
        target = loads.index(min(loads))
        assignments[target].extend(group)
        loads[target] += sum(batch.seconds_hint for batch in group)
    for group in assignments:
        group.sort(key=lambda batch: -batch.seconds_hint)
    return assignments


# --------------------------------------------------------------------------- #
# worker-side execution (shared by both executors)
# --------------------------------------------------------------------------- #
class _WorkerState:
    """Per-worker caches: engines, attached frames, TPC-H data, memo.

    Building these is the per-cell setup cost the old path paid 72 times;
    a persistent worker pays it once per distinct coordinate.
    """

    def __init__(self) -> None:
        from ..core.memo import SubstrateMemo

        self.memo = SubstrateMemo()
        self._engines: "dict[tuple, Any]" = {}
        self._frames: "dict[str, Any]" = {}
        self._segments: "list[Any]" = []  # keeps attached SharedMemory alive
        self._runners: "dict[int, Any]" = {}
        self._tpch: "dict[tuple, Any]" = {}
        self._lock = threading.Lock()

    def engine_for(self, task: CellTask):
        key = (task.cell.engine, task.optimizer)
        with self._lock:
            engine = self._engines.get(key)
            if engine is None:
                from ..engines.registry import create_engine

                engine = create_engine(task.cell.engine, task.machine,
                                       optimizer_settings=task.optimizer)
                engine.substrate_memo = self.memo
                self._engines[key] = engine
            return engine

    def frame_for(self, task: CellTask):
        if task.frame is not None:  # thread executor: live shared object
            return task.frame
        if task.manifest is None:
            return None
        with self._lock:
            frame = self._frames.get(task.manifest.segment)
            if frame is None:
                from ..frame.sharing import attach_frame

                frame, shm = attach_frame(task.manifest)
                self._frames[task.manifest.segment] = frame
                self._segments.append(shm)
            return frame

    def runner_for(self, task: CellTask):
        from ..core.runner import MatrixRunner

        with self._lock:
            runner = self._runners.get(task.cell.runs)
            if runner is None:
                runner = self._runners[task.cell.runs] = MatrixRunner(runs=task.cell.runs)
            return runner

    def tpch_runner_for(self, task: CellTask):
        key = (task.tpch_scale_factor, task.tpch_seed, task.cell.runs)
        with self._lock:
            runner = self._tpch.get(key)
            if runner is None:
                from ..tpch.datagen import generate_tpch
                from ..tpch.runner import TPCHRunner

                data = generate_tpch(task.tpch_scale_factor, seed=task.tpch_seed)
                runner = TPCHRunner(data, runs=task.cell.runs)
                self._tpch[key] = runner
            return runner


def _execute_task(task: CellTask, state: _WorkerState):
    """Run one cell against the worker's warm caches.

    Returns ``(measurements, seconds, timings)`` where ``timings`` splits the
    wall clock into ``setup`` (engine build + frame attach, ~0 once warm) and
    ``execute`` (the actual measurement).
    """
    from .scheduler import execute_cell

    started = time.perf_counter()
    engine = state.engine_for(task)
    frame = state.frame_for(task)
    runner = state.runner_for(task)
    tpch_runner = (state.tpch_runner_for(task)
                   if task.cell.mode == "tpch" else None)
    setup = time.perf_counter() - started
    measurements = execute_cell(task.cell, engine, runner=runner, frame=frame,
                                sim=task.sim, pipeline=task.pipeline,
                                tpch_runner=tpch_runner, attempt=task.attempt)
    done = time.perf_counter()
    return measurements, done - started, {"setup": setup,
                                          "execute": done - started - setup}


def _run_batches(worker_id: int, batches, emit, abort, state: _WorkerState,
                 inflight=None) -> None:
    """The worker loop body: execute assigned batches, emit per-cell events.

    Event tuples (drained by the scheduling thread, which owns all cache
    stores and callbacks):

    * ``("start", worker, batch, index)`` — a cell attempt began
    * ``("ok", worker, batch, index, measurements, seconds, timings)``
    * ``("err", worker, batch, index, encoded_exception)``
    * ``("skip", worker, batch, index)`` — abandoned after an abort
    * ``("batch_done", worker, batch)`` — frame refcounts released on this
    * ``("worker_done", worker)``

    ``inflight`` (when given) is a setter recording the plan index currently
    executing in a side channel that survives SIGKILL — queued events can die
    with a killed worker's queue feeder, so crash recovery identifies the
    victim cell from this sentinel, not from the (lossy) ``start`` stream.
    """
    for batch_id, dispatch_ts, tasks in batches:
        batch_started = time.perf_counter()
        for task in tasks:
            if abort.is_set():
                emit(("skip", worker_id, batch_id, task.index))
                continue
            if inflight is not None:
                inflight(task.index)
            emit(("start", worker_id, batch_id, task.index))
            try:
                measurements, seconds, timings = _execute_task(task, state)
                timings["dispatch"] = max(0.0, batch_started - dispatch_ts)
                emit(("ok", worker_id, batch_id, task.index, measurements,
                      seconds, timings))
            except BaseException as error:  # transported, re-raised by parent
                emit(("err", worker_id, batch_id, task.index,
                      _encode_error(error)))
            finally:
                if inflight is not None:
                    inflight(-1)
        emit(("batch_done", worker_id, batch_id))
    emit(("worker_done", worker_id))


def _encode_error(error: BaseException):
    try:
        return pickle.dumps(error)
    except Exception:
        return f"{type(error).__name__}: {error}"


def decode_error(encoded) -> BaseException:
    if isinstance(encoded, bytes):
        try:
            return pickle.loads(encoded)
        except Exception:
            return RuntimeError("worker failed with an unpicklable exception")
    return RuntimeError(str(encoded))


# --------------------------------------------------------------------------- #
# the two pool flavours
# --------------------------------------------------------------------------- #
# Both pools expose the same lifecycle to the scheduler: ``submit`` for the
# initial shard assignment, ``dispatch`` for later single batches (retries,
# stolen cells), ``get_event`` to drain, and the crash-recovery trio —
# ``check_workers`` (ids needing recovery), ``kill`` (force-fail a worker,
# e.g. on a cell timeout) and ``respawn`` (fresh queue + fresh worker under
# the same id).  Workers stay alive when idle and exit on a ``None``
# sentinel, which ``shutdown`` sends.


class ThreadBatchExecutor:
    """Batched thread pool: workers share one memo and live frames.

    Threads cannot beat the GIL on this numpy-light substrate; what the
    batched thread path buys is the shared :class:`SubstrateMemo`
    (cross-engine/cross-run dedup) and batch-ordered dispatch. Zero
    serialization: tasks reference the session's own objects.

    A thread cannot be killed, so ``kill`` *abandons* it: the thread keeps
    running as a daemon (it may finish its hung cell and even later batches,
    whose events the scheduler ignores as stale) while a replacement thread
    with a fresh queue takes over its worker id.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self.events: "queue.Queue" = queue.Queue()
        self.abort = threading.Event()
        self._state = _WorkerState()  # shared; SubstrateMemo is thread-safe
        self._queues: "list[queue.Queue]" = [queue.Queue() for _ in range(workers)]
        #: Per-worker in-flight sentinel cells; respawn swaps in a fresh cell
        #: so an abandoned thread keeps writing to its detached one.
        self._inflight: "list[list[int]]" = [[-1] for _ in range(workers)]
        self._threads = [self._spawn(worker_id) for worker_id in range(workers)]
        self._failed: "set[int]" = set()
        self._abandoned: "list[tuple[threading.Thread, queue.Queue]]" = []

    def _spawn(self, worker_id: int) -> threading.Thread:
        holder = self._inflight[worker_id]
        thread = threading.Thread(
            target=_run_batches, name=f"sweep-worker-{worker_id}",
            args=(worker_id, iter(self._queues[worker_id].get, None),
                  self.events.put, self.abort, self._state),
            kwargs={"inflight": lambda index: holder.__setitem__(0, index)},
            daemon=True)
        thread.start()
        return thread

    def inflight(self, worker_id: int) -> int:
        """Plan index the worker is executing right now (-1 when idle)."""
        return self._inflight[worker_id][0]

    def submit(self, assignments: "list[list[CellBatch]]") -> None:
        now = time.perf_counter()
        for worker_id, group in enumerate(assignments):
            for batch in group:
                self._queues[worker_id].put((batch.batch_id, now, batch.tasks))

    def dispatch(self, worker_id: int, batch: CellBatch) -> None:
        self._queues[worker_id].put(
            (batch.batch_id, time.perf_counter(), batch.tasks))

    def get_event(self, timeout: float):
        return self.events.get(timeout=timeout)

    def check_workers(self) -> "list[int]":
        """Worker ids needing recovery (killed/abandoned, not yet respawned)."""
        return sorted(self._failed)

    def kill(self, worker_id: int) -> None:
        """Mark a (presumably hung) worker for abandonment."""
        self._failed.add(worker_id)

    def respawn(self, worker_id: int) -> None:
        self._failed.discard(worker_id)
        self._abandoned.append((self._threads[worker_id], self._queues[worker_id]))
        self._queues[worker_id] = queue.Queue()
        self._inflight[worker_id] = [-1]  # detach the abandoned thread's cell
        self._threads[worker_id] = self._spawn(worker_id)

    def terminate(self) -> None:
        self.abort.set()

    def shutdown(self) -> None:
        self.abort.set()
        for task_queue in self._queues:
            task_queue.put(None)
        for _, task_queue in self._abandoned:
            task_queue.put(None)  # lets an eventually-unblocked thread exit
        for thread in self._threads:
            thread.join(timeout=30)
        # abandoned threads are never joined: they may be hung forever


class ProcessWorkerPool:
    """Long-lived forked worker processes with per-worker task queues.

    Workers inherit the parent's code/state via ``fork`` where available and
    keep engines, attached shared-memory frames, TPC-H data and the memo warm
    across every batch they are assigned.  The parent never sends a frame
    through a queue — only :class:`~repro.frame.sharing.FrameManifest`
    handles travel.

    Crash recovery: a worker that dies (crash, OOM kill, injected SIGKILL,
    or :meth:`kill` on a cell timeout) is reported by :meth:`check_workers`
    via its exit code; :meth:`respawn` forks a replacement under the same id
    with a *fresh* task queue (the dead reader's queue may hold undrainable
    state) — the replacement rebuilds its warm caches (engines, attached
    frames, memo) lazily on the first cell it executes.
    """

    def __init__(self, workers: int):
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        self.workers = workers
        self.abort = self._ctx.Event()
        self._results = self._ctx.Queue()
        self._tasks = [self._ctx.Queue() for _ in range(workers)]
        #: Shared-memory in-flight sentinels: a SIGKILLed worker's queued
        #: events can be lost with its queue feeder thread, but the Value it
        #: wrote before executing survives — crash recovery reads the victim
        #: cell from here.
        self._inflight = [self._ctx.Value("i", -1) for _ in range(workers)]
        self._retired: "list[Any]" = []  # queues of respawned workers
        self._procs = [self._spawn(worker_id) for worker_id in range(workers)]

    def _spawn(self, worker_id: int):
        proc = self._ctx.Process(
            target=self._worker_main, name=f"sweep-worker-{worker_id}",
            args=(worker_id, self._tasks[worker_id], self._results, self.abort,
                  self._inflight[worker_id]),
            daemon=True)
        proc.start()
        return proc

    @staticmethod
    def _worker_main(worker_id, task_queue, result_queue, abort, inflight) -> None:
        from ..testing.faults import fault_point, mark_worker_process

        mark_worker_process()  # enables SIGKILL injection in this process
        fault_point("worker_start", cell_id=None, worker_id=worker_id)
        state = _WorkerState()

        def mark(index: int) -> None:
            with inflight.get_lock():
                inflight.value = index

        batches = iter(task_queue.get, None)  # None is the shutdown sentinel
        _run_batches(worker_id, batches, result_queue.put, abort, state,
                     inflight=mark)

    def inflight(self, worker_id: int) -> int:
        """Plan index the worker is executing right now (-1 when idle)."""
        return self._inflight[worker_id].value

    def submit(self, assignments: "list[list[CellBatch]]") -> None:
        for worker_id, group in enumerate(assignments):
            for batch in group:
                dispatch_ts = time.perf_counter()
                self._tasks[worker_id].put(
                    (batch.batch_id, dispatch_ts, batch.tasks))

    def dispatch(self, worker_id: int, batch: CellBatch) -> None:
        self._tasks[worker_id].put(
            (batch.batch_id, time.perf_counter(), batch.tasks))

    def get_event(self, timeout: float):
        return self._results.get(timeout=timeout)

    def check_workers(self) -> "list[int]":
        """Worker ids whose process died without a clean sentinel exit."""
        return [worker_id for worker_id, proc in enumerate(self._procs)
                if not proc.is_alive() and proc.exitcode not in (None, 0)]

    def kill(self, worker_id: int) -> None:
        """SIGKILL a worker (cell-timeout enforcement); recover via respawn."""
        proc = self._procs[worker_id]
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5)

    def respawn(self, worker_id: int) -> None:
        old = self._procs[worker_id]
        old.join(timeout=1)
        retired = self._tasks[worker_id]
        # The dead worker's queue may still hold undrained batches; with no
        # reader left, its feeder thread would block on the full pipe and the
        # atexit finalizer would join it forever — drop the data instead.
        retired.cancel_join_thread()
        self._retired.append(retired)
        self._tasks[worker_id] = self._ctx.Queue()
        self._inflight[worker_id] = self._ctx.Value("i", -1)
        self._procs[worker_id] = self._spawn(worker_id)

    def terminate(self) -> None:
        self.abort.set()
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()

    def shutdown(self) -> None:
        self.abort.set()
        for task_queue in self._tasks:
            try:
                task_queue.put(None)
            except (OSError, ValueError):  # pragma: no cover - closed queue
                pass
        for proc in self._procs:
            proc.join(timeout=10)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.kill()
                proc.join(timeout=5)
        for task_queue in self._tasks + self._retired:
            task_queue.close()
        self._results.close()
