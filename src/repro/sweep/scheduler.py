"""Parallel, cache-aware execution of a planned sweep.

The scheduler takes an ordered plan of :class:`PlannedCell` work units (built
by :meth:`repro.session.Session.plan`), serves already-completed cells from
the :class:`~repro.sweep.cache.SweepCache`, runs the rest, and reassembles the
collected :class:`~repro.results.Measurement` records **in plan order** — so
the returned :class:`~repro.results.ResultSet` is bit-identical to a
sequential run regardless of completion order, worker count or cache state.

A cell runs one of two ways:

* **sequentially** (one worker, or a single pending cell) — each cell's
  in-process thunk runs in plan order; this is the reference path every
  other strategy is checked against;
* **through the batched tier** of :mod:`repro.sweep.workers` — cells are
  grouped by ``(dataset, scale, engine)``, ordered longest-first from
  recorded wall-clock hints, and dispatched with dataset affinity to
  **persistent** workers that keep engines, frames and a substrate memo warm
  across the whole sweep.  ``executor="thread"`` (default) workers share the
  session's live frames and one memo; ``executor="process"`` workers attach
  zero-copy to shared-memory frame segments the dispatcher exports once per
  distinct frame (see :mod:`repro.frame.sharing`).

Both paths share one failure path: every cell runs under a
:class:`~repro.sweep.resilience.RetryPolicy` (``retry=None`` is the
one-attempt policy), and a cell that runs out of attempts either aborts the
sweep (fail-fast, the default) or is quarantined.  Completed cells are written
to the cache *as they finish*, which is what makes interrupted sweeps
resumable: rerunning the same sweep skips every cell that completed before the
interruption.  ``profile=True`` additionally records a per-cell
dispatch/serialize/setup/execute/cache timing breakdown into
:class:`SweepStats`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from ..results import Measurement, ResultSet
from ..testing.faults import active_fault_plan, fault_point
from .cache import SweepCache
from .cells import Cell
from .resilience import (RetryPolicy, execute_with_retry,
                         quarantine_measurement, resolve_retry)

__all__ = ["PlannedCell", "SweepStats", "SweepScheduler", "resolve_cache"]

_EXECUTORS = ("thread", "process")


@dataclass
class PlannedCell:
    """One cell plus the two ways of executing it.

    ``execute`` runs the cell in-process against the session's shared
    components (the sequential path); ``payload`` is the self-contained
    description the batched tier builds its worker tasks from.
    """

    cell: Cell
    execute: Callable[[], "list[Measurement]"]
    payload: "dict[str, Any]"


@dataclass
class SweepStats:
    """What one scheduler run did (exposed as ``Session.last_sweep``).

    Beyond the cell counts, a batched run records where the wall clock went:
    ``execute_seconds`` is time spent inside ``measure_*`` calls, while
    ``serialize_seconds`` (exporting frames to shared memory) and
    ``setup_seconds`` (building engines / attaching frames in workers) are
    overhead — the split :meth:`summary` prints is the flatline diagnostic
    this PR exists for.  With ``profile=True`` the scheduler also appends one
    per-cell timing record to :attr:`profile` (see :meth:`profile_table`).
    """

    total: int = 0
    executed: int = 0
    cached: int = 0
    failed: int = 0
    workers: int = 1
    executor: str = "thread"
    wall_seconds: float = 0.0
    cells: list[str] = field(default_factory=list)
    #: Batches dispatched (0 = sequential path).
    batches: int = 0
    #: Exporting frames into shared-memory segments (dispatcher side).
    serialize_seconds: float = 0.0
    #: Engine construction + frame attach inside workers (warm ⇒ ~0).
    setup_seconds: float = 0.0
    #: Summed wall clock of the actual ``measure_*`` work inside workers.
    execute_seconds: float = 0.0
    #: Per-cell timing records (``profile=True`` runs only).
    profile: list[dict] = field(default_factory=list)
    #: Re-dispatched cell attempts (a retry policy was active and charged).
    retries: int = 0
    #: Cells that succeeded after at least one failed/charged attempt.
    recovered: int = 0
    #: Poison cells degraded to an error-status measurement after exhausting
    #: their attempts (see :func:`~repro.sweep.resilience.quarantine_measurement`).
    quarantined: int = 0
    #: Dead (crashed/killed/hung) workers replaced mid-sweep.
    respawns: int = 0
    #: Worker hosts that registered with the coordinator (distributed runs).
    hosts: int = 0
    #: Cells granted to an idle host from another host's backlog.
    stolen: int = 0
    #: Cells moved off a lost host and re-granted to survivors.
    reassigned: int = 0
    #: Worker hosts that disconnected or missed heartbeats mid-sweep.
    hosts_lost: int = 0
    #: Per-host records of a distributed run (see :meth:`distributed_table`).
    distributed: list[dict] = field(default_factory=list)

    @property
    def overhead_seconds(self) -> float:
        return self.serialize_seconds + self.setup_seconds

    def summary(self) -> str:
        base = (f"{self.total} cells: {self.cached} from cache, "
                f"{self.executed} executed ({self.workers} worker(s), "
                f"{self.executor}), {self.wall_seconds:.2f}s")
        if self.batches:
            base += (f" [{self.batches} batches: {self.execute_seconds:.2f}s "
                     f"executing, {self.overhead_seconds:.3f}s overhead = "
                     f"{self.serialize_seconds:.3f}s serialize "
                     f"+ {self.setup_seconds:.3f}s setup]")
        if self.retries or self.quarantined or self.respawns:
            base += (f" [resilience: {self.retries} retried, "
                     f"{self.recovered} recovered, "
                     f"{self.quarantined} quarantined, "
                     f"{self.respawns} worker(s) respawned]")
        if self.hosts:
            base += (f" [distributed: {self.hosts} host(s), "
                     f"{self.stolen} stolen, {self.reassigned} reassigned, "
                     f"{self.hosts_lost} host(s) lost]")
        return base

    def to_dict(self) -> dict:
        """JSON-ready view (what ``--stats-out`` and the bench emit)."""
        return {
            "total": self.total, "executed": self.executed,
            "cached": self.cached, "failed": self.failed,
            "workers": self.workers, "executor": self.executor,
            "wall_seconds": self.wall_seconds, "batches": self.batches,
            "serialize_seconds": self.serialize_seconds,
            "setup_seconds": self.setup_seconds,
            "execute_seconds": self.execute_seconds,
            "retries": self.retries, "recovered": self.recovered,
            "quarantined": self.quarantined, "respawns": self.respawns,
            "hosts": self.hosts, "stolen": self.stolen,
            "reassigned": self.reassigned, "hosts_lost": self.hosts_lost,
            "distributed": list(self.distributed),
        }

    def distributed_table(self) -> str:
        """The per-host breakdown of a distributed run as an aligned table."""
        if not self.distributed:
            return "(no distributed records; run with hosts=...)"
        headers = ("host", "workers", "executed", "cached", "stolen",
                   "quarantined", "execute_s", "lost")
        rows = [(str(record["host"]), str(record["workers"]),
                 str(record["executed"]), str(record["cached"]),
                 str(record["stolen"]), str(record["quarantined"]),
                 f"{record['execute_seconds']:.3f}",
                 "yes" if record["lost"] else "")
                for record in self.distributed]
        widths = [max(len(h), *(len(r[i]) for r in rows))
                  for i, h in enumerate(headers)]
        def fmt(values):
            first = values[0].ljust(widths[0])
            rest = (v.rjust(w) for v, w in zip(values[1:], widths[1:]))
            return "  ".join((first, *rest))
        lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
        lines += [fmt(row) for row in rows]
        return "\n".join(lines)

    def profile_table(self) -> str:
        """The per-cell breakdown as an aligned text table."""
        if not self.profile:
            return "(no profile records; run with profile=True)"
        headers = ("cell", "dispatch", "serialize", "setup", "execute", "cache")
        rows = [(record["cell"],
                 *(f"{record[k]:.4f}" for k in headers[1:]))
                for record in self.profile]
        widths = [max(len(h), *(len(r[i]) for r in rows))
                  for i, h in enumerate(headers)]
        def fmt(values):
            first = values[0].ljust(widths[0])
            rest = (v.rjust(w) for v, w in zip(values[1:], widths[1:]))
            return "  ".join((first, *rest))
        lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
        lines += [fmt(row) for row in rows]
        totals = ("total",) + tuple(
            f"{sum(r[k] for r in self.profile):.4f}"
            for k in headers[1:])
        lines.append(fmt(tuple("-" * w for w in widths)))
        lines.append(fmt(totals))
        return "\n".join(lines)


def resolve_cache(cache: "bool | str | Any | None") -> "SweepCache | None":
    """Normalize the user-facing ``cache=`` argument.

    ``None``/``False`` disable caching, ``True`` uses the default directory,
    a string/path selects a directory, and a :class:`SweepCache` is used
    as-is.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return SweepCache()
    if isinstance(cache, SweepCache):
        return cache
    return SweepCache(cache)


class SweepScheduler:
    """Runs planned cells sequentially or on the batched tier, deterministically.

    ``on_result`` is a job-granular progress callback invoked once per cell
    as its result lands — ``on_result(cell, measurements, source)`` with
    ``source`` one of ``"cache"``/``"executed"``/``"quarantined"``.
    Callbacks fire in completion order (not plan order) and always from the
    scheduling thread, so implementations need no locking of their own.
    ``on_start`` fires (same thread) as a cell's execution begins — the
    distributed tier uses it to report in-flight cells to the coordinator
    so a lost host's attempt accounting matches the single-host semantics.

    ``retry`` selects what happens when a cell runs out of attempts.  With
    ``None`` (default) every cell gets one attempt and the sweep fails fast:
    the first error stops new cells from starting, cells already finished
    are still committed, and the error is raised once they have drained.
    A :class:`~repro.sweep.resilience.RetryPolicy` (or an int, shorthand for
    that many retries) retries failed cells with backoff and quarantines
    them after their last attempt; ``cell_timeout`` bounds each attempt's
    wall clock.  Either way crashed workers are respawned and their
    uncommitted cells re-dispatched, and successful results are
    bit-identical regardless of how many attempts they needed.
    """

    def __init__(self, workers: int = 1, cache: "SweepCache | None" = None,
                 executor: str = "thread",
                 on_result: "Callable[[Cell, list[Measurement], str], None] | None" = None,
                 profile: bool = False,
                 retry: "RetryPolicy | int | None" = None,
                 on_start: "Callable[[Cell], None] | None" = None,
                 on_complete: "Callable[[Cell, list[Measurement], str, float | None], None] | None" = None,
                 pool=None):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if executor not in _EXECUTORS:
            raise ValueError(f"unknown executor {executor!r}; expected one of {_EXECUTORS}")
        self.workers = workers
        self.cache = cache
        self.executor = executor
        self.on_result = on_result
        self.on_start = on_start
        #: Like ``on_result`` but carries the cell's physical wall-clock
        #: seconds (``None`` for cache hits and quarantines) — what the
        #: distributed tier forwards so coordinator hints stay wall-true.
        self.on_complete = on_complete
        #: An externally-owned batch executor (``ThreadBatchExecutor`` /
        #: ``ProcessWorkerPool``) reused across ``run()`` calls.  The warm
        #: per-worker state (engines, attached frames, memo) is the whole
        #: point: a worker-host agent executes many small grants, and a fresh
        #: pool per grant would pay the per-coordinate setup every time.
        #: The owner shuts it down; with a pool the batched tier is used
        #: even at ``workers=1``.
        self.pool = pool
        #: Record per-cell timing breakdowns into ``last_stats.profile``.
        self.profile = profile
        #: The caller's policy; ``None`` means fail-fast.
        self.retry: "RetryPolicy | None" = resolve_retry(retry)
        #: The policy every cell runs under (fail-fast: a single attempt).
        self._policy = self.retry or RetryPolicy(max_attempts=1)
        self.last_stats: "SweepStats | None" = None

    def _notify(self, cell: Cell, measurements: "list[Measurement]", source: str) -> None:
        if self.on_result is not None:
            self.on_result(cell, measurements, source)

    def _notify_start(self, cell: Cell) -> None:
        if self.on_start is not None:
            self.on_start(cell)

    def _notify_complete(self, cell: Cell, measurements: "list[Measurement]",
                         source: str, seconds: "float | None") -> None:
        if self.on_complete is not None:
            self.on_complete(cell, measurements, source, seconds)

    # ------------------------------------------------------------------ #
    def run(self, plan: Sequence[PlannedCell]) -> ResultSet:
        """Execute a plan and return its measurements in plan order."""
        start = time.perf_counter()
        stats = SweepStats(total=len(plan), workers=self.workers, executor=self.executor)
        self.last_stats = stats
        slots: "list[list[Measurement] | None]" = [None] * len(plan)
        errors: "list[BaseException]" = []  # fail-fast: cells out of attempts

        # An installed-but-unbound fault plan is bound to this sweep's cell
        # population *before* any worker forks, so every process deterministically
        # agrees on the target cells (no-op without an injection harness).
        fault_plan = active_fault_plan()
        if fault_plan is not None and not fault_plan.bound:
            fault_plan.bind([planned.cell.cell_id for planned in plan])

        pending: list[int] = []
        for index, planned in enumerate(plan):
            hit = self.cache.load(planned.cell) if self.cache is not None else None
            if hit is not None:
                slots[index] = hit
                stats.cached += 1
                self._notify(planned.cell, hit, "cache")
                self._notify_complete(planned.cell, hit, "cache", None)
            else:
                pending.append(index)
        stats.cells = [planned.cell.cell_id for planned in plan]

        try:
            if pending and (self.pool is not None
                            or (self.workers > 1 and len(pending) > 1)):
                self._run_batched(plan, pending, slots, stats, errors)
            else:
                for index in pending:
                    slots[index] = self._complete(plan[index], stats, errors)
                    if errors:
                        break
        finally:
            stats.wall_seconds = time.perf_counter() - start
            stats.failed = len(errors)
        if errors:
            raise errors[0]

        results = ResultSet()
        for slot in slots:
            results.extend(slot or ())
        return results

    def _out_of_attempts(self, cell: Cell, error: BaseException, attempts: int,
                         stats: SweepStats, errors: "list[BaseException]"
                         ) -> "list[Measurement] | None":
        """Resolve a cell that failed its last attempt.

        This is the one place fail-fast and resilient sweeps differ.  Without
        a retry policy the error is recorded and ``None`` returned: the caller
        starts no further cells, and :meth:`run` raises the first error once
        the finished cells have been committed.  With a policy the cell
        degrades to a quarantine record, which is never cached (a rerun
        retries it).
        """
        if self.retry is None:
            errors.append(error)
            return None
        measurement = quarantine_measurement(cell, error, attempts)
        stats.quarantined += 1
        self._notify(cell, [measurement], "quarantined")
        self._notify_complete(cell, [measurement], "quarantined", None)
        return [measurement]

    # ------------------------------------------------------------------ #
    # the sequential path: plan order, the session's in-process thunks
    # ------------------------------------------------------------------ #
    def _complete(self, planned: PlannedCell, stats: SweepStats,
                  errors: "list[BaseException]") -> "list[Measurement] | None":
        self._notify_start(planned.cell)
        measurements, attempts, seconds, error = execute_with_retry(
            planned.execute, planned.cell, self._policy)
        stats.retries += attempts - 1
        if error is not None:
            return self._out_of_attempts(planned.cell, error, attempts,
                                         stats, errors)
        if attempts > 1:
            stats.recovered += 1
        cache_started = time.perf_counter()
        if self.cache is not None:
            self.cache.store(planned.cell, measurements, seconds=seconds)
        cache_seconds = time.perf_counter() - cache_started
        from .workers import hint_memory

        hint_memory.record(planned.cell, seconds)
        stats.executed += 1
        stats.execute_seconds += seconds
        if self.profile:
            stats.profile.append({
                "cell": planned.cell.label(), "dispatch": 0.0,
                "serialize": 0.0, "setup": 0.0, "execute": seconds,
                "cache": cache_seconds})
        self._notify(planned.cell, measurements, "executed")
        self._notify_complete(planned.cell, measurements, "executed", seconds)
        return measurements

    # ------------------------------------------------------------------ #
    # the batched tier: persistent workers, shared frames, affinity dispatch
    # ------------------------------------------------------------------ #
    def _run_batched(self, plan: Sequence[PlannedCell], pending: "list[int]",
                     slots: "list[list[Measurement] | None]",
                     stats: SweepStats, errors: "list[BaseException]") -> None:
        from ..frame.sharing import SharedFrameStore
        from .resilience import WorkerCrashError
        from .workers import (CellBatch, ProcessWorkerPool,
                              ThreadBatchExecutor, assign_shards,
                              build_batches, decode_error, hint_memory)

        policy = self._policy
        batches = build_batches(plan, pending, cache=self.cache)
        pool_workers = (self.pool.workers if self.pool is not None
                        else self.workers)
        assignments = assign_shards(batches, pool_workers)
        stats.batches = len(batches)
        serialize_share: "dict[int, float]" = {}  # plan index → seconds
        task_by_index = {task.index: task
                         for batch in batches for task in batch.tasks}
        next_batch_id = max((b.batch_id for b in batches), default=-1) + 1

        store: "SharedFrameStore | None" = None
        pool = None
        try:
            # Everything from here sits inside the try so that a failure (or
            # Ctrl-C) during frame export or pool spawn — e.g. a worker that
            # dies before attaching — still unlinks every exported /dev/shm
            # segment via the finally below.
            if self.executor == "process":
                # Serialize each distinct physical frame ONCE, replace the
                # live frame in every task with the shared-memory manifest,
                # and reference-count segments per batch so memory is
                # reclaimed the moment the last batch touching a frame
                # completes.
                store = SharedFrameStore()
                segment_cost: "dict[str, float]" = {}
                segment_cells: "dict[str, int]" = {}
                for batch in batches:
                    for task in batch.tasks:
                        if task.frame is None:
                            continue
                        started = time.perf_counter()
                        task.manifest = store.export(task.frame)  # once per frame
                        cost = time.perf_counter() - started
                        segment = task.manifest.segment
                        if segment not in segment_cost:
                            stats.serialize_seconds += cost
                            segment_cost[segment] = cost
                        segment_cells[segment] = segment_cells.get(segment, 0) + 1
                        task.frame = None
                for batch in batches:
                    for task in batch.tasks:
                        if task.manifest is not None:
                            segment = task.manifest.segment
                            serialize_share[task.index] = (
                                segment_cost[segment] / segment_cells[segment])
                pool = self.pool or ProcessWorkerPool(len(assignments))
            else:
                pool = self.pool or ThreadBatchExecutor(len(assignments))

            # --- dispatch/recovery bookkeeping (scheduling thread only) --- #
            batch_segments: "dict[int, list[str]]" = {}  # per-dispatch retains
            owner: "dict[int, int]" = {}        # batch id → worker id
            open_cells: "dict[int, set[int]]" = {}  # batch id → uncommitted cells
            attempts: "dict[int, int]" = {}     # plan index → attempts started
            current: "dict[int, int | None]" = {}   # worker → in-flight index
            started_at: "dict[int, float]" = {}  # plan index → start wall time
            waiting: "list[tuple[float, int]]" = []  # (ready time, index)
            held: "dict[int, list[str]]" = {}   # retry segment holds
            outstanding: "set[int]" = set()
            unresolved = set(pending)
            workers_used = max(1, len(assignments))
            respawn_budget = 4 * workers_used + len(pending)

            if store is not None:
                for batch in batches:
                    segments = sorted(batch.segments())
                    for segment in segments:
                        store.retain(segment)
                    batch_segments[batch.batch_id] = segments
            for worker_id, group in enumerate(assignments):
                for batch in group:
                    owner[batch.batch_id] = worker_id
                    open_cells[batch.batch_id] = {t.index for t in batch.tasks}
                    outstanding.add(batch.batch_id)

            def task_segments(task) -> "list[str]":
                return [task.manifest.segment] if task.manifest is not None else []

            def release_batch(batch_id: int) -> None:
                if store is not None:
                    for segment in batch_segments.pop(batch_id, ()):
                        store.release(segment)

            def pick_worker() -> int:
                loads = {worker_id: 0 for worker_id in range(workers_used)}
                for batch_id, cells in open_cells.items():
                    worker_id = owner.get(batch_id)
                    if worker_id in loads:
                        loads[worker_id] += len(cells)
                return min(loads, key=lambda worker_id: (loads[worker_id], worker_id))

            def dispatch_cells(indices: "list[int]", worker_id: int) -> None:
                """Ship cells as a fresh batch (retries / stolen cells)."""
                nonlocal next_batch_id
                tasks, segments = [], []
                for index in indices:
                    task = replace(task_by_index[index],
                                   attempt=attempts.get(index, 0) + 1)
                    task_by_index[index] = task
                    tasks.append(task)
                    hold = held.pop(index, None)
                    if hold is not None:
                        segments.extend(hold)  # transfer the retry hold
                    elif store is not None:
                        for segment in task_segments(task):
                            store.retain(segment)
                            segments.append(segment)
                batch = CellBatch(batch_id=next_batch_id, key=("redispatch",),
                                  tasks=tasks)
                next_batch_id += 1
                owner[batch.batch_id] = worker_id
                open_cells[batch.batch_id] = set(indices)
                outstanding.add(batch.batch_id)
                if store is not None:
                    batch_segments[batch.batch_id] = segments
                pool.dispatch(worker_id, batch)

            def give_up(index: int, error: BaseException) -> None:
                unresolved.discard(index)
                if store is not None:
                    for segment in held.pop(index, ()):
                        store.release(segment)
                slots[index] = self._out_of_attempts(
                    plan[index].cell, error, attempts.get(index, 0), stats,
                    errors)
                if slots[index] is None:
                    pool.abort.set()  # unstarted cells drain as "skip"

            def handle_failure(index: int, error: BaseException) -> None:
                """Charge the in-flight attempt; retry with backoff or give up."""
                if index not in unresolved:
                    return
                charged = attempts.get(index, 0)
                if charged < policy.max_attempts:
                    stats.retries += 1
                    if store is not None and index not in held:
                        segments = task_segments(task_by_index[index])
                        for segment in segments:
                            store.retain(segment)  # survive batch release
                        held[index] = segments
                    ready = (time.perf_counter()
                             + policy.backoff_seconds(plan[index].cell.cell_id,
                                                      max(1, charged)))
                    waiting.append((ready, index))
                else:
                    give_up(index, error)

            def handle_dead_worker(worker_id: int, reason: str) -> None:
                nonlocal respawn_budget
                if respawn_budget <= 0:
                    raise RuntimeError(
                        "sweep worker respawn limit exceeded; giving up")
                respawn_budget -= 1
                # The victim cell comes from the pool's in-flight sentinel (a
                # side channel that survives SIGKILL), falling back to the
                # drained "start" stream; its attempt is charged from the
                # dispatched task, because the event recording it may have
                # died in the worker's queue feeder.
                victim: "int | None" = pool.inflight(worker_id)
                if victim is None or victim < 0:
                    victim = current.pop(worker_id, None)
                else:
                    current.pop(worker_id, None)
                if victim is not None and victim in unresolved:
                    attempts[victim] = max(attempts.get(victim, 0),
                                           task_by_index[victim].attempt)
                orphan_batches = [batch_id for batch_id, owner_id in owner.items()
                                  if owner_id == worker_id and batch_id in open_cells]
                orphans: "list[int]" = []
                for batch_id in orphan_batches:
                    cells = open_cells.pop(batch_id)
                    outstanding.discard(batch_id)
                    orphans.extend(index for index in cells if index != victim)
                pool.respawn(worker_id)
                stats.respawns += 1
                # The victim (the cell the worker was executing when it died)
                # is charged an attempt; the rest of the shard is stolen and
                # re-dispatched untouched.  Retains for the replacement
                # batches happen before the dead batches release, so shared
                # segments never hit refcount zero in between.
                if victim is not None:
                    handle_failure(victim, WorkerCrashError(reason))
                orphans = sorted(index for index in set(orphans)
                                 if index in unresolved)
                if orphans:
                    dispatch_cells(orphans, pick_worker())
                for batch_id in orphan_batches:
                    release_batch(batch_id)

            def maintenance() -> None:
                """Idle-tick work: due retries, cell timeouts, dead workers."""
                now = time.perf_counter()
                if waiting:
                    still_waiting: "list[tuple[float, int]]" = []
                    for ready, index in waiting:
                        if index not in unresolved:
                            # resolved while waiting (e.g. a duplicate
                            # attempt landed): drop the hold
                            if store is not None:
                                for segment in held.pop(index, ()):
                                    store.release(segment)
                        elif ready <= now:
                            dispatch_cells([index], pick_worker())
                        else:
                            still_waiting.append((ready, index))
                    waiting[:] = still_waiting
                if policy.cell_timeout:
                    for worker_id, index in list(current.items()):
                        if (index is not None and index in unresolved
                                and now - started_at.get(index, now)
                                > policy.cell_timeout):
                            pool.kill(worker_id)  # recovered as a dead worker
                for worker_id in pool.check_workers():
                    handle_dead_worker(worker_id, f"worker {worker_id} died")

            pool.submit(assignments)
            last_maintenance = time.perf_counter()
            while unresolved or outstanding:
                try:
                    event = pool.get_event(timeout=0.25)
                except Exception:  # queue.Empty (both flavours raise it)
                    event = None
                if event is not None:
                    kind = event[0]
                    if kind == "start":
                        _, worker_id, batch_id, index = event
                        if index in unresolved:
                            attempts[index] = attempts.get(index, 0) + 1
                            self._notify_start(plan[index].cell)
                        current[worker_id] = index
                        started_at[index] = time.perf_counter()
                    elif kind == "ok":
                        _, worker_id, batch_id, index, measurements, seconds, timings = event
                        if current.get(worker_id) == index:
                            current[worker_id] = None
                        cells = open_cells.get(batch_id)
                        if cells is not None:
                            cells.discard(index)
                        if index not in unresolved:
                            continue  # stale duplicate (abandoned attempt)
                        slots[index] = measurements
                        stats.executed += 1
                        if attempts.get(index, 1) > 1:
                            stats.recovered += 1
                        stats.setup_seconds += timings["setup"]
                        stats.execute_seconds += timings["execute"]
                        unresolved.discard(index)
                        cell = plan[index].cell
                        cache_started = time.perf_counter()
                        if self.cache is not None:
                            self.cache.store(cell, measurements, seconds=seconds)
                        cache_seconds = time.perf_counter() - cache_started
                        hint_memory.record(cell, seconds)
                        if self.profile:
                            stats.profile.append({
                                "cell": cell.label(),
                                "dispatch": timings.get("dispatch", 0.0),
                                "serialize": serialize_share.get(index, 0.0),
                                "setup": timings["setup"],
                                "execute": timings["execute"],
                                "cache": cache_seconds})
                        self._notify(cell, measurements, "executed")
                        self._notify_complete(cell, measurements, "executed",
                                              seconds)
                    elif kind == "err":
                        _, worker_id, batch_id, index, encoded = event
                        if current.get(worker_id) == index:
                            current[worker_id] = None
                        cells = open_cells.get(batch_id)
                        if cells is not None:
                            cells.discard(index)
                        handle_failure(index, decode_error(encoded))
                    elif kind == "skip":
                        _, worker_id, batch_id, index = event
                        unresolved.discard(index)
                        cells = open_cells.get(batch_id)
                        if cells is not None:
                            cells.discard(index)
                    elif kind == "batch_done":
                        batch_id = event[2]
                        open_cells.pop(batch_id, None)
                        outstanding.discard(batch_id)
                        release_batch(batch_id)
                    # "worker_done" events need no handling: batch/cell
                    # accounting above already decides when the drain ends.
                now = time.perf_counter()
                if event is None or now - last_maintenance >= 0.2:
                    # Recovery runs on idle ticks (and at least every 0.2s
                    # under load) so a dead worker's already-queued events
                    # drain first and the victim cell is identified from the
                    # freshest "start" bookkeeping.
                    last_maintenance = now
                    maintenance()
        except BaseException:
            if pool is not None:
                pool.terminate()
            raise
        finally:
            if pool is not None and pool is not self.pool:
                pool.shutdown()  # externally-owned pools outlive the run
            if store is not None:
                # segments must never outlive the sweep, whatever happened
                store.close()


# --------------------------------------------------------------------------- #
# cell execution: one implementation shared by every path
# --------------------------------------------------------------------------- #
def execute_cell(cell: Cell, engine, *, runner=None, frame=None, sim=None,
                 pipeline=None, tpch_runner=None,
                 attempt: int = 1) -> "list[Measurement]":
    """Run one cell against resolved components and return its measurements.

    This is the *single* place a cell's coordinates are turned into
    ``measure_*`` calls: the session's sequential thunks call it with shared
    components, and batched workers call it with their warm per-worker
    components (rebuilt inside the process on the process executor) — so
    every path produces identical records by construction.  The cell's ``backend`` coordinate is realized here too:
    the input frame is converted to the requested physical representation,
    the substrate's active backend is switched for the duration of the cell,
    and every emitted measurement is stamped with the backend it ran on.

    ``attempt`` is the 1-based execution attempt under a retry policy; it
    never influences results — it only feeds the fault-injection hook, which
    is a no-op unless a :class:`~repro.testing.faults.FaultPlan` is active.
    """
    from ..frame.backends import convert_frame, use_backend

    fault_point("execute_cell", cell_id=cell.cell_id, attempt=attempt)
    backend = cell.backend or "object"
    if frame is not None:
        # no-op (same object) when the frame already lives on that backend,
        # e.g. when the session pre-converted it once per dataset
        frame = convert_frame(frame, backend)
    with use_backend(backend):
        measurements = _execute_cell_inner(cell, engine, runner=runner,
                                           frame=frame, sim=sim,
                                           pipeline=pipeline,
                                           tpch_runner=tpch_runner)
    for m in measurements:
        m.backend = backend
    return measurements


def _execute_cell_inner(cell: Cell, engine, *, runner, frame, sim, pipeline,
                        tpch_runner) -> "list[Measurement]":
    if cell.mode == "tpch":
        outcome = tpch_runner.run_query(engine, cell.pipeline)
        return [Measurement(
            engine=cell.engine, dataset=cell.dataset, pipeline=cell.pipeline,
            mode="tpch", step=cell.pipeline, seconds=outcome.seconds,
            rows=outcome.rows, lazy=engine.supports_lazy, failed=outcome.failed,
            failure_reason=outcome.failure_reason, machine=cell.machine)]
    if cell.mode in ("read", "write"):
        return [runner.measure_io(engine, frame, sim, cell.mode, cell.file_format)]
    if cell.mode == "core":
        return runner.measure_function_core(engine, frame, pipeline, sim)
    if cell.mode == "stage":
        return runner.measure_stages(engine, frame, pipeline, sim, lazy=cell.lazy,
                                     stages=list(cell.stages) or None,
                                     streaming=cell.streaming)
    if cell.mode == "full":
        return [runner.measure_full(engine, frame, pipeline, sim, lazy=cell.lazy,
                                    streaming=cell.streaming)]
    raise ValueError(f"unknown cell mode {cell.mode!r}")
