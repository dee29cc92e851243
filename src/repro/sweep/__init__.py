"""The sweep scheduler subsystem: cells, persistent cache, worker pools.

``repro.sweep`` turns a matrix slice into independent, hashable
:class:`~repro.sweep.cells.Cell` work units, dispatches them across a worker
pool with deterministic result ordering, and backs them with a
content-addressed on-disk cache so repeated or interrupted sweeps skip the
cells that already completed.  :meth:`repro.session.Session.run` and the
``python -m repro`` CLI (``--jobs``/``--cache-dir``/``--resume``) are built on
top of it.

Parallel sweeps execute through the batched tier of
:mod:`repro.sweep.workers`: cells are grouped into :class:`CellBatch` units
by (dataset, scale, engine), ordered longest-first from recorded wall-clock
hints and dispatched with dataset affinity to persistent workers — process
workers attach zero-copy to shared-memory frame segments
(:mod:`repro.frame.sharing`) instead of unpickling a frame per cell.

Beyond one machine, :mod:`repro.sweep.distributed` shards cells across TCP
worker hosts by content hash with cache-backed dedupe and work-stealing —
``Session.run(hosts=...)`` / CLI ``--hosts`` on the coordinator side,
``python -m repro sweep-worker`` on each host.
"""

from .cache import CACHE_VERSION, SweepCache, default_cache_dir, entry_checksum
from .cells import Cell, context_fingerprint, dataset_fingerprint, pipeline_fingerprint
from .distributed import (
    HostLostError,
    HostWorker,
    RunSpec,
    SweepCoordinator,
    assign_host_shards,
)
from .resilience import (
    CellTimeoutError,
    RetryPolicy,
    WorkerCrashError,
    quarantine_measurement,
)
from .scheduler import (
    PlannedCell,
    SweepScheduler,
    SweepStats,
    execute_cell,
    resolve_cache,
)
from .workers import (
    CellBatch,
    CellTask,
    HintMemory,
    ProcessWorkerPool,
    ThreadBatchExecutor,
    assign_shards,
    build_batches,
    hint_memory,
)

__all__ = [
    "Cell",
    "CellBatch",
    "CellTask",
    "CellTimeoutError",
    "HintMemory",
    "HostLostError",
    "HostWorker",
    "PlannedCell",
    "ProcessWorkerPool",
    "RetryPolicy",
    "RunSpec",
    "SweepCache",
    "SweepCoordinator",
    "SweepScheduler",
    "SweepStats",
    "ThreadBatchExecutor",
    "WorkerCrashError",
    "CACHE_VERSION",
    "assign_host_shards",
    "assign_shards",
    "build_batches",
    "context_fingerprint",
    "dataset_fingerprint",
    "entry_checksum",
    "hint_memory",
    "pipeline_fingerprint",
    "default_cache_dir",
    "execute_cell",
    "quarantine_measurement",
    "resolve_cache",
]
