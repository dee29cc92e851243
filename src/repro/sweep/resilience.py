"""Retry, quarantine and crash-recovery policies for fault-tolerant sweeps.

A sweep over dozens of engine × dataset cells should not lose an hour of
work to one flaky engine exception, one hung cell or one killed worker.
This module defines the policy layer every sweep runs under (``retry=`` on
:class:`~repro.sweep.scheduler.SweepScheduler` or ``--retries``/
``--cell-timeout`` on the CLI):

* :class:`RetryPolicy` — bounded attempts with exponential backoff and
  *deterministic* jitter (seeded by cell id + attempt, so two runs of the
  same sweep back off identically and chaos tests reproduce bit-for-bit),
  plus an optional per-cell wall-clock timeout;
* :func:`quarantine_measurement` — the error-status
  :class:`~repro.results.Measurement` a poison cell degrades to after its
  attempts are exhausted, so the sweep completes and reports partial
  failure instead of aborting (quarantined cells are never cached: a
  rerun retries them);
* :func:`execute_with_retry` — the sequential-path driver applying a policy
  around a cell thunk;
* :func:`resolve_retry` — the one normalisation of a user-facing ``retry=``;
* :class:`WorkerCrashError` / :class:`CellTimeoutError` — what a crashed
  worker or an expired cell timeout charges against the victim cell's
  attempt budget.

Without a policy (``retry=None``) a sweep runs every cell under a
one-attempt policy and fails fast: a cell that runs out of attempts aborts
the sweep instead of being quarantined.
"""

from __future__ import annotations

import hashlib
import inspect
import threading
import time
from dataclasses import dataclass

from ..results import Measurement
from .cells import Cell

__all__ = ["RetryPolicy", "WorkerCrashError", "CellTimeoutError",
           "quarantine_measurement", "execute_with_retry", "resolve_retry"]


class WorkerCrashError(RuntimeError):
    """The worker executing a cell died (crash or injected SIGKILL)."""


class CellTimeoutError(RuntimeError):
    """A cell exceeded the policy's per-cell wall-clock timeout."""


@dataclass(frozen=True)
class RetryPolicy:
    """How many times a cell may run, and how long to wait between tries.

    ``max_attempts`` counts executions, not retries: ``max_attempts=3`` is
    one initial attempt plus up to two retries.  Backoff before retry *n*
    (i.e. after ``n`` failed attempts) is exponential and capped::

        backoff_base * backoff_multiplier ** (n - 1)   (at most backoff_max)

    scaled down by up to ``jitter`` (a fraction) using a hash of
    ``(cell_id, n)`` — deterministic per cell, decorrelated across cells, so
    a retry storm spreads out without making sweeps unreproducible.

    ``cell_timeout`` (seconds) bounds one attempt's wall clock; an expired
    attempt counts as a failure (the process executor kills the worker
    running it, the thread/sequential paths abandon the attempt).
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25
    cell_timeout: "float | None" = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    @classmethod
    def from_retries(cls, retries: int,
                     cell_timeout: "float | None" = None) -> "RetryPolicy":
        """CLI-friendly constructor: ``retries`` extra attempts after the first."""
        return cls(max_attempts=int(retries) + 1, cell_timeout=cell_timeout)

    def backoff_seconds(self, cell_id: str, attempt: int) -> float:
        """Delay before the retry following failed attempt ``attempt`` (1-based)."""
        raw = min(self.backoff_max,
                  self.backoff_base * self.backoff_multiplier ** max(0, attempt - 1))
        if not self.jitter:
            return raw
        digest = hashlib.sha256(f"{cell_id}:{attempt}".encode()).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2 ** 64  # [0, 1)
        return raw * (1.0 - self.jitter * fraction)


def resolve_retry(retry: "RetryPolicy | int | None") -> "RetryPolicy | None":
    """Normalise a user-facing ``retry=`` argument.

    An int is that many retries after the first attempt, so ``0`` (like
    ``None``) asks for fail-fast and returns ``None``; a policy is used as-is.
    """
    if isinstance(retry, int) and not isinstance(retry, bool):
        return RetryPolicy.from_retries(retry) if retry > 0 else None
    return retry


def quarantine_measurement(cell: Cell, error: "BaseException | str",
                           attempts: int) -> Measurement:
    """The error-status record a poison cell contributes to the result set.

    Carries the cell's coordinates so grouping/pivoting still works, plus
    the resilience fields: ``status="error"``, the stringified error, and
    how many attempts were spent.  ``failed=True`` keeps it out of
    ``ResultSet.ok()`` like any organic failure.
    """
    message = str(error) or type(error).__name__ if isinstance(error, BaseException) else str(error)
    return Measurement(
        engine=cell.engine, dataset=cell.dataset, pipeline=cell.pipeline,
        mode=cell.mode, step=cell.file_format, lazy=cell.lazy,
        streaming=cell.streaming, backend=cell.backend or "object",
        machine=cell.machine, failed=True,
        failure_reason=f"quarantined after {attempts} attempt(s): {message}",
        status="error", error=message, attempts=attempts)


def _accepts_attempt(thunk) -> bool:
    try:
        return "attempt" in inspect.signature(thunk).parameters
    except (TypeError, ValueError):  # builtins, partials without signatures
        return False


def _call_attempt(thunk, attempt: int, timeout: "float | None"):
    """Run one attempt, optionally bounded by a wall-clock timeout.

    The timeout runs the thunk on a daemon thread and abandons it on expiry
    (the sequential path has no process to kill); the abandoned attempt may
    finish silently later, but its result is discarded.
    """
    call = (lambda: thunk(attempt=attempt)) if _accepts_attempt(thunk) else thunk
    if not timeout:
        return call()
    outcome: dict = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as error:  # transported to the waiting thread
            outcome["error"] = error

    runner = threading.Thread(target=target, name="repro-cell-attempt", daemon=True)
    runner.start()
    runner.join(timeout)
    if runner.is_alive():
        raise CellTimeoutError(f"cell attempt exceeded {timeout:g}s wall-clock timeout")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def execute_with_retry(thunk, cell: Cell, policy: RetryPolicy, *,
                       sleep=time.sleep):
    """Apply a retry policy around a cell thunk (the sequential path).

    Returns ``(measurements, attempts, seconds, error)`` where ``seconds``
    is the wall clock of the *successful* attempt only (failed attempts and
    backoff sleeps never pollute cache timing hints).  On exhaustion,
    ``measurements`` is the single quarantine record and ``error`` the last
    exception; on success ``error`` is ``None``.
    """
    last_error: "BaseException | None" = None
    for attempt in range(1, policy.max_attempts + 1):
        started = time.perf_counter()
        try:
            measurements = _call_attempt(thunk, attempt, policy.cell_timeout)
            return measurements, attempt, time.perf_counter() - started, None
        except Exception as error:
            last_error = error
            if attempt < policy.max_attempts:
                sleep(policy.backoff_seconds(cell.cell_id, attempt))
    assert last_error is not None
    return ([quarantine_measurement(cell, last_error, policy.max_attempts)],
            policy.max_attempts, 0.0, last_error)
