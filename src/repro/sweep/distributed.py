"""Distributed sweeps: shard cells across worker hosts over a TCP protocol.

This is the cross-machine half of the sweep tier (ROADMAP item 1).  A
:class:`SweepCoordinator` owns a planned sweep and a listening socket; each
participating machine runs a :class:`HostWorker` agent
(``python -m repro sweep-worker --connect host:port``) that rebuilds the
identical plan from a wire-serialized :class:`RunSpec`, executes granted
cells on its local :class:`~repro.sweep.scheduler.SweepScheduler` (thread or
process pool), and streams per-cell ``start``/``result`` events back — so
cache commits, ``on_result`` callbacks, resume and profiler contracts are
exactly the single-host ones.

Design decisions, in the order they matter:

* **Stdlib TCP, length-prefixed JSON frames** — same no-new-deps philosophy
  as :mod:`repro.service.http`.  Only cell *ids* and measurement dicts cross
  the wire: plans are deterministic functions of the configuration, so each
  host re-derives frames/pipelines/engines locally instead of pickling them.
* **Content-hash sharding** — pending cells are placed by content hash of
  their dataset coordinate (falling back to ``cell_id`` hashing when there
  are fewer datasets than hosts), and each host's backlog is ordered
  longest-first from ``seconds_hint`` — the same affinity/longest-first
  structure as :func:`repro.sweep.workers.assign_shards`, lifted from
  workers to hosts (see :func:`assign_host_shards`).
* **Pull-based grants + work-stealing** — hosts request work (``ready``) and
  receive small chunks, so unstarted cells stay at the coordinator.  An idle
  host whose backlog is empty steals from the *tail* of the slowest shard
  (largest remaining hint mass): the owner keeps eating its longest cells
  from the front while thieves take the short ones from the back.
* **The shared** :class:`~repro.sweep.cache.SweepCache` **is the coordination
  substrate** — every host commits results to (and checks) the same
  content-addressed store, so a cell committed by any peer is skipped
  everywhere (the multi-process safety this relies on is pinned by tests).
* **PR 9 fault semantics across hosts** — transient failures are retried
  *inside* the owning host by its local ``RetryPolicy`` machinery; a lost
  connection or crashed host charges one attempt against each cell it had
  started (:class:`HostLostError` is a :class:`WorkerCrashError`) and
  re-grants survivors' work.  A cell whose wire-carried attempt budget is
  exhausted is quarantined, or — with ``retry=None``, a one-attempt budget —
  aborts the sweep with :class:`HostLostError`.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import socket
import struct
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Sequence

from ..config import ExperimentConfig
from ..results import Measurement, ResultSet
from ..simulate.hardware import GpuConfig, MachineConfig
from ..testing.faults import (ConnectionDropFault, FaultPlan,
                              active_fault_plan, fault_point,
                              install_fault_plan)
from .cache import SweepCache
from .cells import Cell
from .resilience import (RetryPolicy, WorkerCrashError, quarantine_measurement,
                         resolve_retry)
from .scheduler import PlannedCell, SweepScheduler, SweepStats
from .workers import DEFAULT_SECONDS_HINT, hint_memory

__all__ = ["ConnectionClosed", "ProtocolError", "HostLostError", "RunSpec",
           "SweepCoordinator", "HostWorker", "send_frame", "recv_frame",
           "assign_host_shards"]

_HEADER = struct.Struct(">I")
#: Frames carry cell ids and measurement dicts, never frames — anything
#: larger than this is a protocol bug, not a big sweep.
MAX_FRAME_BYTES = 64 * 1024 * 1024
#: Cells granted per ``ready`` request: small enough that unstarted work
#: stays stealable at the coordinator, large enough to amortize round trips.
DEFAULT_CHUNK = 4


class ProtocolError(RuntimeError):
    """A malformed or oversized frame on the coordinator↔host link."""


class ConnectionClosed(ProtocolError):
    """The peer closed the link (EOF mid-frame or before one)."""


class HostLostError(WorkerCrashError):
    """A worker host disconnected or missed heartbeats with cells in flight.

    Subclasses :class:`~repro.sweep.resilience.WorkerCrashError` so host loss
    charges a cell's attempt budget exactly like an intra-host worker crash.
    """


# --------------------------------------------------------------------------- #
# framing: 4-byte big-endian length prefix + compact JSON object
# --------------------------------------------------------------------------- #
def send_frame(sock: socket.socket, payload: "dict[str, Any]") -> None:
    """Write one length-prefixed JSON frame."""
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(data)} bytes exceeds "
                            f"{MAX_FRAME_BYTES}")
    sock.sendall(_HEADER.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            raise ConnectionClosed("connection closed by peer")
        chunks += chunk
    return bytes(chunks)


def recv_frame(sock: socket.socket) -> "dict[str, Any]":
    """Read one frame; raises :class:`ConnectionClosed` on EOF."""
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    try:
        payload = json.loads(_recv_exact(sock, length).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ProtocolError(f"undecodable frame: {err}") from None
    if not isinstance(payload, dict) or "type" not in payload:
        raise ProtocolError("frame is not a typed JSON object")
    return payload


# --------------------------------------------------------------------------- #
# the wire-serializable description a host rebuilds its plan from
# --------------------------------------------------------------------------- #
@dataclass
class RunSpec:
    """Everything a :class:`HostWorker` needs to reconstruct the sweep.

    Plans are deterministic functions of (configuration, plan kwargs): the
    datasets regenerate from the seed, the engines rebuild by name, and
    :meth:`repro.session.Session.plan` enumerates cells in a fixed order —
    so shipping this spec yields the exact cell ids the coordinator holds,
    and only ids ever cross the wire afterwards.
    """

    config: "dict[str, Any]"
    plan_kwargs: "dict[str, Any]"
    cache_dir: "str | None" = None
    retry: "dict[str, Any] | None" = None
    faults: "dict[str, Any] | None" = None
    profile: bool = False

    @staticmethod
    def config_to_wire(config: ExperimentConfig) -> "dict[str, Any]":
        return {"scale": config.scale, "runs": config.runs,
                "seed": config.seed, "backend": config.backend,
                "engines": list(config.engines),
                "tpch_engines": list(config.tpch_engines),
                "datasets": list(config.datasets),
                "machine": asdict(config.machine)}

    @staticmethod
    def config_from_wire(wire: "dict[str, Any]") -> ExperimentConfig:
        machine = dict(wire["machine"])
        gpu = machine.get("gpu")
        machine["gpu"] = GpuConfig(**gpu) if gpu else None
        return ExperimentConfig(
            scale=wire["scale"], runs=wire["runs"], seed=wire["seed"],
            backend=wire["backend"], machine=MachineConfig(**machine),
            engines=list(wire["engines"]),
            tpch_engines=list(wire["tpch_engines"]),
            datasets=list(wire["datasets"]))

    @staticmethod
    def faults_to_wire(plan: "FaultPlan | None") -> "dict[str, Any] | None":
        if plan is None:
            return None
        return {"seed": plan.seed, "counts": dict(plan.counts),
                "flaky_attempts": plan.flaky_attempts,
                "hang_seconds": plan.hang_seconds}

    def to_dict(self) -> "dict[str, Any]":
        return asdict(self)

    @classmethod
    def from_dict(cls, wire: "dict[str, Any]") -> "RunSpec":
        return cls(config=wire["config"], plan_kwargs=wire["plan_kwargs"],
                   cache_dir=wire.get("cache_dir"), retry=wire.get("retry"),
                   faults=wire.get("faults"),
                   profile=bool(wire.get("profile", False)))

    def build_session(self):
        from ..session import Session  # session imports this package

        return Session(self.config_from_wire(self.config))

    def build_plan(self, session) -> "list[PlannedCell]":
        kwargs = dict(self.plan_kwargs)
        mode = kwargs.pop("mode", "full")
        if kwargs.get("stages") is not None:
            kwargs["stages"] = list(kwargs["stages"])
        if kwargs.get("formats") is not None:
            kwargs["formats"] = list(kwargs["formats"])
        return session.plan(mode, **kwargs)

    def retry_policy(self) -> "RetryPolicy | None":
        return RetryPolicy(**self.retry) if self.retry else None

    def fault_plan(self) -> "FaultPlan | None":
        if not self.faults:
            return None
        counts = self.faults["counts"]
        return FaultPlan(seed=self.faults["seed"],
                         kills=counts.get("kill", 0),
                         flaky=counts.get("flaky", 0),
                         hangs=counts.get("hang", 0),
                         corrupt=counts.get("corrupt", 0),
                         drops=counts.get("drop", 0),
                         flaky_attempts=self.faults["flaky_attempts"],
                         hang_seconds=self.faults["hang_seconds"])


# --------------------------------------------------------------------------- #
# sharding: content-hash host buckets, longest-first within each backlog
# --------------------------------------------------------------------------- #
def _hint(cell: Cell, cache: "SweepCache | None") -> float:
    if cache is not None:
        hint = cache.seconds_hint(cell)
        if hint is not None:
            return hint
    hint = hint_memory.lookup(cell)
    return hint if hint is not None else DEFAULT_SECONDS_HINT


def _shard_key(cell: Cell) -> "tuple[str, float]":
    # The coordinate sharded across hosts: all cells of one (dataset, scale)
    # land on one host — the host-level analogue of the dataset-affinity
    # sharding in ``workers.assign_shards`` — so the frame attach, warm
    # engines and the substrate memo's cross-engine dedup are paid once per
    # dataset fleet-wide instead of once per dataset *per host*.
    return (cell.dataset, cell.scale)


def _shard_owners(plan: Sequence[PlannedCell], hosts: int):
    """Return a ``cell -> owning host`` placement function for the plan.

    Distinct shard keys are ranked by their content hash and dealt
    round-robin: content-addressed (no positional accidents), collision-free
    (every host owns work), and derived from the *full* plan — so placement
    is independent of which cells are still pending, which is what keeps
    shards stable under resume.  When the plan holds fewer dataset
    coordinates than hosts the same ranking runs over cell ids instead:
    dataset affinity is moot there (some datasets must be warmed on several
    hosts regardless), and cell-level placement keeps every host seeded
    with owned work instead of starting idle.
    """
    coords: "dict[tuple, str]" = {}
    for planned in plan:
        key = _shard_key(planned.cell)
        if key not in coords:
            coords[key] = hashlib.sha256(
                f"{key[0]}|{key[1]}".encode("utf-8")).hexdigest()
    if len(coords) >= hosts:
        ranked = sorted(coords, key=lambda key: coords[key])
        owners = {key: rank % hosts for rank, key in enumerate(ranked)}
        return lambda cell: owners[_shard_key(cell)]
    cells = {}
    for planned in plan:
        cell_id = planned.cell.cell_id
        if cell_id not in cells:
            cells[cell_id] = hashlib.sha256(
                cell_id.encode("utf-8")).hexdigest()
    ranked = sorted(cells, key=lambda cell_id: cells[cell_id])
    owners = {cell_id: rank % hosts for rank, cell_id in enumerate(ranked)}
    return lambda cell: owners[cell.cell_id]


def assign_host_shards(plan: Sequence[PlannedCell], pending: "Sequence[int]",
                       hosts: int, cache: "SweepCache | None" = None
                       ) -> "list[list[int]]":
    """Shard pending plan indices across ``hosts`` backlogs.

    The host-level analogue of :func:`repro.sweep.workers.assign_shards`:
    placement is by content hash of the cell's dataset coordinate (stable
    under resume — a cell always lands on the same host for a given fleet
    size, so per-host warm state stays useful across reruns, and a dataset's
    substrate work is never duplicated across hosts), and each backlog is
    ordered longest-first from ``seconds_hint`` so stragglers start early
    and the stealable tail holds the short cells.
    """
    if hosts < 1:
        raise ValueError("hosts must be at least 1")
    owner_of = _shard_owners(plan, hosts)
    backlogs: "list[list[int]]" = [[] for _ in range(hosts)]
    for index in pending:
        backlogs[owner_of(plan[index].cell)].append(index)
    for backlog in backlogs:
        backlog.sort(key=lambda index: (-_hint(plan[index].cell, cache), index))
    return backlogs


# --------------------------------------------------------------------------- #
# the coordinator
# --------------------------------------------------------------------------- #
class _HostState:
    """Coordinator-side bookkeeping for one registered worker host."""

    def __init__(self, host_id: int, name: str, sock: socket.socket,
                 workers: int):
        self.host_id = host_id
        self.name = name
        self.sock = sock
        self.workers = workers
        self.alive = True
        self.granted: "set[int]" = set()          # plan indices in flight
        self.granted_attempt: "dict[int, int]" = {}
        #: Datasets this host has been granted cells of: its worker pool has
        #: warm engines/frames for these, so steals prefer them.
        self.warm_datasets: "set[str]" = set()
        self.executed = 0
        self.cached = 0
        self.stolen = 0
        self.quarantined = 0
        self.execute_seconds = 0.0

    def record(self) -> "dict[str, Any]":
        return {"host": self.name, "workers": self.workers,
                "executed": self.executed, "cached": self.cached,
                "stolen": self.stolen, "quarantined": self.quarantined,
                "execute_seconds": round(self.execute_seconds, 4),
                "lost": not self.alive}


class SweepCoordinator:
    """Shards a planned sweep across TCP-registered worker hosts.

    Lifecycle::

        coordinator = SweepCoordinator(plan, spec=spec, hosts=2, cache=cache)
        coordinator.start()           # bind + listen; .address is now known
        ...                           # point `repro sweep-worker` agents at it
        results = coordinator.run()   # schedule, collect, reassemble

    ``hosts`` is the number of shards cells are hashed into (normally the
    fleet size); extra hosts beyond it register fine and work purely as
    stealers.  All scheduling state is owned by the :meth:`run` loop —
    connection handler threads only answer ``ready`` grants (under the same
    lock) and forward events, so ``on_result`` keeps the scheduler's
    "called from the scheduling thread" contract.
    """

    def __init__(self, plan: Sequence[PlannedCell], *, spec: RunSpec,
                 hosts: int, cache: "SweepCache | None" = None,
                 retry: "RetryPolicy | int | None" = None,
                 on_result: "Callable[[Cell, list, str], None] | None" = None,
                 profile: bool = False,
                 bind: "tuple[str, int]" = ("127.0.0.1", 0),
                 chunk: int = DEFAULT_CHUNK,
                 heartbeat_timeout: float = 20.0,
                 start_timeout: float = 120.0):
        if hosts < 1:
            raise ValueError("hosts must be at least 1")
        self.plan = list(plan)
        self.spec = spec
        self.expected_hosts = hosts
        self.cache = cache
        #: The caller's policy; ``None`` means fail-fast.
        self.retry: "RetryPolicy | None" = resolve_retry(retry)
        #: The policy host loss is charged against (fail-fast: one attempt).
        self._policy = self.retry or RetryPolicy(max_attempts=1)
        self.on_result = on_result
        self.profile = profile
        self.bind = bind
        self.chunk = max(1, chunk)
        self.heartbeat_timeout = heartbeat_timeout
        self.start_timeout = start_timeout

        self.stats = SweepStats(total=len(self.plan), executor="distributed")
        self.address: "tuple[str, int] | None" = None
        self._listener: "socket.socket | None" = None
        self._lock = threading.Lock()
        self._events: "queue.Queue[tuple]" = queue.Queue()
        self._hosts: "list[_HostState]" = []
        self._threads: "list[threading.Thread]" = []
        self._plan_ready = False
        self._abort = False
        self._closed = False
        self._id_to_index = {planned.cell.cell_id: index
                             for index, planned in enumerate(self.plan)}
        # scheduling state (built in run(), mutated only under _lock)
        self._unresolved: "set[int]" = set()
        self._started: "set[int]" = set()
        self._attempts: "dict[int, int]" = {}   # charged (failed) attempts
        self._granted_to: "dict[int, int]" = {}
        self._orphans: "list[int]" = []
        self._backlogs: "list[list[int]]" = []
        self._slots: "list[list[Measurement] | None]" = [None] * len(self.plan)

    # ------------------------------------------------------------------ #
    def start(self) -> "tuple[str, int]":
        """Bind, listen and start accepting hosts; returns the address."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(self.bind)
        listener.listen(16)
        self._listener = listener
        self.address = listener.getsockname()[:2]
        acceptor = threading.Thread(target=self._accept_loop,
                                    name="sweep-coordinator-accept", daemon=True)
        acceptor.start()
        return self.address

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:  # listener closed: coordinator shutting down
                return
            handler = threading.Thread(target=self._serve_host, args=(sock,),
                                       name="sweep-coordinator-host", daemon=True)
            handler.start()
            self._threads.append(handler)

    def _serve_host(self, sock: socket.socket) -> None:
        sock.settimeout(self.heartbeat_timeout)
        host: "_HostState | None" = None
        try:
            hello = recv_frame(sock)
            if hello.get("type") != "hello":
                raise ProtocolError(f"expected hello, got {hello.get('type')!r}")
            with self._lock:
                host = _HostState(len(self._hosts),
                                  str(hello.get("name") or f"host-{len(self._hosts)}"),
                                  sock, int(hello.get("workers", 1)))
                self._hosts.append(host)
                self.stats.hosts += 1
            send_frame(sock, {"type": "welcome", "host_id": host.host_id,
                              "spec": self.spec.to_dict(),
                              "profile": self.profile})
            while True:
                frame = recv_frame(sock)
                kind = frame["type"]
                if kind == "ready":
                    send_frame(sock, self._grant(host))
                elif kind in ("start", "result", "grant_done", "fatal"):
                    self._events.put((kind, host, frame))
                elif kind == "heartbeat":
                    pass
                elif kind == "bye":
                    break
                else:
                    raise ProtocolError(f"unexpected frame type {kind!r}")
            with self._lock:
                if host.granted:  # a "bye" with work in flight is a crash
                    raise ConnectionClosed("host left with cells in flight")
                host.alive = False
        except (ProtocolError, OSError, TimeoutError) as err:
            if host is not None:
                self._events.put(("host_lost", host,
                                  {"reason": str(err) or type(err).__name__}))
        finally:
            try:
                sock.close()
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    def _remaining_hint(self, backlog: "list[int]") -> float:
        return sum(_hint(self.plan[index].cell, self.cache) for index in backlog)

    def _grant(self, host: _HostState) -> "dict[str, Any]":
        """Answer one ``ready`` request (called from the host's handler)."""
        with self._lock:
            if self._abort or (self._plan_ready and not self._unresolved):
                return {"type": "drain"}
            if not self._plan_ready or not host.alive:
                return {"type": "wait", "seconds": 0.1}
            # Endgame: once the unresolved set fits inside one chunk per
            # host, grant single cells.  A time-starved host that sits on a
            # multi-cell grant at the end of the sweep would otherwise
            # stretch the tail by the whole chunk while every other host
            # idles — granted cells are not stealable.
            live = sum(1 for peer in self._hosts if peer.alive) or 1
            chunk = (1 if len(self._unresolved) <= live * self.chunk
                     else self.chunk)
            picks: "list[int]" = []
            stolen = False
            while self._orphans and len(picks) < chunk:
                index = self._orphans.pop(0)
                if index in self._unresolved and index not in self._granted_to:
                    picks.append(index)
            if not picks:
                backlog = (self._backlogs[host.host_id]
                           if host.host_id < len(self._backlogs) else [])
                # Fill the grant in dataset groups (longest-first lead, then
                # its dataset-mates) so each grant lands on the host's pool
                # as few batches warming few coordinates, not one batch per
                # cell.  Scheduling order only — results are plan-ordered.
                while backlog and len(picks) < chunk:
                    lead = backlog.pop(0)
                    picks.append(lead)
                    dataset = self.plan[lead].cell.dataset
                    position = 0
                    while (position < len(backlog)
                           and len(picks) < chunk):
                        if self.plan[backlog[position]].cell.dataset == dataset:
                            picks.append(backlog.pop(position))
                        else:
                            position += 1
            if not picks:
                victims = [b for i, b in enumerate(self._backlogs)
                           if b and i != host.host_id]
                if victims:
                    victim = max(victims, key=self._remaining_hint)
                    # Steal from the short tail, preferring datasets the
                    # thief has already warmed — a cold steal pays the full
                    # engine/frame setup the victim has already amortized.
                    position = len(victim) - 1
                    while position >= 0 and len(picks) < chunk:
                        cell = self.plan[victim[position]].cell
                        if cell.dataset in host.warm_datasets:
                            picks.append(victim.pop(position))
                        position -= 1
                    while victim and len(picks) < chunk:
                        picks.append(victim.pop())
                    stolen = True
                    self.stats.stolen += len(picks)
                    host.stolen += len(picks)
            if not picks:
                return {"type": "wait", "seconds": 0.2}
            cells = []
            for index in picks:
                attempt = self._attempts.get(index, 0) + 1
                self._granted_to[index] = host.host_id
                host.granted.add(index)
                host.granted_attempt[index] = attempt
                host.warm_datasets.add(self.plan[index].cell.dataset)
                cells.append({"cell_id": self.plan[index].cell.cell_id,
                              "attempt": attempt})
            return {"type": "cells", "cells": cells, "stolen": stolen}

    # ------------------------------------------------------------------ #
    def run(self) -> ResultSet:
        """Schedule the plan across hosts; returns results in plan order."""
        if self._listener is None:
            self.start()
        began = time.perf_counter()
        errors: "list[BaseException]" = []
        try:
            fault_plan = active_fault_plan()
            if fault_plan is not None and not fault_plan.bound:
                fault_plan.bind([planned.cell.cell_id for planned in self.plan])
            self.stats.cells = [p.cell.cell_id for p in self.plan]

            pending: "list[int]" = []
            for index, planned in enumerate(self.plan):
                hit = (self.cache.load(planned.cell)
                       if self.cache is not None else None)
                if hit is not None:
                    self._slots[index] = hit
                    self.stats.cached += 1
                    self._notify(planned.cell, hit, "cache")
                else:
                    pending.append(index)
            with self._lock:
                self._unresolved = set(pending)
                self._backlogs = assign_host_shards(
                    self.plan, pending, self.expected_hosts, self.cache)
                self._plan_ready = True

            while True:
                with self._lock:
                    if self._abort or not self._unresolved:
                        break
                try:
                    event = self._events.get(timeout=0.25)
                except queue.Empty:
                    event = None
                if event is not None:
                    self._handle_event(event, errors)
                self._check_liveness(began, errors)
        except BaseException as err:
            errors.insert(0, err)
        finally:
            self.stats.wall_seconds = time.perf_counter() - began
            with self._lock:
                self.stats.distributed = [h.record() for h in self._hosts]
                self.stats.workers = max(
                    (h.workers for h in self._hosts), default=1)
            self.close()
        if errors:
            self.stats.failed = len(errors)
            raise errors[0]
        results = ResultSet()
        for slot in self._slots:
            results.extend(slot or ())
        return results

    def _notify(self, cell: Cell, measurements: "list[Measurement]",
                source: str) -> None:
        if self.on_result is not None:
            self.on_result(cell, measurements, source)

    def _handle_event(self, event: tuple, errors: "list[BaseException]") -> None:
        kind, host, frame = event
        if kind == "start":
            index = self._id_to_index.get(frame.get("cell_id"))
            if index is not None:
                with self._lock:
                    if index in self._unresolved:
                        self._started.add(index)
        elif kind == "result":
            self._handle_result(host, frame)
        elif kind == "grant_done":
            with self._lock:
                self.stats.retries += int(frame.get("retries", 0))
                self.stats.recovered += int(frame.get("recovered", 0))
                self.stats.respawns += int(frame.get("respawns", 0))
                self.stats.batches += int(frame.get("batches", 0))
                self.stats.serialize_seconds += float(frame.get("serialize_seconds", 0.0))
                self.stats.setup_seconds += float(frame.get("setup_seconds", 0.0))
                for record in frame.get("profile", ()):
                    self.stats.profile.append({**record, "host": host.name})
        elif kind == "fatal":
            errors.append(RuntimeError(
                f"worker host {host.name} failed: {frame.get('error')}"))
            with self._lock:
                self._abort = True
        elif kind == "host_lost":
            self._handle_host_lost(host, frame.get("reason", "connection lost"),
                                   errors)

    def _handle_result(self, host: _HostState, frame: "dict[str, Any]") -> None:
        cell_id = frame.get("cell_id")
        index = self._id_to_index.get(cell_id)
        if index is None:
            return
        with self._lock:
            host.granted.discard(index)
            host.granted_attempt.pop(index, None)
            if index not in self._unresolved:
                return  # stale duplicate from a host declared lost
            self._unresolved.discard(index)
            self._started.discard(index)
            self._granted_to.pop(index, None)
            charged = self._attempts.get(index, 0)
        cell = self.plan[index].cell
        measurements = [Measurement.from_dict(m)
                        for m in frame.get("measurements", ())]
        source = frame.get("source", "executed")
        seconds = frame.get("seconds")
        self._slots[index] = measurements
        if source == "executed":
            self.stats.executed += 1
            host.executed += 1
            if seconds is not None:
                self.stats.execute_seconds += seconds
                host.execute_seconds += seconds
                hint_memory.record(cell, seconds)
            if charged > 0:
                self.stats.recovered += 1
            # hosts without a shared cache report committed=False; the
            # coordinator then commits on their behalf so resume still works
            if self.cache is not None and not frame.get("committed", False):
                self.cache.store(cell, measurements, seconds=seconds)
        elif source == "cache":
            self.stats.cached += 1
            host.cached += 1
            if charged > 0:
                self.stats.recovered += 1
        elif source == "quarantined":
            self.stats.quarantined += 1
            host.quarantined += 1
        self._notify(cell, measurements, source)

    def _handle_host_lost(self, host: _HostState, reason: str,
                          errors: "list[BaseException]") -> None:
        with self._lock:
            if not host.alive:
                return
            host.alive = False
            self.stats.hosts_lost += 1
            granted = sorted(host.granted)
            host.granted.clear()
            try:
                host.sock.close()
            except OSError:
                pass
            for index in granted:
                if index not in self._unresolved:
                    continue
                self._granted_to.pop(index, None)
                attempt = host.granted_attempt.pop(index, 0)
                # Every granted cell is in-flight from here: the host may have
                # been anywhere between accepting the grant and sending the
                # result, so charge the attempt like a local worker crash —
                # otherwise a grant that reliably kills its host would be
                # re-granted at attempt 1 forever.
                self._started.discard(index)
                self._attempts[index] = max(self._attempts.get(index, 0),
                                            attempt)
                if self._attempts[index] >= self._policy.max_attempts:
                    self._out_of_attempts_locked(index, HostLostError(
                        f"host {host.name} lost mid-cell ({reason})"), errors)
                    continue
                self.stats.retries += 1
                self.stats.reassigned += 1
                self._orphans.append(index)
            host.granted_attempt.clear()

    def _out_of_attempts_locked(self, index: int, error: BaseException,
                                errors: "list[BaseException]") -> None:
        """Resolve a cell whose attempt budget a lost host used up.

        The one place fail-fast and resilient sweeps differ: without a retry
        policy the sweep aborts and :meth:`run` raises the first error;
        with one the cell degrades to a quarantine record.
        """
        if self.retry is None:
            self._abort = True
            errors.append(error)
            return
        cell = self.plan[index].cell
        measurement = quarantine_measurement(cell, error,
                                             self._attempts.get(index, 0))
        self._slots[index] = [measurement]
        self.stats.quarantined += 1
        self._unresolved.discard(index)
        self._notify(cell, [measurement], "quarantined")

    def _check_liveness(self, began: float, errors: "list[BaseException]") -> None:
        with self._lock:
            if self._abort or not self._unresolved:
                return
            alive = sum(1 for h in self._hosts if h.alive)
            if alive:
                return
            if self._hosts and len(self._hosts) >= self.expected_hosts:
                self._abort = True
                errors.append(RuntimeError(
                    "all worker hosts were lost with "
                    f"{len(self._unresolved)} cell(s) unresolved"))
            elif time.perf_counter() - began > self.start_timeout:
                self._abort = True
                errors.append(RuntimeError(
                    f"no worker host connected within {self.start_timeout:.0f}s"))

    def close(self) -> None:
        """Stop accepting, let connected hosts drain, release sockets."""
        if self._closed:
            return
        self._closed = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        # handler threads answer the hosts' final ready with "drain" and
        # collect their "bye"; give them a moment before cutting sockets
        deadline = time.monotonic() + 5.0
        for thread in self._threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        with self._lock:
            for host in self._hosts:
                try:
                    host.sock.close()
                except OSError:
                    pass


# --------------------------------------------------------------------------- #
# the worker-host agent
# --------------------------------------------------------------------------- #
class HostWorker:
    """One machine's sweep agent: connects, rebuilds the plan, pulls grants.

    Each grant executes on a local single-host
    :class:`~repro.sweep.scheduler.SweepScheduler` (``--jobs`` workers,
    thread or process pool), so batching, shared-memory transport, retries
    and crash recovery inside the host are exactly the PR 7/9 machinery.
    ``start``/``result`` events stream back per cell; a heartbeat thread
    keeps the link warm while long cells run.
    """

    def __init__(self, host: str, port: int, *, jobs: int = 1,
                 executor: str = "thread", name: "str | None" = None,
                 heartbeat_interval: float = 2.0, session=None):
        self.address = (host, int(port))
        self.jobs = max(1, int(jobs))
        self.executor = executor
        self.name = name or f"{socket.gethostname()}:{os.getpid()}"
        self.heartbeat_interval = heartbeat_interval
        #: A pre-built session (forked local agents inherit the parent's,
        #: skipping dataset regeneration).  It must match the coordinator's
        #: wire spec — the plan is still rebuilt from ``spec.plan_kwargs``,
        #: and remote agents always build their own from the spec config.
        self.session = session
        self._sock: "socket.socket | None" = None
        self._send_lock = threading.Lock()
        self._stop = threading.Event()
        self._cache: "SweepCache | None" = None
        self._grant_attempt: "dict[str, int]" = {}
        #: One batch executor for the host's whole lifetime.  Grants are
        #: small (steal granularity), so the per-coordinate warm state —
        #: engines, attached frames, the substrate memo — must live in a
        #: pool that survives grants, or every grant pays full setup again.
        self._pool = None

    def _send(self, payload: "dict[str, Any]") -> None:
        with self._send_lock:
            send_frame(self._sock, payload)

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            try:
                self._send({"type": "heartbeat"})
            except OSError:
                return

    # ------------------------------------------------------------------ #
    def run(self) -> int:
        """Serve grants until the coordinator drains this host; returns 0."""
        sock = socket.create_connection(self.address, timeout=30)
        sock.settimeout(None)
        self._sock = sock
        heartbeat = threading.Thread(target=self._heartbeat_loop,
                                     name="sweep-worker-heartbeat", daemon=True)
        try:
            self._send({"type": "hello", "name": self.name,
                        "pid": os.getpid(), "workers": self.jobs})
            welcome = recv_frame(sock)
            if welcome.get("type") != "welcome":
                raise ProtocolError(
                    f"expected welcome, got {welcome.get('type')!r}")
            spec = RunSpec.from_dict(welcome["spec"])
            profile = bool(welcome.get("profile", False))
            fault_plan = spec.fault_plan()
            if fault_plan is not None:
                install_fault_plan(fault_plan)
            session = self.session if self.session is not None else spec.build_session()
            plan = spec.build_plan(session)
            # bind to the FULL plan's ids (the coordinator binds the same
            # population), not per grant — otherwise targets would drift
            active = active_fault_plan()
            if active is not None and not active.bound:
                active.bind([planned.cell.cell_id for planned in plan])
            by_id = {planned.cell.cell_id: planned for planned in plan}
            self._cache = SweepCache(spec.cache_dir) if spec.cache_dir else None
            retry = spec.retry_policy()
            heartbeat.start()
            while True:
                self._send({"type": "ready"})
                frame = recv_frame(sock)
                kind = frame["type"]
                if kind == "wait":
                    time.sleep(min(1.0, float(frame.get("seconds", 0.2))))
                elif kind == "drain":
                    break
                elif kind == "cells":
                    self._execute_grant(frame, by_id, retry, profile)
                else:
                    raise ProtocolError(f"unexpected frame type {kind!r}")
            self._send({"type": "bye"})
            return 0
        except ConnectionDropFault:
            self._sever()
            raise  # unreachable: _sever does not return
        except Exception as err:
            try:
                self._send({"type": "fatal", "error": f"{type(err).__name__}: {err}"})
            except OSError:
                pass
            raise
        finally:
            self._stop.set()
            if self._pool is not None:
                try:
                    self._pool.shutdown()
                except Exception:
                    pass
            try:
                sock.close()
            except OSError:
                pass

    def _sever(self) -> None:
        """Act out a severed link: close the socket, then die like a crash.

        This is the ``drop`` fault: the coordinator sees a bare EOF with
        cells in flight — exactly what a network partition or a machine
        losing power looks like — and must reassign to surviving hosts.
        """
        import signal

        self._stop.set()
        try:
            self._sock.close()
        except OSError:
            pass
        os.kill(os.getpid(), signal.SIGKILL)

    # ------------------------------------------------------------------ #
    def _ensure_pool(self):
        if self.executor != "thread":
            # Process workers cache frame attachments per shm segment, and
            # segments are re-exported per scheduler run — a process pool
            # outliving its run would pin every grant's segments until
            # shutdown.  Process-executor grants keep per-run pools.
            return None
        if self._pool is None:
            from .workers import ThreadBatchExecutor

            self._pool = ThreadBatchExecutor(self.jobs)
        return self._pool

    def _execute_grant(self, frame: "dict[str, Any]", by_id: "dict[str, PlannedCell]",
                       retry: "RetryPolicy | None", profile: bool) -> None:
        # First-attempt cells run on the persistent pool (warm engines,
        # attached frames, memo survive across grants).  Cells re-granted
        # after a host loss carry a wire attempt > 1: those run per-cell so
        # ``_offset_attempts`` rebases fault/retry numbering — the batch
        # tier's task attempts restart at 1 and must not re-fire one-shot
        # faults that already killed the previous host.
        subplan: "list[PlannedCell]" = []
        regrants: "list[PlannedCell]" = []
        for entry in frame.get("cells", ()):
            cell_id = entry["cell_id"]
            attempt = int(entry.get("attempt", 1))
            planned = by_id.get(cell_id)
            if planned is None:
                raise ProtocolError(
                    f"granted unknown cell {cell_id!r}: the coordinator and "
                    f"this host disagree on the plan (configuration drift?)")
            fault_point("host_link", cell_id=cell_id, attempt=attempt)
            self._grant_attempt[cell_id] = attempt
            if attempt > 1:
                regrants.append(PlannedCell(
                    cell=planned.cell,
                    execute=_offset_attempts(planned.execute, attempt),
                    payload=planned.payload))
            else:
                subplan.append(planned)
        done = {"retries": 0, "recovered": 0, "respawns": 0, "batches": 0,
                "serialize_seconds": 0.0, "setup_seconds": 0.0}
        profiles: "list[dict]" = []
        for part, pooled in ((subplan, True), (regrants, False)):
            if not part:
                continue
            scheduler = SweepScheduler(
                workers=self.jobs if pooled else 1,
                cache=self._cache, executor=self.executor,
                on_complete=self._forward_complete,
                on_start=self._forward_start,
                profile=profile, retry=retry,
                pool=self._ensure_pool() if pooled else None)
            scheduler.run(part)
            stats = scheduler.last_stats
            done["retries"] += stats.retries
            done["recovered"] += stats.recovered
            done["respawns"] += stats.respawns
            done["batches"] += stats.batches
            done["serialize_seconds"] += stats.serialize_seconds
            done["setup_seconds"] += stats.setup_seconds
            profiles.extend(stats.profile)
        self._send({"type": "grant_done", **done, "profile": profiles})

    def _forward_start(self, cell: Cell) -> None:
        self._send({"type": "start", "cell_id": cell.cell_id})

    def _forward_complete(self, cell: Cell, measurements: "list[Measurement]",
                          source: str, seconds: "float | None") -> None:
        # ``seconds`` is the cell's *physical* wall clock measured by the
        # local scheduler — what coordinator hints, profiler totals and
        # cache metadata expect (measurement rows carry simulated time).
        self._send({"type": "result", "cell_id": cell.cell_id,
                    "source": source, "seconds": seconds,
                    "committed": self._cache is not None
                                 and source in ("cache", "executed"),
                    "measurements": [m.to_dict() for m in measurements]})


def _offset_attempts(execute, base: int):
    """Rebase a cell thunk's attempt numbering at the wire-carried attempt.

    Fault injection keys off global attempt numbers (a kill or drop target
    fires only on attempt 1), so a cell re-granted after a host loss must
    not restart its numbering — the fault already fired on the lost host.
    """
    if base <= 1:
        return execute
    def run(attempt: int = 1):
        return execute(attempt=base + attempt - 1)
    return run
