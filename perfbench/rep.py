"""One repetition of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so process-global state
(the batch-ordering ``hint_memory``, the TPC-H ``lru_cache``, the session's
frames and contexts) never carries over from one repetition to the next.  It
writes one JSON document to ``--out``:

* ``setup_s`` — CPU seconds from the start of this process (and, for
  ``service``, of the server) to the first timed operation: imports, data
  generation, engines, server readiness; ``setup_wall_s`` the wall clock
  from the moment ``run.py`` spawned this process;
* ``passes`` — one record per pass, timed or warm replay: CPU seconds of the
  process tree (``cpu_s``, see :func:`own_cpu_s`), wall clock,
  per-operation output digests and error counts;
* ``slowdown`` — how much slower than on an idle host the machine ran
  during this repetition (see :func:`reference_cpu_s`);
* ``layers`` — per-layer metrics (traced repetitions only);
* ``peak_rss_mb`` and ``leaks`` (shared-memory segments or child processes
  left behind).

Roles: ``timed`` measures the workload; ``setup`` only sets it up (more
samples of ``setup_s``); ``oracle`` computes the reference
digests with the sequential, uncached ``object``-backend path and checks that
path against an independent one, the same slice on the ``dict`` column
backend, whose string, join and group-by kernels are separate code.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

#: Workload sizes.  ``full`` is what the benchmark measures; ``tiny`` is the
#: smoke test's.  ``runs`` is the simulated repetition count of every cell;
#: ``timed_passes`` the sweeps timed in one repetition (``prep-par``: each
#: into a fresh cache with a fresh batch-ordering memory).  The service mix
#: (``service_*`` counts) is an assumption, explained in README.md.
SIZES = {
    "full": {
        "scale": 0.02, "runs": 2, "pipelines": [0], "engines": None,
        "datasets": None, "tpch_sf": 0.0006,
        "tpch_engines": ["pandas", "polars", "duckdb"], "queries": None,
        "timed_passes": {"prep-seq": 2, "prep-par": 3, "tpch": 2},
        "warm_replays": 40, "service_warm_replays": 1,
        # every default engine but the two modin ones, whose single slices
        # take 0.1-2.2 s and would decide the pass length on their own
        "service_engines": ["pandas", "sparkpd", "sparksql", "polars", "cudf",
                            "vaex", "datatable"],
        "service_runs": 32, "service_advise": 16, "service_explain": 16,
    },
    "tiny": {
        "scale": 0.02, "runs": 2, "pipelines": [0], "engines": ["pandas", "polars"],
        "datasets": ["athlete"], "tpch_sf": 0.0003,
        "tpch_engines": ["pandas", "polars"], "queries": ["q01", "q03", "q06"],
        "timed_passes": {"prep-seq": 2, "prep-par": 2, "tpch": 2},
        "warm_replays": 3, "service_warm_replays": 1,
        "service_engines": ["pandas", "polars"],
        "service_runs": 6, "service_advise": 2, "service_explain": 2,
    },
}


def digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:16]


def measurement_digests(results) -> list:
    """``[position, digest]`` of every Measurement, in plan order."""
    return [[str(i), digest(m.to_json())] for i, m in enumerate(results)]


#: Measurement fields that differ between column backends by design: the
#: backend itself and the modelled peak memory (dictionary-encoded strings
#: take fewer bytes).  Every other field must agree.
BACKEND_FIELDS = ("backend", "peak_bytes")


def cross_check(results, other) -> "tuple[int, int]":
    """(compared, differing) Measurements of one slice run on two backends."""
    def portable(m) -> str:
        record = m.to_dict()
        for field in BACKEND_FIELDS:
            record.pop(field, None)
        return json.dumps(record, sort_keys=True)

    differing = sum(portable(a) != portable(b) for a, b in zip(results, other))
    return len(results), differing + abs(len(results) - len(other))


def own_cpu_s() -> float:
    """CPU seconds of this process and of its children already waited for.

    The ``prep-par`` process workers are joined at the end of every sweep, so
    a sweep's difference covers them.  CPU time, not wall clock: the kernel
    charges time the hypervisor gives to other guests to steal, not to the
    process, so a busy shared host does not inflate it.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


#: CPU seconds of one :func:`reference_loop` on the machine the bounds were
#: set on (a 2-vCPU Xeon guest, Python 3.11) while its host was idle.
REFERENCE_CPU_S = 0.0072


def reference_loop() -> None:
    """Fixed interpreter work like the program's: dict, list and str."""
    table: dict = {}
    for i in range(30000):
        table.setdefault(i % 97, []).append(f"{i:06d}")


def reference_cpu_s() -> float:
    """Fastest CPU time of ten reference loops, in ``REFERENCE_CPU_S`` units.

    CPU time leaves out steal, but not a host whose other guests slow this
    one's caches and cores: in such periods the program's CPU time and the
    reference loop's rose together, by 5-10%.  ``run.py`` divides a run's
    CPU times by the median of this ratio, which reports them at the idle
    host's speed.  The collector is off, so that the program's live heap
    cannot change the ratio.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        fastest = float("inf")
        for _ in range(10):
            start = time.thread_time()
            reference_loop()
            fastest = min(fastest, time.thread_time() - start)
    finally:
        if enabled:
            gc.enable()
    return fastest / REFERENCE_CPU_S


def process_cpu_s(pid: int) -> float:
    """CPU seconds of another running process, every thread of it included
    (its CPU-time clock, ``clock_getcpuclockid``)."""
    return time.clock_gettime(((~pid) << 3) | 2)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def leaks() -> dict:
    """Shared-memory segments this process created and child processes left."""
    from repro.frame.sharing import SEGMENT_PREFIX

    prefix = f"{SEGMENT_PREFIX}{os.getpid()}-"
    shm = Path("/dev/shm")
    segments = sorted(p.name for p in shm.iterdir() if p.name.startswith(prefix)) \
        if shm.is_dir() else []
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
            command = (stat.parent / "cmdline").read_bytes()
        except OSError:
            continue
        # shared memory starts the stdlib's resource tracker, which lives
        # until this interpreter exits by design; it is not a leaked worker
        if int(fields[1]) == os.getpid() and b"resource_tracker" not in command:
            children.append(int(stat.parent.name))
    return {"shm_segments": segments, "child_processes": children}


# --------------------------------------------------------------------------- #
# sweep workloads
# --------------------------------------------------------------------------- #
class CellClock:
    """Collects every cell the scheduler completes via its ``on_complete`` hook.

    ``Session.run``/``run_tpch`` build their ``SweepScheduler`` from the name
    bound in ``repro.session``; binding it to a partial that adds the callback
    observes the public sweep without changing what it executes.
    """

    def __init__(self) -> None:
        self.events: list = []

    def __enter__(self) -> "CellClock":
        import repro.session

        self._original = repro.session.SweepScheduler
        repro.session.SweepScheduler = functools.partial(
            self._original, on_complete=self._record)
        return self

    def __exit__(self, *exc_info) -> None:
        import repro.session

        repro.session.SweepScheduler = self._original

    def _record(self, cell, measurements, source, seconds) -> None:
        self.events.append((cell, measurements, source, seconds))


def session_for(size: dict, seed: int):
    from repro import ExperimentConfig, Session

    config = ExperimentConfig(scale=size["scale"], runs=size["runs"], seed=seed,
                              tpch_engines=list(size["tpch_engines"]))
    if size["engines"]:
        config = config.but(engines=list(size["engines"]))
    if size["datasets"]:
        config = config.but(datasets=list(size["datasets"]))
    return Session(config)


def sweep_call(workload: str, session, size: dict):
    """The workload's sweep as a callable taking ``cache`` and ``backend``."""
    if workload == "tpch":
        return lambda cache=None, backend=None: session.run_tpch(
            physical_scale_factor=size["tpch_sf"], queries=size["queries"],
            cache=cache, backend=backend)
    parallel = ({"workers": 2, "executor": "process"}
                if workload == "prep-par" else {})
    return lambda cache=None, backend=None: session.run(
        "full", lazy="both", streaming="both", pipelines=size["pipelines"],
        cache=cache, backend=backend, **parallel)


def warm_up(workload: str, session, size: dict) -> None:
    """Everything a user pays before the first sweep: data, engines, contexts."""
    if workload == "tpch":
        # an empty query list generates the data and builds the engines only
        session.run_tpch(physical_scale_factor=size["tpch_sf"], queries=[])
    else:
        session.warm()


def pass_record(kind: str, cpu: float, wall: float, results, stats) -> dict:
    errors = sum(1 for m in results if m.status != "ok")
    return {"kind": kind, "cpu_s": cpu, "wall_s": wall, "ops": len(results),
            "errors": errors, "digests": measurement_digests(results),
            "stats": stats.to_dict() if stats is not None else None}


def run_sweep(workload: str, seed: int, size: dict, spawned_at: float,
              workdir: Path, recorder, setup_only: bool) -> dict:
    import repro.sweep.workers
    from repro.sweep import SweepCache

    session = session_for(size, seed)
    warm_up(workload, session, size)
    setup = {"setup_s": own_cpu_s(), "setup_wall_s": time.monotonic() - spawned_at}
    slowdown = reference_cpu_s()
    if setup_only:
        return dict(setup, slowdown=slowdown, passes=[], layers=None)
    sweep = sweep_call(workload, session, size)
    passes = []
    cache = None
    for index in range(size["timed_passes"][workload]):
        if workload == "prep-par":
            cache = SweepCache(workdir / f"cache-{os.getpid()}-{index}")
            # a cold pass as a fresh interpreter makes it: the scheduler
            # orders batches by the durations the previous pass recorded here
            repro.sweep.workers.hint_memory = repro.sweep.workers.HintMemory()
        with CellClock() as clock:
            cpu, started = own_cpu_s(), time.perf_counter()
            results = sweep(cache)
            wall = time.perf_counter() - started
            cpu = own_cpu_s() - cpu
        passes.append(pass_record("timed", cpu, wall, results, session.last_sweep))
    if cache is None:
        # the uncached sweeps fill the replay cache untimed, from their results
        cache = SweepCache(workdir / f"cache-{os.getpid()}")
        for cell, measurements, source, seconds in clock.events:
            cache.store(cell, measurements, seconds=seconds)
    for _ in range(size["warm_replays"]):
        cpu, started = own_cpu_s(), time.perf_counter()
        replay = sweep(cache)
        wall = time.perf_counter() - started
        passes.append(pass_record("warm", own_cpu_s() - cpu, wall, replay,
                                  session.last_sweep))
    slowdown = (slowdown + reference_cpu_s()) / 2
    layers = None
    if recorder is not None:
        layers = sweep_layers(workload, recorder.summary(), passes)
    return dict(setup, slowdown=slowdown, passes=passes, layers=layers)


def run_sweep_oracle(workload: str, seed: int, size: dict) -> dict:
    """Reference digests: the same slice, sequential and uncached.

    The reference is itself checked against the ``dict`` backend's run of the
    slice, so an object-backend kernel that goes wrong the same way on every
    run still fails the gate.
    """
    session = session_for(size, seed)
    sweep = sweep_call("prep-seq" if workload == "prep-par" else workload,
                       session, size)
    results = sweep(backend="object")
    compared, differing = cross_check(results, sweep(backend="dict"))
    return {"reference": dict(measurement_digests(results)),
            "cross_checked": compared, "cross_failures": differing}


# --------------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------------- #
#: Per-layer metrics taken from span self time (``_s``) or call counts.
SPAN_METRICS = {
    "frame.to_list_s": ("frame.to_list", "self_s"),
    "frame.to_list_calls": ("frame.to_list", "calls"),
    "frame.from_values_s": ("frame.from_values", "self_s"),
    "frame.concat_rows_s": ("frame.concat_rows", "self_s"),
    "frame.describe_s": ("frame.describe", "self_s"),
    "frame.parse_dates_s": ("frame.parse_dates", "self_s"),
    "frame.join_s": ("frame.join", "self_s"),
    "frame.group_agg_s": ("frame.group_agg", "self_s"),
    "frame.sort_s": ("frame.sort", "self_s"),
    "frame.filter_s": ("frame.filter", "self_s"),
    "frame.export_s": ("frame.export", "self_s"),
    "core.preparator_s": ("core.preparator", "self_s"),
    "core.preparator_calls": ("core.preparator", "calls"),
    "core.measure_s": ("core.measure", "self_s"),
    "engines.execute_step_s": ("engines.execute_step", "self_s"),
    "engines.execute_step_calls": ("engines.execute_step", "calls"),
    "engines.execute_steps_s": ("engines.execute_steps", "self_s"),
    "simulate.estimate_s": ("simulate.estimate", "self_s"),
    "simulate.estimate_calls": ("simulate.estimate", "calls"),
    "simulate.estimate_plan_s": ("simulate.estimate_plan", "self_s"),
    "simulate.assess_s": ("simulate.assess", "self_s"),
    "plan.optimize_s": ("plan.optimize", "self_s"),
    "plan.execute_s": ("plan.execute", "self_s"),
    "plan.stream_execute_s": ("plan.stream_execute", "self_s"),
    "plan.advise_s": ("plan.advise", "self_s"),
    "sweep.cache_load_s": ("sweep.cache_load", "self_s"),
    "sweep.cache_store_s": ("sweep.cache_store", "self_s"),
    "datasets.generate_s": ("datasets.generate", "self_s"),
    "tpch.datagen_s": ("tpch.datagen", "self_s"),
    "tpch.run_query_s": ("tpch.run_query", "total_s"),
}


def span_layers(summary: dict) -> dict:
    out = {metric: float(summary.get(name, {}).get(field, 0))
           for metric, (name, field) in SPAN_METRICS.items()}
    out["trace.spans"] = float(sum(entry["calls"] for entry in summary.values()))
    return out


def sweep_layers(workload: str, summary: dict, passes: list) -> dict:
    """Span metrics plus the sweep tier's own ``SweepStats``.

    ``sweep.*`` timings are the median over the repetition's timed passes of
    each pass's ``SweepStats``.
    """
    layers = span_layers(summary)
    timed = [p["stats"] for p in passes if p["kind"] == "timed"]

    def median(field: str) -> float:
        return float(statistics.median(stats[field] for stats in timed))

    # only prep-par's timed passes read the cache; every warm replay does
    cached = passes if workload == "prep-par" else [p for p in passes
                                                     if p["kind"] == "warm"]
    lookups = sum(p["stats"]["total"] for p in cached)
    hits = sum(p["stats"]["cached"] for p in cached)
    busy = statistics.median(stats["execute_seconds"]
                             / (stats["workers"] * stats["wall_seconds"])
                             for stats in timed)
    layers.update({
        "sweep.execute_cell_s": median("execute_seconds"),
        "sweep.serialize_s": median("serialize_seconds"),
        "sweep.worker_setup_s": median("setup_seconds"),
        "sweep.batches": median("batches"),
        "sweep.worker_busy_ratio": busy,
        "sweep.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "sweep.cache_lookups": float(lookups),
    })
    layers.update(dict.fromkeys(SERVICE_LAYER_METRICS, 0.0))
    return layers


SERVICE_LAYER_METRICS = ("service.advise_ms", "service.run_ms", "service.explain_ms",
                         "service.queue_wait_ms", "service.cell_executions",
                         "service.singleflight_followers", "service.rejected")


# --------------------------------------------------------------------------- #
# the service workload
# --------------------------------------------------------------------------- #
def run_service(seed: int, size: dict, spawned_at: float, workdir: Path,
                spans_path: "Path | None", setup_only: bool) -> dict:
    command = [sys.executable]
    command += ([str(HERE / "spans.py"), "--out", str(spans_path), "--"]
                if spans_path else ["-m", "repro"])
    command += ["serve", "--port", "0", "--workers", "2",
                "--scale", str(size["scale"]), "--runs", str(size["runs"]),
                "--seed", str(seed),
                "--cache-dir", str(workdir / f"service-cache-{os.getpid()}"),
                "--engines", ",".join(size["service_engines"])]
    if size["datasets"]:
        command += ["--datasets", ",".join(size["datasets"])]
    # A shell that starts the benchmark in the background leaves SIGINT
    # ignored, and the server would inherit that and never shut down
    # cleanly: give it the default disposition.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as server:
        try:
            # loadgen loads the repro package: import it while the server boots
            import loadgen

            mix = loadgen.request_mix(size)
            port = loadgen.wait_for_port(server)

            def tree_cpu_s() -> float:
                return own_cpu_s() + process_cpu_s(server.pid)

            setup = {"setup_s": tree_cpu_s(),
                     "setup_wall_s": time.monotonic() - spawned_at}
            slowdown = reference_cpu_s()
            passes, stats = [], None
            kinds = [] if setup_only else ["timed"] + ["warm"] * size["service_warm_replays"]
            for kind in kinds:
                cpu = tree_cpu_s()
                driven = loadgen.drive(port, mix, clients=2)
                passes.append(loadgen.pass_record(kind, tree_cpu_s() - cpu, driven))
            if not setup_only:
                slowdown = (slowdown + reference_cpu_s()) / 2
                stats = loadgen.server_stats(port)
                # let the server finish closing the connections the clients
                # just closed, so the interrupt meets an idle server
                time.sleep(0.2)
        finally:
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=60)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
    layers = None
    if spans_path and not setup_only:
        summary = json.loads(spans_path.with_suffix(".summary.json").read_text())
        layers = span_layers(summary["layers"])
        cell_seconds = summary["layers"].get("sweep.cell", {}).get("total_s", 0.0)
        layers.update(loadgen.service_layers(passes, stats, cell_seconds))
    return dict(setup, slowdown=slowdown, passes=passes, layers=layers,
                server_exit=server.returncode)


def run_service_oracle(seed: int, size: dict) -> dict:
    """Each requested ``/run`` slice, run untimed through the sequential path
    and cross-checked against the same slice on the ``dict`` backend."""
    import loadgen

    session = session_for(dict(size, engines=size["service_engines"]), seed)
    reference = {}
    compared = differing = 0
    for dataset, engine in loadgen.run_slices(loadgen.request_mix(size)):
        def run(backend: str):
            return session.run("full", datasets=[dataset], engines=[engine],
                               backend=backend)

        results = run("object")
        reference[f"{dataset}/{engine}"] = digest(
            "\n".join(m.to_json() for m in results))
        checked, wrong = cross_check(results, run("dict"))
        compared += checked
        differing += wrong
    return {"reference": reference, "cross_checked": compared,
            "cross_failures": differing}


# --------------------------------------------------------------------------- #
def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["prep-seq", "prep-par", "tpch", "service"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=["timed", "setup", "oracle"],
                        default="timed")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent when it spawned us")
    parser.add_argument("--workdir", required=True,
                        help="scratch directory for caches")
    parser.add_argument("--spans", default=None,
                        help="where a traced repetition writes its spans")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    size = SIZES[args.size]
    workdir = Path(args.workdir)

    recorder = None
    if args.trace and args.workload != "service":
        from spans import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder)

    if args.role == "oracle":
        result = (run_service_oracle(args.seed, size) if args.workload == "service"
                  else run_sweep_oracle(args.workload, args.seed, size))
    elif args.workload == "service":
        result = run_service(args.seed, size, args.spawned_at, workdir,
                             Path(args.spans) if args.trace else None,
                             args.role == "setup")
    else:
        result = run_sweep(args.workload, args.seed, size, args.spawned_at,
                           workdir, recorder, args.role == "setup")
    if recorder is not None:
        recorder.dump(args.spans)

    import numpy

    result["peak_rss_mb"] = peak_rss_mb()
    result["leaks"] = leaks()
    result["numpy"] = numpy.__version__
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
