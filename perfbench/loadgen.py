"""Closed-loop HTTP load generator for the ``service`` workload.

The request mix is fixed: ``/run`` requests over single (dataset, engine)
full-pipeline slices with Zipf(1.1) popularity, so repeats become cache hits
and concurrent duplicates meet single-flight, plus ``/advise`` and
``/explain`` requests spread evenly over the datasets, interleaved by one
fixed shuffle.  The shares and the exponent are assumptions, not measured
traffic; README.md gives the reason for each.  The seed reaches the server as
its data seed only: with the order drawn from the seed, the p50 latency moved
by up to 45% between seeds (it decides which requests wait behind cold runs),
which would hide any regression smaller than that.

Each of ``clients`` threads holds its own :class:`ServiceClient` (one
keep-alive connection, no retries) and sends its next request only after the
previous response has been read and parsed (a closed loop); a request is
timed from send to parsed body.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import math
import random
import select
import statistics
import threading
import time

from repro.service import ServiceClient, ServiceError

DATASETS = ("athlete", "loan", "patrol", "taxi")
ZIPF_EXPONENT = 1.1
#: Seed of the one shuffle that interleaves the mix's request kinds.
ORDER_SEED = 0


def ranked_slices(datasets, engines) -> list:
    """Every (dataset, engine) pair, most popular first.

    Rank ``k`` pairs ``datasets[k % d]`` with ``engines[k % e]``; with
    coprime axis lengths this visits every pair once (Chinese remainder
    theorem) and every engine and dataset appears among the hottest ranks.
    """
    if math.gcd(len(datasets), len(engines)) != 1:
        raise ValueError("dataset and engine counts must be coprime")
    return [(datasets[k % len(datasets)], engines[k % len(engines)])
            for k in range(len(datasets) * len(engines))]


def zipf_counts(total: int, ranks: int) -> list:
    """``total`` requests over ``ranks`` slices in Zipf proportions (largest remainder)."""
    weights = [k ** -ZIPF_EXPONENT for k in range(1, ranks + 1)]
    expected = [total * w / sum(weights) for w in weights]
    counts = [math.floor(x) for x in expected]
    by_remainder = sorted(range(ranks), key=lambda k: counts[k] - expected[k])
    for k in by_remainder[:total - sum(counts)]:
        counts[k] += 1
    return counts


def request_mix(size: dict) -> list:
    """The list of ``(path, body)`` requests of one pass."""
    datasets = size["datasets"] or DATASETS
    engines = size["service_engines"]
    slices = ranked_slices(datasets, engines)
    mix = []
    for (dataset, engine), count in zip(slices, zipf_counts(size["service_runs"],
                                                            len(slices))):
        mix += [("/run", {"mode": "full", "datasets": [dataset],
                          "engines": [engine], "wait": True})] * count
    mix += [("/advise", {"datasets": [datasets[i % len(datasets)]]})
            for i in range(size["service_advise"])]
    mix += [("/explain", {"dataset": datasets[i % len(datasets)]})
            for i in range(size["service_explain"])]
    random.Random(ORDER_SEED).shuffle(mix)
    return mix


def run_slices(mix: list) -> list:
    """Distinct (dataset, engine) slices the mix runs, in first-seen order."""
    return list(dict.fromkeys((body["datasets"][0], body["engines"][0])
                              for path, body in mix if path == "/run"))


def wait_for_port(server, timeout: float = 120.0) -> int:
    """Read the server's ``listening on http://host:port`` line."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        ready, _, _ = select.select([server.stdout], [], [], 0.5)
        if not ready:
            if server.poll() is not None:
                break
            continue
        line = server.stdout.readline()
        if not line:
            break
        if "listening on http://" in line:
            address = line.split("http://", 1)[1].split()[0]
            return int(address.rsplit(":", 1)[1])
    raise RuntimeError(f"server did not come up (exit code {server.poll()})")


def server_stats(port: int) -> dict:
    client = ServiceClient(port=port, retries=0)
    try:
        return client.stats()
    finally:
        client.close()


def drive(port: int, mix: list, clients: int) -> dict:
    """Send the whole mix with ``clients`` closed-loop threads; time each request.

    A record is ``(path, body, status, seconds, document)``; status 0 is a
    transport error.
    """
    records: list = [None] * len(mix)
    tickets = itertools.count()

    def client() -> None:
        service = ServiceClient(port=port, retries=0)
        try:
            while (index := next(tickets)) < len(mix):
                path, body = mix[index]
                started = time.perf_counter()
                try:
                    document, status = service.request("POST", path, body), 200
                except ServiceError as err:
                    document, status = None, err.status
                except (OSError, http.client.HTTPException):
                    document, status = None, 0
                records[index] = (path, body, status, time.perf_counter() - started,
                                  document)
        finally:
            service.close()

    threads = [threading.Thread(target=client) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"wall_s": time.perf_counter() - started, "records": records}


def pass_record(kind: str, cpu: float, driven: dict) -> dict:
    """CPU seconds, latencies, errors, ``/run`` digests and job timings of one pass."""
    digests, endpoints, queue_ms = [], {}, []
    cells = {"total": 0, "cached": 0}
    errors = 0
    for path, body, status, seconds, document in driven["records"]:
        endpoints.setdefault(path, []).append(seconds * 1000.0)
        if document is None:
            errors += 1
            continue
        job = document["job"]
        queue_ms.append((job["started"] - job["created"]) * 1000.0)
        if path == "/run":
            lines = "\n".join(json.dumps(m, sort_keys=True, separators=(",", ":"))
                              for m in document["result"]["measurements"])
            key = f"{body['datasets'][0]}/{body['engines'][0]}"
            digests.append([key, hashlib.sha256(lines.encode()).hexdigest()[:16]])
            errors += sum(1 for m in document["result"]["measurements"]
                          if m["status"] != "ok")
            cells["total"] += job["cells"]["total"]
            cells["cached"] += job["cells"]["cached"]
    return {"kind": kind, "cpu_s": cpu, "wall_s": driven["wall_s"],
            "ops": len(driven["records"]), "errors": errors, "digests": digests,
            "endpoints": endpoints, "queue_ms": queue_ms, "cells": cells}


def service_layers(passes: list, stats: dict, cell_seconds: float) -> dict:
    """The service layer's per-layer metrics, seen from the client and ``/stats``."""
    cold = passes[0]

    def p50(values) -> float:
        return statistics.median(values) if values else 0.0

    lookups = sum(p["cells"]["total"] for p in passes)
    hits = sum(p["cells"]["cached"] for p in passes)
    wall = sum(p["wall_s"] for p in passes)
    return {
        "service.advise_ms": p50(cold["endpoints"].get("/advise")),
        "service.run_ms": p50(cold["endpoints"].get("/run")),
        "service.explain_ms": p50(cold["endpoints"].get("/explain")),
        "service.queue_wait_ms": p50(cold["queue_ms"]),
        "service.cell_executions": float(stats["cell_executions"]),
        "service.singleflight_followers": float(stats["single_flight"]["followers"]),
        "service.rejected": float(sum(t["rejected"] for t in
                                      stats["scheduler"]["tenants"].values())),
        "sweep.execute_cell_s": cell_seconds,
        "sweep.serialize_s": 0.0,
        "sweep.worker_setup_s": 0.0,
        "sweep.batches": 0.0,
        "sweep.worker_busy_ratio": cell_seconds / (stats["scheduler"]["workers"] * wall),
        "sweep.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "sweep.cache_lookups": float(lookups),
    }
