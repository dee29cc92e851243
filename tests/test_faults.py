"""Fault tolerance: injection harness, retry policy, crash recovery, cache
integrity.

The contract everything here defends: under injected worker kills, transient
engine errors, hangs and cache corruption, a sweep with a retry policy still
terminates with exit-clean state — every *successful* measurement bit-identical
to a fault-free sequential run, every exhausted cell quarantined as a
deterministic error-status measurement, and zero leaked shared-memory
segments.
"""

import dataclasses
import glob
import time

import pytest

from repro import ExperimentConfig, Session
from repro.frame.sharing import SEGMENT_PREFIX
from repro.results import Measurement
from repro.sweep import RetryPolicy, SweepCache, entry_checksum
from repro.sweep.cells import Cell
from repro.sweep.resilience import (CellTimeoutError, execute_with_retry,
                                    quarantine_measurement)
from repro.testing.faults import (FAULT_KINDS, FaultPlan, TransientFaultError,
                                  clear_fault_plan, install_fault_plan,
                                  parse_fault_spec)

_CONFIG = ExperimentConfig(scale=0.05, runs=1, datasets=["athlete", "taxi"],
                           engines=["pandas", "polars", "duckdb", "vaex"])


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    """Every test leaves the process-wide fault plan cleared."""
    clear_fault_plan()
    yield
    clear_fault_plan()


@pytest.fixture(autouse=True, scope="module")
def _restore_hint_memory():
    """Sweeps here must not leak wall-clock hints into later test modules."""
    from repro.sweep.workers import hint_memory

    before = dict(hint_memory._seconds)
    yield
    with hint_memory._lock:
        hint_memory._seconds.clear()
        hint_memory._seconds.update(before)


@pytest.fixture(scope="module")
def baseline() -> "list[dict]":
    """Fault-free sequential reference run (bit-identity oracle)."""
    session = Session(_CONFIG)
    return [m.to_dict() for m in session.run("full", workers=1, cache=False)]


def _leaked_segments() -> "list[str]":
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")


def _cell(suffix: str = "a") -> Cell:
    return Cell(mode="full", engine="pandas", dataset=f"athlete-{suffix}",
                pipeline="p1", machine="paper-server", scale=0.05, runs=1,
                seed=7, fingerprint="test")


# --------------------------------------------------------------------------- #
# the injection harness itself
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_parse_spec(self):
        assert parse_fault_spec("kill:1,flaky:2,corrupt:1") == {
            "kill": 1, "flaky": 2, "hang": 0, "corrupt": 1, "drop": 0}
        # bare kind means one; aliases normalize
        assert parse_fault_spec("sigkill,transient:3,disconnect") == {
            "kill": 1, "flaky": 3, "hang": 0, "corrupt": 0, "drop": 1}
        assert parse_fault_spec("") == dict.fromkeys(FAULT_KINDS, 0)

    @pytest.mark.parametrize("bad", ["meteor:1", "kill:x", "flaky:-1"])
    def test_parse_spec_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)

    def test_bind_is_deterministic_and_disjoint(self):
        ids = [f"cell-{i:03d}" for i in range(40)]
        plan_a = FaultPlan(seed=13, kills=2, flaky=3, hangs=1, corrupt=2).bind(ids)
        plan_b = FaultPlan(seed=13, kills=2, flaky=3, hangs=1, corrupt=2).bind(
            list(reversed(ids)))  # input order must not matter
        assert plan_a.targets == plan_b.targets
        all_targets = [cid for kind in FAULT_KINDS for cid in plan_a.targets[kind]]
        assert len(all_targets) == len(set(all_targets)) == 8
        different = FaultPlan(seed=14, kills=2, flaky=3, hangs=1, corrupt=2).bind(ids)
        assert different.targets != plan_a.targets

    def test_no_plan_installed_is_a_no_op(self):
        from repro.testing.faults import fault_point

        fault_point("execute_cell", cell_id="whatever", attempt=1)  # no raise

    def test_flaky_fires_only_on_leading_attempts(self):
        plan = FaultPlan(seed=1, flaky=1).bind(["only-cell"])
        with pytest.raises(TransientFaultError):
            plan.fire("execute_cell", cell_id="only-cell", attempt=1)
        plan.fire("execute_cell", cell_id="only-cell", attempt=2)  # recovered


# --------------------------------------------------------------------------- #
# retry policy and quarantine records
# --------------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_backoff_is_deterministic_bounded_and_jittered(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_multiplier=2.0,
                             backoff_max=1.0, jitter=0.25)
        a1 = policy.backoff_seconds("cell-a", 1)
        assert a1 == policy.backoff_seconds("cell-a", 1)  # pure function
        assert a1 != policy.backoff_seconds("cell-b", 1)  # per-cell jitter
        assert 0.075 <= a1 <= 0.1  # base minus up to 25% jitter
        assert policy.backoff_seconds("cell-a", 10) <= 1.0  # capped

    def test_from_retries(self):
        assert RetryPolicy.from_retries(2).max_attempts == 3
        assert RetryPolicy.from_retries(0).max_attempts == 1

    def test_execute_with_retry_recovers(self):
        calls = []

        def thunk(attempt=1):
            calls.append(attempt)
            if attempt < 3:
                raise TransientFaultError(f"attempt {attempt}")
            return ["done"]

        result, attempts, seconds, error = execute_with_retry(
            thunk, _cell(), RetryPolicy.from_retries(3), sleep=lambda _s: None)
        assert (result, attempts, error) == (["done"], 3, None)
        assert calls == [1, 2, 3]

    def test_execute_with_retry_exhausts_to_quarantine(self):
        def thunk(attempt=1):
            raise TransientFaultError("always")

        cell = _cell()
        result, attempts, _seconds, error = execute_with_retry(
            thunk, cell, RetryPolicy.from_retries(1), sleep=lambda _s: None)
        assert attempts == 2 and isinstance(error, TransientFaultError)
        (record,) = result
        assert record.failed and record.status == "error"
        assert record.attempts == 2
        assert "quarantined after 2 attempt(s)" in record.failure_reason

    def test_cell_timeout_counts_as_failed_attempt(self):
        def slow(attempt=1):
            if attempt == 1:
                time.sleep(5)
            return ["fast enough"]

        policy = dataclasses.replace(RetryPolicy.from_retries(1),
                                     cell_timeout=0.1)
        result, attempts, _seconds, error = execute_with_retry(
            slow, _cell(), policy, sleep=lambda _s: None)
        assert (result, attempts, error) == (["fast enough"], 2, None)

        policy = dataclasses.replace(RetryPolicy.from_retries(0),
                                     cell_timeout=0.05)
        result, attempts, _seconds, error = execute_with_retry(
            lambda attempt=1: time.sleep(5), _cell(), policy,
            sleep=lambda _s: None)
        assert isinstance(error, CellTimeoutError)
        assert result[0].status == "error"

    def test_quarantine_measurement_shape(self):
        cell = _cell()
        record = quarantine_measurement(cell, ValueError("boom"), 3)
        assert isinstance(record, Measurement)
        assert (record.engine, record.dataset) == (cell.engine, cell.dataset)
        assert record.failed and record.status == "error" and record.attempts == 3
        assert record.error == "boom"
        # round-trips through the serialization layer like any measurement
        assert Measurement.from_dict(record.to_dict()) == record


# --------------------------------------------------------------------------- #
# cache integrity: checksums and corrupt-entry quarantine
# --------------------------------------------------------------------------- #
class TestCacheIntegrity:
    def test_checksum_survives_write_parse_round_trip(self, tmp_path):
        import json

        cache = SweepCache(tmp_path)
        cell = _cell()
        path = cache.store(cell, [quarantine_measurement(cell, ValueError("x"), 1)])
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["checksum"] == entry_checksum(payload)

    def test_corrupt_entry_is_miss_and_quarantined(self, tmp_path):
        from repro.testing.faults import _corrupt_file

        cache = SweepCache(tmp_path)
        cell = _cell()
        stored = [Measurement(engine="pandas", dataset=cell.dataset,
                              pipeline="p1", mode="full", seconds=1.25)]
        path = cache.store(cell, stored)
        assert cache.load(cell) == stored  # sanity: intact entry hits

        _corrupt_file(path)
        assert cache.load(cell) is None
        assert not path.exists()  # moved aside, never consulted again
        assert path.with_suffix(".corrupt").exists()
        assert cache.stats()["corrupt"] == 1
        # the slot is now a plain miss: a re-store heals it
        cache.store(cell, stored)
        assert cache.load(cell) == stored

    def test_checksum_mismatch_with_valid_json_is_quarantined(self, tmp_path):
        import json

        cache = SweepCache(tmp_path)
        cell = _cell()
        path = cache.store(cell, [Measurement(engine="pandas",
                                              dataset=cell.dataset,
                                              pipeline="p1", mode="full",
                                              seconds=1.0)])
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["measurements"][0]["seconds"] = 99.0  # tampered, checksum stale
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.load(cell) is None
        assert path.with_suffix(".corrupt").exists()

    def test_corrupt_injection_during_sweep_self_heals(self, tmp_path):
        session = Session(_CONFIG)
        cache = SweepCache(tmp_path)
        install_fault_plan(FaultPlan(seed=7, corrupt=2))
        try:
            faulted = session.run("full", workers=1, cache=cache)
        finally:
            clear_fault_plan()
        # the corrupted entries are found (and healed) on the resume pass
        session2 = Session(_CONFIG)
        resumed = session2.run("full", workers=1, cache=cache)
        assert cache.stats()["corrupt"] == 2
        assert [m.to_dict() for m in resumed] == [m.to_dict() for m in faulted]


# --------------------------------------------------------------------------- #
# end-to-end: sweeps under injected faults
# --------------------------------------------------------------------------- #
class TestChaosSweeps:
    def test_sequential_flaky_run_matches_fault_free(self, baseline):
        install_fault_plan(FaultPlan(seed=7, flaky=3))
        session = Session(_CONFIG)
        results = session.run("full", workers=1, cache=False,
                              retry=RetryPolicy.from_retries(2))
        stats = session.last_sweep
        assert [m.to_dict() for m in results] == baseline
        assert stats.retries == 3 and stats.recovered == 3
        assert stats.quarantined == 0

    def test_exhausted_cells_quarantine_deterministically(self, baseline, tmp_path):
        # flaky targets that never stop failing exhaust the retry budget
        plan = FaultPlan(seed=7, flaky=2, flaky_attempts=99)
        install_fault_plan(plan)
        cache = SweepCache(tmp_path)
        session = Session(_CONFIG)
        results = session.run("full", workers=1, cache=cache,
                              retry=RetryPolicy.from_retries(1))
        stats = session.last_sweep
        assert stats.quarantined == 2
        bad = [m for m in results if m.status == "error"]
        assert all(m.failed and m.attempts == 2 for m in bad)
        # exactly the plan's flaky targets, predicted up front
        by_id = {planned.cell.cell_id: planned.cell
                 for planned in Session(_CONFIG).plan("full")}
        quarantined_keys = {(m.engine, m.dataset, m.pipeline) for m in bad}
        target_keys = {(by_id[cid].engine, by_id[cid].dataset, by_id[cid].pipeline)
                       for cid in plan.targets["flaky"]}
        assert quarantined_keys == target_keys
        # successful cells stayed bit-identical; quarantined ones are not cached
        good = [m.to_dict() for m in results if m.status == "ok"]
        assert all(record in baseline for record in good)
        assert cache.stores == len(Session(_CONFIG).plan("full")) - 2
        # a fault-free resume over the same cache heals the quarantined cells
        clear_fault_plan()
        healed = Session(_CONFIG).run("full", workers=1, cache=cache,
                                      retry=RetryPolicy.from_retries(1))
        assert [m.to_dict() for m in healed] == baseline

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_chaos_property_bit_identical_and_leak_free(self, baseline, executor):
        """The headline property: kills + transient errors + corruption in a
        parallel sweep leave every successful measurement bit-identical to
        the fault-free sequential run, with zero leaked segments."""
        install_fault_plan(FaultPlan(seed=7, kills=1, flaky=2, corrupt=1))
        session = Session(_CONFIG)
        results = session.run("full", workers=2, executor=executor,
                              cache=False, retry=RetryPolicy.from_retries(2))
        stats = session.last_sweep
        assert [m.to_dict() for m in results] == baseline  # all recovered
        assert stats.quarantined == 0
        assert stats.retries >= 2  # both flaky targets retried at least once
        if executor == "process":
            assert stats.respawns == 1  # exactly one injected kill
            assert stats.recovered >= 1
        assert not _leaked_segments()

    def test_legacy_fail_fast_without_retry_is_preserved(self):
        install_fault_plan(FaultPlan(seed=7, flaky=1, flaky_attempts=99))
        session = Session(_CONFIG)
        with pytest.raises(Exception):
            session.run("full", workers=1, cache=False)  # retry=None

    @pytest.mark.parametrize("workers, executor, spec", [
        (1, "thread", "flaky:1"),
        (2, "thread", "flaky:1"),
        (2, "process", "kill:1,flaky:1"),
    ], ids=["sequential", "thread-2", "process-2"])
    def test_fail_fast_commits_finished_cells(self, tmp_path, workers,
                                              executor, spec):
        # retry=None on every path: the sweep raises, counts the failure,
        # and every cell that finished before the abort is in the cache.
        install_fault_plan(FaultPlan.from_spec(spec, seed=7, flaky_attempts=99))
        cache = SweepCache(tmp_path)
        session = Session(_CONFIG)
        with pytest.raises(Exception):
            session.run("full", workers=workers, executor=executor, cache=cache)
        stats = session.last_sweep
        assert stats.failed >= 1
        assert stats.executed == cache.stores
        assert not _leaked_segments()
