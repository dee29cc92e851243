"""Tests for the batched execution tier: shared-memory frame transport,
substrate memoization, persistent workers, scheduling hints and the profiler.

The invariant everything here defends: any worker count and either executor
produces a ``ResultSet`` bit-identical to the sequential reference run — the
batch tier may *reorganize* and *deduplicate* physical substrate work, but
never change a measurement.
"""

import glob
import json

import numpy as np
import pytest

from repro import ExperimentConfig, Session, SweepCache
from repro.core.memo import SubstrateMemo
from repro.frame.frame import DataFrame
from repro.frame.sharing import (SEGMENT_PREFIX, SharedFrameStore, attach_frame,
                                 export_frame)
from repro.sweep import Cell, SweepScheduler
from repro.sweep.scheduler import PlannedCell
from repro.sweep.workers import (DEFAULT_SECONDS_HINT, HintMemory, assign_shards,
                                 build_batches)

_CONFIG = ExperimentConfig(scale=0.1, runs=2, datasets=["athlete", "taxi"],
                           engines=["pandas", "polars", "sparksql", "vaex",
                                    "modin_ray", "datatable"])


@pytest.fixture(scope="module")
def session() -> Session:
    return Session(_CONFIG)


@pytest.fixture(scope="module")
def sequential(session) -> "list[dict]":
    return [m.to_dict() for m in session.run("full", lazy="both", workers=1)]


def _leaked_segments() -> "list[str]":
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")


def _fresh_session() -> Session:
    return Session(_CONFIG)


# --------------------------------------------------------------------------- #
# shared-memory frame transport
# --------------------------------------------------------------------------- #
class TestFrameSharing:
    def _frames(self, session):
        return [generated.frame
                for generated in session._select_datasets(None).values()]

    def test_roundtrip_is_exact_for_every_dtype(self, session):
        for frame in self._frames(session):
            shm, manifest = export_frame(frame)
            try:
                rebuilt, attached = attach_frame(manifest)
                assert rebuilt.columns == frame.columns
                for name in frame.columns:
                    original, copy = frame[name], rebuilt[name]
                    assert copy.dtype is original.dtype
                    np.testing.assert_array_equal(
                        np.asarray(copy.validity), np.asarray(original.validity))
                    if original.values.dtype == object:
                        assert copy.values.tolist() == original.values.tolist()
                    else:
                        np.testing.assert_array_equal(
                            np.asarray(copy.values), np.asarray(original.values))
                attached.close()
            finally:
                shm.close()
                shm.unlink()
        assert not _leaked_segments()

    def test_numeric_views_are_zero_copy_and_read_only(self, session):
        frame = self._frames(session)[0]
        shm, manifest = export_frame(frame)
        try:
            rebuilt, attached = attach_frame(manifest)
            numeric = [name for name in rebuilt.columns
                       if rebuilt[name].values.dtype != object]
            assert numeric, "expected at least one numeric column"
            for name in numeric:
                values = rebuilt[name].values
                assert not values.flags.owndata  # a view over the segment
                with pytest.raises((ValueError, RuntimeError)):
                    values[0] = values[0]
            attached.close()
        finally:
            shm.close()
            shm.unlink()

    def test_store_refcounts_and_unlinks_at_zero(self, session):
        frame = self._frames(session)[0]
        store = SharedFrameStore()
        manifest = store.export(frame)
        assert store.export(frame) is manifest  # one segment per frame
        store.retain(manifest.segment)
        store.retain(manifest.segment)
        store.release(manifest.segment)
        assert store.segment_names == [manifest.segment]  # still referenced
        store.release(manifest.segment)
        assert store.segment_names == []
        assert not _leaked_segments()
        store.close()  # idempotent

    def test_store_close_unlinks_everything_even_with_refs(self, session):
        store = SharedFrameStore()
        for frame in self._frames(session):
            store.retain(store.export(frame).segment)
        assert store.segment_names
        store.close()  # the scheduler's finally-path: refs do not keep segments
        assert store.segment_names == []
        assert not _leaked_segments()

    def test_store_is_a_context_manager(self, session):
        with pytest.raises(RuntimeError):
            with SharedFrameStore() as store:
                store.export(self._frames(session)[0])
                raise RuntimeError("mid-sweep failure")
        assert not _leaked_segments()


# --------------------------------------------------------------------------- #
# substrate memoization
# --------------------------------------------------------------------------- #
class TestSubstrateMemo:
    def test_memoized_engine_results_are_bit_identical(self, session):
        from repro.engines.registry import create_engine

        generated = session._select_datasets(["athlete"])["athlete"]
        sim = session.context_for("athlete")
        pipeline = session.pipelines_for("athlete")[0]
        machine = session.config.machine

        def run(engine):
            from repro.core.runner import MatrixRunner

            return MatrixRunner(runs=2).measure_full(
                engine, generated.frame, pipeline, sim, lazy=False).to_dict()

        memo = SubstrateMemo()
        for name in _CONFIG.engines:
            plain = run(create_engine(name, machine))
            memoized_engine = create_engine(name, machine)
            memoized_engine.substrate_memo = memo
            assert run(memoized_engine) == plain, name
        assert memo.hits > 0  # runs=2 alone guarantees repetition

    def test_memo_shares_across_engines_on_the_same_path(self, session):
        # pandas and polars share the whole-frame eager path; the second
        # engine's steps should be all hits.
        from repro.core.runner import MatrixRunner
        from repro.engines.registry import create_engine

        generated = session._select_datasets(["athlete"])["athlete"]
        sim = session.context_for("athlete")
        pipeline = session.pipelines_for("athlete")[0]
        memo = SubstrateMemo()
        for name in ("pandas", "polars"):
            engine = create_engine(name, session.config.machine)
            engine.substrate_memo = memo
            MatrixRunner(runs=1).measure_full(engine, generated.frame, pipeline,
                                              sim, lazy=False)
        misses_after_two_engines = memo.misses
        engine = create_engine("duckdb", session.config.machine)
        engine.substrate_memo = memo
        MatrixRunner(runs=1).measure_full(engine, generated.frame, pipeline,
                                          sim, lazy=False)
        assert memo.misses == misses_after_two_engines  # third engine: all hits

    def test_modin_partitioned_path_is_not_shared(self, session):
        from repro.engines.registry import create_engine

        machine = session.config.machine
        generated = session._select_datasets(["athlete"])["athlete"]
        modin = create_engine("modin_ray", machine)
        pandas = create_engine("pandas", machine)
        fillna = None
        for step in session.pipelines_for("athlete")[0].steps:
            if step.preparator == "fillna":
                fillna = step.spec
                break
        assert fillna is not None
        assert modin._preparator_path_tag(fillna, generated.frame) \
            != pandas._preparator_path_tag(fillna, generated.frame)


# --------------------------------------------------------------------------- #
# batched parallel equality (the tentpole invariant)
# --------------------------------------------------------------------------- #
class TestBatchedEquality:
    def test_thread_equals_sequential(self, sequential):
        session = _fresh_session()
        results = session.run("full", lazy="both", workers=4)
        assert [m.to_dict() for m in results] == sequential
        assert session.last_sweep.batches > 0  # really took the batched path
        assert not _leaked_segments()

    def test_process_equals_sequential(self, sequential):
        session = _fresh_session()
        results = session.run("full", lazy="both", workers=4, executor="process")
        assert [m.to_dict() for m in results] == sequential
        assert session.last_sweep.batches > 0
        assert not _leaked_segments()

    def test_tpch_thread_and_process_equal_sequential(self):
        queries = ["q01", "q06"]
        reference = [m.to_dict() for m in
                     _fresh_session().run_tpch(queries=queries, workers=1)]
        for executor in ("thread", "process"):
            session = _fresh_session()
            results = session.run_tpch(queries=queries, workers=3,
                                       executor=executor)
            assert [m.to_dict() for m in results] == reference, executor
        assert not _leaked_segments()

    def test_io_modes_through_the_batched_path(self):
        reference = [m.to_dict() for m in _fresh_session().run("read", workers=1)]
        session = _fresh_session()
        results = session.run("read", workers=4, executor="process")
        assert [m.to_dict() for m in results] == reference
        assert not _leaked_segments()


# --------------------------------------------------------------------------- #
# failure semantics: per-cell commits, resume, no leaked segments
# --------------------------------------------------------------------------- #
class _Boom(RuntimeError):
    pass


def _failing_plan(session, cache, fail_engine="polars"):
    """A real plan where every cell of one engine raises."""
    plan = session.plan("full", lazy="both")
    out = []
    for planned in plan:
        if planned.cell.engine == fail_engine:
            payload = dict(planned.payload)
            payload["sim"] = None  # poison: execute_cell will raise in worker
            out.append(PlannedCell(cell=planned.cell,
                                   execute=_raise_boom, payload=payload))
        else:
            out.append(planned)
    return out


def _raise_boom():
    raise _Boom("injected failure")


class TestBatchedFailures:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_failure_commits_finished_cells_and_cleans_segments(
            self, tmp_path, executor):
        session = _fresh_session()
        cache = SweepCache(tmp_path)
        plan = _failing_plan(session, cache)
        scheduler = SweepScheduler(workers=2, cache=cache, executor=executor)
        with pytest.raises(Exception):
            scheduler.run(plan)
        stats = scheduler.last_stats
        assert stats.failed >= 1
        assert stats.executed == cache.stores  # every executed cell committed
        assert not _leaked_segments()  # exception path unlinked everything

        # resume: cached cells are served, only the rest execute
        session2 = _fresh_session()
        results = session2.run("full", lazy="both", workers=2, cache=cache)
        assert session2.last_sweep.cached >= stats.executed
        reference = [m.to_dict() for m in _fresh_session().run("full", lazy="both")]
        assert [m.to_dict() for m in results] == reference

    def test_setup_failure_before_workers_attach_unlinks_segments(
            self, tmp_path, monkeypatch):
        # Satellite fix: frames are exported to /dev/shm *before* the worker
        # pool exists; a pool that dies during construction (or a Ctrl-C in
        # the setup window) must still unlink every exported segment.
        from repro.sweep import workers as workers_mod

        def refuse_to_start(*_args, **_kwargs):
            raise RuntimeError("worker pool failed to start")

        monkeypatch.setattr(workers_mod, "ProcessWorkerPool", refuse_to_start)
        session = _fresh_session()
        plan = session.plan("full")
        scheduler = SweepScheduler(workers=2, cache=SweepCache(tmp_path),
                                   executor="process")
        with pytest.raises(RuntimeError, match="failed to start"):
            scheduler.run(plan)
        assert not _leaked_segments()

    def test_pool_interrupt_drains_done_futures(self, tmp_path):
        # A BaseException (Ctrl-C) in the scheduling thread of a process
        # sweep keeps every cell committed before it and still unlinks every
        # exported segment.
        session = _fresh_session()
        plan = session.plan("full")
        cache = SweepCache(tmp_path)
        landed = []

        def interrupt_after_three(cell, measurements, source):
            landed.append(cell)
            if len(landed) == 3:
                raise KeyboardInterrupt

        scheduler = SweepScheduler(workers=2, cache=cache, executor="process",
                                   on_result=interrupt_after_three)
        with pytest.raises(KeyboardInterrupt):
            scheduler.run(plan)
        assert scheduler.last_stats.executed == 3  # counted ...
        assert cache.stores == 3  # ... and committed to the cache
        assert not _leaked_segments()


# --------------------------------------------------------------------------- #
# scheduling hints and batch construction
# --------------------------------------------------------------------------- #
class TestHintsAndBatches:
    def test_cache_records_and_reads_seconds(self, tmp_path):
        cache = SweepCache(tmp_path)
        cell = Cell(mode="full", engine="pandas", dataset="athlete", runs=1)
        session = _fresh_session()
        plan = [p for p in session.plan("full", engines=["pandas"],
                                        datasets=["athlete"], lazy=False)]
        measurements = plan[0].execute()
        cache.store(plan[0].cell, measurements, seconds=1.25)
        payload = json.loads(cache.path_for(plan[0].cell).read_text())
        assert payload["seconds"] == 1.25
        assert cache.load(plan[0].cell) is not None  # extra key: still a hit
        # a sibling cell (different runs → different hash) inherits the hint
        sibling = Cell.from_dict({**plan[0].cell.to_dict(), "runs": 5})
        assert cache.seconds_hint(sibling) == 1.25
        assert cache.seconds_hint(cell) is None  # different label: no hint

    def test_old_entries_without_seconds_still_load(self, tmp_path):
        cache = SweepCache(tmp_path)
        session = _fresh_session()
        plan = session.plan("full", engines=["pandas"], datasets=["athlete"],
                            lazy=False)
        cache.store(plan[0].cell, plan[0].execute())  # no seconds (old layout)
        assert cache.load(plan[0].cell) is not None
        assert cache.seconds_hint(plan[0].cell) is None

    def test_batches_group_by_dataset_scale_engine(self):
        session = _fresh_session()
        plan = session.plan("full", lazy="both")
        batches = build_batches(plan, range(len(plan)))
        for batch in batches:
            coords = {(t.cell.dataset, t.cell.scale, t.cell.engine)
                      for t in batch.tasks}
            assert coords == {batch.key}
        covered = sorted(t.index for b in batches for t in b.tasks)
        assert covered == list(range(len(plan)))

    def test_affinity_keeps_each_dataset_on_one_worker(self):
        session = _fresh_session()
        plan = session.plan("full", lazy="both")
        assignments = assign_shards(build_batches(plan, range(len(plan))), 4)
        owners = {}
        for worker_id, group in enumerate(assignments):
            for batch in group:
                owners.setdefault(batch.shard_key, set()).add(worker_id)
        assert all(len(workers) == 1 for workers in owners.values())

    def test_longest_first_ordering_uses_hints(self):
        memory = HintMemory()
        cell_a = Cell(mode="full", engine="pandas", dataset="athlete")
        cell_b = Cell(mode="full", engine="pandas", dataset="taxi")
        memory.record(cell_a, 0.5)
        memory.record(cell_b, 4.0)
        assert memory.lookup(cell_a) == 0.5
        assert memory.lookup(
            Cell(mode="full", engine="pandas", dataset="athlete", runs=9)) == 0.5
        session = _fresh_session()
        plan = session.plan("full", lazy="both")
        import repro.sweep.workers as workers_mod
        original = workers_mod.hint_memory
        workers_mod.hint_memory = memory
        try:
            batches = build_batches(plan, range(len(plan)))
        finally:
            workers_mod.hint_memory = original
        assignments = assign_shards(batches, 1)
        hints = [batch.seconds_hint for batch in assignments[0]]
        assert hints == sorted(hints, reverse=True)
        assert assignments[0][0].key[0] == "taxi"  # the 4.0s hints lead

    def test_default_hint_when_nothing_is_known(self):
        session = _fresh_session()
        plan = session.plan("full", engines=["duckdb"], datasets=["athlete"],
                            lazy=False)
        batches = build_batches(plan, range(len(plan)))
        assert all(t.seconds_hint == DEFAULT_SECONDS_HINT
                   for b in batches for t in b.tasks)


# --------------------------------------------------------------------------- #
# the profiler and the stats split
# --------------------------------------------------------------------------- #
class TestProfiler:
    def test_stats_split_and_summary(self):
        session = _fresh_session()
        session.run("full", workers=2, executor="process")
        stats = session.last_sweep
        assert stats.batches > 0
        assert stats.execute_seconds > 0
        assert stats.overhead_seconds == (stats.serialize_seconds
                                          + stats.setup_seconds)
        summary = stats.summary()
        assert "executing" in summary and "overhead" in summary
        assert f"{stats.batches} batches" in summary
        assert "worker(s)" in summary  # the historical fields survive
        doc = stats.to_dict()
        for key in ("serialize_seconds", "setup_seconds", "execute_seconds",
                    "batches", "executed", "wall_seconds"):
            assert key in doc
        json.dumps(doc)  # emitted by --stats-out and the bench: JSON-safe

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_profile_records_one_entry_per_executed_cell(self, executor):
        session = _fresh_session()
        session.run("full", workers=2, executor=executor, profile=True)
        stats = session.last_sweep
        assert len(stats.profile) == stats.executed
        for record in stats.profile:
            for key in ("cell", "dispatch", "serialize", "setup", "execute",
                        "cache"):
                assert key in record
        table = stats.profile_table()
        assert "execute" in table and "total" in table
        assert len(table.splitlines()) == stats.executed + 4

    def test_sequential_profile_has_records_too(self):
        session = _fresh_session()
        session.run("full", workers=1, profile=True)
        stats = session.last_sweep
        assert len(stats.profile) == stats.executed > 0

    def test_empty_profile_renders_placeholder(self):
        from repro.sweep import SweepStats

        assert "profile=True" in SweepStats().profile_table()


# --------------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------------- #
class TestCLIFlags:
    def test_profile_and_stats_out(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main

        stats_path = tmp_path / "stats.json"
        code = cli_main(["--scale", "0.05", "--runs", "1",
                         "--datasets", "athlete",
                         "--engines", "pandas,polars",
                         "--jobs", "2", "--executor", "process",
                         "--cache-dir", str(tmp_path / "cache"),
                         "--profile", "--stats-out", str(stats_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Sweep profile" in out
        doc = json.loads(stats_path.read_text())
        assert doc["executed"] > 0
        assert doc["batches"] > 0
        assert "execute_seconds" in doc and "serialize_seconds" in doc
