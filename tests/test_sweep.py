"""Tests for the sweep scheduler subsystem: cells, cache, parallel dispatch.

Covers the PR's acceptance criteria: ``Session.run(workers=4)`` produces a
``ResultSet`` equal (same ``Measurement`` records, same order) to
``workers=1``; a second identical run against a warm cache executes zero
engine work; cache entries are invalidated when seed, scale, machine or
optimizer settings change; and interrupted sweeps resume from the cells that
already completed.
"""

import json

import pytest

from repro import ExperimentConfig, LAPTOP, Session, SweepCache
from repro.__main__ import main as cli_main
from repro.core.runner import MatrixRunner
from repro.plan.optimizer import OptimizerSettings
from repro.sweep import Cell, SweepScheduler
from repro.sweep.scheduler import PlannedCell

_CONFIG = ExperimentConfig(scale=0.1, runs=1, datasets=["athlete"],
                           engines=["pandas", "polars", "sparksql", "vaex"])


@pytest.fixture(scope="module")
def session() -> Session:
    return Session(_CONFIG)


# --------------------------------------------------------------------------- #
# cells and planning
# --------------------------------------------------------------------------- #
class TestCells:
    def test_cell_roundtrip_and_id_stability(self):
        cell = Cell(mode="full", engine="polars", dataset="taxi", pipeline="taxi-1",
                    lazy=True, machine="laptop", runs=2, seed=7, scale=0.5,
                    fingerprint="abc")
        assert Cell.from_dict(cell.to_dict()) == cell
        assert cell.cell_id == Cell.from_dict(cell.to_dict()).cell_id
        assert cell.cell_id != cell.to_dict() and len(cell.cell_id) == 24

    def test_cell_id_changes_with_each_coordinate(self):
        base = Cell(mode="full", engine="polars", dataset="taxi")
        for change in ({"mode": "stage"}, {"engine": "pandas"}, {"dataset": "loan"},
                       {"pipeline": "p"}, {"lazy": True}, {"stages": ("EDA",)},
                       {"file_format": "csv"}, {"machine": "laptop"}, {"runs": 3},
                       {"seed": 8}, {"scale": 0.2}, {"fingerprint": "x"}):
            changed = Cell.from_dict({**base.to_dict(), **change})
            assert changed.cell_id != base.cell_id, change

    def test_plan_order_matches_sequential_results(self, session):
        plan = session.plan(mode="full", lazy="both")
        results = session.run(mode="full", lazy="both")
        planned = [(c.cell.engine, c.cell.pipeline, c.cell.lazy) for c in plan]
        measured = [(m.engine, m.pipeline, m.lazy) for m in results]
        assert planned == measured

    def test_plan_resolves_lazy_to_effective_flags(self, session):
        plan = session.plan(mode="full")  # lazy=None: each engine's default
        by_engine = {c.cell.engine: c.cell.lazy for c in plan}
        assert by_engine["pandas"] is False        # eager-only engine
        assert by_engine["polars"] is True         # lazy by default
        assert all(c.payload is not None for c in plan)

    def test_plan_rejects_unknown_mode_and_tpch(self, session):
        with pytest.raises(ValueError, match="unknown mode"):
            session.plan(mode="warp")
        with pytest.raises(ValueError, match="run_tpch"):
            session.plan(mode="tpch")

    def test_explicit_empty_stage_selection_measures_nothing(self, session):
        assert session.plan(mode="stage", stages=[]) == []
        assert len(session.run(mode="stage", stages=[])) == 0
        # while the default (None) measures every present stage
        assert len(session.run(mode="stage")) > 0


# --------------------------------------------------------------------------- #
# parallel dispatch == sequential dispatch (the acceptance criterion)
# --------------------------------------------------------------------------- #
class TestParallelEquality:
    def test_workers4_equals_workers1_full(self, session):
        sequential = session.run(mode="full", lazy="both")
        parallel = session.run(mode="full", lazy="both", workers=4)
        assert parallel == sequential
        assert session.last_sweep.workers == 4
        assert session.last_sweep.executed == len(session.plan(mode="full", lazy="both"))

    @pytest.mark.parametrize("mode", ["stage", "core", "read", "write"])
    def test_workers_equality_other_modes(self, session, mode):
        assert session.run(mode=mode, workers=3) == session.run(mode=mode)

    def test_workers_equality_tpch(self, session):
        parallel = session.run_tpch(engines=["pandas", "polars"],
                                    queries=["q01", "q06"], workers=2)
        sequential = session.run_tpch(engines=["pandas", "polars"],
                                      queries=["q01", "q06"])
        assert parallel == sequential

    def test_process_executor_equality(self, session):
        parallel = session.run(mode="full", engines=["pandas", "polars"],
                               workers=2, executor="process")
        assert parallel == session.run(mode="full", engines=["pandas", "polars"])

    def test_process_executor_equality_tpch(self, session):
        # worker processes regenerate the TPC-H data from (scale, seed)
        parallel = session.run_tpch(engines=["pandas", "polars"],
                                    queries=["q01", "q06"], workers=2,
                                    executor="process")
        assert parallel == session.run_tpch(engines=["pandas", "polars"],
                                            queries=["q01", "q06"])

    def test_invalid_scheduler_arguments(self):
        with pytest.raises(ValueError, match="workers"):
            SweepScheduler(workers=0)
        with pytest.raises(ValueError, match="executor"):
            SweepScheduler(executor="rocket")


# --------------------------------------------------------------------------- #
# cache correctness
# --------------------------------------------------------------------------- #
class TestCache:
    def test_warm_cache_executes_zero_engine_work(self, session, tmp_path, monkeypatch):
        cache = SweepCache(tmp_path / "cache")
        cold = session.run(mode="full", lazy="both", workers=4, cache=cache)
        assert cache.stores == len(session.plan(mode="full", lazy="both"))

        def forbidden(*args, **kwargs):  # any engine work now fails the test
            raise AssertionError("engine work executed despite a warm cache")

        for name in ("measure_full", "measure_stages", "measure_function_core",
                     "measure_io"):
            monkeypatch.setattr(MatrixRunner, name, forbidden)
        warm = session.run(mode="full", lazy="both", workers=4, cache=cache)
        assert warm == cold and warm
        assert session.last_sweep.executed == 0
        assert session.last_sweep.cached == session.last_sweep.total == cache.stores

    def test_cache_roundtrip_preserves_records_exactly(self, session, tmp_path):
        cache = SweepCache(tmp_path)
        cold = session.run(mode="stage", cache=cache)
        warm = session.run(mode="stage", cache=cache)
        assert warm.measurements == cold.measurements

    @pytest.mark.parametrize("override", [{"seed": 8}, {"scale": 0.2},
                                          {"machine": LAPTOP}, {"runs": 2}])
    def test_config_changes_invalidate(self, tmp_path, override):
        cache = SweepCache(tmp_path)
        small = ExperimentConfig(scale=0.1, runs=1, datasets=["athlete"],
                                 engines=["pandas", "polars"])
        Session(small).run(mode="full", cache=cache)
        baseline_stores = cache.stores
        Session(small.but(**override)).run(mode="full", cache=cache)
        assert cache.hits == 0, override
        assert cache.stores == 2 * baseline_stores

    def test_optimizer_settings_invalidate(self, tmp_path):
        small = ExperimentConfig(scale=0.1, runs=1, datasets=["athlete"],
                                 engines=["polars"])
        cache = SweepCache(tmp_path)
        Session(small).run(mode="full", cache=cache)
        ablated = Session(small)
        ablated.engines["polars"].optimizer_settings = OptimizerSettings.all_disabled()
        ablated.run(mode="full", cache=cache)
        assert cache.hits == 0 and cache.stores == 6  # 3 pipelines, stored twice

    def test_corrupt_and_mismatching_entries_are_misses(self, session, tmp_path):
        cache = SweepCache(tmp_path)
        cold = session.run(mode="read", cache=cache)
        for path in cache.entries():
            path.write_text("{ not json", encoding="utf-8")
        again = session.run(mode="read", cache=cache)
        assert again == cold
        assert cache.hits == 0 and cache.misses >= len(cold.values("engine"))

    def test_cache_administration(self, session, tmp_path):
        import repro

        cache = SweepCache(tmp_path)
        session.run(mode="read", cache=cache)
        assert len(cache) == cache.stores > 0
        entry = next(cache.entries())
        # entries are namespaced by package version: a repro upgrade (new cost
        # model) can never serve entries priced by the old code
        from repro.sweep.cache import CACHE_VERSION

        assert entry.parent.parent.name == f"v{CACHE_VERSION}-{repro.__version__}"
        payload = json.loads(entry.read_text())
        assert (payload["version"] == CACHE_VERSION
                and "cell" in payload and "measurements" in payload)
        assert cache.clear() == cache.stores
        assert len(cache) == 0

    def test_cache_true_uses_default_dir(self, monkeypatch, tmp_path, session):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        session.run(mode="read", engines=["pandas"], cache=True)
        assert (tmp_path / "env-cache").is_dir()

    def test_concurrent_same_cell_writers_are_safe(self, session, tmp_path):
        """N threads hammering one cell: no torn reads, no counter drift.

        This is the contention the service's worker pool produces when a
        stampede of identical jobs lands on one cache: every writer renames
        its own temp file over the same path, every reader must observe a
        complete entry (or a miss), and the counters must add up exactly.
        """
        import threading

        cache = SweepCache(tmp_path)
        planned = session.plan("full", engines=["pandas"])[0]
        measurements = planned.execute()
        expected = [m.to_dict() for m in measurements]
        writers, rounds = 12, 5
        loaded: list = []
        errors: list = []
        barrier = threading.Barrier(writers)

        def hammer() -> None:
            try:
                barrier.wait()
                for _ in range(rounds):
                    cache.store(planned.cell, measurements)
                    hit = cache.load(planned.cell)
                    if hit is not None:
                        loaded.append(hit)
            except BaseException as err:  # noqa: BLE001 — surfaced below
                errors.append(err)

        threads = [threading.Thread(target=hammer) for _ in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors

        # every successful load saw a complete entry, never a torn one
        for hit in loaded:
            assert [m.to_dict() for m in hit] == expected
        final = cache.load(planned.cell)
        assert final is not None
        assert [m.to_dict() for m in final] == expected
        # counters are exact under contention (they sit behind a lock)
        assert cache.stores == writers * rounds
        assert cache.hits == len(loaded) + 1
        # no orphaned temp files survive the races
        assert not list(tmp_path.rglob("*.tmp"))
        assert len(cache) == 1


# --------------------------------------------------------------------------- #
# resumability: a killed sweep picks up where it left off
# --------------------------------------------------------------------------- #
class TestResume:
    def test_interrupted_sweep_resumes_from_completed_cells(self, tmp_path, monkeypatch):
        config = ExperimentConfig(scale=0.1, runs=1, datasets=["athlete"],
                                  engines=["pandas", "polars"])
        cache = SweepCache(tmp_path)
        session = Session(config)
        pipeline = session.pipelines_for("athlete")[0]

        real = MatrixRunner.measure_full

        def dies_on_polars(self, engine, frame, pipe, sim, lazy=None, **kwargs):
            if engine.name == "polars":
                raise KeyboardInterrupt("killed mid-sweep")
            return real(self, engine, frame, pipe, sim, lazy, **kwargs)

        monkeypatch.setattr(MatrixRunner, "measure_full", dies_on_polars)
        with pytest.raises(KeyboardInterrupt):
            session.run(mode="full", pipelines=[pipeline], cache=cache)
        assert cache.stores == 1  # pandas completed before the "kill"

        monkeypatch.setattr(MatrixRunner, "measure_full", real)
        resumed = Session(config).run(mode="full", pipelines=[pipeline], cache=cache)
        assert cache.hits == 1  # the pandas cell was not recomputed
        assert [m.engine for m in resumed] == ["pandas", "polars"]
        assert resumed == Session(config).run(mode="full", pipelines=[pipeline])

    def test_parallel_failure_still_caches_completed_cells(self, tmp_path, monkeypatch):
        config = ExperimentConfig(scale=0.1, runs=1, datasets=["athlete"],
                                  engines=["pandas", "polars", "vaex"])
        cache = SweepCache(tmp_path)
        real = MatrixRunner.measure_full

        def dies_on_vaex(self, engine, frame, pipe, sim, lazy=None, **kwargs):
            if engine.name == "vaex":
                raise RuntimeError("boom")
            return real(self, engine, frame, pipe, sim, lazy, **kwargs)

        monkeypatch.setattr(MatrixRunner, "measure_full", dies_on_vaex)
        interrupted = Session(config)
        with pytest.raises(RuntimeError, match="boom"):
            interrupted.run(mode="full", workers=3, cache=cache)
        # the failure cancels queued cells, but every cell that completed
        # before/alongside it is in the cache — and the stats survive the
        # failure so callers can see how far the sweep got
        completed = cache.stores
        assert completed >= 1
        assert interrupted.last_sweep is not None
        assert interrupted.last_sweep.executed == completed
        assert interrupted.last_sweep.failed >= 1

        monkeypatch.setattr(MatrixRunner, "measure_full", real)
        resumed = Session(config).run(mode="full", workers=3, cache=cache)
        assert cache.hits == completed  # nothing completed was recomputed
        assert resumed == Session(config).run(mode="full")


# --------------------------------------------------------------------------- #
# the primary MatrixRunner
# --------------------------------------------------------------------------- #
class TestRunnerProperty:
    def test_matrix_runner_is_primary(self, session):
        assert type(session.matrix_runner) is MatrixRunner
        assert session.matrix_runner is session.matrix_runner
        assert session.matrix_runner.runs == session.config.runs


# --------------------------------------------------------------------------- #
# ResultSet.summary / to_markdown
# --------------------------------------------------------------------------- #
class TestSummaries:
    def test_summary_mentions_counts_and_failures(self, session):
        results = session.run(mode="full", engines=["pandas", "polars"])
        text = results.summary()
        assert f"{len(results)} measurements" in text
        assert "pandas, polars" in text and "athlete" in text
        assert "simulated seconds" in text

    def test_summary_empty(self):
        from repro import ResultSet

        assert ResultSet().summary() == "ResultSet: empty"

    def test_to_markdown_pivot(self, session):
        results = session.run(mode="full", engines=["pandas", "polars"])
        table = results.to_markdown(rows=("dataset", "pipeline"))
        lines = table.splitlines()
        assert lines[0].startswith("| dataset") and "polars" in lines[0]
        assert set(lines[1]) <= {"|", "-"}
        assert len(lines) == 2 + len(session.pipelines_for("athlete"))


# --------------------------------------------------------------------------- #
# CLI: --jobs / --cache-dir / --no-cache / --resume
# --------------------------------------------------------------------------- #
class TestCLI:
    _ARGS = ["--mode", "full", "--engines", "pandas,polars", "--datasets", "athlete",
             "--scale", "0.1", "--runs", "1"]

    def test_jobs_and_cache_dir(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        out = tmp_path / "r.json"
        assert cli_main([*self._ARGS, "--jobs", "2", "--cache-dir", str(cache_dir),
                         "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "0 from cache" in printed and "2 worker(s)" in printed
        assert cache_dir.is_dir() and out.exists()

    def test_resume_serves_from_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert cli_main([*self._ARGS, "--cache-dir", str(cache_dir)]) == 0
        first = capsys.readouterr().out
        assert cli_main([*self._ARGS, "--jobs", "2", "--cache-dir", str(cache_dir),
                         "--resume"]) == 0
        second = capsys.readouterr().out
        assert "0 executed" in second
        # identical rendered tables, independent of workers and cache state
        assert first.split("[sweep]")[0] == second.split("[sweep]")[0]

    def test_resume_conflicts_with_no_cache(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli_main([*self._ARGS, "--resume", "--no-cache"])
        assert err.value.code == 2
        assert "--resume needs the result cache" in capsys.readouterr().err

    def test_no_cache_prints_no_sweep_line(self, capsys):
        assert cli_main([*self._ARGS, "--no-cache"]) == 0
        assert "[sweep]" not in capsys.readouterr().out
