"""Tests for the Session facade and the CLI.

The regression classes replicate the pre-refactor experiment-driver logic on
top of direct ``MatrixRunner.measure_*`` calls and assert that the rewritten
drivers (which go through ``Session.run`` + ``ResultSet``) produce exactly the
same values.
"""

import json

import pytest

from repro import ExperimentConfig, MatrixRunner, Measurement, ResultSet, Session
from repro.__main__ import main as cli_main
from repro.core.metrics import speedup
from repro.core.stages import Stage
from repro.experiments import fig1_stage_speedup, fig5_pipeline_speedup

_CONFIG = ExperimentConfig(scale=0.1, runs=1, datasets=["athlete"],
                           engines=["pandas", "polars", "sparksql", "vaex"])


@pytest.fixture(scope="module")
def session() -> Session:
    return Session(_CONFIG)


class TestSessionBasics:
    def test_construction_is_lazy(self):
        fresh = Session(_CONFIG)
        assert fresh._datasets == {} and fresh._engines is None

    def test_keyword_overrides(self):
        fresh = Session(_CONFIG, runs=2, scale=0.2)
        assert fresh.config.runs == 2 and fresh.config.scale == pytest.approx(0.2)
        assert _CONFIG.runs == 1  # the base config is not mutated

    def test_components_cached(self, session):
        assert session.dataset("athlete") is session.dataset("athlete")
        assert session.engines is session.engines
        assert session.context_for("athlete") is session.context_for("athlete")
        assert session.baseline() is session.engines["pandas"]

    def test_full_matrix_shape(self, session):
        results = session.run(mode="full")
        pipelines = session.pipelines_for("athlete")
        assert len(results) == len(session.engines) * len(pipelines)
        assert results.engines() == session.engine_names
        for m in results:
            assert m.mode == "full" and m.dataset == "athlete"
            assert m.machine == session.config.machine.name

    def test_slicing_engines_datasets_pipelines(self, session):
        results = session.run(mode="full", engines=["polars"], datasets=["athlete"],
                              pipelines=[0, "athlete-2"])
        assert len(results) == 2
        assert results.pipelines() == ["athlete-1", "athlete-2"]

    def test_lazy_both_adds_rows_only_for_lazy_engines(self, session):
        results = session.run(mode="full", engines=["pandas", "polars"], lazy="both")
        pipelines = len(session.pipelines_for("athlete"))
        # pandas: eager only; polars: eager + lazy
        assert len(results.filter(engine="pandas")) == pipelines
        assert len(results.filter(engine="polars")) == 2 * pipelines
        assert len(results.filter(engine="polars", lazy=True)) == pipelines

    def test_core_mode_emits_one_row_per_step(self, session):
        results = session.run(mode="function-core", engines=["pandas"], pipelines=[0])
        pipeline = session.pipelines_for("athlete")[0]
        assert len(results) == len(pipeline)
        assert [m.step for m in results] == [s.preparator for s in pipeline.steps]
        assert [m.step_index for m in results] == list(range(len(pipeline)))

    def test_io_modes(self, session):
        results = session.run(mode="read", engines=["pandas", "polars"])
        assert {m.step for m in results} == {"csv", "parquet"}
        assert all(m.stage == "I/O" for m in results)

    def test_unknown_mode_and_pipeline(self, session):
        with pytest.raises(ValueError, match="unknown mode"):
            session.run(mode="warp")
        with pytest.raises(KeyError, match="unknown pipeline"):
            session.run(pipelines=["no-such-pipeline"])

    def test_injected_datasets_define_the_matrix(self):
        sample = Session(_CONFIG).dataset("athlete").sample(0.5)
        scoped = Session(_CONFIG, datasets={"athlete": sample})
        assert list(scoped.datasets) == ["athlete"]
        results = scoped.run(mode="full", engines=["pandas"], pipelines=[0])
        assert len(results) == 1 and results[0].dataset == sample.name


class TestDriverRegression:
    """Pre-refactor driver logic (on direct runner calls) vs the rewritten drivers."""

    @pytest.fixture(scope="class")
    def session(self):
        return Session(_CONFIG)

    def test_fig1_values_unchanged(self, session):
        new = fig1_stage_speedup.run(setup=session)
        old_speedups, old_seconds = self._legacy_fig1(session)
        assert new.seconds == old_seconds
        assert new.speedups == old_speedups

    def test_fig5_values_unchanged(self, session):
        new = fig5_pipeline_speedup.run(setup=session)
        old_speedups, old_seconds = self._legacy_fig5(session)
        assert new.seconds == old_seconds
        assert new.speedups == old_speedups

    # -- ports of the pre-refactor drivers, on direct MatrixRunner calls -- #
    @staticmethod
    def _legacy_fig1(setup):
        runner = MatrixRunner(runs=setup.config.runs)
        baseline = setup.baseline()
        speedups: dict = {}
        seconds: dict = {}
        for dataset_name, generated in setup.datasets.items():
            sim = generated.simulation_context(setup.config.machine,
                                               runs=setup.config.runs)
            pipelines = setup.pipelines_for(dataset_name)
            speedups[dataset_name] = {}
            seconds[dataset_name] = {}
            for stage in (Stage.EDA, Stage.DT, Stage.DC):
                stage_seconds: dict = {}
                for pipeline in pipelines:
                    if not pipeline.steps_for_stage(stage):
                        continue
                    baseline_timing = runner.measure_stage(baseline, generated.frame,
                                                           pipeline, stage, sim)
                    for engine_name, engine in setup.engines.items():
                        timing = (baseline_timing if engine_name == "pandas"
                                  else runner.measure_stage(engine, generated.frame,
                                                            pipeline, stage, sim))
                        if timing.failed:
                            continue
                        stage_seconds.setdefault(engine_name, []).append(timing.seconds)
                averaged = {name: sum(values) / len(values)
                            for name, values in stage_seconds.items() if values}
                if "pandas" not in averaged:
                    continue
                pandas_seconds = averaged["pandas"]
                seconds[dataset_name][stage.value] = averaged
                speedups[dataset_name][stage.value] = {
                    name: speedup(pandas_seconds, value)
                    for name, value in averaged.items()
                }
        return speedups, seconds

    @staticmethod
    def _legacy_fig5(setup):
        runner = MatrixRunner(runs=setup.config.runs)
        baseline = setup.baseline()
        speedups: dict = {}
        seconds: dict = {}
        for dataset_name, generated in setup.datasets.items():
            sim = generated.simulation_context(setup.config.machine,
                                               runs=setup.config.runs)
            per_engine_mode: dict = {}
            for pipeline in setup.pipelines_for(dataset_name):
                baseline_timing = runner.measure_full(baseline, generated.frame,
                                                      pipeline, sim, lazy=False)
                if baseline_timing.failed:
                    continue
                per_engine_mode.setdefault("pandas", {}).setdefault("eager", []).append(
                    baseline_timing.seconds)
                for engine_name, engine in setup.engines.items():
                    if engine_name == "pandas":
                        continue
                    modes = ["eager", "lazy"] if engine.supports_lazy else ["eager"]
                    for mode in modes:
                        timing = runner.measure_full(engine, generated.frame, pipeline,
                                                     sim, lazy=(mode == "lazy"))
                        if timing.failed:
                            continue
                        per_engine_mode.setdefault(engine_name, {}).setdefault(
                            mode, []).append(timing.seconds)
            pandas_values = per_engine_mode.get("pandas", {}).get("eager", [])
            if not pandas_values:
                continue
            pandas_seconds = sum(pandas_values) / len(pandas_values)
            seconds[dataset_name] = {}
            speedups[dataset_name] = {}
            for engine_name, modes in per_engine_mode.items():
                averaged = {mode: sum(values) / len(values)
                            for mode, values in modes.items() if values}
                seconds[dataset_name][engine_name] = averaged
                speedups[dataset_name][engine_name] = {
                    mode: speedup(pandas_seconds, value)
                    for mode, value in averaged.items()
                }
        return speedups, seconds


class TestResultSetOnRealRuns:
    def test_json_roundtrip_of_a_real_run(self, session, tmp_path):
        results = session.run(mode="full", engines=["pandas", "polars"])
        path = tmp_path / "run.json"
        results.to_json(path)
        assert ResultSet.from_json(path) == results

    def test_speedup_vs_matches_driver(self, session):
        results = session.run(mode="full", engines=["pandas", "polars"], lazy=False)
        per_engine = results.speedup_vs("pandas")["athlete"]
        pandas_mean = results.filter(engine="pandas").mean()
        polars_mean = results.filter(engine="polars").mean()
        assert per_engine["polars"] == pytest.approx(pandas_mean / polars_mean)


class TestCLI:
    def test_cli_runs_a_slice_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        code = cli_main(["--mode", "full", "--engines", "pandas,polars",
                         "--datasets", "athlete", "--scale", "0.1", "--runs", "1",
                         "--no-cache", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "Simulated seconds" in printed and "Speedup over Pandas" in printed
        loaded = ResultSet.from_json(out)
        assert loaded.engines() == ["pandas", "polars"]
        assert loaded.datasets() == ["athlete"]
        payload = json.loads(out.read_text())
        assert payload["version"] == 1

    def test_cli_tpch_slice(self, tmp_path, capsys):
        out = tmp_path / "tpch.csv"
        code = cli_main(["--mode", "tpch", "--engines", "pandas,polars",
                         "--queries", "q01,q06", "--runs", "1", "--no-cache",
                         "--csv", str(out)])
        assert code == 0
        loaded = ResultSet.from_csv(out)
        assert len(loaded) == 4
        assert {m.mode for m in loaded} == {"tpch"}


class TestMeasurementRecord:
    def test_to_dict_from_dict_roundtrip(self):
        m = Measurement(engine="polars", dataset="taxi", pipeline="taxi-1",
                        mode="stage", stage="EDA", seconds=1.25, lazy=True,
                        machine="laptop")
        assert Measurement.from_dict(m.to_dict()) == m

    def test_from_dict_ignores_unknown_keys(self):
        m = Measurement.from_dict({"engine": "pandas", "seconds": "2.5",
                                   "lazy": "true", "future_field": 1})
        assert m.seconds == 2.5 and m.lazy is True
