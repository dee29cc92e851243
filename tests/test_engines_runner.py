"""Tests for the simulated engines and the Bento runner."""

import pytest

from repro.core import MatrixRunner, Pipeline
from repro.engines import (
    DEFAULT_ENGINES,
    EngineUnavailableError,
    SimulationContext,
    available_engines,
    create_engine,
    create_engines,
)
from repro.frame import DataFrame
from repro.simulate import LAPTOP, PAPER_SERVER, SERVER


@pytest.fixture
def frame():
    return DataFrame({
        "id": list(range(40)),
        "cat": ["a", "b", "c", "d"] * 10,
        "num": [float(i) * 1.5 for i in range(40)],
        "text": [f"row {i}" for i in range(40)],
        "when": ["2015-01-%02d" % (i % 28 + 1) for i in range(40)],
    })


@pytest.fixture
def sim(frame):
    return SimulationContext.for_frame(frame, PAPER_SERVER, nominal_rows=2_000_000, name="tiny")


@pytest.fixture
def pipeline():
    return Pipeline.from_steps("tiny", "tiny", [
        ("read", {}),
        ("getcols", {}),
        ("isna", {}),
        ("query", {"predicate": {"op": ">", "left": {"col": "num"}, "right": {"lit": 10}}}),
        ("calccol", {"target": "scaled",
                     "expression": {"op": "*", "left": {"col": "num"}, "right": {"lit": 2}}}),
        ("catenc", {"columns": ["cat"]}),
        ("group", {"by": ["cat"], "agg": {"num": "mean"}}),
        ("chdate", {"columns": ["when"]}),
        ("dropna", {}),
        ("fillna", {"value": 0}),
        ("dedup", {"subset": ["id"]}),
        ("sort", {"by": ["num"]}),
        ("write", {}),
    ])


class TestRegistry:
    def test_default_engines_all_created_on_paper_server(self):
        engines = create_engines(machine=PAPER_SERVER)
        assert set(engines) == set(DEFAULT_ENGINES)

    def test_cudf_skipped_without_gpu(self):
        engines = create_engines(machine=SERVER)
        assert "cudf" not in engines
        assert "cudf" not in available_engines(LAPTOP)

    def test_cudf_raises_when_not_skipping(self):
        with pytest.raises(EngineUnavailableError):
            create_engines(["cudf"], machine=LAPTOP, skip_unavailable=False)

    def test_unknown_engine(self):
        with pytest.raises(KeyError):
            create_engine("arrowframe")

    def test_engine_metadata(self):
        polars = create_engine("polars")
        assert polars.display_name == "Polars"
        assert polars.supports_lazy and polars.supports_parquet
        datatable = create_engine("datatable")
        assert not datatable.supports_parquet


class TestExecuteStep:
    def test_step_returns_record_with_nominal_rows(self, frame, sim):
        engine = create_engine("pandas")
        result, record = engine.execute_step(frame, "sort", sim, params={"by": ["num"]})
        assert record.rows == 2_000_000
        assert record.seconds > 0
        assert result.frame.num_rows == frame.num_rows

    def test_results_identical_across_engines(self, frame, sim, pipeline, engines):
        """Every simulated engine must produce the same physical result."""
        reference = None
        for name, engine in engines.items():
            current = frame
            for step in pipeline.steps:
                if step.preparator in ("read", "write"):
                    continue
                outcome, _ = engine.execute_step(current, step, sim)
                if outcome.chained:
                    current = outcome.frame
            if reference is None:
                reference = current
            else:
                assert current.equals(reference), f"{name} diverged from the reference result"

    def test_lazy_and_eager_results_match(self, frame, sim, pipeline):
        engine = create_engine("polars")
        steps = [s for s in pipeline.steps if s.preparator not in ("read", "write")]
        eager_frame, _ = engine.execute_steps(frame, steps, sim, lazy=False)
        lazy_frame, _ = engine.execute_steps(frame, steps, sim, lazy=True)
        assert eager_frame.equals(lazy_frame)

    def test_fallback_penalty_applied_for_missing_api(self, frame, sim):
        vaex = create_engine("vaex")
        # dedup is missing from Vaex's API (Table 3), pivot from DataTable's.
        _, record = vaex.execute_step(frame, "dedup", sim, params={"subset": ["id"]})
        _, native = vaex.execute_step(frame, "sort", sim, params={"by": ["num"]})
        assert record.seconds > 0 and native.seconds > 0

    def test_gpu_engine_requires_gpu_machine(self):
        with pytest.raises(EngineUnavailableError):
            create_engine("cudf", machine=LAPTOP)

    def test_read_write_pricing(self, frame, sim, tmp_path):
        engine = create_engine("polars")
        loaded, record = engine.read_dataset(frame, sim, "csv")
        assert loaded.num_rows == frame.num_rows and record.seconds > 0
        write_record = engine.write_dataset(frame, sim, "parquet", path=tmp_path / "out.rpq")
        assert (tmp_path / "out.rpq").exists() and write_record.seconds > 0

    def test_datatable_rejects_parquet(self, frame, sim):
        engine = create_engine("datatable")
        with pytest.raises(EngineUnavailableError):
            engine.read_dataset(frame, sim, "parquet")

    def test_datatable_sentinel_isna_matches_reference(self, frame, sim):
        datatable = create_engine("datatable")
        pandas = create_engine("pandas")
        dt_out, _ = datatable.execute_step(frame, "isna", sim)
        pd_out, _ = pandas.execute_step(frame, "isna", sim)
        assert dt_out.output.equals(pd_out.output)

    def test_spark_metadata_slower_than_pandas(self, frame, sim):
        spark = create_engine("sparksql")
        pandas = create_engine("pandas")
        _, spark_record = spark.execute_step(frame, "getcols", sim)
        _, pandas_record = pandas.execute_step(frame, "getcols", sim)
        assert spark_record.seconds > pandas_record.seconds


class TestRunner:
    def test_function_core_reports_every_step(self, frame, sim, pipeline):
        runner = MatrixRunner(runs=2)
        measurements = runner.measure_function_core(create_engine("pandas"), frame,
                                                    pipeline, sim)
        assert not any(m.failed for m in measurements)
        assert len(measurements) == len(pipeline)
        assert {m.step for m in measurements} == set(pipeline.preparators_used())
        assert sum(m.seconds for m in measurements) > 0

    def test_stage_timings_cover_all_stages(self, frame, sim, pipeline):
        runner = MatrixRunner(runs=1)
        stages = runner.measure_stages(create_engine("polars"), frame, pipeline, sim)
        assert {m.stage for m in stages} == {"I/O", "EDA", "DT", "DC"}
        assert all(m.seconds >= 0 for m in stages)

    def test_full_pipeline_lazy_faster_for_spark(self, frame, sim, pipeline):
        runner = MatrixRunner(runs=1)
        spark = create_engine("sparkpd")
        eager = runner.measure_full(spark, frame, pipeline, sim, lazy=False)
        lazy = runner.measure_full(spark, frame, pipeline, sim, lazy=True)
        assert lazy.seconds < eager.seconds

    def test_full_matrix(self, frame, sim, pipeline, engines):
        runner = MatrixRunner(runs=1)
        measurements = {name: runner.measure_full(engine, frame, pipeline, sim)
                        for name, engine in engines.items()}
        assert set(measurements) == set(engines)
        assert measurements["cudf"].seconds < measurements["pandas"].seconds

    def test_oom_is_reported_not_raised(self, frame, pipeline):
        runner = MatrixRunner(runs=1)
        laptop_sim = SimulationContext.for_frame(frame, LAPTOP, nominal_rows=80_000_000,
                                                 name="huge")
        measurement = runner.measure_full(create_engine("pandas", LAPTOP), frame,
                                          pipeline, laptop_sim)
        assert measurement.failed and "GiB" in measurement.failure_reason

    def test_runs_must_be_positive(self):
        with pytest.raises(ValueError):
            MatrixRunner(runs=0)

    def test_run_stage_missing_stage_returns_zero(self, frame, sim):
        pipeline = Pipeline.from_steps("noio", "tiny", [("sort", {"by": ["num"]})])
        runner = MatrixRunner(runs=1)
        measurement = runner.measure_stage(create_engine("pandas"), frame, pipeline,
                                           "DC", sim)
        assert measurement.seconds == 0.0 and not measurement.failed
