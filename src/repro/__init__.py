"""repro — reproduction of "Evaluation of Dataframe Libraries for Data
Preparation on a Single Machine" (EDBT 2025).

The package is organized in layers:

* :mod:`repro.frame`       — columnar dataframe substrate (numpy-backed);
* :mod:`repro.plan`        — lazy logical plans, optimizer and executor;
* :mod:`repro.io`          — CSV and the rparquet columnar binary format;
* :mod:`repro.simulate`    — machine configurations, cost and memory models;
* :mod:`repro.engines`     — the simulated dataframe libraries;
* :mod:`repro.core`        — Bento: preparators, pipelines, runner, metrics;
* :mod:`repro.datasets`    — synthetic Athlete/Loan/Patrol/Taxi + pipelines;
* :mod:`repro.results`     — unified Measurement records and ResultSet;
* :mod:`repro.sweep`       — sweep scheduler: cells, result cache, worker pools;
* :mod:`repro.session`     — the Session facade over the whole matrix;
* :mod:`repro.service`     — benchmark-as-a-service HTTP server and client;
* :mod:`repro.tpch`        — TPC-H generator, 22 queries and runner;
* :mod:`repro.experiments` — one driver per table/figure of the paper.

The front door is :class:`Session`: ``Session(config).run(mode=..., ...)``
sweeps any slice of the engine × dataset × pipeline matrix and returns a
:class:`~repro.results.ResultSet` of unified measurements.
"""

from .config import ExperimentConfig
from .core import MatrixRunner, Pipeline, PipelineStep, Stage
from .engines import SimulationContext, create_engine, create_engines
from .frame import Column, DataFrame, col, lit
from .plan import LazyFrame
from .results import Measurement, ResultSet
from .session import Session
from .simulate import LAPTOP, PAPER_SERVER, SERVER, WORKSTATION, MachineConfig
from .sweep import Cell, RetryPolicy, SweepCache, SweepScheduler, SweepStats

__version__ = "1.5.0"

__all__ = [
    "__version__",
    "DataFrame",
    "Column",
    "col",
    "lit",
    "LazyFrame",
    "Pipeline",
    "PipelineStep",
    "Stage",
    "Session",
    "ExperimentConfig",
    "Measurement",
    "ResultSet",
    "MatrixRunner",
    "Cell",
    "RetryPolicy",
    "SweepCache",
    "SweepScheduler",
    "SweepStats",
    "SimulationContext",
    "create_engine",
    "create_engines",
    "MachineConfig",
    "LAPTOP",
    "WORKSTATION",
    "SERVER",
    "PAPER_SERVER",
]
