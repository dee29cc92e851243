"""In-memory span recorder for the benchmark's traced runs.

The recorder times calls into each layer's public functions from outside the
program: :func:`install` replaces those functions with thin wrappers at every
place the program can reach them (the defining class or module *and* every
``repro`` module that imported the function by name), so no file under
``src/`` changes.  Each call becomes one span ``(id, name, start, end,
parent, run)``; a span without a traced parent opens a new run id that its
descendants share.  Spans are packed into one flat ``array('d')`` (48 bytes a
span, appended by one C call, so threads never interleave half-records) and
reduced to per-layer self time, total time and call counts by
:meth:`SpanRecorder.summary`.

Only calls at layer boundaries are wrapped, never per-element methods such as
``Column.__getitem__``; the wrappers still cost about a microsecond a call,
which the traced run reports as its tracing overhead.  Forked sweep workers
inherit the wrappers but their spans die with them; per-worker numbers of
``prep-par`` come from the public ``SweepStats`` instead (see README.md).

Run as a script, it starts the ``repro`` CLI under the recorder and writes
the spans when the CLI returns (the traced ``service`` server)::

    python perfbench/spans.py --out spans.npz -- serve --port 0 --workers 2
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import sys
import threading
import time
from array import array
from pathlib import Path

#: Layer boundaries: (span name, module, attribute path).  A dotted path is a
#: method (or classmethod) on a class; a plain name is a module function.
TARGETS = (
    ("frame.to_list", "repro.frame.column", "Column.to_list"),
    ("frame.to_list", "repro.frame.dictionary", "DictStringColumn.to_list"),
    ("frame.from_values", "repro.frame.column", "Column.from_values"),
    ("frame.concat_rows", "repro.frame.frame", "concat_rows"),
    ("frame.describe", "repro.frame.frame", "DataFrame.describe"),
    ("frame.parse_dates", "repro.frame.frame", "DataFrame.parse_dates"),
    ("frame.join", "repro.frame.frame", "DataFrame.join"),
    ("frame.group_agg", "repro.frame.frame", "DataFrame.group_agg"),
    ("frame.sort", "repro.frame.frame", "DataFrame.sort_values"),
    ("frame.filter", "repro.frame.frame", "DataFrame.filter"),
    ("frame.export", "repro.frame.sharing", "SharedFrameStore.export"),
    ("core.measure", "repro.core.runner", "MatrixRunner.measure_function_core"),
    ("core.measure", "repro.core.runner", "MatrixRunner.measure_stage"),
    ("core.measure", "repro.core.runner", "MatrixRunner.measure_stages"),
    ("core.measure", "repro.core.runner", "MatrixRunner.measure_io"),
    ("core.measure", "repro.core.runner", "MatrixRunner.measure_full"),
    ("engines.execute_step", "repro.engines.base", "BaseEngine.execute_step"),
    ("engines.execute_steps", "repro.engines.base", "BaseEngine.execute_steps"),
    ("simulate.estimate", "repro.simulate.costmodel", "CostModel.estimate"),
    ("simulate.estimate_plan", "repro.simulate.costmodel", "CostModel.estimate_plan"),
    ("simulate.assess", "repro.simulate.memory", "MemoryModel.assess"),
    ("plan.optimize", "repro.plan.optimizer", "Optimizer.optimize"),
    ("plan.execute", "repro.plan.executor", "Executor.execute"),
    ("plan.stream_execute", "repro.plan.streaming", "StreamingExecutor.execute"),
    ("plan.advise", "repro.plan.advisor", "Advisor.advise"),
    ("sweep.cell", "repro.sweep.scheduler", "execute_cell"),
    ("sweep.cache_load", "repro.sweep.cache", "SweepCache.load"),
    ("sweep.cache_store", "repro.sweep.cache", "SweepCache.store"),
    ("datasets.generate", "repro.datasets.registry", "generate_dataset"),
    ("tpch.datagen", "repro.tpch.datagen", "generate_tpch"),
    ("tpch.run_query", "repro.tpch.runner", "TPCHRunner.run_query"),
)

#: ``Preparator.apply`` is a per-instance dataclass field, so every
#: registered preparator's ``apply`` is wrapped under this name.
PREPARATOR_SPAN = "core.preparator"

_FIELDS = 6  # id, name, start, end, parent, run


class SpanRecorder:
    """Collects spans in memory; thread-safe and cheap enough to wrap kernels."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._data = array("d")
        self._ids = itertools.count()
        #: (span id, run id) of the innermost open span of this context;
        #: ``asyncio.to_thread`` copies it into worker threads.
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(-1.0, -1.0))
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def wrap(self, name: str, func):
        """``func`` with every call recorded as a span called ``name``."""
        nid = float(self.name_id(name))
        current, ids, record, clock = (self._current, self._ids,
                                       self._data.extend, time.perf_counter)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent, run = current.get()
            span = float(next(ids))
            run = span if run < 0 else run
            token = current.set((span, run))
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                record((span, nid, start, end, parent, run))

        return traced

    def _columns(self):
        import numpy as np

        table = np.frombuffer(self._data, dtype=np.float64).reshape(-1, _FIELDS)
        return table.copy()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``.

        Self time is a span's duration minus the time its direct child spans
        cover (children run in the parent's thread, so they never overlap).
        """
        import numpy as np

        table = self._columns()
        if not len(table):
            return {}
        ids = table[:, 0].astype(np.int64)
        names = table[:, 1].astype(np.int64)
        duration = table[:, 3] - table[:, 2]
        parents = table[:, 4].astype(np.int64)
        child = np.zeros(int(ids.max()) + 1)
        nested = parents >= 0
        np.add.at(child, parents[nested], duration[nested])
        own = duration - child[ids]
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        total = np.bincount(names, weights=duration, minlength=width)
        self_time = np.bincount(names, weights=own, minlength=width)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_time[i])}
                for i, name in enumerate(self.names)}

    def dump(self, path: "str | Path") -> None:
        """Write every span to ``path`` (a numpy ``.npz``) and a summary next to it."""
        import json

        import numpy as np

        table = self._columns()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            np.savez_compressed(handle, id=table[:, 0].astype(np.int64),
                                name=table[:, 1].astype(np.int32),
                                start=table[:, 2], end=table[:, 3],
                                parent=table[:, 4].astype(np.int64),
                                run=table[:, 5].astype(np.int64),
                                names=np.array(self.names))
        summary = {"spans": len(table), "layers": self.summary()}
        path.with_suffix(".summary.json").write_text(json.dumps(summary, indent=1))


def _patch_import_sites(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary in :data:`TARGETS` and every preparator."""
    import repro  # noqa: F401 — loads the package so import sites exist

    for name, module_name, path in TARGETS:
        module = importlib.import_module(module_name)
        if "." not in path:
            original = getattr(module, path)
            _patch_import_sites(original, recorder.wrap(name, original))
            continue
        class_name, method = path.split(".")
        cls = getattr(module, class_name)
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(recorder.wrap(name, raw.__func__)))
        else:
            setattr(cls, method, recorder.wrap(name, raw))
    from repro.core.preparators import PREPARATORS

    for preparator in PREPARATORS.values():
        preparator.apply = recorder.wrap(PREPARATOR_SPAN, preparator.apply)


def _main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the spans")
    parser.add_argument("cli", nargs=argparse.REMAINDER,
                        help="arguments of python -m repro, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    recorder = SpanRecorder()
    install(recorder)
    from repro.__main__ import main

    try:
        return main(cli_args)
    finally:
        recorder.dump(args.out)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
