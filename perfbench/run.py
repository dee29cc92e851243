"""The repository's benchmark: one workload, measured for a fixed time.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload prep-seq --seed 1 --seconds 12 --trace 0

It repeats the workload in fresh interpreters (``rep.py``) until
``--seconds`` have passed (at least three repetitions), checks every output
against the sequential ``object``-backend oracle (itself checked against the
``dict`` backend), and prints one line per
metric followed, as the last line of standard output, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates untraced
and traced repetitions and reports the per-layer metrics plus the tracing
overhead.  Details of every repetition, with the provenance (core count, git
revision, source digest, Python and numpy versions), go to
``.perfbench-out/<workload>-seed<seed>-trace<trace>.json``; the spans of the
last traced repetition go to ``.perfbench-out/spans-<workload>.npz``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("prep-seq", "prep-par", "tpch", "service")
#: Repetitions made however short ``--seconds`` is (per kind, when traced).
MIN_REPS = 3
#: Set-up-only repetitions added to the timed ones' set-ups for ``setup_s``.
SETUP_REPS = 2
#: Whole-run deadline: the benchmark must exit within 180 seconds.
DEADLINE_S = 170.0


class BenchmarkError(RuntimeError):
    pass


# --------------------------------------------------------------------------- #
# the correctness gate
# --------------------------------------------------------------------------- #
def mismatches(reference: dict, digests: list, complete: bool) -> int:
    """Outputs that differ from the reference digests (missing ones count too).

    ``digests`` is a list of ``[key, digest]``; ``complete`` means the pass
    must produce every key of ``reference`` (a sweep), not just a subset (the
    service's ``/run`` slices).
    """
    bad = sum(1 for key, value in digests if reference.get(key) != value)
    if complete:
        bad += max(0, len(reference) - len(digests))
    return bad


def gate(reps: list, oracle: dict, complete: bool) -> "tuple[int, int]":
    """(attempted, failed) operations over every pass of every repetition.

    The oracle's own cross-check against the ``dict`` backend counts too.
    """
    reference = oracle["reference"]
    attempted, failed = oracle["cross_checked"], oracle["cross_failures"]
    for rep in reps:
        for record in rep["passes"]:
            attempted += record["ops"]
            failed += record["errors"] + mismatches(reference, record["digests"],
                                                    complete)
        failed += len(rep["leaks"]["shm_segments"]) + len(rep["leaks"]["child_processes"])
        failed += int(rep.get("server_exit", 0) != 0)
    return attempted, failed


# --------------------------------------------------------------------------- #
# repetitions
# --------------------------------------------------------------------------- #
class Runner:
    """Starts ``rep.py`` processes for one workload and seed."""

    def __init__(self, args, root: Path, out: Path):
        self.args = args
        self.out = out
        self.workdir = out / f"work-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        (out / "tmp").mkdir(exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        TMPDIR=str(out / "tmp"),
                        REPRO_CACHE_DIR=str(out / "repro-cache"))
        self.started = time.monotonic()
        self.count = 0

    def rep(self, role: str, traced: bool = False) -> dict:
        self.count += 1
        result_path = self.workdir / f"rep-{self.count}.json"
        spawned_at = time.monotonic()
        command = [sys.executable, str(HERE / "rep.py"),
                   "--workload", self.args.workload, "--seed", str(self.args.seed),
                   "--role", role, "--trace", str(int(traced)),
                   "--size", self.args.size, "--spawned-at", repr(spawned_at),
                   "--workdir", str(self.workdir), "--out", str(result_path),
                   "--spans", str(self.out / f"spans-{self.args.workload}.npz")]
        remaining = DEADLINE_S - (spawned_at - self.started)
        try:
            # stdout goes to stderr: our last stdout line is the result
            code = subprocess.run(command, env=self.env, stdout=sys.stderr,
                                  timeout=max(remaining, 1.0)).returncode
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{role} repetition exceeded the deadline") from None
        if code != 0:
            raise BenchmarkError(f"{role} repetition exited with code {code}")
        result = json.loads(result_path.read_text())
        result["traced"] = traced
        result["duration_s"] = time.monotonic() - spawned_at
        return result

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def measure(runner: Runner, seconds: float, trace: bool) -> list:
    """Repetitions until ``seconds`` have passed; traced runs alternate kinds."""
    reps: list = []
    window_start = runner.elapsed()
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(runner.rep("timed", traced))
        done = runner.elapsed() - window_start
        enough = len(reps) >= MIN_REPS * (2 if trace else 1)
        if enough and done + reps[-1]["duration_s"] > seconds:
            return reps


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
def end_to_end(reps: list, setups: list, attempted: int,
               failed: int) -> "tuple[dict, dict]":
    """Metric values and the sample count behind each.

    Timings are CPU seconds of the process tree (see ``rep.own_cpu_s``), not
    wall clock: on a shared virtual machine the wall clock of one pass moved
    by more than half between runs of the same code, as other guests took
    the host's cores, and the kernel charges that time to steal, not to the
    process.  They are divided by the run's slowdown, the median over its
    repetitions of ``rep.reference_cpu_s``, which reports them at the speed
    of an idle host; slow periods last longer than a run.  The work of a pass
    is the fastest of the run's passes: what contention remains only ever
    adds time.  Set-up time is a median over the timed and the set-up-only
    repetitions.
    """
    timed = [p["cpu_s"] for rep in reps for p in rep["passes"] if p["kind"] == "timed"]
    warm = [p["cpu_s"] for rep in reps for p in rep["passes"] if p["kind"] == "warm"]
    ops = [p["ops"] for rep in reps for p in rep["passes"] if p["kind"] == "timed"]
    setup = [rep["setup_s"] for rep in reps + setups]
    slowdown = statistics.median(rep["slowdown"] for rep in reps + setups)
    values = {
        "setup_s": statistics.median(setup) / slowdown,
        "cold_cpu_s": min(timed) / slowdown,
        "warm_cpu_s": min(warm) / slowdown,
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "ok_ratio": 1.0 - failed / attempted,
        "ops": statistics.median_low(ops),
    }
    per = f" / slowdown {slowdown:.3f} of {len(reps + setups)} repetitions"
    samples = {
        "setup_s": f"median of {len(setup)} repetitions" + per,
        "cold_cpu_s": f"fastest of {len(timed)} timed passes" + per,
        "warm_cpu_s": f"fastest of {len(warm)} warm replays" + per,
        "peak_rss_mb": f"median of {len(reps)} repetitions",
        "ok_ratio": f"{attempted - failed} of {attempted} operations",
        "ops": f"operations per timed pass, {len(timed)} passes",
    }
    return values, samples


def per_layer(reps: list) -> "tuple[dict, dict]":
    traced = [rep for rep in reps if rep["traced"]]
    plain = [rep for rep in reps if not rep["traced"]]
    values = {name: statistics.median(rep["layers"][name] for rep in traced)
              for name in traced[0]["layers"]}
    def fastest(group: list) -> float:
        return min(p["cpu_s"] for rep in group for p in rep["passes"]
                   if p["kind"] == "timed")

    values["trace.overhead_ratio"] = fastest(traced) / fastest(plain) - 1.0
    note = f"median of {len(traced)} traced repetitions"
    samples = dict.fromkeys(values, note)
    samples["trace.overhead_ratio"] = (
        f"fastest timed-pass CPU time of {len(traced)} traced / of {len(plain)} "
        f"untraced repetitions, minus 1")
    return values, samples


# --------------------------------------------------------------------------- #
# provenance
# --------------------------------------------------------------------------- #
def steal_s() -> "float | None":
    """CPU seconds the hypervisor gave to other guests, over all our CPUs."""
    try:
        ticks = int(Path("/proc/stat").read_text().split(None, 9)[8])
    except (OSError, ValueError, IndexError):
        return None
    return ticks / os.sysconf("SC_CLK_TCK")


def provenance(root: Path, reps: list, steal: "float | None") -> dict:
    revision = None
    if (root / ".git").exists():
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                      capture_output=True, text=True,
                                      timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            revision = None
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode())
        source.update(path.read_bytes())
    return {"cpu_count": os.cpu_count(), "git_revision": revision,
            "source_sha256": source.hexdigest()[:16],
            "python": platform.python_version(),
            "numpy": reps[0]["numpy"],
            "platform": platform.platform(),
            # how busy the shared host was while this run measured
            "steal_s": steal}


# --------------------------------------------------------------------------- #
def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="workload size (tiny: the smoke test's)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout of the repository "
              "(src/repro not found)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in listed}

    out = root / ".perfbench-out"
    runner = Runner(args, root, out)
    steal_before = steal_s()
    try:
        if args.workload == "service":  # each /run slice, run untimed afterwards
            reps = measure(runner, args.seconds, bool(args.trace))
            oracle = runner.rep("oracle")
        else:
            oracle = runner.rep("oracle")
            reps = measure(runner, args.seconds, bool(args.trace))
        setups = ([runner.rep("setup") for _ in range(SETUP_REPS)]
                  if not args.trace else [])
    except BenchmarkError as err:
        print(f"error: {args.workload}: {err}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    attempted, failed = gate(reps + setups, oracle,
                             complete=args.workload != "service")
    if args.trace:
        values, samples = per_layer(reps)
    else:
        values, samples = end_to_end([rep for rep in reps if not rep["traced"]],
                                     setups, attempted, failed)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    steal_after = steal_s()
    info = provenance(root, reps, None if steal_before is None or steal_after is None
                      else steal_after - steal_before)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(reps)} repetitions in {runner.elapsed():.1f}s; "
          f"cpu_count={info['cpu_count']} git={info['git_revision']} "
          f"src={info['source_sha256']} python={info['python']} numpy={info['numpy']} "
          f"steal={info['steal_s']}s")
    for name, unit in units.items():
        print(f"  {name:32s} {values[name]:14.6g} {unit:6s} ({samples[name]})")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "size": args.size, "provenance": info,
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "samples": {name: samples[name] for name in units},
              "repetitions": [dict(rep, passes=[{k: v for k, v in p.items()
                                                 if k != "digests"}
                                                for p in rep["passes"]])
                              for rep in reps],
              "setup_repetitions": setups}
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
