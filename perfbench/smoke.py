"""Smoke test of the benchmark at a tiny size.

Run from the root of a checkout (about two minutes)::

    python3 perfbench/smoke.py

It checks that

* the correctness gate counts an altered or missing digest as a failure and
  passes identical ones;
* every workload, untraced and traced, exits 0, passes its gate and prints
  every metric ``BENCHMARK.json`` names, with its unit, as the last line;
* a program whose ``object``-backend join drops a row, the same way on every
  run, fails the gate of ``run.py`` (``correct`` false);
* the benchmark refuses to run, without printing a result, in a directory
  holding only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


#: Appended to a copy of ``repro/frame/join.py``: every join on the
#: ``object`` backend loses its last row; the ``dict`` backend stays exact.
BROKEN_JOIN = """

_exact_hash_join = hash_join


def hash_join(left, right, *args, **kwargs):
    joined = _exact_hash_join(left, right, *args, **kwargs)
    if active_backend() == "object" and joined.num_rows:
        return joined.head(joined.num_rows - 1)
    return joined
"""


def check_gate() -> None:
    reference = {"0": "a1", "1": "b2"}
    assert run.mismatches(reference, [["0", "a1"], ["1", "b2"]], complete=True) == 0
    assert run.mismatches(reference, [["0", "a1"], ["1", "b3"]], complete=True) == 1
    assert run.mismatches(reference, [["0", "a1"]], complete=True) == 1
    assert run.mismatches(reference, [["1", "b2"]], complete=False) == 0
    rep = {"passes": [{"ops": 2, "errors": 0, "digests": [["0", "a1"], ["1", "x"]]}],
           "leaks": {"shm_segments": [], "child_processes": []}}
    oracle = {"reference": reference, "cross_checked": 2, "cross_failures": 0}
    assert run.gate([rep], oracle, complete=True) == (4, 1)
    assert run.gate([rep], dict(oracle, cross_failures=1), complete=True) == (4, 2)


def copy_checkout(root: Path, into: Path) -> None:
    shutil.copy(root / "BENCHMARK.json", into)
    for name in ("perfbench", "src"):
        shutil.copytree(root / name, into / name,
                        ignore=shutil.ignore_patterns("__pycache__"))


def check_gate_trips_on_wrong_program(root: Path) -> None:
    scratch = root / ".perfbench-out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as broken:
        copy_checkout(root, Path(broken))
        join = Path(broken) / "src" / "repro" / "frame" / "join.py"
        join.write_text(join.read_text() + BROKEN_JOIN)
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "tpch", "--seed", "3", "--seconds", "1",
                               "--trace", "0", "--size", "tiny"], cwd=broken,
                              capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0, result
    print(f"ok   gate trips on a wrong join: {result['failed']} of "
          f"{result['attempted']} operations failed")


def check_workload(workload: str, trace: int, spec: dict) -> None:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "1", "--trace", str(trace),
               "--size", "tiny"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, (workload, trace, done.stderr[-2000:])
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, (workload, trace, result)
    assert result["attempted"] >= 1
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in listed}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == expected, (workload, trace, set(printed) ^ set(expected))
    lines = {tuple(line.split()[:1] + line.split()[2:3])
             for line in done.stdout.splitlines()[:-1]}
    for name, unit in expected.items():
        assert (name, unit) in lines, (workload, trace, name)
    print(f"ok   {workload} trace={trace}: {len(expected)} metrics, "
          f"{result['attempted']} operations")


def check_refuses_outside_checkout(root: Path) -> None:
    scratch = root / ".perfbench-out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(root / "perfbench", Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "prep-seq", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=180)
    assert done.returncode != 0 and '"correct"' not in done.stdout, done.stdout
    print("ok   refuses to run without the program")


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    check_gate()
    print("ok   correctness gate trips on an altered digest")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_workload(workload, trace, spec)
    check_gate_trips_on_wrong_program(root)
    check_refuses_outside_checkout(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
