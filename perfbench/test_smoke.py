"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json at the tiny size in both modes and
checks the result line against BENCHMARK.json, runs all workloads in one
process, and checks that the benchmark refuses to run without the
package source. Run from the root of a checkout:

    python3 perfbench/test_smoke.py      (or: python3 -m pytest perfbench)
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_out", "smoke")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(extra, cwd=ROOT):
    spec = _spec()
    return subprocess.run(spec["command"] + extra, cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_every_workload_tiny():
    spec = _spec()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(["--workload", workload, "--seed", "42",
                         "--seconds", "1", "--trace", str(trace), "--tiny"])
            where = f"{workload} --trace {trace}"
            assert proc.returncode == 0, f"{where}:\n{proc.stdout}{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, where
            assert result["correct"] is True, where
            assert result["failed"] == 0 and result["attempted"] >= 1, where
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = result["metrics"]
            assert set(got) == set(want), (
                f"{where}: missing {sorted(set(want) - set(got))}, "
                f"extra {sorted(set(got) - set(want))}")
            for name, m in got.items():
                assert set(m) == {"value", "unit"}, (where, name)
                assert m["unit"] == want[name], (where, name)
                assert math.isfinite(m["value"]), (where, name)


def test_all_workloads_in_one_process():
    """`--workload all` also runs the workloads BENCHMARK.json leaves out."""
    spec = _spec()
    proc = _run(["--workload", "all", "--seconds", "1", "--trace", "0",
                 "--tiny"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    names = {m["name"] for m in spec["end_to_end"]}
    workloads = {k.split(".", 1)[0] for k in result["metrics"]}
    assert {w["name"] for w in spec["workloads"]} <= workloads
    assert set(result["metrics"]) == {f"{w}.{n}" for w in workloads
                                      for n in names}


def test_fails_without_package_source():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in _spec()["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "day-toa", "--seconds", "1", "--trace", "0"],
                cwd=bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip(), proc.stdout
    shutil.rmtree(bare)


if __name__ == "__main__":
    test_every_workload_tiny()
    test_all_workloads_in_one_process()
    test_fails_without_package_source()
    print("perfbench smoke test passed")
