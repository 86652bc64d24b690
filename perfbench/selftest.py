"""Smoke-size self-test of the benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit, in
untraced and traced runs of every workload at smoke size; that a corrupted
command output counts as failed without ending the pass; and that the
benchmark refuses to run where the habitopt sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int, smoke: bool = True):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    if smoke:
        argv.append("--smoke")
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_metrics() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] is True and result["attempted"] >= 1, result
            for m in SPEC[key]:
                got = result["metrics"].get(m["name"])
                assert got is not None, f"{workload} trace={trace}: {m['name']} missing"
                assert got["unit"] == m["unit"], f"{m['name']}: unit {got['unit']}"
                assert isinstance(got["value"], (int, float)), m["name"]
            print(f"ok  {workload} trace={trace}: {len(SPEC[key])} metrics")


def check_corrupted_output_counts_as_failed() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench
    from workloads import smoke_workloads

    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench"))
    try:
        ctx = bench.Context(7, work)
        commands = smoke_workloads()["ladder"].commands(ctx, 0)
        clean, _ = bench.run_pass(commands, 60.0)
        assert not any(r.failure for r in clean), [r.failure for r in clean]

        original = bench.run_command

        def corrupt(argv, limit_s):
            rc, out, err, error = original(argv, limit_s)
            if argv[0] == "solve":
                out = out.replace('"converged": true', '"converged": false', 1)
            return rc, out, err, error

        bench.run_command = corrupt
        try:
            bad, _ = bench.run_pass(commands, 60.0)
        finally:
            bench.run_command = original
        failed = [r.label for r in bad if r.failure]
        solves = [c.label for c in commands if c.argv[0] == "solve"]
        assert failed == solves, failed
        assert len(bad) == len(commands)
        print(f"ok  corrupted solve output counted as failed ({len(failed)} commands)")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_refuses_without_sources() -> None:
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "ladder", 0, smoke=False)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
        print("ok  refuses to run without the habitopt sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    check_metrics()
    check_corrupted_output_counts_as_failed()
    check_refuses_without_sources()
    print("selftest passed")
