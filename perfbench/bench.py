"""Benchmark engine: set-up, timed passes, output checks, metrics, report."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import habitopt
from habitopt import cli

from spans import Tracer
from workloads import all_workloads, smoke_workloads

SETUP_REPS = 3
MAX_PASSES = 50

@dataclass
class Record:
    label: str
    draw: int
    rung: str | None
    step: str | None
    seconds: float
    rc: int | None
    digest: str = ""
    out_bytes: int = 0
    failure: str | None = None
    iterations: int | None = None     # Newton iterations (ladder solve)
    nodes: int | None = None          # tree nodes (ladder validate)
    rss_mb: float = 0.0               # peak RSS of the process after the command


class Context:
    """Where a run keeps its instance files, and a way to run set-up commands."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def path(self, *parts: str) -> str:
        return str(self.work.joinpath(*parts))

    def must(self, argv: list[str]) -> str:
        rc, out, err, error = run_command(argv)
        if rc != 0:
            raise RuntimeError(f"set-up command failed ({rc}): {argv}: {error or err}")
        return out


class CommandTimeout(BaseException):
    """Raised in a command that outlives its limit; not an ``Exception`` so
    that no handler inside habitopt swallows it."""


def _on_alarm(signum, frame):
    raise CommandTimeout


def run_command(argv: list[str], limit_s: float = 0.0):
    """One CLI command in-process; returns (exit code, stdout, stderr, error).

    With ``limit_s`` > 0 the command is interrupted after that many seconds and
    reported as an error, so that one stalled solve cannot eat the run.
    """
    out, err = io.StringIO(), io.StringIO()
    error = None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except CommandTimeout:
            rc, error = None, f"timeout: exceeded the {limit_s:g} s command limit"
        except Exception as exc:   # a raising command is counted, not fatal
            rc, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    return rc, out.getvalue(), err.getvalue(), error


def run_pass(commands, limit_s: float, draw: int = 0, tracer: Tracer | None = None):
    """Run one draw's commands in order; check and digest their outputs afterwards.

    Returns the records and the pass's wall-clock seconds (first command start
    to last command end, checks excluded).
    """
    raw = []
    t_start = time.perf_counter()
    for i, cmd in enumerate(commands):
        t0 = time.perf_counter()
        if tracer is None:
            result = run_command(cmd.argv, limit_s)
        else:
            result = tracer.command(i, cmd.argv[0], run_command, cmd.argv, limit_s)
        seconds = time.perf_counter() - t0
        raw.append((cmd, seconds, result, peak_rss_mb()))
        sys.stderr.write(f"{cmd.label} {seconds:.3f} s, exit {result[0]}\n")
    wall = time.perf_counter() - t_start
    records = []
    for cmd, seconds, (rc, out, err, error), rss in raw:
        blob = out.encode()
        for name in cmd.files:
            if os.path.exists(name):
                blob += Path(name).read_bytes()
        rec = Record(cmd.label, draw, cmd.rung, cmd.step, seconds, rc,
                     hashlib.sha256(blob).hexdigest(), len(blob), rss_mb=rss)
        if error is not None:
            rec.failure = f"raised {error}" if not error.startswith("timeout") else error
        elif rc != 0:
            rec.failure = f"exit {rc}: {err.strip().splitlines()[-1] if err.strip() else ''}"
        else:
            try:
                rec.failure = cmd.check(out)
            except (ValueError, KeyError, TypeError) as exc:
                rec.failure = f"unreadable output: {type(exc).__name__}: {exc}"
        if rc == 0 and error is None and cmd.step == "solve":
            rec.iterations = int(json.loads(out)["diagnostics"].get("iterations", 0))
        if rc == 0 and error is None and cmd.step == "validate":
            rec.nodes = 1 + sum(json.loads(out)["atom_counts"])
        records.append(rec)
    return records, wall


def time_setup(workload, ctx, reps: int) -> float:
    """Median over ``reps`` of: fresh-process ``import habitopt``, then prepare()."""
    src = str(Path(habitopt.__file__).resolve().parent.parent)
    code = "import sys; sys.path.insert(0, sys.argv[1]); import habitopt"
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, src], check=True, timeout=120,
                       cwd=str(ctx.work))
        workload.prepare(ctx)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment(args, root: Path, blas_threads: int) -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=30,
                                capture_output=True, text=True).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def command_seconds(records) -> dict:
    """Seconds per command label: its fastest sample.

    Samples are repeats of the same command and, on the ladder, the instance
    draws of a rung.  The fastest is the one least disturbed by other load on
    the host, and on the ladder the one not caught in a stalled Newton solve;
    stalls still count through the command time limit and show in the
    per-rung iterations.
    """
    best = {}
    for rec in records:
        best[rec.label] = min(best.get(rec.label, math.inf), rec.seconds)
    return best


def rung_table(records) -> list[dict]:
    """Per ladder rung: tree nodes, generate/validate/solve seconds (as in
    wall_s), Newton iterations of each draw's first solve, peak RSS after the
    rung's first pass."""
    seconds = command_seconds(records)
    rows = {}
    seen = set()
    for rec in records:
        if rec.rung is None:
            continue
        row = rows.setdefault(rec.rung, {"rung": rec.rung, "nodes": rec.nodes,
                                         "iterations": [], "rss_mb": None})
        row[f"{rec.step}_s"] = round(seconds[rec.label], 4)
        row["nodes"] = row["nodes"] or rec.nodes
        if rec.step == "solve" and (rec.label, rec.draw) not in seen:
            seen.add((rec.label, rec.draw))
            row["iterations"].append(rec.iterations)
            row["rss_mb"] = row["rss_mb"] or round(rec.rss_mb, 1)
    return list(rows.values())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    if not math.isfinite(value):
        raise ValueError(f"non-finite metric {value}")
    return {"value": value, "unit": unit}


def measure(workload, ctx, seconds: float):
    """Cycle over the workload's draws ``cycles`` times, then until ``seconds``."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MAX_PASSES:
        draw = len(passes) % workload.draws
        passes.append(run_pass(workload.commands(ctx, draw), workload.limit_s, draw))
        elapsed = time.perf_counter() - start
        if (len(passes) >= workload.cycles * workload.draws
                and elapsed + passes[-1][1] > seconds):
            break
    return passes


def per_layer_metrics(tracer: Tracer, records, traced_wall: float,
                      untraced_wall: float, rungs) -> dict:
    t = tracer
    out = {}

    def put(name, value, unit):
        out[name] = metric(float(value), unit)

    for cmd in ("generate", "validate", "solve", "verify", "sweep"):
        put(f"cli.{cmd}.s", t.group_s[f"cli.{cmd}"], "s")
    put("cli.self_s", t.self_s["cli"], "s")
    put("cli.out_bytes", sum(r.out_bytes for r in records), "bytes")

    gen_calls = t.calls["analysis.generate_scenario"]
    put("analysis.generate_scenario.s", t.group_s["analysis.generate_scenario"], "s")
    put("analysis.generate_scenario.tries", t.tries, "count")
    put("analysis.generate_scenario.accept_ratio", gen_calls / t.tries if t.tries else 0.0,
        "ratio")
    for fn in ("monotonicity_probe", "concavity_probe", "eta_bound_check",
               "envelope_check", "wealth_sweep"):
        put(f"analysis.{fn}.calls", t.calls[f"analysis.{fn}"], "count")
        put(f"analysis.{fn}.s", t.group_s[f"analysis.{fn}"], "s")
    put("analysis.self_s", t.self_s["analysis"], "s")

    for group in ("solve_general", "solve_subproblem", "closed", "solve_primal_oracle",
                  "lp", "cholesky", "brentq"):
        put(f"solvers.{group}.calls", t.calls[f"solvers.{group}"], "count")
        put(f"solvers.{group}.s", t.group_s[f"solvers.{group}"], "s")
    put("solvers.solve_general.iterations", t.iterations["solvers.solve_general"], "count")
    put("solvers.solve_general.scaling_exp", scaling_exponent(tracer, records, rungs), "1")
    durations = np.array(t.durations["solvers.solve_subproblem"] or [0.0]) * 1e3
    put("solvers.solve_subproblem.p50_ms", np.percentile(durations, 50), "ms")
    put("solvers.solve_subproblem.p99_ms", np.percentile(durations, 99), "ms")
    put("solvers.solve_subproblem.iterations", t.iterations["solvers.solve_subproblem"],
        "count")
    put("solvers.failed", t.layer_failed["solvers"], "count")
    put("solvers.self_s", t.self_s["solvers"], "s")

    for fn in ("check_no_arbitrage", "spd_bundle", "classify_market", "payoff_space_basis",
               "lp"):
        put(f"market.{fn}.calls", t.calls[f"market.{fn}"], "count")
        put(f"market.{fn}.s", t.group_s[f"market.{fn}"], "s")
    put("market.spd_bundle.distinct", len(t.spd_keys), "count")
    put("market.self_s", t.self_s["market"], "s")

    for fn in ("utility_value", "foc_residual", "simplified_foc_residual",
               "perturbed_consumption", "habit_adjusted_marginal"):
        put(f"preferences.{fn}.calls", t.calls[f"preferences.{fn}"], "count")
        put(f"preferences.{fn}.s", t.group_s[f"preferences.{fn}"], "s")
    put("preferences.self_s", t.self_s["preferences"], "s")

    for fn in ("build_tree", "condexp", "lift"):
        put(f"tree.{fn}.calls", t.calls[f"tree.{fn}"], "count")
        put(f"tree.{fn}.s", t.group_s[f"tree.{fn}"], "s")
    put("tree.self_s", t.self_s["tree"], "s")

    put("bench.gap_s", traced_wall - t.covered_s(), "s")
    put("trace.wall_s", traced_wall, "s")
    put("trace.overhead_s", traced_wall - untraced_wall, "s")
    return out


def scaling_exponent(tracer: Tracer, records, rungs) -> float:
    """Log-log slope of solve_general time against node count over the
    complete-tree ladder solves that finished (0 when fewer than two did)."""
    nodes = {r["rung"]: r["nodes"] for r in rungs}
    per_cmd = {}
    for name, _, start, end, _, cmd in tracer.spans:
        if name == "solvers.solve_general":
            per_cmd[cmd] = per_cmd.get(cmd, 0.0) + (end - start)
    xs, ys = [], []
    for i, rec in enumerate(records):
        if (rec.step == "solve" and rec.rung.startswith("complete-") and rec.rc == 0
                and i in per_cmd):
            xs.append(math.log(nodes[rec.rung]))
            ys.append(math.log(per_cmd[i]))
    if len(xs) < 2:
        return 0.0
    return float(np.polyfit(xs, ys, 1)[0])


def traced_run(workload, ctx):
    """One untraced and one traced pass over draw 0.

    Returns the traced records, the tracer, both walls, and the problems
    found: outputs that tracing changed, or layer self times plus the gap
    between commands that do not add up to the traced wall time.
    """
    untraced, untraced_wall = run_pass(workload.commands(ctx, 0), workload.limit_s)
    tracer = Tracer()
    tracer.install(habitopt)
    try:
        traced, traced_wall = run_pass(workload.commands(ctx, 0), workload.limit_s,
                                       tracer=tracer)
    finally:
        tracer.uninstall()
    problems = []
    for a, b in zip(untraced, traced):
        timed_out = any((r.failure or "").startswith("timeout") for r in (a, b))
        if a.digest != b.digest and not timed_out:
            problems.append(f"traced output differs: {a.label}")
    layers_self = sum(tracer.self_s.values())
    gap = traced_wall - tracer.covered_s()
    print(json.dumps({"trace_identity": {"layers_self_s": layers_self, "gap_s": gap,
                                         "traced_wall_s": traced_wall}}))
    if abs(layers_self + gap - traced_wall) > 1e-6 * max(1.0, traced_wall):
        problems.append("layer self times and gap do not add up to traced wall_s")
    return traced, tracer, traced_wall, untraced_wall, problems


def run_workload(args, root: Path, blas_threads: int) -> int:
    table = smoke_workloads() if args.smoke else all_workloads()
    if args.workload not in table:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(table)}\n")
        return 2
    workload = table[args.workload]
    name = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}"
    results = root / ".perfbench" / "results"
    work = root / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    ctx = Context(args.seed, work)
    env = environment(args, root, blas_threads)
    print(json.dumps({"environment": env}))
    try:
        if args.trace:
            workload.prepare(ctx)
            records, tracer, traced_wall, untraced_wall, problems = traced_run(workload, ctx)
            passes = 1
        else:
            setup_s = time_setup(workload, ctx, SETUP_REPS)
            runs = measure(workload, ctx, args.seconds)
            records = [rec for recs, _ in runs for rec in recs]
            passes = len(runs)
            problems = []
            first = {}
            for rec in records:
                if first.setdefault((rec.label, rec.draw), rec.digest) != rec.digest:
                    problems.append(f"output changed between repeats: {rec.label}")
        rungs = rung_table(records)
        for row in rungs:
            print(json.dumps({"rung": row}))
        failed = [rec for rec in records if rec.failure]
        reasons = {}
        for rec in failed:
            reasons.setdefault(rec.label, []).append(rec.failure)
        for label, why in reasons.items():
            print(json.dumps({"failed_command": label, "times": len(why), "reason": why[0]}))
        for p in problems:
            print(json.dumps({"problem": p}))
        if args.trace:
            metrics = per_layer_metrics(tracer, records, traced_wall, untraced_wall, rungs)
            tracer.write_spans(str(results / f"{name}.spans.jsonl"))
        else:
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "wall_s": metric(sum(command_seconds(records).values()), "s"),
                "peak_rss_mb": metric(peak_rss_mb(), "MiB"),
            }
        summary = {"workload": args.workload, "passes": passes,
                   "failed_share": {"value": len(failed) / len(records), "unit": "share"},
                   "failed_commands": sorted(reasons)}
        print(json.dumps({"summary": summary}))
        with open(results / f"{name}-trace{args.trace}.json", "w") as fh:
            json.dump({"environment": env, "summary": summary, "rungs": rungs,
                       "records": [rec.__dict__ for rec in records], "metrics": metrics},
                      fh, indent=1)
        print(json.dumps({"correct": not problems, "attempted": len(records),
                          "failed": len(failed), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
