"""The benchmark's workloads: habitopt CLI command lists, instances and checks.

Every instance comes from ``habitopt generate`` with a seed derived from the
workload seed.  A workload has a ``prepare`` step (untimed, part of set-up:
instance files and reference solutions) and a ``commands(draw)`` list that one
pass runs in order.  Each command carries a check of its output; a command
that raises, exits non-zero or fails its check counts as failed.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

SOLVE_FOC_TOL = 1e-8      # max full FOC residual accepted from `solve`
ORACLE_TOL = 1e-6         # oracle consumption vs the Newton reference

# The ROADMAP item-2 repro: `verify` exits 4 on it at the seed commit.
REPRO_ITEM2 = ["--seed", "3", "--family", "general", "--T", "4",
               "--utility", "power", "--habit", "one_lag"]


@dataclass
class Command:
    label: str                       # unique within a pass, e.g. "complete-T9/solve"
    argv: list[str]
    check: Callable[[str], str | None]   # stdout -> failure reason, or None
    files: tuple[str, ...] = ()      # output files that belong to the canonical output
    rung: str | None = None
    step: str | None = None


def instance_seed(seed: int, draw: int, index: int) -> int:
    return seed * 1000 + draw * 100 + index


def generate_argv(seed: int, family: str, T: int, out: str, utility=None,
                  habit=None, floors: bool = False) -> list[str]:
    argv = ["generate", "--seed", str(seed), "--family", family, "--T", str(T),
            "--out", out]
    if utility:
        argv += ["--utility", utility]
    if habit:
        argv += ["--habit", habit]
    if floors:
        argv.append("--floors")
    return argv


def instance_args(d: str) -> list[str]:
    return ["--model", os.path.join(d, "model.json"),
            "--prefs", os.path.join(d, "prefs.json"),
            "--endow", os.path.join(d, "endow.json")]


def instance_files(d: str) -> tuple[str, ...]:
    return tuple(os.path.join(d, n) for n in ("model.json", "prefs.json", "endow.json"))


# -- output checks -----------------------------------------------------------

def check_nothing(out: str) -> str | None:
    return None


def check_validate(out: str) -> str | None:
    return None if json.loads(out).get("arbitrage_free") else "market has arbitrage"


def check_solve(out: str) -> str | None:
    payload = json.loads(out)
    if not payload.get("converged"):
        return "not converged"
    worst = max(payload["residuals"]["full_foc_max"])
    if worst > SOLVE_FOC_TOL:
        return f"full_foc_max {worst:.2e} > {SOLVE_FOC_TOL:.0e}"
    return None


def check_sweep(out: str) -> str | None:
    rows = list(csv.DictReader(io.StringIO(out)))
    bad = [r["eps0"] for r in rows if r["status"] != "ok"]
    if not rows:
        return "no sweep rows"
    return f"{len(bad)} rows not ok (eps0 {bad[0]})" if bad else None


def check_oracle(reference: list[list[float]]) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        levels = json.loads(out)["consumption"]
        gap = max(abs(a - b) for lo, lr in zip(levels, reference) for a, b in zip(lo, lr))
        return f"consumption gap {gap:.2e} > {ORACLE_TOL:.0e}" if gap > ORACLE_TOL else None
    return check


# -- workloads ---------------------------------------------------------------

@dataclass
class Workload:
    """``draws`` instance sets; a run cycles over them at least ``cycles`` times."""

    name: str
    draws: int = 1
    cycles: int = 2
    limit_s: float = 60.0     # per-command limit; a command past it counts as failed

    def prepare(self, ctx) -> None:
        """Untimed set-up: write the instance files the passes read."""

    def commands(self, ctx, draw: int) -> list[Command]:
        raise NotImplementedError


class Ladder(Workload):
    """generate, validate, solve --method newton per rung; each pass draws new instances."""

    RUNGS = [("complete", T, "power", "one_lag") for T in (6, 7, 8)] + \
            [("general", T, "log", None) for T in (4, 5, 6)] + \
            [("bond_only", T, "power", "two_lag") for T in (6, 7, 8)]

    def __init__(self, rungs=None, draws: int = 6):
        # Newton solves on these trees often stall for 300 iterations (up to 80 s
        # at T=8, against ~0.3 s typical): the 3 s limit counts such a stall as
        # failed and bounds the run; timing each rung by its fastest of 6 draws
        # keeps wall_s steady across seeds.
        super().__init__("ladder", draws, cycles=1, limit_s=3.0)
        self.rungs = rungs or self.RUNGS

    def commands(self, ctx, draw: int) -> list[Command]:
        cmds = []
        for i, (family, T, utility, habit) in enumerate(self.rungs):
            rung = f"{family}-T{T}"
            d = ctx.path(f"ladder-d{draw}", rung)
            gen = generate_argv(instance_seed(ctx.seed, draw, i), family, T, d,
                                utility, habit)
            cmds += [
                Command(f"{rung}/generate", gen, check_nothing, instance_files(d),
                        rung, "generate"),
                Command(f"{rung}/validate", ["validate", "--model", os.path.join(d, "model.json")],
                        check_validate, rung=rung, step="validate"),
                Command(f"{rung}/solve", ["solve", *instance_args(d), "--method", "newton"],
                        check_solve, rung=rung, step="solve"),
            ]
        return cmds


class VerifySmall(Workload):
    """verify with every check on small instances of every market family."""

    CHECKS = "monotonicity,eta,concavity,envelope,foc"
    INSTANCES = [("general", 3), ("complete", 3), ("bond_only", 4), ("idiosyncratic", 2)]

    def __init__(self, instances=None, repro: bool = True):
        # one pass fills the run: the repro alone takes 6-10 s on a 2-core box
        super().__init__("verify_small", cycles=1)
        self.instances = self.INSTANCES if instances is None else instances
        self.repro = repro

    def _dirs(self, ctx):
        dirs = []
        for i, (family, T) in enumerate(self.instances):
            label = f"{family}-T{T}"
            d = ctx.path("verify", label)
            dirs.append((label, d, generate_argv(instance_seed(ctx.seed, 0, i), family, T,
                                                 d, "power", "one_lag")))
        if self.repro:
            d = ctx.path("verify", "repro-item2")
            dirs.append(("repro-item2", d, ["generate", *REPRO_ITEM2, "--out", d]))
        return dirs

    def prepare(self, ctx) -> None:
        for _, _, argv in self._dirs(ctx):
            ctx.must(argv)

    def commands(self, ctx, draw: int) -> list[Command]:
        return [Command(f"{label}/verify", ["verify", *instance_args(d),
                                            "--checks", self.CHECKS], check_nothing)
                for label, d, _ in self._dirs(ctx)]


class SweepClosed(Workload):
    """sweep --method auto over an endowment grid on closed-form instances."""

    INSTANCES = [("complete", 8, "power"), ("complete", 8, "log"),
                 ("complete", 8, "exp"), ("bond_only", 8, "exp")]

    def __init__(self, instances=None, grid: str = "0.5:4:25"):
        super().__init__("sweep_closed")
        self.instances = instances or self.INSTANCES
        self.grid = grid

    def _dirs(self, ctx):
        return [(f"{f}-T{T}-{u}", ctx.path("sweep", f"{f}-T{T}-{u}"),
                 instance_seed(ctx.seed, 0, i), f, T, u)
                for i, (f, T, u) in enumerate(self.instances)]

    def prepare(self, ctx) -> None:
        for _, d, s, f, T, u in self._dirs(ctx):
            ctx.must(generate_argv(s, f, T, d, u, "one_lag"))

    def commands(self, ctx, draw: int) -> list[Command]:
        return [Command(f"{label}/sweep", ["sweep", *instance_args(d), "--method", "auto",
                                           "--range", self.grid], check_sweep)
                for label, d, *_ in self._dirs(ctx)]


class OracleSmall(Workload):
    """solve --method oracle, checked against a Newton reference solved in set-up.

    Criterion 05's rotation of families, utilities and habits, on bond-only
    T=2 (3 portfolio variables) and complete T=1 (2 variables) instances.
    """

    UTILITIES = ("log", "power", "power_hetero", "exp")
    HABITS = ("none", "one_lag", "two_lag")

    def __init__(self, count: int = 32):
        super().__init__("oracle_small")
        self.count = count
        self.references = {}     # label -> Newton consumption, filled by prepare()

    def _dirs(self, ctx):
        out = []
        for i in range(self.count):
            family, T = ("complete", 1) if i % 2 else ("bond_only", 2)
            label = f"{family}-T{T}-{i}"
            d = ctx.path("oracle", label)
            out.append((label, d, generate_argv(instance_seed(ctx.seed, 0, i), family, T, d,
                                                self.UTILITIES[i % 4], self.HABITS[i % 3])))
        return out

    def prepare(self, ctx) -> None:
        for label, d, argv in self._dirs(ctx):
            ctx.must(argv)
            ref = json.loads(ctx.must(["solve", *instance_args(d), "--method", "newton"]))
            self.references[label] = ref["consumption"]

    def commands(self, ctx, draw: int) -> list[Command]:
        return [Command(f"{label}/solve-oracle",
                        ["solve", *instance_args(d), "--method", "oracle"],
                        check_oracle(self.references[label]))
                for label, d, _ in self._dirs(ctx)]


def all_workloads() -> dict[str, Workload]:
    return {w.name: w for w in (Ladder(), VerifySmall(), SweepClosed(), OracleSmall())}


def smoke_workloads() -> dict[str, Workload]:
    """Tiny versions of every workload, for the self-test."""
    return {w.name: w for w in (
        Ladder(rungs=[("complete", 3, "power", "one_lag"), ("general", 2, "log", None),
                      ("bond_only", 3, "power", "two_lag")], draws=2),
        VerifySmall(instances=[("complete", 2)], repro=False),
        SweepClosed(instances=[("complete", 3, "power")], grid="0.5:4:5"),
        OracleSmall(count=2),
    )}
