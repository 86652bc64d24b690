"""Command-line interface: file ingestion, solving, verification, plot data.

Subcommands: ``validate``, ``solve``, ``verify``, ``sweep``, ``repro``,
``generate``.  All JSON output is deterministic (sorted keys, floats at 17
significant digits) and written atomically; identical inputs and seeds give
byte-identical files.  Exit codes: 0 success, 2 validation failure, 3 solver
failure, 4 property-check failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile
import warnings
from itertools import repeat

import numpy as np

from . import analysis
from .errors import (
    ArbitrageDetected,
    BadProbability,
    BracketFailure,
    GenerationExhausted,
    HabitOptError,
    Infeasible,
    InstanceTooLarge,
    InvalidWitness,
    LevelMismatch,
    NonConvergence,
    NonNested,
    PreconditionViolated,
)
from .market import MarketModel, check_no_arbitrage, classify_market, spd_bundle
from .preferences import (
    HabitPreferences,
    foc_residual,
    simplified_foc_residual,
)
from .solvers import solve_auto, solve_general
from .tree import EventTree

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4

_VALIDATION_ERRORS = (
    BadProbability, NonNested, LevelMismatch, InvalidWitness,
    ArbitrageDetected, ValueError, KeyError, json.JSONDecodeError,
    FileNotFoundError,
)
_SOLVER_ERRORS = (
    NonConvergence, Infeasible, BracketFailure, InstanceTooLarge,
    PreconditionViolated, GenerationExhausted,
)


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def dumps_canonical(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.

    A list of plain floats and ints, or of flat lists, tuples or arrays of
    them, is written without a call per item (``_numbers``, ``_rows``).
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if v != v or v in (float("inf"), float("-inf")):
            raise ValueError("non-finite float in output")
        return format(v, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = _numbers(obj)
        if parts is None:
            parts = _rows(obj, indent + 1)
        if parts is None:
            if not all(math.isfinite(v) for v in obj if type(v) is float):
                raise ValueError("non-finite float in output")
            parts = [dumps_canonical(v, indent + 1) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {dumps_canonical(obj[k], indent + 1)}"
            for k in sorted(obj, key=str)
        )
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _numbers(seq):
    """Each item of ``seq`` written out, when all are plain floats and ints
    (no bools, no numpy scalars), else None."""
    kinds = set(map(type, seq))
    if kinds == {float}:
        if not all(map(math.isfinite, seq)):
            raise ValueError("non-finite float in output")
        return list(map(format, seq, repeat(".17g")))
    if kinds == {int}:
        return list(map(str, seq))
    if kinds != {float, int}:
        return None
    if not all(math.isfinite(v) for v in seq if type(v) is float):
        raise ValueError("non-finite float in output")
    return [format(v, ".17g") if type(v) is float else str(v) for v in seq]


def _rows(seq, indent: int):
    """Each item of ``seq`` written out at ``indent``, when all are flat
    lists, tuples or arrays of plain numbers (``_numbers``), else None."""
    rows = [v.tolist() if type(v) is np.ndarray else v for v in seq]
    if not set(map(type, rows)) <= {list, tuple}:
        return None
    flat = _numbers([v for row in rows for v in row])
    if flat is None:
        return None
    pad, sep = "  " * indent, ",\n" + "  " * (indent + 1)
    out, at = [], 0
    for row in rows:
        n = len(row)
        out.append("[" + sep[1:] + sep.join(flat[at:at + n]) + "\n" + pad + "]" if n else "[]")
        at += n
    return out


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".habitopt-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        atomic_write(out, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# file ingestion
# ---------------------------------------------------------------------------

def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def load_model(path: str):
    """Model file: ``{"tree": ..., "market": ..., "witness": ...?}``."""
    obj = _load_json(path)
    tree = EventTree.from_json(obj["tree"])
    market = MarketModel.from_json(tree, obj["market"],
                                   strict=bool(obj.get("strict_rates", True)))
    wit = obj.get("witness")
    witness = None if wit is None else tuple(tuple(tuple(b) for b in lvl) for lvl in wit)
    return tree, market, witness


def load_prefs(tree: EventTree, path: str) -> HabitPreferences:
    return HabitPreferences.from_json(tree, _load_json(path))


def load_endow(tree: EventTree, path: str):
    obj = _load_json(path)
    eps = obj["endowments"] if isinstance(obj, dict) else obj
    if len(eps) != tree.T + 1:
        raise LevelMismatch(f"expected {tree.T + 1} endowment levels, got {len(eps)}")
    return [np.asarray(e, dtype=float) for e in eps]


def _load_instance(args):
    tree, market, witness = load_model(args.model)
    prefs = load_prefs(tree, args.prefs)
    eps = load_endow(tree, args.endow)
    return tree, market, witness, prefs, eps


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    tree, market, witness = load_model(args.model)
    report: dict = {"T": tree.T, "leaves": tree.n_leaves}
    try:
        check_no_arbitrage(market)
        report["arbitrage_free"] = True
    except ArbitrageDetected as exc:
        report["arbitrage_free"] = False
        report["error"] = str(exc)
        _emit(dumps_canonical(report) + "\n", args.out)
        return EXIT_VALIDATION
    cls = classify_market(market, witness)
    report["market_class"] = cls.kind
    report["payoff_space_ranks"] = list(cls.payoff_ranks)
    report["atom_counts"] = [tree.n_atoms(k) for k in range(1, tree.T + 1)]
    report["deterministic_interest"] = cls.interest_deterministic
    report["bounds_in_scope"] = cls.bounds_in_scope
    _emit(dumps_canonical(report) + "\n", args.out)
    return EXIT_OK


def _foc_residuals(m, p, c, spd, in_scope: bool) -> dict:
    """Largest full first-order residual of the plan ``c`` per level, and the
    simplified one where the policy bounds are in scope."""
    out = {"full_foc_max": [float(np.max(np.abs(r))) for r in foc_residual(m, p, c, spd)]}
    if in_scope:
        out["simplified_foc_max"] = [float(np.max(np.abs(r)))
                                     for r in simplified_foc_residual(m, p, c, spd)]
    return out


def _solution_payload(m, p, sol) -> dict:
    t = m.tree
    return {
        "converged": bool(sol.converged),
        "utility": float(sol.U),
        "diagnostics": {k: (float(v) if isinstance(v, (int, float, np.floating))
                            else str(v))
                        for k, v in sol.diagnostics.items()},
        "consumption": [sol.c.values(k) for k in range(t.T + 1)],
        "adjusted_consumption": [sol.chat.values(k) for k in range(t.T + 1)],
        "wealth": [sol.W.values(k) for k in range(t.T + 1)],
        "investment": [sol.I.values(k) for k in range(t.T)],
        "marginal_deflator": [sol.R.values(k) for k in range(t.T + 1)],
        "portfolio": [sol.pi[k] for k in range(t.T)],
        "negative_consumption": bool(
            any(np.any(sol.c.values(k) < 0) for k in range(t.T + 1))
        ),
        "residuals": _foc_residuals(m, p, sol.c, spd_bundle(m, p.beta),
                                    classify_market(m).bounds_in_scope),
    }


def _cmd_solve(args) -> int:
    tree, market, witness, prefs, eps = _load_instance(args)
    sol = solve_auto(market, prefs, eps, method=args.method)
    payload = _solution_payload(market, prefs, sol)
    payload["market_class"] = classify_market(market, witness).kind
    _emit(dumps_canonical(payload) + "\n", args.out)
    return EXIT_OK


def _probe_levels(probe, market, prefs, eps, witness, entry, **kwargs) -> dict:
    """``probe`` at every level: per level the ``entry`` fields, ``level`` and
    ``within``; the probe's scope; and whether every level is within."""
    probes = [probe(market, prefs, eps, k, witness=witness, **kwargs)
              for k in range(market.tree.T + 1)]
    return {"levels": [dict(entry(pr), level=k, within=pr.within) for k, pr in enumerate(probes)],
            "scope": probes[-1].scope, "passed": all(pr.within for pr in probes)}


def _curvatures(pr) -> dict:
    return {"curvatures": pr.estimates}


def _run_checks(market, prefs, eps, witness, checks, tol):
    t = market.tree
    spd = spd_bundle(market, prefs.beta)
    cls = classify_market(market, witness)
    results = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # one plan serves the foc check and every probe, which warm-start from it
        base = solve_auto(market, prefs, eps)
        if "foc" in checks:
            entry = _foc_residuals(market, prefs, base.c, spd, cls.bounds_in_scope)
            entry["passed"] = bool(max(max(v) for v in entry.values()) <= tol)
            results["foc"] = entry
        if "monotonicity" in checks:
            results["monotonicity"] = _probe_levels(
                analysis.monotonicity_probe, market, prefs, eps, witness,
                lambda pr: {"estimates": pr.estimates, "bounds": pr.bounds}, base=base)
        if "concavity" in checks:
            results["concavity"] = _probe_levels(analysis.concavity_probe, market, prefs, eps,
                                                 witness, _curvatures, tol=tol, base=base)
        if "eta" in checks:
            per_level = []
            ok = True
            for k in range(t.T):
                rep = analysis.eta_bound_check(market, prefs, eps, k, witness=witness,
                                               base=base)
                per_level.append({
                    "level": k,
                    "estimates": {f"{a}->{b}": v for (a, b), v in rep.estimates.items()},
                    "bounds": {f"{a}->{b}": v for (a, b), v in rep.bounds.items()},
                    "satisfied": rep.satisfied,
                    "base_residual": rep.base_residual,
                })
                ok = ok and rep.satisfied
            results["eta"] = {"levels": per_level, "scope": rep.scope,
                              "passed": bool(ok)}
        if "envelope" in checks:
            rep = analysis.envelope_check(market, prefs, eps, base=base)
            results["envelope"] = {
                "estimate": rep.estimate, "marginal": rep.marginal,
                "gap": rep.gap, "scale": rep.scale,
                "passed": bool(rep.gap <= 1e-5 * rep.scale),
            }
    return results, cls


def _cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be a finite non-negative number, got {args.tol}")
    tree, market, witness, prefs, eps = _load_instance(args)
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    known = {"monotonicity", "eta", "concavity", "envelope", "foc"}
    if not checks:
        raise ValueError(f"--checks names no check (choose from {sorted(known)})")
    unknown = set(checks) - known
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)} (choose from {sorted(known)})")
    results, cls = _run_checks(market, prefs, eps, witness, checks, args.tol)
    # out-of-scope probes only warn: their bounds are not guaranteed there
    passed = all(entry["passed"] for entry in results.values()
                 if entry.get("scope") != "out_of_scope")
    report = {
        "market_class": cls.kind,
        "bounds_in_scope": cls.bounds_in_scope,
        "tolerance": args.tol,
        "checks": results,
        "passed": passed,
    }
    _emit(dumps_canonical(report) + "\n", args.report)
    return EXIT_OK if passed else EXIT_CHECK


def _sweep_csv(rows, T: int) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["eps0", "c0", "dc0", "d2c0", "status", "U"] + \
        [f"U_{k}" for k in range(T + 1)]
    writer.writerow(header)
    for row in rows:
        per = row["per_period_U"] or [None] * (T + 1)
        cells = [row["eps0"], row["c0"], row["dc0"], row["d2c0"],
                 row["status"], row["U"], *per]
        writer.writerow(
            "" if v is None else (format(v, ".17g") if isinstance(v, float) else v)
            for v in cells
        )
    return buf.getvalue()


def _cmd_sweep(args) -> int:
    tree, market, witness, prefs, eps = _load_instance(args)
    try:
        start, stop, n = args.range.split(":")
        start, stop, n = float(start), float(stop), int(n)
    except ValueError:
        raise ValueError("--range must be start:stop:count, e.g. 0.5:10:50")
    if n < 1:
        raise ValueError("--range count must be positive")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"--range start and stop must be finite, got {args.range}")
    rows = analysis.wealth_sweep(market, prefs, eps, start, stop, n, method=args.method)
    if args.emit == "csv":
        _emit(_sweep_csv(rows, tree.T), args.out)
    else:
        _emit(dumps_canonical({"rows": rows}) + "\n", args.out)
    return EXIT_OK


def _repro_31() -> tuple[dict, bool]:
    from .solvers import solve_power_no_endowment
    from .preferences import PowerUtility

    sc = analysis.generate_scenario(31, "bond_only", utility="power",
                                    habit="one_lag", floors=False)
    t = sc.tree
    prefs = HabitPreferences.one_lag(t, PowerUtility(2.0, 0.0), 0.5)
    eps0 = 1.3
    sol, shares = solve_power_no_endowment(sc.market, prefs, eps0)
    lam_errors = {}
    for lam in (0.5, 2.0, 10.0):
        scaled = solve_general(
            sc.market, prefs,
            [np.full(1, lam * eps0)] + [np.zeros(t.n_atoms(k)) for k in range(1, t.T + 1)],
            gtol=1e-12,
        )
        worst = max(
            float(np.max(np.abs(scaled.c.values(k) - lam * sol.c.values(k))))
            for k in range(t.T + 1)
        )
        lam_errors[format(lam, "g")] = worst
    share_levels = [shares.values(k) for k in range(t.T + 1)]
    shares_ok = all(np.all(s > 0) and np.all(s <= 1.0 + 1e-12) for s in share_levels)
    passed = shares_ok and all(v <= 1e-8 for v in lam_errors.values())
    report = {
        "scenario": "homogeneous scaling, bond-only market, power utility",
        "eps0": eps0,
        "consumption": [sol.c.values(k) for k in range(t.T + 1)],
        "consumed_share_of_wealth": share_levels,
        "scaling_errors": lam_errors,
        "shares_in_unit_interval": shares_ok,
        "passed": passed,
    }
    return report, passed


def _repro_51() -> tuple[dict, bool]:
    rep = analysis.counterexample_51(grid=tuple(np.linspace(0.5, 10.0, 50)))
    passed = (rep.increasing and rep.slope_below_one and rep.convex
              and rep.gap_corrected <= 1e-8)
    report = {
        "scenario": "one-period habit problem, consumption convex in endowment",
        "eps0": rep.eps0,
        "solver_c0": rep.solver_c0,
        "closed_form_c0": rep.corrected_c0,
        "closed_form_gap": rep.gap_corrected,
        "published_form_c0": rep.published_c0,
        "published_form_gap": rep.gap_published,
        "note": "the published constant b drops the habit term from the time-0 "
                "optimality condition; the closed form used here restores it",
        "grid_increasing": rep.increasing,
        "grid_slope_below_one": rep.slope_below_one,
        "grid_convex": rep.convex,
        "passed": passed,
    }
    return report, passed


def _repro_52() -> tuple[dict, bool]:
    from .preferences import PowerUtility

    out = {}
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for label, family, seed in (("bond_only", "bond_only", 52),
                                    ("complete", "complete", 520)):
            sc = analysis.generate_scenario(seed, family, utility="power",
                                            habit="one_lag", floors=False)
            prefs = HabitPreferences.one_lag(sc.tree, PowerUtility(2.0, 0.0), 0.5)
            probed = _probe_levels(analysis.concavity_probe, sc.market, prefs, sc.eps,
                                   sc.witness, _curvatures)
            out[label] = probed["levels"]
            ok = ok and probed["passed"]
    report = {
        "scenario": "consumption concave in wealth for power utility",
        "markets": out,
        "passed": ok,
    }
    return report, ok


def _repro_linearity(gamma, rate) -> tuple[dict, bool]:
    gammas = (gamma,) if gamma is not None else (0.5, 1.0, 2.0, 4.0)
    if rate is not None and not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"--r is the gross rate 1 + r and must be finite and positive, "
                         f"got {rate}")
    rates = (rate,) if rate is not None else (0.25, 1.0, 4.0)
    rep = analysis.linearity_law_check(gammas, rates)
    passed = rep.max_gap <= 1e-8
    report = {
        "scenario": "consumed share independent of endowment, single bond",
        "rows": rep.rows,
        "max_gap": rep.max_gap,
        "passed": passed,
    }
    return report, passed


def _cmd_repro(args) -> int:
    runners = {
        "3.1": lambda: _repro_31(),
        "5.1": lambda: _repro_51(),
        "5.2": lambda: _repro_52(),
        "linearity": lambda: _repro_linearity(args.gamma, args.r),
    }
    report, passed = runners[args.scenario]()
    _emit(dumps_canonical(report) + "\n", args.out)
    return EXIT_OK if passed else EXIT_CHECK


def _cmd_generate(args) -> int:
    sc = analysis.generate_scenario(args.seed, args.family, T=args.T,
                                    branching=args.branching,
                                    utility=args.utility, habit=args.habit,
                                    floors=args.floors, max_tries=1000)
    os.makedirs(args.out, exist_ok=True)
    blob = sc.to_json()
    model = {"meta": blob["meta"], "tree": blob["tree"], "market": blob["market"],
             "witness": blob["witness"]}
    prefs = dict(blob["preferences"])
    prefs["meta"] = blob["meta"]
    endow = {"meta": blob["meta"], "endowments": blob["endowments"]}
    for name, payload in (("model.json", model), ("prefs.json", prefs),
                          ("endow.json", endow)):
        atomic_write(os.path.join(args.out, name), dumps_canonical(payload) + "\n")
    sys.stdout.write(f"wrote model.json, prefs.json, endow.json to {args.out}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``parse_args`` makes a new
    namespace per call, so no default carries over between commands."""
    ap = argparse.ArgumentParser(
        prog="habitopt",
        description="Habit-forming consumption optimization on event trees.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="arbitrage check, ranks, market class")
    v.add_argument("--model", required=True)
    v.add_argument("--out", default=None)
    v.set_defaults(fn=_cmd_validate)

    s = sub.add_parser("solve", help="solve an instance and emit the plan")
    s.add_argument("--model", required=True)
    s.add_argument("--prefs", required=True)
    s.add_argument("--endow", required=True)
    s.add_argument("--method", default="auto",
                   choices=["auto", "newton", "oracle", "closed"])
    s.add_argument("--out", default=None)
    s.set_defaults(fn=_cmd_solve)

    vf = sub.add_parser("verify", help="run structural checks on an instance")
    vf.add_argument("--model", required=True)
    vf.add_argument("--prefs", required=True)
    vf.add_argument("--endow", required=True)
    vf.add_argument("--checks", default="monotonicity,eta,concavity,envelope,foc")
    vf.add_argument("--tol", type=float, default=1e-6)
    vf.add_argument("--report", default=None)
    vf.set_defaults(fn=_cmd_verify)

    sw = sub.add_parser("sweep", help="resolve over an endowment grid")
    sw.add_argument("--model", required=True)
    sw.add_argument("--prefs", required=True)
    sw.add_argument("--endow", required=True)
    sw.add_argument("--range", required=True, help="start:stop:count")
    sw.add_argument("--method", default="auto",
                    choices=["auto", "newton", "oracle", "closed"])
    sw.add_argument("--emit", default="csv", choices=["csv", "json"])
    sw.add_argument("--out", default=None)
    sw.set_defaults(fn=_cmd_sweep)

    rp = sub.add_parser("repro", help="run a built-in reference scenario")
    rp.add_argument("scenario", choices=["3.1", "5.1", "5.2", "linearity"])
    rp.add_argument("--gamma", type=float, default=None)
    rp.add_argument("--r", type=float, default=None)
    rp.add_argument("--out", default=None)
    rp.set_defaults(fn=_cmd_repro)

    g = sub.add_parser("generate", help="write a seeded instance to disk")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--family", default="complete",
                   choices=["complete", "bond_only", "general", "idiosyncratic"])
    g.add_argument("--T", type=int, default=2)
    g.add_argument("--branching", type=int, default=None)
    g.add_argument("--utility", default=None,
                   choices=[None, "log", "power", "power_hetero", "exp"])
    g.add_argument("--habit", default=None, choices=[None, "none", "one_lag", "two_lag"])
    g.add_argument("--floors", action="store_true", default=None)
    g.add_argument("--out", default=".")
    g.set_defaults(fn=_cmd_generate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _SOLVER_ERRORS as exc:
        sys.stderr.write(f"solver failure: {type(exc).__name__}: {exc}\n")
        return EXIT_SOLVER
    except _VALIDATION_ERRORS as exc:
        sys.stderr.write(f"invalid input: {type(exc).__name__}: {exc}\n")
        return EXIT_VALIDATION
    except HabitOptError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
