import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

import habitopt.analysis
import habitopt.cli
import habitopt.solvers
from habitopt import (HabitPreferences, InstanceTooLarge, LogUtility, MarketModel, build_tree,
                      solve_general)
from habitopt.cli import atomic_write, dumps_canonical, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def instance(tmp_path, capsys):
    out = tmp_path / "inst"
    code = main(["generate", "--seed", "7", "--family", "bond_only",
                 "--utility", "power", "--habit", "one_lag",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    return {name: str(out / f"{name}.json") for name in ("model", "prefs", "endow")}


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def test_dumps_sorts_keys_and_pins_floats():
    text = dumps_canonical({"b": 1.0 / 3.0, "a": np.arange(2), "c": None,
                            "d": True, "e": "x"})
    parsed = json.loads(text)
    assert list(parsed) == ["a", "b", "c", "d", "e"]
    assert parsed["a"] == [0, 1]
    assert parsed["b"] == 1.0 / 3.0  # 17 significant digits round-trip
    assert parsed["c"] is None and parsed["d"] is True and parsed["e"] == "x"


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps_canonical({"x": float("nan")})
    with pytest.raises(ValueError):
        dumps_canonical([float("inf")])


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps_canonical({"x": object()})


def test_dumps_stable_across_insertion_order():
    a = dumps_canonical({"x": 1, "y": [1.5, {"q": 2.0}]})
    b = dumps_canonical({"y": [1.5, {"q": 2.0}], "x": 1})
    assert a == b


def _dumps_recursive(obj, indent: int = 0) -> str:
    """The one-call-per-value serializer that ``dumps_canonical`` replaced, as reference."""
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
        body = ",\n".join(inner + _dumps_recursive(v, indent + 1) for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_dumps_recursive(obj[k], indent + 1)}"
            for k in sorted(obj, key=str)
        )
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


@pytest.mark.parametrize("obj", [
    [],
    {},
    [[], {}, ()],
    [0.1, -0.0, 0.0, 5e-324, -5e-324, 1e22, 1e-7, 123456789.125, 2.0 ** 60],
    [1, -2, 0, 10 ** 30, 3.5],
    (1.0, 2, 3.25),
    [True, False, 1, 0.0],
    [np.float64(0.1), 0.2, np.int64(3), np.float32(0.5)],
    [1.0, None, 2.0, "x"],
    np.array([[0.1, -0.0], [5e-324, 1e22]]),
    np.arange(4),
    np.array([True, False]),
    {"b": [1.5, [2.5, {"q": [0.1, 3]}]], "a": {"z": [], "y": {}}, 3: np.float64(-0.0)},
    {"nested": [[1.0, 2.0], [3, 4], [[5e-324]], [np.int32(7), 8.0]]},
])
def test_dumps_flat_lists_match_the_recursive_reference(obj):
    for indent in (0, 2):
        assert dumps_canonical(obj, indent) == _dumps_recursive(obj, indent)


@pytest.mark.parametrize("obj", [[1.0, float("nan")], [2, float("-inf")],
                                 [[0.5], [float("inf")]], [np.float64("nan"), 1.0]])
def test_dumps_flat_lists_reject_non_finite(obj):
    with pytest.raises(ValueError, match="non-finite"):
        _dumps_recursive(obj)
    with pytest.raises(ValueError, match="non-finite"):
        dumps_canonical(obj)


@pytest.mark.parametrize("obj", [
    [[True, 1.0], [2.0]],
    [[1, 2], [False]],
    [[np.float64(0.5), 1.0], [2]],
    [[np.int64(2)], [3.5]],
    [[], [[]], [[], []]],
    [[1.0], [], (2, 3.0)],
    [np.array([0.5, 1.0]), (2, 3.0), [], np.arange(3)],
    [np.array(0.5), [1.0]],
    [np.array([[1.0]]), [2.0]],
    [[10 ** 30, 1.5], [-0.0, 5e-324]],
    [[[1.0, 2.0], [3.0]], [[4, 5]]],
    [[1.0], "x", [2.0]],
])
def test_dumps_rows_match_the_recursive_reference(obj):
    def outcome(dumps, indent):
        try:
            return dumps(obj, indent)
        except TypeError:
            return TypeError

    for indent in (0, 1):
        assert outcome(dumps_canonical, indent) == outcome(_dumps_recursive, indent)


@pytest.mark.parametrize("obj", [[[0.5, float("nan")]], [[1.0], [True, float("nan")]],
                                 [[np.float64("inf")], [1.0]]])
def test_dumps_rows_reject_non_finite(obj):
    with pytest.raises(ValueError, match="non-finite"):
        _dumps_recursive(obj)
    with pytest.raises(ValueError, match="non-finite"):
        dumps_canonical(obj)


@pytest.mark.parametrize("family", ["complete", "general", "bond_only", "idiosyncratic"])
def test_dumps_generated_instances_match_the_recursive_reference(family):
    for utility, habit in (("power", "two_lag"), ("exp", "one_lag")):
        sc = habitopt.analysis.generate_scenario(7, family, T=3, utility=utility, habit=habit,
                                                 floors=True)
        blob = sc.to_json()
        assert dumps_canonical(blob) == _dumps_recursive(blob)


def test_atomic_write_replaces_and_cleans_up(tmp_path):
    target = tmp_path / "out.json"
    atomic_write(str(target), "first")
    atomic_write(str(target), "second")
    assert target.read_text() == "second"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".habitopt-")]
    assert leftovers == []


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_is_byte_deterministic(tmp_path, capsys):
    for d in ("a", "b"):
        assert main(["generate", "--seed", "11", "--family", "idiosyncratic",
                     "--out", str(tmp_path / d)]) == 0
    capsys.readouterr()
    for name in ("model.json", "prefs.json", "endow.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("argv, name", [
    (["--T", "-1"], "T"),
    (["--branching", "0"], "branching"),
    (["--family", "idiosyncratic", "--branching", "3"], "branching"),
    # a bond spans one child, and a bond with one risky asset two, so no draw
    # of these could be incomplete
    (["--family", "bond_only", "--branching", "1"], "branching"),
    (["--family", "general", "--branching", "1"], "branching"),
    (["--family", "general", "--branching", "2"], "branching"),
], ids=["negative-T", "zero-branching", "idiosyncratic-branching", "bond-only-branching-1",
        "general-branching-1", "general-branching-2"])
def test_generate_rejects_invalid_arguments(tmp_path, capsys, argv, name):
    code, _, err = run(capsys, "generate", "--seed", "1", *argv, "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("invalid input: ValueError") and name in err
    assert not list(tmp_path.iterdir())


def test_consecutive_commands_do_not_share_options(instance, tmp_path, capsys):
    assert habitopt.cli.build_parser() is habitopt.cli.build_parser()
    for d, floors in (("a", []), ("f", ["--floors"]), ("b", [])):
        assert main(["generate", "--seed", "4", *floors, "--out", str(tmp_path / d)]) == 0
    capsys.readouterr()
    prefs = {d: (tmp_path / d / "prefs.json").read_bytes() for d in "afb"}
    assert prefs["f"] != prefs["a"] == prefs["b"]
    solve = ["solve", "--model", instance["model"], "--prefs", instance["prefs"],
             "--endow", instance["endow"]]
    outs = [run(capsys, *argv) for argv in (solve, solve + ["--method", "oracle"], solve)]
    assert [code for code, _, _ in outs] == [0, 0, 0]
    methods = [json.loads(out)["diagnostics"]["method"] for _, out, _ in outs]
    assert methods[1] == "oracle" != methods[2]
    assert outs[2] == outs[0]


def test_generate_writes_loadable_files(instance):
    model = json.loads(Path(instance["model"]).read_text())
    assert {"meta", "tree", "market", "witness"} <= set(model)
    prefs = json.loads(Path(instance["prefs"]).read_text())
    assert "beta" in prefs and "family" in prefs
    endow = json.loads(Path(instance["endow"]).read_text())
    assert len(endow["endowments"]) == len(model["tree"]["levels"])


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_reports_class(instance, capsys):
    code, out, _ = run(capsys, "validate", "--model", instance["model"])
    assert code == 0
    report = json.loads(out)
    assert report["arbitrage_free"] is True
    assert report["market_class"] == "type_c"
    assert report["deterministic_interest"] is True
    assert report["bounds_in_scope"] is True


def test_validate_flags_arbitrage(tmp_path, capsys):
    t = build_tree([[[0, 1]], [[0], [1]]], [0.5, 0.5])
    # the risky asset dominates the bond in every branch
    m = MarketModel(t, [0.0], [np.array([[1.0]])],
                    [np.array([[1.5], [1.1]])])
    path = tmp_path / "model.json"
    path.write_text(dumps_canonical({"tree": t.to_json(), "market": m.to_json()}))
    code, out, err = run(capsys, "validate", "--model", str(path))
    assert code == 2
    report = json.loads(out)
    assert report["arbitrage_free"] is False
    assert "error" in report


def test_validate_flags_a_weak_arbitrage(tmp_path, capsys):
    t = build_tree([[[0, 1]], [[0], [1]]], [0.5, 0.5])
    # against a zero-rate bond the asset costs 1 and pays (2, 1): it less a
    # bond costs nothing and pays (1, 0)
    m = MarketModel(t, [0.0], [np.array([[1.0]])], [np.array([[2.0], [1.0]])])
    path = tmp_path / "model.json"
    path.write_text(dumps_canonical({"tree": t.to_json(), "market": m.to_json()}))
    code, out, _ = run(capsys, "validate", "--model", str(path))
    assert code == 2
    report = json.loads(out)
    assert report["arbitrage_free"] is False
    assert "level 1, atom 0" in report["error"]


def test_missing_file_is_a_validation_error(capsys):
    code, _, err = run(capsys, "validate", "--model", "/nonexistent/model.json")
    assert code == 2
    assert "invalid input" in err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_deterministic_and_verifiable(instance, tmp_path, capsys):
    outs = []
    for name in ("s1.json", "s2.json"):
        path = tmp_path / name
        code = main(["solve", "--model", instance["model"],
                     "--prefs", instance["prefs"], "--endow", instance["endow"],
                     "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["converged"] is True
    assert max(payload["residuals"]["full_foc_max"]) < 1e-8
    assert "simplified_foc_max" in payload["residuals"]

    code, out, _ = run(capsys, "verify", "--model", instance["model"],
                       "--prefs", instance["prefs"], "--endow", instance["endow"],
                       "--checks", "foc")
    assert code == 0
    assert json.loads(out)["checks"]["foc"]["passed"] is True


def test_solve_infeasible_exits_3(instance, tmp_path, capsys):
    endow = json.loads(Path(instance["endow"]).read_text())
    endow["endowments"] = [[-50.0]] + endow["endowments"][1:]
    bad = tmp_path / "endow.json"
    bad.write_text(json.dumps(endow))
    code, _, err = run(capsys, "solve", "--model", instance["model"],
                       "--prefs", instance["prefs"], "--endow", str(bad))
    assert code == 3
    assert "solver failure" in err


def test_a_node_too_wide_to_enumerate_exits_3(tmp_path, capsys):
    # one period, 24 children, a bond and 11 risky assets priced by positive
    # state prices: C(24, 12) = 2.7 million vertex supports, refused before any
    # is built (enumerating them would take an estimated 3-4 GB)
    rng = np.random.default_rng(0)
    nc = 24
    t = build_tree([[list(range(nc))], [[i] for i in range(nc)]], [1.0 / nc] * nc)
    d = rng.uniform(0.5, 1.5, (nc, 11))
    q = rng.uniform(0.5, 1.5, nc)
    q /= q.sum()
    m = MarketModel(t, [0.0], [(q @ d)[None, :]], [d])
    p = HabitPreferences.one_lag(t, LogUtility(), 0.3)
    eps = [np.ones(1), np.ones(nc)]
    with pytest.raises(InstanceTooLarge, match="level 0: 1 node.* 24 children of rank 12 "
                                               "have 2704156 supports"):
        solve_general(m, p, eps)
    files = {"model": {"tree": t.to_json(), "market": m.to_json()}, "prefs": p.to_json(),
             "endow": {"endowments": [e.tolist() for e in eps]}}
    for name, payload in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    code, _, err = run(capsys, "solve", *(f for name in files
                                          for f in (f"--{name}", str(tmp_path / f"{name}.json"))))
    assert code == 3
    assert "2704156 supports" in err


@pytest.mark.parametrize("edit", ["short_h", "long_h", "short_gamma"])
def test_malformed_preferences_exit_2(instance, tmp_path, capsys, edit):
    prefs = json.loads(Path(instance["prefs"]).read_text())
    T = len(prefs["h"]) - 1
    if edit == "short_h":
        prefs["h"] = prefs["h"][:-1]
    elif edit == "long_h":
        prefs["h"] = prefs["h"] + [prefs["h"][-1]]
    else:
        prefs["gamma"] = [2.0] * T
    bad = tmp_path / "prefs.json"
    bad.write_text(json.dumps(prefs))
    code, out, err = run(capsys, "solve", "--model", instance["model"],
                         "--prefs", str(bad), "--endow", instance["endow"])
    assert code == 2 and out == ""
    assert err.startswith("invalid input: LevelMismatch: expected")


def test_verify_fails_at_absurd_tolerance(instance, capsys):
    code, out, _ = run(capsys, "verify", "--model", instance["model"],
                       "--prefs", instance["prefs"], "--endow", instance["endow"],
                       "--checks", "foc", "--tol", "1e-30")
    assert code == 4
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_rejects_a_tolerance_that_is_not_finite_or_negative(instance, capsys,
                                                                   monkeypatch, tol):
    # a bad tolerance is invalid input: rejected before anything is solved
    def no_solve(*args, **kwargs):
        raise AssertionError("verify solved before checking --tol")

    monkeypatch.setattr(habitopt.cli, "solve_auto", no_solve)
    code, out, err = run(capsys, "verify", "--model", instance["model"],
                         "--prefs", instance["prefs"], "--endow", instance["endow"],
                         "--tol", tol)
    assert code == 2
    assert out == "" and "--tol" in err


def _generate(tmp_path, capsys, *argv):
    out = tmp_path / "gen"
    assert main(["generate", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    return [flag for name in ("model", "prefs", "endow")
            for flag in (f"--{name}", str(out / f"{name}.json"))]


def test_verify_ignores_out_of_scope_failures_in_the_exit_code(tmp_path, capsys):
    # the concavity probe fails here, on a market where its bound is not guaranteed
    files = _generate(tmp_path, capsys, "--seed", "7928", "--family", "complete", "--T", "2",
                      "--utility", "power_hetero", "--habit", "one_lag")
    code, out, _ = run(capsys, "verify", *files, "--checks", "concavity,foc")
    report = json.loads(out)
    assert report["checks"]["concavity"]["scope"] == "out_of_scope"
    assert report["checks"]["concavity"]["passed"] is False
    assert report["checks"]["foc"]["passed"] is True
    assert report["passed"] is True
    assert code == 0


def test_verify_deflator_repro_passes_foc(tmp_path, capsys):
    # the aggregate deflator no longer carries the no-arbitrage LP's tolerance
    files = _generate(tmp_path, capsys, "--seed", "3", "--family", "general", "--T", "4",
                      "--utility", "power", "--habit", "one_lag")
    code, out, _ = run(capsys, "verify", *files, "--checks", "foc")
    report = json.loads(out)
    assert code == 0
    assert max(report["checks"]["foc"]["full_foc_max"]) <= 1e-10


# perfbench's verify_small instance set at workload seeds 1-3 (instance seeds
# 1000 s + i) and the deflator repro: there a verify that raises or exits
# non-zero counts as a failed command
_VERIFY_SMALL = [(str(1000 * s + i), family, T) for s in (1, 2, 3)
                 for i, (family, T) in enumerate((("general", "3"), ("complete", "3"),
                                                  ("bond_only", "4"), ("idiosyncratic", "2")))] \
    + [("3", "general", "4")]


@pytest.mark.parametrize("seed, family, T", _VERIFY_SMALL,
                         ids=[f"{f}-T{T}-seed{s}" for s, f, T in _VERIFY_SMALL])
def test_verify_every_check_exits_zero_on_the_benchmark_instances(tmp_path, capsys,
                                                                   seed, family, T):
    files = _generate(tmp_path, capsys, "--seed", seed, "--family", family, "--T", T,
                      "--utility", "power", "--habit", "one_lag")
    code, out, _ = run(capsys, "verify", *files,
                       "--checks", "monotonicity,eta,concavity,envelope,foc")
    report = json.loads(out)
    assert code == 0
    assert set(report["checks"]) == {"monotonicity", "eta", "concavity", "envelope", "foc"}


def test_verify_rejects_unknown_check(instance, capsys):
    code, _, err = run(capsys, "verify", "--model", instance["model"],
                       "--prefs", instance["prefs"], "--endow", instance["endow"],
                       "--checks", "foc,frobnicate")
    assert code == 2
    assert "frobnicate" in err


@pytest.mark.parametrize("checks", ["", " , "])
def test_verify_rejects_an_empty_check_list(instance, capsys, checks):
    # an empty list used to pass without running any check
    code, out, err = run(capsys, "verify", "--model", instance["model"],
                         "--prefs", instance["prefs"], "--endow", instance["endow"],
                         "--checks", checks)
    assert code == 2
    assert out == "" and "--checks" in err


def test_verify_solves_the_base_plan_once(tmp_path, capsys, monkeypatch, solver_lps):
    # foc, every probe and the envelope check share one plan; the envelope
    # check re-solves it at shifted endowments without calling solve_general
    files = _generate(tmp_path, capsys, "--seed", "1", "--family", "general", "--T", "2",
                      "--utility", "power", "--habit", "one_lag")
    solves = []
    real = habitopt.solvers.solve_general

    def counted(*args, **kwargs):
        solves.append(1)
        return real(*args, **kwargs)

    for module in (habitopt.solvers, habitopt.analysis, habitopt.cli):
        monkeypatch.setattr(module, "solve_general", counted)
    solver_lps.clear()
    code, _, _ = run(capsys, "verify", *files,
                     "--checks", "monotonicity,eta,concavity,envelope,foc")
    assert code == 0
    assert len(solves) == 1
    assert len(solver_lps) == 1


def test_verify_evaluates_one_response_per_node(tmp_path, capsys, monkeypatch):
    # the deflator repro has 40 non-leaf nodes on levels 0-3, whose responses
    # the slope and curvature probes and eta share: each level is read once,
    # and no Newton solve runs on a node's continuation
    files = _generate(tmp_path, capsys, "--seed", "3", "--family", "general", "--T", "4",
                      "--utility", "power", "--habit", "one_lag")
    levels, newton = [], []
    real_level = habitopt.solvers._Optimum.level_responses
    real_newton = habitopt.solvers._newton_maximize

    def counted_level(self, k):
        out = real_level(self, k)
        levels.append((k, len(out)))
        return out

    def counted_newton(plan, *args):
        newton.append(plan.k0)
        return real_newton(plan, *args)

    monkeypatch.setattr(habitopt.solvers._Optimum, "level_responses", counted_level)
    monkeypatch.setattr(habitopt.solvers, "_newton_maximize", counted_newton)
    code, _, _ = run(capsys, "verify", *files,
                     "--checks", "monotonicity,eta,concavity,envelope,foc")
    assert code == 0
    assert sorted(levels) == [(0, 1), (1, 3), (2, 9), (3, 27)]
    assert newton and not any(newton)


def test_verify_builds_one_root_plan_for_its_responses(tmp_path, capsys, monkeypatch):
    # the deflator repro: the base solve builds the only plan; the 40
    # responses come from one factor of it, which sweeps every level below
    # the root, so that the root row's two holdings are its dense top, and
    # the envelope check re-solves it at two shifted endowments
    files = _generate(tmp_path, capsys, "--seed", "3", "--family", "general", "--T", "4",
                      "--utility", "power", "--habit", "one_lag")
    builds, solves, tops = [], [], []
    plan_cls = habitopt.solvers._SubtreePlan
    real_init, real_solve = plan_cls.__init__, habitopt.solvers.solve_general
    real_factor = habitopt.solvers._BandCholesky

    def counted_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        builds.append(self.k0)

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return real_solve(*args, **kwargs)

    def counted_factor(sweep, band):
        tops.append(sweep.n_top)
        return real_factor(sweep, band)

    monkeypatch.setattr(plan_cls, "__init__", counted_init)
    monkeypatch.setattr(habitopt.solvers, "_BandCholesky", counted_factor)
    for module in (habitopt.solvers, habitopt.analysis, habitopt.cli):
        monkeypatch.setattr(module, "solve_general", counted_solve)
    code, _, _ = run(capsys, "verify", *files,
                     "--checks", "monotonicity,eta,concavity,envelope,foc")
    assert code == 0
    assert len(solves) == 1
    assert builds == [0]
    assert tops.count(2) == 1 and set(tops) == {2, 80}


def test_verify_runs_one_newton_solve_for_its_responses(tmp_path, capsys, monkeypatch):
    # the deflator repro: the base plan, one polish of it for its 40 non-leaf
    # responses, and the envelope check's two re-solves of it; the probes
    # re-solve nothing
    files = _generate(tmp_path, capsys, "--seed", "3", "--family", "general", "--T", "4",
                      "--utility", "power", "--habit", "one_lag")
    solves = []
    real = habitopt.solvers._newton_maximize

    def counted(*args):
        solves.append(1)
        return real(*args)

    # count a solve wherever a module binds the solver (earlier versions
    # differenced Newton re-solves from within analysis)
    for module in (habitopt.solvers, habitopt.analysis):
        monkeypatch.setattr(module, "_newton_maximize", counted, raising=False)
    code, _, _ = run(capsys, "verify", *files,
                     "--checks", "monotonicity,eta,concavity,envelope,foc")
    assert code == 0
    assert len(solves) == 1 + 1 + 2


def test_verify_takes_one_root_find_per_closed_form_response(tmp_path, capsys, monkeypatch):
    # one root-find for the solve and one for each of the 7 non-leaf responses;
    # the probes and eta read the responses and root-find nothing more
    files = _generate(tmp_path, capsys, "--seed", "5001", "--family", "complete", "--T", "3",
                      "--utility", "power", "--habit", "one_lag")
    calls = []
    real = habitopt.solvers._budget_root

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(habitopt.solvers, "_budget_root", counted)
    code, _, _ = run(capsys, "verify", *files,
                     "--checks", "monotonicity,eta,concavity,envelope,foc")
    assert code == 0
    assert len(calls) == 1 + 7


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_csv_shape(instance, capsys):
    code, out, _ = run(capsys, "sweep", "--model", instance["model"],
                       "--prefs", instance["prefs"], "--endow", instance["endow"],
                       "--range", "1.0:2.0:4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "eps0,c0,dc0,d2c0,status,U,U_0,U_1,U_2"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[2] == "" and first[3] == ""  # no differences at the edge
    assert first[4] == "ok"
    inner = lines[2].split(",")
    assert inner[2] != "" and inner[3] != ""


def test_sweep_json_mode(instance, capsys):
    code, out, _ = run(capsys, "sweep", "--model", instance["model"],
                       "--prefs", instance["prefs"], "--endow", instance["endow"],
                       "--range", "1.0:1.5:3", "--emit", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 3
    assert all(row["status"] == "ok" for row in rows)


def test_sweep_rejects_malformed_range(instance, capsys):
    code, _, err = run(capsys, "sweep", "--model", instance["model"],
                       "--prefs", instance["prefs"], "--endow", instance["endow"],
                       "--range", "1.0-2.0-4")
    assert code == 2
    assert "start:stop:count" in err


@pytest.mark.parametrize("grid", ["0.5:inf:3", "nan:2:3"])
def test_sweep_rejects_a_range_that_is_not_finite(instance, capsys, grid):
    # rejected before the grid is built, so numpy never warns about it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "sweep", "--model", instance["model"],
                             "--prefs", instance["prefs"], "--endow", instance["endow"],
                             "--range", grid)
    assert code == 2
    assert out == "" and "--range" in err and "Warning" not in err


# ---------------------------------------------------------------------------
# repro
# ---------------------------------------------------------------------------

def test_repro_linearity_single_cell(capsys):
    code, out, _ = run(capsys, "repro", "linearity", "--gamma", "1.0", "--r", "4.0")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert len(report["rows"]) == 1
    assert report["rows"][0]["share"] == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("rate", ["0", "-0.5"])
def test_repro_linearity_rejects_a_gross_rate_that_is_not_positive(capsys, rate):
    # --r is the gross rate: the message names it, not the net rate r - 1
    code, out, err = run(capsys, "repro", "linearity", "--r", rate)
    assert code == 2
    assert out == "" and "gross rate" in err and "1 + r > 0" not in err


def test_repro_convexity_example(capsys):
    code, out, _ = run(capsys, "repro", "5.1")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["closed_form_gap"] < 1e-8
    assert report["published_form_gap"] > 0.15
    assert report["grid_convex"] is True


# ---------------------------------------------------------------------------
# malformed inputs: validation errors (exit 2), never solver failures
# ---------------------------------------------------------------------------

def _edit(path, edit):
    obj = json.loads(Path(path).read_text())
    edit(obj)
    Path(path).write_text(json.dumps(obj))


def _set(*keys, value):
    def edit(obj):
        for key in keys[:-1]:
            obj = obj[key]
        obj[keys[-1]] = value
    return edit


@pytest.mark.parametrize("argv", [["solve"], ["solve", "--method", "newton"],
                                  ["sweep", "--range", "0.5:2:3"]])
def test_non_finite_endowment_exits_as_invalid_input(tmp_path, capsys, argv):
    files = _generate(tmp_path, capsys, "--seed", "22", "--family", "complete", "--T", "2",
                      "--utility", "exp", "--habit", "one_lag")
    _edit(files[5], _set("endowments", 2, 1, value=float("nan")))
    code, out, err = run(capsys, argv[0], *files, *argv[1:])
    assert code == 2
    assert out == ""
    assert "invalid input: ValueError: endowment at level 2 must be finite" in err


@pytest.mark.parametrize("which, edit, message", ids=[
    "nan_endowment", "short_endowment", "nan_floor", "nan_beta", "nan_gamma"], argvalues=[
    (5, _set("endowments", 1, 0, value=float("nan")), "endowment at level 1 must be finite"),
    (5, lambda obj: obj["endowments"][2].pop(),
     "LevelMismatch: endowment at level 2 has 8 values for 9 atoms"),
    (3, _set("h", 1, 0, value=float("nan")), "floor at level 1 must be finite"),
    (3, _set("beta", 1, 0, value=float("nan")), "habit weights beta must be finite"),
    (3, _set("gamma", value=float("nan")), "relative risk aversion must be finite"),
])
def test_malformed_general_instance_exits_as_invalid_input(tmp_path, capsys, which, edit,
                                                           message):
    files = _generate(tmp_path, capsys, "--seed", "21", "--family", "general", "--T", "2",
                      "--utility", "power", "--habit", "one_lag")
    _edit(files[which], edit)
    code, _, err = run(capsys, "solve", *files)
    assert code == 2
    assert message in err
