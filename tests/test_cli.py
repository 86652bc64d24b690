import json
import os
from pathlib import Path

import numpy as np
import pytest

from habitopt import MarketModel, build_tree
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


def test_verify_rejects_unknown_check(instance, capsys):
    code, _, err = run(capsys, "verify", "--model", instance["model"],
                       "--prefs", instance["prefs"], "--endow", instance["endow"],
                       "--checks", "foc,frobnicate")
    assert code == 2
    assert "frobnicate" in err


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


def test_repro_convexity_example(capsys):
    code, out, _ = run(capsys, "repro", "5.1")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["closed_form_gap"] < 1e-8
    assert report["published_form_gap"] > 0.15
    assert report["grid_convex"] is True
