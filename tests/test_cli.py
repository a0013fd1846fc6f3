import json
import math
import os
import subprocess
import sys

import pytest

import nevkit as nk
from nevkit.cli import (
    CHARACTERISTICS_COLUMNS,
    EXIT_FAIL,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    VERIFY_COLUMNS,
    main,
)

LN = math.log

POLE_MODEL_DOC = {"atoms": [{"re": 1.0, "im": 0.0, "mass": -1.0}],
                  "harmonic": [[LN(5.0), 0.0]]}


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(POLE_MODEL_DOC))
    return str(path)


def read_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header, rows = lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    return header, [dict(zip(header, row)) for row in rows]


# -- characteristics -----------------------------------------------------------

def test_characteristics_csv(tmp_path, model_path):
    out = tmp_path / "chars.csv"
    code = main(["characteristics", "--model", model_path,
                 "--radii", "0.5,2.0,4.0", "--no-timestamp", "--out", str(out)])
    assert code == EXIT_OK
    header, rows = read_rows(out)
    assert tuple(header) == CHARACTERISTICS_COLUMNS
    assert out.read_text().endswith("\n")
    by_key = {(r["quantity"], r["r"], r["R"]): r for r in rows}
    assert float(by_key[("M_U", "0.5", "")]["value"]) == pytest.approx(LN(10.0), abs=1e-8)
    assert float(by_key[("C_U", "4.0", "")]["value"]) == pytest.approx(LN(1.25), abs=1e-12)
    assert float(by_key[("C_U_plus", "2.0", "")]["value"]) == pytest.approx(LN(2.5), abs=1e-6)
    assert float(by_key[("mu_rd", "4.0", "")]["value"]) == 1.0
    assert float(by_key[("T", "2.0", "4.0")]["value"]) == pytest.approx(0.0, abs=2e-6)
    assert float(by_key[("T_total", "2.0", "4.0")]["value"]) \
        == pytest.approx(LN(2.5), abs=1e-6)
    # consecutive windows plus the (first, last) envelope window
    t_rows = [r for r in rows if r["quantity"] == "T"]
    assert [(r["r"], r["R"]) for r in t_rows] \
        == [("0.5", "2.0"), ("2.0", "4.0"), ("0.5", "4.0")]
    # absent cells are empty; a tolerance is written as repr of the float
    for r in rows:
        per_radius = r["quantity"] in ("M_U", "C_U", "C_U_plus", "mu_rd")
        assert (r["R"] == "") == per_radius
        quadrature = r["quantity"] in ("C_U_plus", "T", "T_total")
        assert r["tolerance"] == (repr(1e-6) if quadrature else "")


def test_characteristics_stdout_timestamp(capsys, model_path):
    code = main(["characteristics", "--model", model_path, "--radii", "2.0"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# generated ")
    assert lines[1] == ",".join(CHARACTERISTICS_COLUMNS)


def test_characteristics_config_merge(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": POLE_MODEL_DOC, "radii": [2.0, 4.0],
                               "no_timestamp": True}))
    out = tmp_path / "a.csv"
    assert main(["characteristics", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_OK
    _, rows = read_rows(out)
    assert {r["r"] for r in rows} == {"2.0", "4.0"}
    # a flag beats the config key
    out2 = tmp_path / "b.csv"
    assert main(["characteristics", "--config", str(cfg), "--radii", "3.0",
                 "--out", str(out2)]) == EXIT_OK
    _, rows2 = read_rows(out2)
    assert {r["r"] for r in rows2} == {"3.0"}


def test_characteristics_errors(tmp_path, model_path, capsys):
    assert main(["characteristics", "--radii", "1.0"]) == EXIT_PARSE
    assert main(["characteristics", "--model", str(tmp_path / "nope.json"),
                 "--radii", "1.0"]) == EXIT_PARSE
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["characteristics", "--model", str(bad)]) == EXIT_PARSE
    assert main(["characteristics", "--model", model_path,
                 "--radii", "-1.0"]) == EXIT_PARSE
    assert "nevkit:" in capsys.readouterr().err


def test_characteristics_atom_on_radius_fails(model_path, capsys):
    # the mean is undefined on the singular circle: domain error, not a crash
    assert main(["characteristics", "--model", model_path,
                 "--radii", "1.0"]) == EXIT_FAIL
    assert "radius" in capsys.readouterr().err


def test_out_in_missing_directory(model_path, capsys, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(["characteristics", "--model", model_path, "--radii", "2.0",
                 "--out", str(target)]) == EXIT_IO


# -- verify -----------------------------------------------------------------------

def test_verify_small_suite(tmp_path):
    out = tmp_path / "verify.csv"
    code = main(["verify", "--cases", "6", "--seed", "1",
                 "--no-timestamp", "--out", str(out)])
    assert code == EXIT_OK
    header, rows = read_rows(out)
    assert tuple(header) == VERIFY_COLUMNS
    assert len(rows) == 6
    assert all(r["verdict"] in ("pass", "consistent-divergence") for r in rows)
    summary = [ln for ln in out.read_text().splitlines() if ln.startswith("# summary")]
    assert summary == ["# summary passed=6 total=6"]
    # jump cases carry a certificate; the divergence is named, not silent
    jumped = [r for r in rows if r["certificate"]]
    assert jumped
    for r in jumped:
        assert float(r["kint_lhs"]) == math.inf
        assert "jump" in r["certificate"]
    for r in rows:
        assert float(r["dini"]) == float(r["kint_rhs"])


# -- counterexample ----------------------------------------------------------------

def test_counterexample_default(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["counterexample", "--no-timestamp", "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    header, rows = read_rows(out)
    assert header == ["epsilon", "lhs", "dini"]
    slope_lines = [ln for ln in text.splitlines() if ln.startswith("# lhs_slope=")]
    assert len(slope_lines) == 1
    assert float(slope_lines[0].split("=")[1]) == pytest.approx(1.0, abs=1e-4)
    last = rows[-1]
    assert last["epsilon"] == "0.0" and last["lhs"] == "inf"


def test_counterexample_custom_epsilons(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["counterexample", "--epsilons", "0.1,0.01,0.001",
                 "--no-timestamp", "--out", str(out)])
    assert code == EXIT_OK
    _, rows = read_rows(out)
    got = [float(r["lhs"]) for r in rows]
    want = [LN(5.0) + 1.0 + LN(1.0 / e) for e in (0.1, 0.01, 0.001)]
    assert got == pytest.approx(want, abs=1e-6)


def test_counterexample_bad_epsilon():
    assert main(["counterexample", "--epsilons", "1.5"]) == EXIT_PARSE


# -- classical ----------------------------------------------------------------------

def test_classical_single_rational(tmp_path):
    spec = tmp_path / "rational.json"
    spec.write_text(json.dumps({"zeros": [{"re": 0.0, "im": 0.0, "mult": 1}],
                                "poles": [], "scale": 1.0}))
    out = tmp_path / "classical.csv"
    code = main(["classical", "--rational", str(spec), "--r", "2.0", "--k", "2.0",
                 "--no-timestamp", "--out", str(out)])
    assert code == EXIT_OK
    _, rows = read_rows(out)
    assert len(rows) == 1
    assert rows[0]["verdict"] == "pass"
    assert float(rows[0]["lhs"]) == pytest.approx(LN(2.0) - 0.5, abs=1e-7)
    assert float(rows[0]["bridge"]) == pytest.approx(LN(4.0), abs=1e-7)


def test_classical_suite_mode(tmp_path):
    out = tmp_path / "suite.csv"
    code = main(["classical", "--suite", "3", "--seed", "1",
                 "--no-timestamp", "--out", str(out)])
    assert code == EXIT_OK
    assert "# summary passed=3 total=3" in out.read_text()


def test_classical_needs_input():
    assert main(["classical"]) == EXIT_PARSE


def test_classical_bad_rational(tmp_path):
    spec = tmp_path / "bad.json"
    for doc in ({"zeros": [{"re": 0.0}]}, {"zeros": 5}, {"scale": [1]},
                {"poles": [{"re": 0.0, "im": 0.0, "mult": "x"}]}):
        spec.write_text(json.dumps(doc))
        assert main(["classical", "--rational", str(spec)]) == EXIT_PARSE


@pytest.mark.parametrize("command", [["characteristics", "--radii", "1", "--model"],
                                     ["classical", "--rational"],
                                     ["characteristics", "--radii", "1", "--config"]])
def test_document_that_is_not_an_object_is_a_parse_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    for text in ("[1]", "{"):
        bad.write_text(text)
        assert main([*command, str(bad)]) == EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("nevkit:")
        if text == "{":
            assert "line 1" in err[0]


# -- process-level entry -------------------------------------------------------------

def run_python(*args):
    # the subprocess must import the nevkit under test, not an installed copy
    src = os.path.dirname(os.path.dirname(os.path.abspath(nk.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def test_module_entry_point():
    got = run_python("-m", "nevkit.cli", "--version")
    assert got.returncode == 0
    assert got.stdout.strip() == f"nevkit {nk.__version__}"


SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts")


def test_scripts_run():
    got = run_python(os.path.join(SCRIPTS, "verify_growth_bound.py"), "--cases", "5")
    assert got.returncode == 0, got.stderr
    assert "5/5 cases hold" in got.stdout
    got = run_python(os.path.join(SCRIPTS, "counterexample_table.py"),
                     "--epsilons", "0.1,0.01,0")
    assert got.returncode == 0, got.stderr
