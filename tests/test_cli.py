import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

import nevkit as nk
from nevkit import cli
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
        asked = r["quantity"] in ("C_U_plus", "T", "T_total")
        assert r["tolerance"] == (repr(1e-6) if asked else "")


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

@pytest.mark.parametrize("cases", ["0", "-3"])
def test_verify_case_count_must_be_positive(capsys, cases):
    assert main(["verify", "--cases", cases]) == EXIT_PARSE
    assert "'cases'" in capsys.readouterr().err


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


def test_counterexample_passes_tol(monkeypatch):
    seen = []
    scan = cli.counterexample_scan

    def spy(*args, **kwargs):
        seen.append(kwargs.get("tol"))
        return scan(*args, **kwargs)

    monkeypatch.setattr(cli, "counterexample_scan", spy)
    assert main(["counterexample", "--tol", "1e-7", "--no-timestamp"]) == EXIT_OK
    assert main(["counterexample", "--epsilons", "0.1,0.01", "--tol", "1e-6",
                 "--no-timestamp"]) == EXIT_OK
    # the default is the scan's own
    assert main(["counterexample", "--no-timestamp"]) == EXIT_OK
    assert seen == [1e-7, 1e-6, 1e-8]


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


@pytest.mark.parametrize("command,doc,key", [
    (["verify"], {"cases": None}, "cases"),
    (["characteristics"], {"radii": [1.0, None],
                           "model": {"atoms": [], "harmonic": [[1.0, 0.0]]}}, "radii"),
    (["classical", "--suite", "1"], {"tol": [1]}, "tol"),
    # tolerances and radii must be finite and > 0; JSON NaN and Infinity parse
    (["characteristics"], {"radii": [2.0], "tol": -1.0, "model": POLE_MODEL_DOC}, "tol"),
    (["verify", "--cases", "1"], {"tol": -1.0}, "tol"),
    (["verify", "--cases", "1"], {"tol": 0.0}, "tol"),
    (["counterexample"], {"tol": math.nan}, "tol"),
    (["classical", "--suite", "1"], {"tol": math.inf}, "tol"),
    (["characteristics"], {"radii": [2.0, -1.0], "model": POLE_MODEL_DOC}, "radii"),
    (["characteristics"], {"radii": [math.nan], "model": POLE_MODEL_DOC}, "radii"),
    (["characteristics"], {"radii": [math.inf], "model": POLE_MODEL_DOC}, "radii"),
    (["characteristics"], {"radii": "2,inf", "model": POLE_MODEL_DOC}, "radii"),
    (["classical"], {"rational": "unread.json", "r": math.inf}, "r"),
    (["classical"], {"rational": "unread.json", "k": math.inf}, "k"),
    # a case count must be > 0
    (["verify"], {"cases": 0}, "cases"),
    (["verify"], {"cases": -3}, "cases"),
    # so must a suite size
    (["classical", "--suite", "0"], {}, "suite"),
    (["classical", "--suite", "-3"], {}, "suite"),
])
def test_wrongly_typed_config_value_is_a_parse_error(tmp_path, capsys, command, doc, key):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert main([*command, "--config", str(cfg)]) == EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("nevkit:") and repr(key) in err[0]


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


def load_script(name, monkeypatch):
    monkeypatch.syspath_prepend(SCRIPTS)
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_failure_census(monkeypatch, capsys):
    census = load_script("failure_census", monkeypatch)
    assert census.seed_range("1-10") == range(1, 11)
    assert census.seed_range("4") == range(4, 5)
    notes = {"base": ["# op 3 (case 1:15) failed: lhs -1.0 below -tol",
                      "# unscaled: ops_per_s=7.0"],
             "head": ["# op 3 (case 1:15) failed: lhs -1.0 below -tol",
                      "# op 3 (case 1:15) failed: again",
                      "# op 7 (case 1:25) failed: rhs 2.0 != 1.0",
                      "# fixture: ratio 0.2 != 0.1"]}
    fails = census.failures(notes["head"])
    assert list(fails) == ["1:15", "1:25", "fixture"]
    assert fails["1:15"] == notes["head"][0]

    def fake_run(tree, workload, seed, seconds):
        return {"notes": notes[tree.name]}

    monkeypatch.setattr(census, "run_once", fake_run)
    assert census.main(["--base", "base", "--head", "head", "--seeds", "1"]) == 1
    out = capsys.readouterr().out
    # one line per workload, then the head's new failures: two per workload
    assert "verify-finite seed 1: base 1:15  head 1:15 1:25 fixture" in out
    assert "failing at the head only: 6" in out
    assert "verify-finite: # op 7 (case 1:25) failed: rhs 2.0 != 1.0" in out
    notes["base"] = notes["head"] = []
    assert census.main(["--base", "base", "--head", "head", "--seeds", "1"]) == 0
    assert "means seed 1: base -  head -" in capsys.readouterr().out


def test_bench_pairs_summary(monkeypatch):
    bench = load_script("bench_pairs", monkeypatch)

    def run(ops, p50):
        return {"metrics": {"ops_per_s": ops, "op_p50_s": p50}}

    base = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    pairs = [{"base": run(b, 1.0), "head": run(b + 9.0, 1.0 if i else 0.5)}
             for i, b in enumerate(base)]
    got = bench.summarize(pairs, {"ops_per_s": "higher", "op_p50_s": "lower"})
    ops = got["ops_per_s"]
    assert (ops["wins"], ops["losses"]) == (10, 0)
    assert ops["base"] == {"median": 14.5, "q1": 12.25, "q3": 16.75}
    assert ops["gain"]  # 9.0 apart, base IQR 4.5
    # one win and nine ties: ties count for neither side, and no gain
    p50 = got["op_p50_s"]
    assert (p50["wins"], p50["losses"], p50["gain"]) == (1, 0, False)
    # 9 wins of 10 but a gap inside the base IQR is no gain either
    close = [{"base": run(b, 1.0), "head": run(b + (1.0 if i else -1.0), 1.0)}
             for i, b in enumerate(base)]
    got = bench.summarize(close, {"ops_per_s": "higher"})["ops_per_s"]
    assert (got["wins"], got["losses"], got["gain"]) == (9, 1, False)


def moved_rows(out):
    """{field: (same, moved)} from the table of ``diff_outputs.compare``."""
    rows = {}
    for line in out.splitlines()[1:]:
        cells = line.split()
        if len(cells) in (3, 5) and "." in cells[0]:
            rows[cells[0]] = (int(cells[1]), int(cells[2]))
    return rows


def test_diff_outputs(monkeypatch, tmp_path, capsys):
    diff = load_script("diff_outputs", monkeypatch)
    base, head = tmp_path / "base.npz", tmp_path / "head.npz"
    assert diff.main(["dump", str(base), "--seeds", "1-2", "--cases", "3"]) == 0
    assert diff.main(["compare", str(base), str(base)]) == 0
    out = capsys.readouterr().out
    assert "moved values: 0\nverdict changes: 0\n" in out
    rows = moved_rows(out)
    assert rows["verify.lhs"] == (6, 0) and rows["classical.verdict"] == (20, 0)
    assert rows["means.plus_r"] == rows["means.canonical_R"] == (6, 0)
    assert all(moved == 0 for _, moved in rows.values())

    # one component of one case moves by one ulp
    import nevkit.bounds as bounds
    rhs_of = bounds.growth_bound_rhs

    def nudged(case):
        rhs, comp = rhs_of(case)
        if (case.seed, case.case_id) == (2, 1):
            comp = dict(comp, kint_lhs=math.nextafter(comp["kint_lhs"], math.inf))
        return rhs, comp

    monkeypatch.setattr(bounds, "growth_bound_rhs", nudged)
    assert diff.main(["dump", str(head), "--seeds", "1-2", "--cases", "3"]) == 0
    assert diff.main(["compare", str(base), str(head)]) == 0
    out = capsys.readouterr().out
    rows = moved_rows(out)
    assert {key for key, (_, moved) in rows.items() if moved} == {"verify.kint_lhs"}
    assert rows["verify.kint_lhs"] == (5, 1)
    kint = diff.load(base)["verify.kint_lhs"][3]
    lines = out.splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("verify.kint_lhs "))
    assert lines[at].split()[3:] == [f"{math.ulp(kint):.3g}", f"{math.ulp(kint) / kint:.3g}"]
    assert lines[at + 1] == "    at 2:1"
    assert "moved values: 1\nverdict changes: 0\n" in out
