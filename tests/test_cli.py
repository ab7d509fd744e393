"""Command-line interface: happy paths, config precedence, exit codes."""

import functools
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import subsel
from subsel import repro as repro_mod
from subsel.cli import main
from subsel.criteria import RobustContext
from subsel.ingest_sim import json_text, load_csv, simulate_example2, simulate_mortgage_analogue, write_csv
from subsel.model_core import CandidateGrid, model_spec_from_config
from subsel.select_iboss import iboss_det_bound, run_iboss
from subsel.select_robust import run_wiens


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(*argv) -> subprocess.CompletedProcess:
    """`python -m subsel.cli *argv` in a fresh process against this checkout's sources, so that
    whatever reaches stderr (numpy's warnings too) is captured as it is."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(subsel.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "subsel.cli", *argv], capture_output=True, text=True,
                          timeout=120, env=env)


def no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def stderr_payload(err: str) -> dict:
    lines = [ln for ln in err.strip().split("\n") if ln]
    assert len(lines) == 1, f"expected one error line, got: {err!r}"
    record = json.loads(lines[0])
    assert set(record) == {"error"}
    return record["error"]


def run_with_config(capsys, tmp_path, cfg, *argv):
    """Run `argv` with `cfg` as its --config file; argparse errors exit through SystemExit."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    try:
        code = main([*argv, "--config", str(path)])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_same_config(got: dict, want: dict) -> None:
    # compared as JSON text, so 1 and 1.0 or 0 and False differ
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"f": {"family": "poly", "degree": 1}}))
    return str(path)


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"axes": {"x": list(np.linspace(-1, 1, 21))}}))
    return str(path)


@pytest.fixture
def design_file(tmp_path):
    path = tmp_path / "design.json"
    path.write_text(json.dumps({"points": [[-1.0], [1.0]], "weights": [0.5, 0.5]}))
    return str(path)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_example2_writes_csv(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code, stdout, _ = run_cli(capsys, "simulate", "example2", "--n", "50",
                              "--seed", "3", "--out", str(out))
    assert code == 0
    note = json.loads(stdout)
    assert note["command"] == "simulate"
    assert note["n_rows"] == 50
    assert note["resolved_config"]["seed"] == 3
    data = load_csv(out, response_column="y", confounder_columns=["z"])
    ref = simulate_example2(50, seed=3)
    assert np.array_equal(data.features, ref.features)
    assert np.array_equal(data.response, ref.response)


def test_simulate_example3_honors_n(tmp_path, capsys):
    out = tmp_path / "sim3.csv"
    code, stdout, _ = run_cli(capsys, "simulate", "example3", "--n", "17",
                              "--seed", "1", "--out", str(out))
    assert code == 0
    assert json.loads(stdout)["n_rows"] == 17


def test_simulate_defaults_are_kept(tmp_path, capsys):
    out = str(tmp_path / "sim.csv")
    code, stdout, _ = run_cli(capsys, "simulate", "example2", "--out", out)
    assert code == 0
    note = json.loads(stdout)
    assert note["n_rows"] == 105
    assert_same_config(note["resolved_config"], {
        "kind": "example2", "seed": 0, "n": None, "theta": None, "out": out,
    })


@pytest.mark.parametrize("kind", ["example2", "example3"])
def test_simulate_rejects_theta_outside_mortgage(tmp_path, capsys, kind):
    out = tmp_path / "sim.csv"
    code, _, err = run_cli(capsys, "simulate", kind, "--theta", "1,2", "--out", str(out))
    assert code == 2
    assert "--theta" in stderr_payload(err)["message"]
    assert not out.exists()


def test_simulate_requires_out(capsys):
    code, _, err = run_cli(capsys, "simulate", "example2", "--n", "10")
    assert code == 2
    payload = stderr_payload(err)
    assert payload["kind"] == "config"
    assert payload["type"] == "InvalidInputError"


def test_simulate_mortgage_takes_theta(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code, _, _ = run_cli(capsys, "simulate", "mortgage", "--n", "30", "--seed", "2",
                         "--theta", "0,1,0,0,-1", "--out", str(out))
    assert code == 0
    ref = tmp_path / "ref.csv"
    write_csv(simulate_mortgage_analogue(30, theta=[0.0, 1.0, 0.0, 0.0, -1.0], seed=2), ref)
    assert out.read_bytes() == ref.read_bytes()


def test_simulate_mortgage_requires_n(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "mortgage",
                           "--out", str(tmp_path / "m.csv"))
    assert code == 2
    assert stderr_payload(err)["kind"] == "config"


# ---------------------------------------------------------------------------
# iboss


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "rows.csv"
    ds = simulate_example2(300, seed=9)
    write_csv(ds, path)
    return str(path)


def test_iboss_payload_matches_library(tmp_path, data_csv, capsys):
    code, stdout, _ = run_cli(
        capsys, "iboss", "--input", data_csv, "--n", "12",
        "--features", "x", "--response", "y",
    )
    assert code == 0
    payload = json.loads(stdout)
    ds = load_csv(data_csv, response_column="y", feature_columns=["x"])
    sel = run_iboss(ds, 12)
    log_det, log_bound = iboss_det_bound(ds, sel)
    assert payload["indices"] == [int(i) for i in sel.indices]
    assert (payload["log_det"], payload["log_bound"]) == (log_det, log_bound)
    assert payload["det"] == pytest.approx(np.exp(log_det))
    assert payload["bound"] == pytest.approx(np.exp(log_bound))
    assert payload["column_order"] == [0]
    assert payload["r"] == 6
    assert payload["per_variable_cuts"][0]["low_count"] == 6
    assert payload["resolved_config"]["sigma"] == 1.0


def test_iboss_on_a_wide_design_writes_strict_json(tmp_path):
    # on 2000 rows of 115 covariates the bound, 4 (2000 / 4)^116 times the squared
    # ranges, and the determinant both overflow a float: only their logs are written
    feats = np.random.default_rng(3).normal(size=(2000, 115))
    path = tmp_path / "wide.csv"
    np.savetxt(path, feats, delimiter=",", header=",".join(f"x{j}" for j in range(115)), comments="")
    proc = run_cli_process("iboss", "--input", str(path), "--n", "2000")
    assert proc.returncode == 0 and proc.stderr == ""
    payload = json.loads(proc.stdout, parse_constant=no_constant)
    assert payload["det"] is None and payload["bound"] is None
    assert payload["log_det"] <= payload["log_bound"]


def test_iboss_on_a_constant_column_writes_a_null_log_det(tmp_path):
    # a constant column makes the selection's information matrix singular: log det is -inf
    path = tmp_path / "flat.csv"
    path.write_text("a,b\n" + "".join(f"{i},5\n" for i in range(1, 7)))
    proc = run_cli_process("iboss", "--input", str(path), "--n", "4")
    assert proc.returncode == 0 and proc.stderr == ""
    assert '"log_det": null' in proc.stdout
    payload = json.loads(proc.stdout, parse_constant=no_constant)
    assert (payload["det"], payload["log_det"]) == (0.0, None)


def test_iboss_on_a_covariate_whose_square_overflows_exits_2(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("a,b\n1e308,1\n-1e308,2\n5,3\n6,4\n")
    proc = run_cli_process("iboss", "--input", str(path), "--n", "4")
    assert proc.returncode == 2 and proc.stdout == ""
    error = stderr_payload(proc.stderr)
    assert error["type"] == "InvalidInputError" and "non-finite" in error["message"]


def test_a_grid_axis_whose_differences_overflow_exits_2_with_one_stderr_line(tmp_path, model_file,
                                                                            design_file):
    # 1e308 - 1 and -1e308 - 1e308 overflow a float: the level check compares
    # neighbours, so no overflow warning precedes the error record
    grid = tmp_path / "huge_grid.json"
    grid.write_text(json.dumps({"axes": {"x": [1.0, 1e308, -1e308]}}))
    proc = run_cli_process("criteria", "--model", model_file, "--design", design_file, "--names", "I",
                           "--grid", str(grid))
    assert proc.returncode == 2 and proc.stdout == ""
    assert stderr_payload(proc.stderr)["message"] == "axis 0 levels must be strictly increasing"


def test_iboss_out_file_is_replay_identical(tmp_path, data_csv, capsys):
    # same command, same path: the artifact must be byte-identical on rerun
    out = tmp_path / "a.json"
    blobs = []
    for _ in range(2):
        code, _, _ = run_cli(capsys, "iboss", "--input", data_csv, "--n", "10",
                             "--features", "x", "--response", "y", "--out", str(out))
        assert code == 0
        blobs.append(out.read_bytes())
        out.unlink()
    assert blobs[0] == blobs[1]
    # without --out, stdout carries the same text, but for the echoed --out
    code, stdout, _ = run_cli(capsys, "iboss", "--input", data_csv, "--n", "10",
                              "--features", "x", "--response", "y")
    assert code == 0
    assert stdout.encode() == blobs[0].replace(json.dumps(str(out)).encode(), b"null")


def test_iboss_perm_report(tmp_path, capsys):
    path = tmp_path / "two.csv"
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(60, 2))
    lines = ["a,b"] + [f"{float(x)!r},{float(y)!r}" for x, y in feats]
    path.write_text("\n".join(lines) + "\n")
    report_path = tmp_path / "perm.json"
    code, _, _ = run_cli(capsys, "iboss", "--input", str(path), "--n", "8",
                         "--perm-report", str(report_path))
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["n_permutations"] == 2
    assert sum(len(g["orders"]) for g in report["groups"]) == 2


@pytest.mark.parametrize("argv", [
    ["iboss", "--n", "12"],
    ["seqdes", "--n-init", "5", "--n-target", "12", "--family", "linear", "--seed", "2"],
])
def test_dropped_rows_are_named_on_stderr(tmp_path, data_csv, capsys, argv):
    # the dirty file is the clean one plus two rows with a bad used cell: stdout is
    # unchanged, and stderr holds one warning record with the count and the file
    path = tmp_path / "input.csv"
    argv = [*argv, "--input", str(path), "--features", "x", "--response", "y"]
    header, *rows = Path(data_csv).read_text().splitlines(keepends=True)
    path.write_text(header + "".join(rows))
    code, want, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    path.write_text(header + ",0.5,1.0\n" + "".join(rows) + "0.3,0.1,nan\n")
    code, got, err = run_cli(capsys, *argv)
    assert code == 0 and got == want
    lines = err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])["warning"]
    assert {k: record[k] for k in ("kind", "type", "file", "n_dropped")} == {
        "kind": "input", "type": "DroppedRows", "file": str(path), "n_dropped": 2}
    assert record["message"].startswith(f"dropped 2 rows of {path} ")


def test_config_file_provides_defaults_flags_override(tmp_path, data_csv, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 6, "sigma": 2.0}))
    code, stdout, _ = run_cli(capsys, "iboss", "--input", data_csv,
                              "--features", "x", "--response", "y",
                              "--config", str(cfg))
    assert code == 0
    assert json.loads(stdout)["resolved_config"]["n"] == 6
    code, stdout, _ = run_cli(capsys, "iboss", "--input", data_csv,
                              "--features", "x", "--response", "y",
                              "--config", str(cfg), "--n", "8")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["resolved_config"]["n"] == 8
    assert payload["resolved_config"]["sigma"] == 2.0
    assert len(payload["indices"]) == 8


def test_iboss_defaults_are_kept(tmp_path, data_csv, capsys):
    code, stdout, _ = run_cli(capsys, "iboss", "--input", data_csv, "--n", "6")
    assert code == 0
    assert_same_config(json.loads(stdout)["resolved_config"], {
        "input": data_csv, "n": 6, "order": None, "features": None, "response": None,
        "confounders": None, "sigma": 1.0, "out": None, "perm_report": None, "strict": False,
    })


@pytest.mark.parametrize("cfg, field", [
    ({"n": "abc"}, "n"),
    ({"n": 6.5}, "n"),
    ({"order": [1, "x"]}, "order"),
    ({"sigma": [1.0, 2.0]}, "sigma"),
    ({"strict": "false"}, "strict"),
    ({"strict": 1}, "strict"),
])
def test_iboss_config_value_of_wrong_type_exits_2(tmp_path, data_csv, capsys, cfg, field):
    code, _, err = run_with_config(capsys, tmp_path, {"n": 6, **cfg}, "iboss", "--input", data_csv)
    assert code == 2
    error = stderr_payload(err)
    assert error["kind"] == "config"
    assert field in error["message"]


def test_seqdes_config_seed_of_wrong_type_exits_2(tmp_path, data_csv, capsys):
    code, _, err = run_with_config(capsys, tmp_path, {"seed": "x"}, "seqdes", "--input", data_csv,
                                   "--n-init", "5", "--n-target", "8", "--response", "y")
    assert code == 2
    assert "seed" in stderr_payload(err)["message"]


@pytest.mark.parametrize("cfg, echoed", [
    ({"order": "1,0"}, {"order": [1, 0]}),
    ({"order": [1, 0]}, {"order": [1, 0]}),
    ({"features": "x,z"}, {"features": ["x", "z"]}),
    ({"features": ["x", "z"]}, {"features": ["x", "z"]}),
    ({"sigma": 2}, {"sigma": 2.0}),
    ({"strict": True}, {"strict": True}),
    ({"perm_report": None}, {"perm_report": None}),
])
def test_iboss_config_values_parse_like_flags(tmp_path, data_csv, capsys, cfg, echoed):
    code, stdout, err = run_with_config(capsys, tmp_path, {"n": 6, **cfg}, "iboss", "--input", data_csv,
                                        "--response", "y")
    assert code == 0, err
    resolved = json.loads(stdout)["resolved_config"]
    assert_same_config({key: resolved[key] for key in echoed}, echoed)


def test_unknown_config_key_is_rejected(tmp_path, data_csv, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = run_cli(capsys, "iboss", "--input", data_csv, "--n", "6",
                           "--features", "x", "--response", "y",
                           "--config", str(cfg))
    assert code == 2
    assert "bogus" in stderr_payload(err)["message"]


def test_malformed_config_json(tmp_path, data_csv, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code, _, err = run_cli(capsys, "iboss", "--input", data_csv, "--n", "6",
                           "--config", str(cfg))
    assert code == 2
    assert stderr_payload(err)["kind"] == "config"


def test_missing_input_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "iboss", "--input", str(tmp_path / "no.csv"),
                           "--n", "6")
    assert code == 2
    assert stderr_payload(err)["kind"] == "config"


@pytest.mark.parametrize("argv, message", [
    (["simulate", "example2"], "simulate needs --out"),
    (["simulate", "mortgage", "--out", "m.csv"], "simulate needs --n"),
    (["iboss", "--n", "10"], "iboss needs --input"),
    (["seqdes", "--input", "rows.csv", "--n-init", "5", "--n-target", "9"], "seqdes needs --response"),
    (["robust", "--grid", "g.json", "--model", "m.json", "--nu", "0.5"], "robust needs --iters"),
    (["criteria", "--model", "m.json", "--design", "d.json"], "criteria needs --names"),
    (["check-get", "--model", "m.json"], "check-get needs --design"),
    (["repro", "1"], "repro needs --out-dir"),
])
def test_missing_required_option_is_named(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)  # nothing may be read or written before the check
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    error = stderr_payload(err)
    assert (error["type"], error["message"]) == ("InvalidInputError", message)
    assert list(tmp_path.iterdir()) == []


def test_unknown_flag_prints_json_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["iboss", "--nonsense"])
    assert exc.value.code == 2
    payload = stderr_payload(capsys.readouterr().err)
    assert payload["kind"] == "config"
    assert payload["type"] == "ArgumentError"


# the input files of the bad-input table, each replaced by a case that names it
GOOD_FILES = {
    "model.json": {"f": {"family": "poly", "degree": 1}},
    "grid.json": {"axes": {"x": [-1.0, 0.0, 1.0]}},
    "design.json": {"points": [[-1.0], [1.0]], "weights": [0.5, 0.5]},
    "bias.json": {"psi": [], "phi": [], "sigma": 1.0, "n_total": 300},
}
CRITERIA = ["criteria", "--model", "model.json", "--design", "design.json", "--names"]
SEQDES = ["seqdes", "--input", "rows.csv", "--response", "y", "--features", "x",
          "--n-init", "5", "--n-target", "8"]


@pytest.mark.parametrize("files, argv, exc_type", [
    pytest.param({}, ["criteria", "--model", "no.json", "--design", "design.json", "--names", "D"],
                 "ConfigError", id="json-file-missing"),
    pytest.param({"cfg.json": [1]}, ["iboss", "--input", "rows.csv", "--n", "4", "--config", "cfg.json"],
                 "ConfigError", id="config-not-an-object"),
    pytest.param({}, ["simulate", "mortgage", "--n", "5", "--out", "m.csv", "--theta", "1,x"],
                 "ArgumentError", id="theta-not-numbers"),
    pytest.param({}, ["simulate", "example2", "--n", "0", "--out", "s.csv"],
                 "InvalidInputError", id="simulate-n-0"),
    pytest.param({"grid.json": []}, [*CRITERIA, "I", "--grid", "grid.json"],
                 "ConfigError", id="grid-not-an-object"),
    pytest.param({"grid.json": {"x": [0.0]}}, [*CRITERIA, "I", "--grid", "grid.json"],
                 "ConfigError", id="grid-without-axes-or-points"),
    pytest.param({"grid.json": {"axes": {"x": []}}}, [*CRITERIA, "I", "--grid", "grid.json"],
                 "ConfigError", id="grid-axis-empty"),
    pytest.param({"grid.json": {"axes": {"x": [0.0, float("nan")]}}}, [*CRITERIA, "I", "--grid", "grid.json"],
                 "ConfigError", id="grid-axis-nan"),
    pytest.param({"grid.json": {"points": [[0.0], [1.0]], "z_dim": "x"}}, [*CRITERIA, "I", "--grid", "grid.json"],
                 "ConfigError", id="grid-z-dim-not-a-number"),
    pytest.param({"grid.json": {"points": [[0.0], [1.0]], "z_dim": 2}}, [*CRITERIA, "I", "--grid", "grid.json"],
                 "InvalidInputError", id="grid-z-dim-above-dimension"),
    pytest.param({"design.json": {"points": [[0.0]]}}, [*CRITERIA, "D"],
                 "ConfigError", id="design-without-weights"),
    pytest.param({"design.json": {"points": [[0.0], [1.0]], "weights": [1.0]}}, [*CRITERIA, "D"],
                 "InvalidInputError", id="design-weights-length"),
    pytest.param({"design.json": {"points": [[-1.0], [1.0]], "weights": [0.5, 0.5], "z_points": [[0.0]]}},
                 [*CRITERIA, "D"], "InvalidInputError", id="design-z-points-length"),
    pytest.param({"design.json": {"points": [["a"], [1.0]], "weights": [0.5, 0.5]}}, [*CRITERIA, "D"],
                 "ConfigError", id="design-point-not-a-number"),
    pytest.param({"design.json": {"points": [[[0.0]]], "weights": [1.0]}}, [*CRITERIA, "D"],
                 "InvalidInputError", id="design-points-3d"),
    pytest.param({"bias.json": [1]}, [*CRITERIA, "traceR", "--bias", "bias.json"],
                 "ConfigError", id="bias-not-an-object"),
    pytest.param({"bias.json": {"psi": [], "phi": [], "n_total": 300}}, [*CRITERIA, "traceR", "--bias", "bias.json"],
                 "ConfigError", id="bias-without-sigma"),
    pytest.param({"bias.json": {**GOOD_FILES["bias.json"], "sigma": "abc"}},
                 [*CRITERIA, "traceR", "--bias", "bias.json"], "ConfigError", id="bias-sigma-not-a-number"),
    pytest.param({"bias.json": {**GOOD_FILES["bias.json"], "psi": [[1.0]]}},
                 [*CRITERIA, "traceR", "--bias", "bias.json"], "InvalidInputError", id="bias-psi-2d"),
    pytest.param({"bias.json": {**GOOD_FILES["bias.json"], "psi": [float("nan")]}},
                 [*CRITERIA, "traceR", "--bias", "bias.json"], "InvalidInputError", id="bias-psi-nan"),
    pytest.param({"bias.json": {**GOOD_FILES["bias.json"], "n_total": 0}},
                 [*CRITERIA, "traceR", "--bias", "bias.json"], "InvalidInputError", id="bias-n-total-0"),
    pytest.param({}, [*CRITERIA, "I"], "InvalidInputError", id="criterion-I-without-grid"),
    pytest.param({}, [*CRITERIA, "Dnu", "--grid", "grid.json"], "InvalidInputError", id="criterion-Dnu-without-nu"),
    pytest.param({}, [*CRITERIA, "D,E"], "InvalidInputError", id="criterion-unknown"),
    pytest.param({"model.json": {"f": 3}}, [*CRITERIA, "D"], "ConfigError", id="basis-not-a-mapping"),
    pytest.param({"model.json": {"f": {"family": "poly", "degree": "x"}}}, [*CRITERIA, "D"],
                 "ConfigError", id="basis-degree-not-a-number"),
    pytest.param({"model.json": {"f": {"family": "spline"}}}, [*CRITERIA, "D"],
                 "ConfigError", id="basis-family-unknown"),
    pytest.param({"model.json": {"f": {"family": "trig", "kind": "tan"}}}, [*CRITERIA, "D"],
                 "ConfigError", id="trig-kind-unknown"),
    pytest.param({"model.json": {"f": {"family": "trig", "coeffs": [1.0, 2.0]}}}, [*CRITERIA, "D"],
                 "ConfigError", id="trig-coeffs-not-3"),
    pytest.param({"model.json": {"f": {"family": "poly", "dim": 0}}}, [*CRITERIA, "D"],
                 "ConfigError", id="poly-dim-0"),
    pytest.param({"model.json": {"f": {"family": "poly", "degree": 0, "intercept": False}}}, [*CRITERIA, "D"],
                 "ConfigError", id="poly-no-terms"),
    pytest.param({}, [*SEQDES, "--batch", "0"], "InvalidInputError", id="seqdes-batch-0"),
    pytest.param({}, [*SEQDES, "--init", "stratified", "--init-column", "x", "--init-quantiles", "0"],
                 "InvalidInputError", id="seqdes-init-quantiles-0"),
    pytest.param({"grid.json": {"axes": {"x": [0.0, 1.0], "z": [0.0, 1.0]}, "z_axes": ["z"]}},
                 [*SEQDES, "--grid", "grid.json"], "InvalidInputError", id="seqdes-grid-z-without-confounders"),
    pytest.param({"y.csv": "y\n1\n2\n3\n4\n5\n"},
                 ["seqdes", "--input", "y.csv", "--response", "y", "--n-init", "2", "--n-target", "3"],
                 "InvalidInputError", id="seqdes-csv-without-features"),
])
def test_bad_input_exits_2(tmp_path, monkeypatch, data_csv, capsys, files, argv, exc_type):
    # data_csv is rows.csv in tmp_path; a file given as a string is written as it is
    monkeypatch.chdir(tmp_path)
    for name, content in {**GOOD_FILES, **files}.items():
        (tmp_path / name).write_text(content if isinstance(content, str) else json.dumps(content))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own errors
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert stderr_payload(captured.err)["type"] == exc_type


@pytest.mark.parametrize("argv, name", [
    pytest.param(["iboss", "--n", "4", "--confounders", "y", "--response", "y"], "y", id="iboss-confounder-is-response"),
    pytest.param(["seqdes", "--response", "y", "--features", "x,x", "--n-init", "5", "--n-target", "8"], "x",
                 id="seqdes-feature-twice"),
])
def test_a_column_used_twice_exits_2(data_csv, capsys, argv, name):
    code, out, err = run_cli(capsys, *argv, "--input", data_csv)
    assert (code, out) == (2, "")
    error = stderr_payload(err)
    assert error["type"] == "ConfigError"
    assert error["message"] == f"column {name!r} is used twice among the features, confounders and response"


@pytest.mark.parametrize("init", ["random", "stratified", "dope"])
def test_seqdes_n_init_below_the_model_terms_exits_2(tmp_path, capsys, init):
    # four covariates and a 0/1 response: the default model has 5 terms
    rng = np.random.default_rng(4)
    path = tmp_path / "loans.csv"
    rows = np.column_stack([rng.normal(size=(200, 4)), rng.random(200) < 0.3])
    np.savetxt(path, rows, delimiter=",", header="a,b,c,d,y", comments="")
    code, out, err = run_cli(capsys, "seqdes", "--input", str(path), "--response", "y",
                             "--n-init", "3", "--n-target", "20", "--init", init, "--init-column", "a")
    assert (code, out) == (2, "")
    error = stderr_payload(err)
    assert (error["type"], error["message"]) == ("InvalidInputError", "n_init 3 is below the model's 5 terms")


# ---------------------------------------------------------------------------
# seqdes


def test_seqdes_end_to_end(tmp_path, data_csv, model_file, grid_file, capsys):
    out = tmp_path / "sel.json"
    trace_csv = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        capsys, "seqdes", "--input", data_csv, "--grid", grid_file,
        "--model", model_file, "--n-init", "5", "--n-target", "12",
        "--features", "x", "--response", "y", "--family", "linear",
        "--seed", "2", "--out", str(out), "--trace-csv", str(trace_csv),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "seqdes"
    assert len(payload["selection"]["indices"]) == 12
    assert payload["resolved_config"]["n_target"] == 12
    assert payload["trace"]["stop_reason"] == "n_reached"
    lines = trace_csv.read_text().strip().split("\n")
    assert lines[0].startswith("iteration,n_selected,theta_0")
    assert len(lines) == 1 + 1 + len(payload["trace"]["steps"])


def test_seqdes_defaults_grid_and_model_from_data(tmp_path, data_csv, capsys):
    # omitting --grid and --model falls back to a feature-spanning grid and
    # an intercept-plus-linear model of the feature columns
    out = tmp_path / "sel.json"
    code, _, _ = run_cli(
        capsys, "seqdes", "--input", data_csv, "--n-init", "5",
        "--n-target", "12", "--features", "x", "--response", "y",
        "--family", "linear", "--seed", "2", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["selection"]["indices"]) == 12
    assert payload["resolved_config"]["grid"] is None
    assert payload["resolved_config"]["model"] is None


def test_seqdes_defaults_are_kept(tmp_path, data_csv, capsys):
    code, stdout, _ = run_cli(capsys, "seqdes", "--input", data_csv, "--n-init", "5",
                              "--n-target", "8", "--response", "y")
    assert code == 0
    assert_same_config(json.loads(stdout)["resolved_config"], {
        "input": data_csv, "grid": None, "model": None, "n_init": 5, "n_target": 8,
        "batch": 1, "utility": "D", "nu": None, "bias": False, "family": "auto",
        "distance": "euclidean", "init": "random", "init_column": None,
        "init_quantiles": 10, "init_label": 1.0, "seed": 0, "stop": "n_reached",
        "stop_epsilon": 0.0, "features": None, "response": "y", "confounders": None,
        "strict": False, "out": None, "trace_csv": None,
    })


def test_seqdes_requires_response(data_csv, model_file, grid_file, capsys):
    code, _, err = run_cli(capsys, "seqdes", "--input", data_csv,
                           "--grid", grid_file, "--model", model_file,
                           "--n-init", "5", "--n-target", "12")
    assert code == 2
    assert "response" in stderr_payload(err)["message"]


def test_seqdes_invalid_utility_combination(data_csv, model_file, grid_file, capsys):
    code, _, err = run_cli(
        capsys, "seqdes", "--input", data_csv, "--grid", grid_file,
        "--model", model_file, "--n-init", "5", "--n-target", "12",
        "--features", "x", "--response", "y", "--utility", "Inu",
    )
    assert code == 2  # nu missing
    assert stderr_payload(err)["kind"] == "config"


@pytest.mark.parametrize("option", ["nu", "bias"])
def test_seqdes_option_the_utility_does_not_read_exits_2(tmp_path, data_csv, model_file, grid_file,
                                                         capsys, option):
    bias = tmp_path / "bias.json"
    bias.write_text(json.dumps({"psi": [], "phi": [], "sigma": 1.0, "n_total": 300}))
    value = {"nu": "0.5", "bias": str(bias)}[option]
    code, out, err = run_cli(
        capsys, "seqdes", "--input", data_csv, "--grid", grid_file,
        "--model", model_file, "--n-init", "5", "--n-target", "12",
        "--features", "x", "--response", "y", "--utility", "D", f"--{option}", value,
    )
    assert code == 2
    assert out == ""
    error = stderr_payload(err)
    assert error["type"] == "InvalidInputError"
    assert "only, not by D" in error["message"]


def test_seqdes_bias_length_must_match_model(tmp_path, data_csv, grid_file, capsys):
    model = tmp_path / "model_h.json"
    model.write_text(json.dumps({"f": {"family": "poly", "degree": 1},
                                 "h": {"family": "trig", "kind": "sin"}}))
    bias = tmp_path / "bias.json"
    bias.write_text(json.dumps({"psi": [1.0, 2.0], "phi": [], "sigma": 1.0, "n_total": 300}))
    code, _, err = run_cli(
        capsys, "seqdes", "--input", data_csv, "--grid", grid_file,
        "--model", str(model), "--n-init", "5", "--n-target", "12",
        "--features", "x", "--response", "y", "--family", "linear",
        "--utility", "traceR", "--bias", str(bias),
    )
    assert code == 2  # two psi for one h term
    error = stderr_payload(err)
    assert error["type"] == "InvalidInputError"
    assert "psi" in error["message"]


def test_seqdes_model_dimension_must_match_the_features(tmp_path, model_file, capsys):
    # a dim-1 f basis on two feature columns is an error, not a model of the
    # first column alone
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 2))
    rows = ["x1,x2,y"] + [f"{a!r},{b!r},{a + b!r}" for a, b in x.tolist()]
    data = tmp_path / "two.csv"
    data.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(
        capsys, "seqdes", "--input", str(data), "--model", model_file,
        "--n-init", "5", "--n-target", "8", "--response", "y", "--family", "linear",
    )
    assert code == 2
    error = stderr_payload(err)
    assert error["type"] == "InvalidInputError"
    assert "dimension 1, got 2" in error["message"]


# ---------------------------------------------------------------------------
# robust


def test_robust_end_to_end(tmp_path, model_file, grid_file, capsys):
    out = tmp_path / "robust.json"
    code, _, _ = run_cli(capsys, "robust", "--grid", grid_file,
                         "--model", model_file, "--nu", "0.5",
                         "--iters", "30", "--seed", "4", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    w = np.asarray(payload["measure"]["weights"], dtype=float)
    assert abs(w.sum() - 1.0) < 1e-12
    assert np.all(w >= 0.0)
    assert len(payload["trajectory"]["steps"]) == 30
    assert payload["resolved_config"]["n_init"] == 3  # p + 1 default


def test_robust_defaults_are_kept(model_file, grid_file, capsys):
    code, stdout, _ = run_cli(capsys, "robust", "--grid", grid_file, "--model", model_file,
                              "--nu", "0.5", "--iters", "5")
    assert code == 0
    assert_same_config(json.loads(stdout)["resolved_config"], {
        "grid": grid_file, "model": model_file, "nu": 0.5, "iters": 5, "n_init": 3,
        "seed": 0, "stop": "n_reached", "stop_epsilon": 0.0, "window": 25,
        "full_rows": False, "out": None, "trace_csv": None,
    })


def test_robust_rejects_endpoint_nu(model_file, grid_file, capsys):
    code, _, err = run_cli(capsys, "robust", "--grid", grid_file,
                           "--model", model_file, "--nu", "0.0", "--iters", "5")
    assert code == 2
    assert stderr_payload(err)["kind"] == "config"


def test_robust_on_a_points_grid_with_a_confounder_column(tmp_path, capsys):
    pts = [[x, z] for x in np.linspace(-1.0, 1.0, 5) for z in (-1.0, 1.0)]
    grid = tmp_path / "points.json"
    grid.write_text(json.dumps({"points": pts, "names": ["x", "z"], "z_dim": 1}))
    model = {"f": {"family": "poly", "degree": 1}, "g": {"family": "poly", "degree": 1, "intercept": False}}
    model_path = tmp_path / "model_xz.json"
    model_path.write_text(json.dumps(model))
    argv = ["robust", "--grid", str(grid), "--model", str(model_path), "--nu", "0.5", "--iters", "20",
            "--seed", "1", "--full-rows"]
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    measure = json.loads(stdout)["measure"]
    ctx = RobustContext.from_grid(model_spec_from_config(model), CandidateGrid(pts, names=("x", "z"), z_dim=1),
                                  0.5, full_rows=True)
    want, _ = run_wiens(ctx, n_init=4, n_target=24, seed=1)
    assert measure == json.loads(json_text(want.to_json_dict()))
    assert measure["z_points"] == [[z] for _, z in pts]
    # one name per column, as the constructor checks
    grid.write_text(json.dumps({"points": pts, "names": ["x"], "z_dim": 1}))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert stderr_payload(err)["type"] == "ConfigError"


@pytest.fixture
def f_equals_h_model(tmp_path):
    # f = h = (1, x): its full rows (1, x, 1, x) have rank 2, not 4, on any grid
    path = tmp_path / "model_fh.json"
    line = {"family": "poly", "degree": 1}
    path.write_text(json.dumps({"f": line, "h": line}))
    return str(path)


def assert_rank_deficient_exit(code: int, out: str, err: str) -> None:
    assert code == 2
    assert out == ""
    error = stderr_payload(err)
    assert error["type"] == "InvalidInputError"
    assert "rank 2" in error["message"]


def test_robust_full_rows_of_rank_below_p_exits_2(f_equals_h_model, grid_file, capsys):
    code, out, err = run_cli(capsys, "robust", "--grid", grid_file, "--model", f_equals_h_model,
                             "--nu", "0.5", "--iters", "5", "--full-rows")
    assert_rank_deficient_exit(code, out, err)


@pytest.mark.parametrize("utility", ["Dnu", "Inu"])
def test_seqdes_robust_utility_on_grid_rows_of_rank_below_p_exits_2(tmp_path, data_csv, grid_file,
                                                                      f_equals_h_model, capsys, utility):
    common = ["seqdes", "--input", data_csv, "--n-init", "5", "--n-target", "12", "--response", "y",
              "--family", "linear", "--utility", utility, "--nu", "0.5"]
    # the model's own rows have rank 2 of 4 on data and grid alike
    code, out, err = run_cli(capsys, *common, "--features", "x", "--grid", grid_file,
                             "--model", f_equals_h_model)
    assert_rank_deficient_exit(code, out, err)
    # full-rank data rows, but the grid holds z at one level: its rows (1, x, z) have rank 2
    grid = tmp_path / "flat_z.json"
    grid.write_text(json.dumps({"axes": {"x": list(np.linspace(0, 4, 11)), "z": [0.0]}}))
    model = tmp_path / "model_xz.json"
    model.write_text(json.dumps({"f": {"family": "poly", "degree": 1, "dim": 2}}))
    code, out, err = run_cli(capsys, *common, "--features", "x,z", "--grid", str(grid),
                             "--model", str(model))
    assert_rank_deficient_exit(code, out, err)


# ---------------------------------------------------------------------------
# criteria and check-get


def test_criteria_named_values(tmp_path, model_file, grid_file, design_file, capsys):
    code, stdout, _ = run_cli(
        capsys, "criteria", "--model", model_file, "--design", design_file,
        "--grid", grid_file, "--nu", "0.5", "--names", "D,A,I,Inu,Dnu",
    )
    assert code == 0
    payload = json.loads(stdout)
    by_name = {rec["name"]: rec for rec in payload["criteria"]}
    assert set(by_name) == {"D", "A", "I", "Inu", "Dnu"}
    assert by_name["D"]["value"] == pytest.approx(0.0)
    assert by_name["A"]["value"] == pytest.approx(2.0)
    assert by_name["I"]["value"] == pytest.approx(28.7)


def test_criteria_defaults_are_kept(model_file, design_file, capsys):
    code, stdout, _ = run_cli(capsys, "criteria", "--model", model_file,
                              "--design", design_file, "--names", "D")
    assert code == 0
    assert_same_config(json.loads(stdout)["resolved_config"], {
        "model": model_file, "design": design_file, "names": ["D"], "grid": None,
        "nu": None, "bias": None, "out": None,
    })


def test_check_get_defaults_are_kept(model_file, grid_file, design_file, capsys):
    code, stdout, _ = run_cli(capsys, "check-get", "--model", model_file,
                              "--design", design_file, "--grid", grid_file)
    assert code == 0
    assert_same_config(json.loads(stdout)["resolved_config"], {
        "model": model_file, "design": design_file, "grid": grid_file, "k_eff": None,
        "tol": 1e-6, "out": None,
    })


def test_criteria_bias_names_need_bias_file(model_file, design_file, capsys):
    for name in ("traceR", "detR_bias", "detR_conf"):
        code, _, err = run_cli(capsys, "criteria", "--model", model_file,
                               "--design", design_file, "--names", name)
        assert code == 2
        assert stderr_payload(err)["message"] == f"criterion {name} needs --bias"


@pytest.fixture
def confounder_model_file(tmp_path):
    # f = (1, x) and g = (1, z): two confounder terms
    path = tmp_path / "model_g.json"
    path.write_text(json.dumps({"f": {"family": "poly", "degree": 1}, "g": {"family": "poly", "degree": 1}}))
    return str(path)


def test_criteria_dnu_with_a_design_lacking_the_grid_z_exits_2(tmp_path, confounder_model_file,
                                                                design_file, capsys):
    grid = tmp_path / "grid_xz.json"
    grid.write_text(json.dumps({"axes": {"x": [-1.0, 0.0, 1.0], "z": [-1.0, 1.0]}, "z_axes": ["z"]}))
    code, out, err = run_cli(capsys, "criteria", "--model", confounder_model_file, "--design", design_file,
                             "--grid", str(grid), "--nu", "0.5", "--names", "Dnu")
    assert (code, out) == (2, "")
    assert stderr_payload(err)["message"] == "design and grid dimensions differ"


def test_criteria_trace_r_with_a_phi_of_the_wrong_length_exits_2(tmp_path, confounder_model_file, capsys):
    design = tmp_path / "design_z.json"
    design.write_text(json.dumps({"points": [[-1.0], [0.0], [1.0]], "z_points": [[-1.0], [1.0], [0.0]],
                                  "weights": [0.25, 0.5, 0.25]}))
    bias = tmp_path / "bias.json"
    bias.write_text(json.dumps({"phi": [0.5], "sigma": 1.0, "n_total": 100}))
    code, out, err = run_cli(capsys, "criteria", "--model", confounder_model_file, "--design", str(design),
                             "--names", "traceR", "--bias", str(bias))
    assert (code, out) == (2, "")
    assert stderr_payload(err)["message"] == "phi has length 1 but the model has q = 2"


def test_criteria_numerical_failure_exits_3(tmp_path, model_file, capsys):
    design = tmp_path / "singular.json"
    design.write_text(json.dumps({"points": [[0.5]], "weights": [1.0]}))
    code, _, err = run_cli(capsys, "criteria", "--model", model_file,
                           "--design", str(design), "--names", "A")
    assert code == 3
    payload = stderr_payload(err)
    assert payload["kind"] == "numerical"
    assert payload["type"] == "SingularMatrixError"


def test_criteria_d_on_a_singular_design_writes_null(tmp_path, model_file, capsys):
    # log det of a one-point design for a line is -inf: written as null, not as -Infinity
    design = tmp_path / "singular.json"
    design.write_text(json.dumps({"points": [[0.5]], "weights": [1.0]}))
    code, out, _ = run_cli(capsys, "criteria", "--model", model_file, "--design", str(design), "--names", "D")
    assert code == 0
    (record,) = json.loads(out, parse_constant=no_constant)["criteria"]
    assert (record["value"], record["meta"]["singular"]) == (None, True)


def test_seqdes_robust_start_on_one_grid_cell_exits_3(tmp_path, capsys):
    # every one of the 10 initial example-2 rows lies nearest the centre cell
    # of a 9 x 9 grid over [-40, 40]^2, so R of the 4-term model is singular
    data, grid, model, out = (tmp_path / name for name in ("ex2.csv", "grid.json", "model.json", "sel.json"))
    write_csv(simulate_example2(2000, seed=3), data)
    levels = np.linspace(-40.0, 40.0, 9).tolist()
    grid.write_text(json.dumps({"axes": {"x": levels, "z": levels}, "z_axes": ["z"]}))
    model.write_text(json.dumps({"f": {"family": "poly", "degree": 2},
                                 "g": {"family": "poly", "degree": 1, "intercept": False, "scale": 1.0 / 9.0}}))
    code, stdout, err = run_cli(capsys, "seqdes", "--input", str(data), "--grid", str(grid), "--model", str(model),
                                "--response", "y", "--features", "x", "--confounders", "z", "--utility", "Dnu",
                                "--nu", "0.5", "--family", "linear", "--seed", "3", "--n-init", "10",
                                "--n-target", "16", "--out", str(out))
    assert (code, stdout) == (3, "") and not out.exists()
    error = stderr_payload(err)
    assert error["type"] == "SingularMatrixError"
    assert error["message"].startswith("weighted gram matrix R on 1 grid point, p = 4, is singular")


def test_seqdes_singular_initial_fit_exits_3(tmp_path, capsys):
    # two copies of one column: the initial fit stays singular up to --n-target
    x = np.linspace(-1.0, 1.0, 40).tolist()
    data = tmp_path / "twin.csv"
    data.write_text("a,b,y\n" + "".join(f"{v!r},{v!r},{1.0 + 2.0 * v!r}\n" for v in x))
    code, out, err = run_cli(capsys, "seqdes", "--input", str(data), "--response", "y",
                             "--family", "linear", "--n-init", "4", "--n-target", "10")
    assert (code, out) == (3, "")
    error = stderr_payload(err)
    assert (error["kind"], error["type"]) == ("numerical", "SingularMatrixError")


def test_check_get_verdicts(tmp_path, model_file, grid_file, design_file, capsys):
    code, stdout, _ = run_cli(capsys, "check-get", "--model", model_file,
                              "--design", design_file, "--grid", grid_file)
    assert code == 0
    verdict = json.loads(stdout)["verdict"]
    assert verdict["is_optimal"] is True
    assert verdict["max_variance"] == pytest.approx(2.0)
    interior = tmp_path / "interior.json"
    interior.write_text(json.dumps({"points": [[-0.5], [0.5]], "weights": [0.5, 0.5]}))
    code, stdout, _ = run_cli(capsys, "check-get", "--model", model_file,
                              "--design", str(interior), "--grid", grid_file)
    assert code == 0
    verdict = json.loads(stdout)["verdict"]
    assert verdict["is_optimal"] is False
    assert verdict["max_variance"] == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# repro


def test_repro_example2_small_scale(tmp_path, capsys):
    out_dir = tmp_path / "repro2"
    code, stdout, _ = run_cli(
        capsys, "repro", "2", "--out-dir", str(out_dir),
        "--n-points", "60", "--n-design", "8", "--n-init", "4",
        "--grid-levels", "50",
    )
    assert code == 0
    assert json.loads(stdout)["command"] == "repro"
    assert (out_dir / "resolved_config.json").exists()
    listed = sorted(p.name for p in out_dir.iterdir())
    assert "resolved_config.json" in listed
    assert len(listed) > 1


def record_repro_calls(monkeypatch, example: str) -> list:
    """Replace repro_example<example> by a stub; the list gets its arguments, defaults filled in."""
    real = getattr(repro_mod, f"repro_example{example}")
    calls = []

    @functools.wraps(real)
    def stub(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(dict(bound.arguments))
        os.makedirs(bound.arguments["out_dir"], exist_ok=True)
        return {"example": int(example)}

    monkeypatch.setattr(repro_mod, f"repro_example{example}", stub)
    return calls


@pytest.mark.parametrize("example, want", [
    ("1", {"seed": 0, "n_data": 100_000, "n_init": 5000, "n_target": 6200,
           "n_test": 10_010, "threshold": 0.5}),
    ("2", {"seed": 0, "n_points": 105, "n_design": 12, "n_init": 6, "grid_levels": 200}),
    ("3", {"seed": 0, "n_design": 12, "n_init": 6, "nu": 0.5, "robust_iters": 2000,
           "grid_levels": 100}),
])
def test_repro_defaults_are_kept(tmp_path, monkeypatch, capsys, example, want):
    calls = record_repro_calls(monkeypatch, example)
    out_dir = str(tmp_path / "out")
    code, _, _ = run_cli(capsys, "repro", example, "--out-dir", out_dir)
    assert code == 0
    assert len(calls) == 1
    assert_same_config(calls[0], {"out_dir": out_dir, **want})


def test_repro_takes_flags_over_config(tmp_path, monkeypatch, capsys):
    calls = record_repro_calls(monkeypatch, "3")
    out_dir = str(tmp_path / "out")
    code, _, err = run_with_config(capsys, tmp_path, {"nu": 0.25, "robust_iters": 50, "seed": 7},
                                   "repro", "3", "--out-dir", out_dir, "--robust-iters", "40")
    assert code == 0, err
    assert_same_config(calls[0], {"out_dir": out_dir, "seed": 7, "n_design": 12, "n_init": 6,
                                  "nu": 0.25, "robust_iters": 40, "grid_levels": 100})


@pytest.mark.parametrize("example, argv, cfg, named", [
    ("2", ["--nu", "0.3", "--threshold", "9", "--n-data", "5"], {}, "--n-data, --nu, --threshold"),
    ("1", [], {"robust_iters": 10}, "--robust-iters"),
], ids=["flags", "config"])
def test_repro_rejects_options_its_example_does_not_take(tmp_path, monkeypatch, capsys,
                                                         example, argv, cfg, named):
    calls = record_repro_calls(monkeypatch, example)
    code, _, err = run_with_config(capsys, tmp_path, cfg, "repro", example,
                                   "--out-dir", str(tmp_path / "out"), *argv)
    assert code == 2
    assert stderr_payload(err)["message"] == f"repro {example} does not take {named}"
    assert calls == []


def test_repro_requires_out_dir(capsys):
    code, _, err = run_cli(capsys, "repro", "2")
    assert code == 2
    assert "out-dir" in stderr_payload(err)["message"].replace("_", "-")


# ---------------------------------------------------------------------------
# strict JSON


STRICT_MODEL = {
    "f": {"family": "poly", "degree": 1},
    "h": {"family": "trig", "kind": "sin"},
    "g": {"family": "poly", "degree": 1, "intercept": False},
}
STRICT_SEQDES = {
    "D": [], "A": [], "traceR": ["--bias", "bias.json"],
    "Inu": ["--nu", "0.5"], "Dnu": ["--nu", "0.5"],
}


@pytest.mark.parametrize("argv", [
    pytest.param(["iboss", "--input", "data.csv", "--response", "y", "--n", "20", "--out", "iboss.json",
                  "--perm-report", "perm.json"], id="iboss"),
    *(pytest.param(["seqdes", "--input", "data.csv", "--grid", "grid.json", "--model", "model.json",
                    "--features", "x", "--confounders", "z", "--response", "y", "--family", "linear",
                    "--n-init", "8", "--n-target", "14", "--utility", utility, *extra, "--out", "seqdes.json"],
                   id=f"seqdes-{utility}") for utility, extra in STRICT_SEQDES.items()),
    pytest.param(["robust", "--grid", "grid.json", "--model", "model.json", "--nu", "0.5", "--iters", "30",
                  "--out", "robust.json"], id="robust"),
    pytest.param(["repro", "1", "--out-dir", "out", "--n-data", "10000", "--n-init", "600", "--n-target", "650",
                  "--n-test", "1000"], id="repro-1"),
    pytest.param(["repro", "2", "--out-dir", "out", "--n-points", "60", "--n-design", "8", "--n-init", "4",
                  "--grid-levels", "50"], id="repro-2"),
    pytest.param(["repro", "3", "--out-dir", "out", "--robust-iters", "30", "--grid-levels", "20"], id="repro-3"),
])
def test_every_json_file_a_command_writes_is_strict_json(tmp_path, monkeypatch, capsys, argv):
    # JSON has no NaN or Infinity: json.loads reads them only through parse_constant
    monkeypatch.chdir(tmp_path)
    write_csv(simulate_example2(300, seed=5), "data.csv")
    Path("model.json").write_text(json.dumps(STRICT_MODEL))
    Path("grid.json").write_text(json.dumps({"axes": {"x": np.linspace(-1.0, 5.0, 13).tolist(),
                                                      "z": np.linspace(-2.5, 2.5, 5).tolist()},
                                             "z_axes": ["z"]}))
    Path("bias.json").write_text(json.dumps({"psi": [0.8], "phi": [-0.5], "sigma": 0.5, "n_total": 300}))
    inputs = set(tmp_path.iterdir())
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    written = sorted(set(tmp_path.rglob("*.json")) - inputs)
    assert written
    for path in written:
        json.loads(path.read_text(), parse_constant=no_constant)
    if out:
        json.loads(out, parse_constant=no_constant)


# ---------------------------------------------------------------------------
# console entry point


def _project_scripts(pyproject):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: tomllib arrived in 3.11
        tomllib = pytest.importorskip("tomli")
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def test_installed_script_runs(tmp_path):
    # Run the `subsel` entry of [project.scripts] through the launcher an
    # installer writes for it, against this checkout's sources, so neither an
    # install nor PATH is involved.
    src = Path(subsel.__file__).resolve().parents[1]
    module, _, attr = _project_scripts(src.parent / "pyproject.toml")["subsel"].partition(":")
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    def run_script(*argv):
        return subprocess.run(
            [sys.executable, "-c", launcher, *argv],
            capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
        )

    out = tmp_path / "cli.csv"
    proc = run_script("simulate", "example2", "--n", "10", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["n_rows"] == 10
    assert out.exists()

    # main's return code must become the process exit status
    proc = run_script("simulate", "example2", "--n", "10")
    assert proc.returncode == 2, proc.stderr
    assert stderr_payload(proc.stderr)["kind"] == "config"
