"""Golden behaviour: recorded outputs that a refactor must reproduce byte for byte.

Criterion 12 only compares two runs of the same code, so it cannot tell
whether a change to the program left its behaviour alone.  This test can:
`tests/golden/` holds

- `sha256.json`: the sha256 of every artifact `subsel repro 1|2|3` writes at
  criterion 12's sizes, of the simulated CSVs, of the seqdes trace CSV and
  of the iboss permutation report;
- `iboss.json` and `seqdes.json`: the exact `--out` files of `subsel iboss`
  and `subsel seqdes` on small seeded simulated CSVs.  The seqdes model has
  a degree-3 polynomial f, a trig h and a trig g, so the power and trig
  basis terms are covered; `repro` uses degree-1 bases only;
- `seqdes_traceR.json`: the `--out` file of `subsel seqdes --utility traceR`
  on the same model and data, with non-zero psi and phi in its bias file;
- `seqdes_dnu_grid.json`: the `--out` file of `subsel seqdes --utility Dnu
  --nu 0.5` at the size of the benchmark's robust sequential case: 20000
  simulated example2 rows, a 50 x 50 (x, z) grid, f = (1, x, x^2) and
  g = z/9, 10 -> 60 rows.  It covers the pruned Dnu scoring and the
  nearest-row transfer at that size;
- `seqdes_A.json` and `seqdes_Inu.json`: the `--out` files of `subsel seqdes
  --utility A --batch 3` and `subsel seqdes --utility Inu --nu 0.5 --distance
  scaled` on the same model and data, which cover the A and Inu utilities,
  a batch above 1 and the scaled matching distance;
- `robust.json` and `robust_trace.csv`: the exact `--out` and `--trace-csv`
  files of `subsel robust` on the seqdes model and its (x, z) grid, whose
  trajectory records every step's support size and weights hash while the
  support grows from 6 to 71 points;
- `robust_gain.json`: the `--out` file of `subsel robust` on the same model
  and grid stopped by `--stop dnu_gain_below`, which pins the step at which
  the relative Dnu gain over the trailing window first falls below epsilon;
- `criteria.json` and `check_get.json`: the `--out` files of `subsel
  criteria` (all eight criterion names) and `subsel check-get` for a
  ten-point design on that grid, with the seqdes model and bias file, which
  pin the resolved configuration those two commands echo;
- `seqdes_logistic.json`: the selection of a logistic `subsel seqdes` run
  (D utility, stratified initial sample on 20000 simulated loan rows,
  2000 -> 2100), with each step's grid index and `newton_iters`, `converged`
  and `warm`.  Its coefficients are not stored: they may move by ulps when
  a refit's sums are reordered, and the selection must not;
- `repro1_paper.json`: the `indices_sha256` of each of the three selections
  of `subsel repro 1` at its paper-scale defaults (100000 rows, 5000 ->
  6200).

Every command runs in a scratch directory with relative paths, so the
resolved configuration echoed in the outputs does not depend on where the
test runs.  The hashes depend on the floating-point results of numpy and
its BLAS; `sha256.json` names the versions they were recorded with.

To record the files again after an intended change of behaviour, run
`PYTHONPATH=src python tests/test_golden.py [--against REV]` and say in the
change's notes which files changed and why.  Before it overwrites anything
it prints which golden files change, and for every stored file and every
hashed JSON or CSV artifact whose hash changes whether the indices are
identical and the largest relative difference of any float, which is the
record a change that moves floats but keeps the indices must give.  The
hashed artifacts are compared with the ones the checkout at git revision
REV (default HEAD, the parent of uncommitted work) produces.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np
import pytest

from subsel.cli import main
from subsel.ingest_sim import default_analogue_grid

GOLDEN = Path(__file__).resolve().parent / "golden"

REPRO_RUNS = {
    "1": ["--n-data", "20000", "--n-init", "1200", "--n-target", "1600", "--n-test", "4000"],
    "2": [],
    "3": ["--robust-iters", "800"],
}

SEQDES_MODEL = {
    "f": {"family": "poly", "degree": 3, "scale": 0.5},
    "h": {"family": "trig", "kind": "sin", "coeffs": [0.7, -0.3, 0.1], "amplitude": 0.35},
    "g": {"family": "trig", "kind": "cos", "coeffs": [0.0, 1.0 / 9.0, 0.25]},
}

SEQDES_BIAS = {"psi": [0.8], "phi": [-0.5], "sigma": 0.5, "n_total": 400}

SEQDES_GRID = {
    "axes": {"x": [float(v) for v in np.linspace(-1.0, 5.0, 31)],
             "z": [float(v) for v in np.linspace(-2.5, 2.5, 11)]},
    "z_axes": ["z"],
}

# the benchmark's robust sequential case at a fixed grid and seed
DNU_GRID_MODEL = {"f": {"family": "poly", "degree": 2},
                  "g": {"family": "poly", "degree": 1, "intercept": False, "scale": 1.0 / 9.0}}
DNU_GRID = {
    "axes": {"x": [float(v) for v in np.linspace(0.0, 4.0, 50)],
             "z": [float(v) for v in np.linspace(-2.0, 2.0, 50)]},
    "z_axes": ["z"],
}

# ten (x, z) points of SEQDES_GRID with unequal weights
GRID_DESIGN = {
    "points": [[SEQDES_GRID["axes"]["x"][i]] for i in (0, 3, 7, 10, 14, 17, 21, 24, 28, 30)],
    "z_points": [[SEQDES_GRID["axes"]["z"][j]] for j in (0, 10, 5, 2, 8, 1, 9, 4, 6, 3)],
    "weights": [0.15, 0.05, 0.1, 0.1, 0.05, 0.15, 0.1, 0.1, 0.05, 0.15],
}


STORED = ("iboss.json", "seqdes.json", "seqdes_traceR.json", "seqdes_A.json", "seqdes_Inu.json",
          "seqdes_dnu_grid.json",
          "robust.json", "robust_trace.csv",
          "robust_gain.json", "criteria.json", "check_get.json", "seqdes_logistic.json", "repro1_paper.json")


def _analogue_grid() -> dict:
    grid = default_analogue_grid()
    return {"axes": {name: [float(v) for v in levels] for name, levels in zip(grid.names, grid.axes)}}


def _write_json(path: str, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _cli(*argv: str) -> None:
    code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"subsel {' '.join(argv)} exited {code}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def produce(work: Path) -> tuple[dict[str, str], dict[str, bytes]]:
    """Run every golden command inside `work`.

    Returns the sha256 of each hashed artifact, keyed by its path relative
    to `work`, and the bytes of the stored output files, keyed by file name.
    """
    here = os.getcwd()
    os.chdir(work)
    try:
        for example, extra in REPRO_RUNS.items():
            _cli("repro", example, "--out-dir", f"repro{example}", "--seed", "0", *extra)

        _cli("simulate", "mortgage", "--n", "3000", "--seed", "11", "--out", "loans.csv")
        _cli("iboss", "--input", "loans.csv", "--n", "120", "--response", "default",
             "--out", "iboss.json", "--perm-report", "perm.json")

        _cli("simulate", "example2", "--n", "400", "--seed", "5", "--out", "curve.csv")
        Path("model.json").write_text(json.dumps(SEQDES_MODEL))
        Path("grid.json").write_text(json.dumps(SEQDES_GRID))
        _cli("seqdes", "--input", "curve.csv", "--grid", "grid.json", "--model", "model.json",
             "--features", "x", "--confounders", "z", "--response", "y",
             "--utility", "Dnu", "--nu", "0.5", "--family", "linear", "--seed", "3",
             "--n-init", "12", "--n-target", "40",
             "--out", "seqdes.json", "--trace-csv", "seqdes_trace.csv")
        Path("bias.json").write_text(json.dumps(SEQDES_BIAS))
        _cli("seqdes", "--input", "curve.csv", "--grid", "grid.json", "--model", "model.json",
             "--features", "x", "--confounders", "z", "--response", "y",
             "--utility", "traceR", "--bias", "bias.json", "--family", "linear", "--seed", "3",
             "--n-init", "12", "--n-target", "40", "--out", "seqdes_traceR.json")
        _cli("seqdes", "--input", "curve.csv", "--grid", "grid.json", "--model", "model.json",
             "--features", "x", "--confounders", "z", "--response", "y",
             "--utility", "A", "--batch", "3", "--family", "linear", "--seed", "3",
             "--n-init", "12", "--n-target", "40", "--out", "seqdes_A.json")
        _cli("seqdes", "--input", "curve.csv", "--grid", "grid.json", "--model", "model.json",
             "--features", "x", "--confounders", "z", "--response", "y",
             "--utility", "Inu", "--nu", "0.5", "--distance", "scaled", "--family", "linear", "--seed", "3",
             "--n-init", "12", "--n-target", "40", "--out", "seqdes_Inu.json")
        _cli("simulate", "example2", "--n", "20000", "--seed", "21", "--out", "curve20k.csv")
        Path("dnu_model.json").write_text(json.dumps(DNU_GRID_MODEL))
        Path("dnu_grid.json").write_text(json.dumps(DNU_GRID))
        _cli("seqdes", "--input", "curve20k.csv", "--grid", "dnu_grid.json", "--model", "dnu_model.json",
             "--features", "x", "--confounders", "z", "--response", "y",
             "--utility", "Dnu", "--nu", "0.5", "--family", "linear", "--seed", "21",
             "--n-init", "10", "--n-target", "60", "--out", "seqdes_dnu_grid.json")
        _cli("robust", "--grid", "grid.json", "--model", "model.json", "--nu", "0.5",
             "--iters", "300", "--seed", "4", "--out", "robust.json", "--trace-csv", "robust_trace.csv")
        _cli("robust", "--grid", "grid.json", "--model", "model.json", "--nu", "0.5", "--iters", "300",
             "--seed", "9", "--stop", "dnu_gain_below", "--stop-epsilon", "1e-3", "--window", "20",
             "--out", "robust_gain.json")
        Path("design.json").write_text(json.dumps(GRID_DESIGN))
        _cli("criteria", "--model", "model.json", "--design", "design.json", "--grid", "grid.json",
             "--nu", "0.5", "--bias", "bias.json",
             "--names", "D,A,I,Inu,Dnu,traceR,detR_bias,detR_conf", "--out", "criteria.json")
        _cli("check-get", "--model", "model.json", "--design", "design.json", "--grid", "grid.json",
             "--out", "check_get.json")

        _cli("simulate", "mortgage", "--n", "20000", "--seed", "13", "--out", "loans20k.csv")
        _write_json("analogue_grid.json", _analogue_grid())
        _cli("seqdes", "--input", "loans20k.csv", "--grid", "analogue_grid.json", "--response", "default",
             "--utility", "D", "--seed", "13", "--init", "stratified", "--init-column", "ccDebt",
             "--init-quantiles", "10", "--n-init", "2000", "--n-target", "2100",
             "--out", "seqdes_logistic_run.json")
        run = json.loads(Path("seqdes_logistic_run.json").read_text())
        keep = ("grid_index", "newton_iters", "converged", "warm")
        _write_json("seqdes_logistic.json", {
            "selection": run["selection"],
            "steps": [{key: step[key] for key in keep} for step in run["trace"]["steps"]],
        })
        _cli("repro", "1", "--out-dir", "paper1", "--seed", "0")
        _write_json("repro1_paper.json", {
            name: json.loads(Path(f"paper1/selection_{name}.json").read_text())["provenance"]["indices_sha256"]
            for name in ("random", "stratified", "doped")
        })
    finally:
        os.chdir(here)

    hashed = sorted(p for p in work.glob("repro*/*") if p.is_file())
    hashed += [work / name for name in ("loans.csv", "perm.json", "curve.csv", "seqdes_trace.csv")]
    hashes = {p.relative_to(work).as_posix(): _sha256(p) for p in hashed}
    stored = {name: (work / name).read_bytes() for name in STORED}
    return hashes, stored


def _recorded_hashes() -> dict[str, str]:
    return json.loads((GOLDEN / "sha256.json").read_text())["sha256"]


def test_golden_outputs_unchanged(tmp_path):
    hashes, stored = produce(tmp_path)
    for name, data in stored.items():
        want = (GOLDEN / name).read_bytes()
        if data != want:
            pytest.fail(f"{name}: {compare_artifact(name, want, data)}")
    recorded = _recorded_hashes()
    assert sorted(hashes) == sorted(recorded), "the set of golden artifacts changed"
    changed = sorted(name for name in recorded if hashes[name] != recorded[name])
    assert not changed, f"artifacts differ from the recorded golden hashes: {changed}"


def _leaves(obj, path=()):
    """(path, value) of every scalar in a parsed JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, path + (i,))
    else:
        yield path, obj


def _field(path) -> str:
    return next((part for part in reversed(path) if isinstance(part, str)), "")


def _sorted_paths(keys) -> list[str]:
    """Leaf paths as text, list indices compared as numbers: steps/11 comes before steps/100."""
    return ["/".join(map(str, k)) for k in sorted(keys, key=lambda k: [(isinstance(p, str), p) for p in k])]


def compare_outputs(old, new) -> str:
    """One line saying how a stored output's parsed JSON `new` differs from `old`.

    Selection indices are the integers under a key ending in `indices`, grid
    indices those under a key ending in `index` (`grid_index`,
    `chosen_index`); each moved index is named by its path, old -> new.  The
    relative difference of two floats is |a - b| / max(|a|, |b|).
    """
    if old == new:
        return "same values, different bytes"
    a, b = dict(_leaves(old)), dict(_leaves(new))
    if a.keys() != b.keys():
        return "changes its structure: " + ", ".join(_sorted_paths(a.keys() ^ b.keys())[:5])
    parts, indices = [], set()
    for label, suffix in (("selection indices", "indices"), ("grid indices", "index")):
        keys = [k for k in a if _field(k).endswith(suffix)]
        indices.update(keys)
        moved = [f"{'/'.join(map(str, k))} {a[k]} -> {b[k]}" for k in keys if a[k] != b[k]]
        if keys:
            parts.append(f"{label} DIFFER ({'; '.join(moved)})" if moved else f"{label} identical")
    worst, where = 0.0, None
    for k in a:
        x, y = a[k], b[k]
        if isinstance(x, float) and isinstance(y, float) and x != y:
            rel = abs(x - y) / max(abs(x), abs(y))
            if rel > worst:
                worst, where = rel, "/".join(map(str, k))
    other = _sorted_paths(k for k in a.keys() - indices
                          if a[k] != b[k] and not (isinstance(a[k], float) and isinstance(b[k], float)))
    if other:
        parts.append("other values differ: " + ", ".join(other[:5]))
    parts.append(f"largest relative float difference {worst:.1e}" + (f" ({where})" if where else ""))
    return "changes: " + ", ".join(parts)


def test_compare_outputs_reports_indices_and_floats():
    old = {"selection": {"indices": [3, 1]}, "trace": {"steps": [{"grid_index": 4, "utility": 2.0}]}}
    new = json.loads(json.dumps(old))
    assert compare_outputs(old, new) == "same values, different bytes"
    new["trace"]["steps"][0]["utility"] = 2.0 + 2.0**-50
    assert compare_outputs(old, new) == (
        "changes: selection indices identical, grid indices identical, "
        "largest relative float difference 4.4e-16 (trace/steps/0/utility)")
    new["selection"]["indices"] = [1, 3]
    assert compare_outputs(old, new).startswith(
        "changes: selection indices DIFFER (selection/indices/0 3 -> 1; selection/indices/1 1 -> 3), "
        "grid indices identical")
    old["trajectory"] = {"steps": [{"chosen_index": 7, "weights_sha256": "a"}, {"chosen_index": 8}]}
    new["trajectory"] = {"steps": [{"chosen_index": 7, "weights_sha256": "b"}, {"chosen_index": 9}]}
    assert compare_outputs(old, new) == (
        "changes: selection indices DIFFER (selection/indices/0 3 -> 1; selection/indices/1 1 -> 3), "
        "grid indices DIFFER (trajectory/steps/1/chosen_index 8 -> 9), "
        "other values differ: trajectory/steps/0/weights_sha256, "
        "largest relative float difference 4.4e-16 (trace/steps/0/utility)")
    assert compare_outputs({"indices": [1]}, {"indices": [1], "det": 1.0}) == "changes its structure: det"
    steps = [{"weights_sha256": "a"} for _ in range(101)]
    moved = json.loads(json.dumps(steps))
    moved[11]["weights_sha256"] = moved[100]["weights_sha256"] = "b"
    assert compare_outputs({"steps": steps}, {"steps": moved}) == (
        "changes: other values differ: steps/11/weights_sha256, steps/100/weights_sha256, "
        "largest relative float difference 0.0e+00")
    assert compare_outputs({"steps": steps[:12]}, {"steps": steps}) == (
        "changes its structure: steps/12/weights_sha256, steps/13/weights_sha256, steps/14/weights_sha256, "
        "steps/15/weights_sha256, steps/16/weights_sha256")


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def compare_csv(old: str, new: str) -> str:
    """One line saying how the CSV text `new` differs from `old`.

    A file that holds the same header and the same data lines in another
    order is named a reorder, with its first moved data rows.  Otherwise
    integer cells (iteration counters, row indices) are compared exactly and
    each moved one is named by (column, row), old -> new; float cells by
    their relative difference, as in `compare_outputs`.
    """
    if old == new:
        return "same bytes"
    lines_a, lines_b = old.splitlines(), new.splitlines()
    if lines_a != lines_b and lines_a[0] == lines_b[0] and sorted(lines_a) == sorted(lines_b):
        moved = [str(i) for i, (x, y) in enumerate(zip(lines_a[1:], lines_b[1:]), start=1) if x != y]
        return f"same rows, reordered ({len(moved)} data rows moved, first: {', '.join(moved[:5])})"
    a = [[_cell(c) for c in line.split(",")] for line in lines_a]
    b = [[_cell(c) for c in line.split(",")] for line in lines_b]
    if a[0] != b[0] or [len(r) for r in a] != [len(r) for r in b]:
        return "changes its structure: header or row lengths"
    header = a[0]
    moved, others, worst, where = [], [], 0.0, None
    for i, (row_a, row_b) in enumerate(zip(a[1:], b[1:]), start=1):
        for col, x, y in zip(header, row_a, row_b):
            if isinstance(x, float) and isinstance(y, float):
                if x != y and abs(x - y) / max(abs(x), abs(y)) > worst:
                    worst, where = abs(x - y) / max(abs(x), abs(y)), f"{col}, row {i}"
            elif isinstance(x, int) and isinstance(y, int):
                if x != y:
                    moved.append(f"{col}, row {i}: {x} -> {y}")
            elif x != y:
                others.append(f"{col}, row {i}")
    parts = [f"integer cells DIFFER ({'; '.join(moved)})" if moved else "integer cells identical"]
    if others:
        parts.append("other values differ: " + "; ".join(others[:5]))
    parts.append(f"largest relative float difference {worst:.1e}" + (f" ({where})" if where else ""))
    return "changes: " + ", ".join(parts)


def test_compare_csv_reports_integers_and_floats():
    old = "iteration,n_selected,theta_0\n0,5,-1.5\n1,6,-1.25\n"
    assert compare_csv(old, old) == "same bytes"
    assert compare_csv(old, old.replace("-1.25", "-1.2500000001")) == (
        "changes: integer cells identical, largest relative float difference 8.0e-11 (theta_0, row 2)")
    assert compare_csv(old, old.replace("1,6", "1,7")).startswith(
        "changes: integer cells DIFFER (n_selected, row 2: 6 -> 7)")
    assert compare_csv(old, old.replace("0,5,-1.5", "0,4,-1.5").replace("1,6", "1,7")) == (
        "changes: integer cells DIFFER (n_selected, row 1: 5 -> 4; n_selected, row 2: 6 -> 7), "
        "largest relative float difference 0.0e+00")
    assert compare_csv(old, old + "2,7,-1.0\n") == "changes its structure: header or row lengths"
    swapped = "iteration,n_selected,theta_0\n1,6,-1.25\n0,5,-1.5\n"
    assert compare_csv(old, swapped) == "same rows, reordered (2 data rows moved, first: 1, 2)"
    assert compare_csv(old + "2,7,-1.0\n", swapped + "2,7,-1.0\n") == (
        "same rows, reordered (2 data rows moved, first: 1, 2)")


def compare_artifact(name: str, old: bytes, new: bytes) -> str:
    """`compare_outputs` for a JSON artifact, `compare_csv` for a CSV one."""
    if name.endswith(".json"):
        return compare_outputs(json.loads(old), json.loads(new))
    return compare_csv(old.decode(), new.decode())


def produce_at(rev: str, work: Path) -> None:
    """Run the golden commands of the checkout at git revision `rev` inside `work`."""
    root = GOLDEN.parent.parent
    archive = subprocess.run(["git", "-C", str(root), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tree:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        paths = [str(Path(tree) / "src"), str(Path(tree) / "tests")]
        code = (f"import sys; sys.path[:0] = {paths!r}; from pathlib import Path; "
                f"import test_golden; test_golden.produce(Path({str(work)!r}))")
        subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)


def bless(against: str = "HEAD") -> None:
    """Record the golden files from the current code, saying first what changes."""
    import scipy

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        hashes, stored = produce(Path(tmp))
        for name, data in stored.items():
            path = GOLDEN / name
            if not path.exists():
                verdict = "is new"
            elif path.read_bytes() == data:
                verdict = "unchanged"
            else:
                verdict = compare_artifact(name, path.read_bytes(), data)
            print(f"{name}: {verdict}")
        recorded = _recorded_hashes() if (GOLDEN / "sha256.json").exists() else {}
        changed = sorted(name for name in hashes.keys() | recorded.keys()
                         if hashes.get(name) != recorded.get(name))
        print(f"sha256.json: {len(changed)} of {len(hashes)} artifact hashes change")
        if changed:
            with tempfile.TemporaryDirectory() as base:
                produce_at(against, Path(base))
                for name in changed:
                    old, new = Path(base) / name, Path(tmp) / name
                    if not old.exists() or not new.exists():
                        verdict = "is new" if new.exists() else "is gone"
                    else:
                        verdict = compare_artifact(name, old.read_bytes(), new.read_bytes())
                    print(f"  {name}: {verdict} (against {against})")
    for name, data in stored.items():
        (GOLDEN / name).write_bytes(data)
    record = {
        "recorded_with": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "sha256": hashes,
    }
    (GOLDEN / "sha256.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Record the golden files from the current code.")
    parser.add_argument("--against", default="HEAD", metavar="REV",
                        help="git revision whose artifacts a changed hash is compared with")
    bless(parser.parse_args().against)
