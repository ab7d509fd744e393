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
  basis terms are covered; `repro` uses degree-1 bases only.

Every command runs in a scratch directory with relative paths, so the
resolved configuration echoed in the outputs does not depend on where the
test runs.  The hashes depend on the floating-point results of numpy and
its BLAS; `sha256.json` names the versions they were recorded with.

To record the files again after an intended change of behaviour, run
`PYTHONPATH=src python tests/test_golden.py` and say in the change's notes
which files changed and why.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from subsel.cli import main

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

SEQDES_GRID = {
    "axes": {"x": [float(v) for v in np.linspace(-1.0, 5.0, 31)],
             "z": [float(v) for v in np.linspace(-2.5, 2.5, 11)]},
    "z_axes": ["z"],
}


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
    finally:
        os.chdir(here)

    hashed = sorted(p for p in work.glob("repro*/*") if p.is_file())
    hashed += [work / name for name in ("loans.csv", "perm.json", "curve.csv", "seqdes_trace.csv")]
    hashes = {p.relative_to(work).as_posix(): _sha256(p) for p in hashed}
    stored = {name: (work / name).read_bytes() for name in ("iboss.json", "seqdes.json")}
    return hashes, stored


def _recorded_hashes() -> dict[str, str]:
    return json.loads((GOLDEN / "sha256.json").read_text())["sha256"]


def test_golden_outputs_unchanged(tmp_path):
    hashes, stored = produce(tmp_path)
    for name, data in stored.items():
        want = (GOLDEN / name).read_bytes()
        if data != want:
            # parsed comparison first, for a readable diff
            assert json.loads(data) == json.loads(want), name
            assert data == want, f"{name}: same values, different bytes"
    recorded = _recorded_hashes()
    assert sorted(hashes) == sorted(recorded), "the set of golden artifacts changed"
    changed = sorted(name for name in recorded if hashes[name] != recorded[name])
    assert not changed, f"artifacts differ from the recorded golden hashes: {changed}"


def bless() -> None:
    """Record the golden files from the current code."""
    import scipy

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        hashes, stored = produce(Path(tmp))
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
    bless()
