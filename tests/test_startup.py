"""What importing the package and the command-line module costs."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import subsel


def _probe(code: str, cwd=None) -> subprocess.CompletedProcess:
    # a fresh interpreter that imports this checkout's sources
    src = Path(subsel.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env, cwd=cwd, check=True)


def test_package_import_loads_nothing():
    # the package exports nothing, so importing it pulls in neither numpy
    # nor any of its own modules
    out = _probe("import sys, subsel; "
                 "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith(('numpy.', 'subsel.'))))")
    assert out.stdout.strip() == "[]"


def test_cli_import_does_not_load_scipy():
    # scipy is most of the CLI's start-up time; only the simulators' intercept
    # solver needs it, and that imports it when called
    out = _probe("import sys, subsel.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.stdout.strip() == "[]"


def test_cli_import_does_not_load_orjson():
    # orjson's import takes milliseconds (it loads uuid and zoneinfo); only the CSV block reader needs it
    out = _probe("import sys, subsel.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'orjson'))")
    assert out.stdout.strip() == "[]"


def test_iboss_job_does_not_load_numpy_ma(tmp_path):
    # the distinct-index checks sort and compare neighbours; np.unique would
    # import numpy.ma (about 15 ms) inside every job
    rng = np.random.default_rng(0)
    rows = ["x1,x2,y"] + [f"{a!r},{b!r},{int(b > 0)}" for a, b in rng.normal(size=(30, 2)).tolist()]
    (tmp_path / "d.csv").write_text("\n".join(rows) + "\n")
    out = _probe("import sys; from subsel.cli import main; "
                 "code = main(['iboss', '--input', 'd.csv', '--n', '8', '--response', 'y', '--out', 'o.json']); "
                 "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)", cwd=tmp_path)
    assert out.stderr.strip().splitlines()[-1] == "0 False"
    assert (tmp_path / "o.json").exists()


def test_stratified_logistic_seqdes_job_does_not_load_numpy_ma(tmp_path):
    # the stratified start takes its bin edges from a sort, not np.quantile,
    # and its fallback fill from a mask, not np.setdiff1d: both would import
    # numpy.ma (through np.unique) inside every job
    rng = np.random.default_rng(1)
    x = rng.normal(size=(400, 2))
    y = (rng.uniform(size=400) < 1.0 / (1.0 + np.exp(2.0 - x[:, 0]))).astype(int)
    rows = ["x1,x2,y"] + [f"{a!r},{b!r},{int(c)}" for (a, b), c in zip(x.tolist(), y)]
    (tmp_path / "d.csv").write_text("\n".join(rows) + "\n")
    out = _probe("import sys; from subsel.cli import main; "
                 "code = main(['seqdes', '--input', 'd.csv', '--response', 'y', '--family', 'logistic', "
                 "'--init', 'stratified', '--init-column', 'x1', '--init-quantiles', '4', "
                 "'--n-init', '60', '--n-target', '70', '--seed', '3', '--out', 'o.json']); "
                 "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)", cwd=tmp_path)
    assert out.stderr.strip().splitlines()[-1] == "0 False"
    assert (tmp_path / "o.json").exists()
