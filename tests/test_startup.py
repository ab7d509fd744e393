"""What importing the command-line module costs."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import subsel


def test_cli_import_does_not_load_scipy():
    # scipy is most of the CLI's start-up time; only the simulators' intercept
    # solver needs it, and that imports it when called
    src = Path(subsel.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = "import sys, subsel.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         timeout=120, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_iboss_job_does_not_load_numpy_ma(tmp_path):
    # the distinct-index checks sort and compare neighbours; np.unique would
    # import numpy.ma (about 15 ms) inside every job
    rng = np.random.default_rng(0)
    rows = ["x1,x2,y"] + [f"{a!r},{b!r},{int(b > 0)}" for a, b in rng.normal(size=(30, 2)).tolist()]
    (tmp_path / "d.csv").write_text("\n".join(rows) + "\n")
    src = Path(subsel.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = ("import sys; from subsel.cli import main; "
             "code = main(['iboss', '--input', 'd.csv', '--n', '8', '--response', 'y', '--out', 'o.json']); "
             "print(code, 'numpy.ma' in sys.modules, file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         timeout=120, env=env, cwd=tmp_path, check=True)
    assert out.stderr.strip().splitlines()[-1] == "0 False"
    assert (tmp_path / "o.json").exists()
