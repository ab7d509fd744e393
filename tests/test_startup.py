"""What importing the command-line module costs."""

import os
import subprocess
import sys
from pathlib import Path

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
