"""The README's Python examples run as written against this checkout."""

import os
import re
import subprocess
import sys
from pathlib import Path

import subsel

SRC = Path(subsel.__file__).resolve().parents[1]
README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path):
    # the quick start, the criteria example and the robust example, one script in order
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    assert len(blocks) >= 3
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", "\n".join(blocks)], capture_output=True, text=True,
                         timeout=300, env=env, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert run.stdout
