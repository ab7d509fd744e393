"""Line coverage: print every executable line of `src/subsel` that a pytest run never executes.

Usage (from the root of a checkout):

    PYTHONPATH=src python tests/line_coverage.py [PYTEST_ARGS ...]

Runs pytest (by default on `tests/`) in this process under a `sys.settrace`
tracer that records the lines of frames whose code lives in `src/subsel`.
The Python subprocesses the tests start (the CLI runs) get the same tracer
from a `sitecustomize` module put first on their PYTHONPATH, and each writes
its lines to a file when it exits.  The executable lines are those `compile`
maps code to (`co_lines` of every code object of a module).  Tracing makes
the run about twice as slow as the plain suite; the file name does not
start with `test_`, so pytest does not collect it.
"""

from __future__ import annotations

import atexit
import os
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "subsel"
# the tracer; `dump`, run at exit, writes this process's "path:line" records to a file in `out`
TRACER = """
import atexit, os, sys
hits = set()
def _line(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line
def dump():
    with open(os.path.join({out!r}, f"hits-{{os.getpid()}}"), "w") as file:
        file.writelines(f"{{f}}:{{n}}\\n" for f, n in hits)
sys.settrace(lambda frame, event, arg: _line if frame.f_code.co_filename.startswith({src!r}) else None)
atexit.register(dump)
"""


def executable_lines(path: Path) -> set[int]:
    todo, lines = [compile(path.read_text(), str(path), "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(n for _, _, n in code.co_lines() if n)  # a module's code starts at line 0
        todo.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def main(args: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tracer = TRACER.format(src=str(SRC), out=tmp)
        (Path(tmp) / "sitecustomize.py").write_text(tracer)
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [tmp, os.environ.get("PYTHONPATH")]))
        scope: dict = {}
        exec(tracer, scope)
        pytest.main(args or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
        sys.settrace(None)
        atexit.unregister(scope["dump"])
        scope["dump"]()
        hits = set()
        for name in Path(tmp).glob("hits-*"):
            hits.update(name.read_text().split())
    lines = [(path, n) for path in sorted(SRC.glob("*.py")) for n in sorted(executable_lines(path))]
    missed = [f"{path.relative_to(ROOT)}:{n}" for path, n in lines if f"{path}:{n}" not in hits]
    print("\n".join(missed))
    print(f"{len(missed)} of {len(lines)} executable lines of src/subsel never run")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
