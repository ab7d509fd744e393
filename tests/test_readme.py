"""The README's Python examples run as written against this checkout, and every
public name of the package has a reader in the package or in those examples."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import subsel

SRC = Path(subsel.__file__).resolve().parents[1]
README = Path(__file__).resolve().parents[1] / "README.md"


def readme_python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_readme_python_blocks_run(tmp_path):
    # the quick start, the criteria example and the robust example, one script in order
    blocks = readme_python_blocks()
    assert len(blocks) >= 3
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", "\n".join(blocks)], capture_output=True, text=True,
                         timeout=300, env=env, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert run.stdout


def test_every_public_name_has_a_reader():
    # a module-level def or class without a leading underscore is read somewhere in
    # src/subsel outside its own definition, or by a README example; a name that only
    # tests call is dead library surface
    modules = {path: path.read_text() for path in sorted((SRC / "subsel").glob("*.py"))}
    examples = "\n".join(readme_python_blocks())
    unread = []
    for path, text in modules.items():
        lines = text.splitlines()
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            outside = lines[: node.lineno - 1] + lines[node.end_lineno:]
            readers = [other for p, other in modules.items() if p != path] + ["\n".join(outside), examples]
            if not any(re.search(rf"\b{node.name}\b", reader) for reader in readers):
                unread.append(f"{path.name}:{node.name}")
    assert not unread, f"public names with no reader in src/subsel or the README examples: {unread}"
