"""The README promises every demo runs; run them as a user would."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _source(script):
    """A demo's code, or the python blocks of README.md."""
    if script == "README.md":
        return "".join(re.findall(r"```python\n(.*?)```",
                                  (ROOT / script).read_text(), re.S))
    return (ROOT / "demos" / script).read_text()


@pytest.mark.parametrize("script", DEMOS + ["README.md"])
def test_demo_imports_resolve(script):
    """Every name a demo or README imports from pgft exists, so removing
    a public name cannot break README's examples, which nothing runs, and
    a function or class is imported from the module that defines it."""
    tree = ast.parse(_source(script))
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "pgft"
               for alias in node.names]
    assert imports
    for module, name in imports:
        value = getattr(importlib.import_module(module), name, None)
        assert value is not None, f"{script}: {module}.{name}"
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == module, \
                f"{script}: {name} is defined in {value.__module__}"
