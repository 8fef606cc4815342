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

# 05_rate_distortion_study.py is left out: its RD sweep takes about 30 s,
# three times the other five demos together, and the API it calls
# (encode/decode, bd_br, fit_lambda_model) is covered by test_codec,
# test_metrics, test_rdo and the acceptance criteria.
DEMOS = ["01_voxelize_and_cluster.py", "02_graph_transform_basics.py",
         "03_temporal_prediction.py", "04_end_to_end_codec.py",
         "06_precision_matrix_study.py"]
ALL_DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


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


@pytest.mark.parametrize("script", ALL_DEMOS + ["README.md"])
def test_demo_imports_resolve(script):
    """Every name a demo or README imports from pgft exists, so removing
    a public name cannot break a demo that test_demo_runs skips, and a
    function or class is imported from the module that defines it."""
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
