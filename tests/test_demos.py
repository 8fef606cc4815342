"""The README promises every demo runs; run them as a user would."""

import ast
import importlib
import os
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


@pytest.mark.parametrize("script", ALL_DEMOS)
def test_demo_imports_resolve(script):
    """Every name a demo imports from pgft exists, so removing a public
    name cannot break a demo that test_demo_runs skips."""
    tree = ast.parse((ROOT / "demos" / script).read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "pgft"
               for alias in node.names]
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), \
            f"{script}: {module}.{name}"
