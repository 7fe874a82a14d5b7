"""The narrative scripts in demos/ and the README's python blocks run to
completion, and the README names no private identifier."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    """``python args`` from the repository root with src/ on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


def test_demos_present():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo):
    proc = run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr


def test_readme_blocks_present():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_block_exits_0(block):
    proc = run_python(["-c", block])
    assert proc.returncode == 0, proc.stderr


def test_readme_names_no_private_identifier():
    # a backticked span names one when a dotted part of a name in it
    # starts with a single underscore: `graph._rat`, `_ratio(n, s)`
    private = [span for span in re.findall(r"`([^`\n]+)`", README)
               if any(part.startswith("_") and not part.startswith("__")
                      for name in re.findall(r"(?<![\w.])[A-Za-z_][\w.]*", span)
                      for part in name.split("."))]
    assert not private
