"""tools/opcount.py: its count is exact, it puts the previous tracer
back, and two fresh runs of one command print the same count."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "opcount.py"
SPEC = importlib.util.spec_from_file_location("opcount", TOOL)
opcount = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(opcount)


def _loop(n):
    for _ in range(n):
        pass
    return n


def test_a_loop_counts_exactly_linearly_in_its_length():
    (r0, c0), (_r1, c1), (_r10, c10) = (opcount.count(_loop, n) for n in (0, 1, 10))
    assert r0 == 0 and c1 > c0
    assert c10 - c0 == 10 * (c1 - c0)


def test_the_previous_tracer_comes_back():
    def tracer(_frame, _event, _arg):
        return None

    def fail():
        raise ValueError("inside")

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        assert opcount.count(_loop, 3)[0] == 3
        assert sys.gettrace() is tracer
        with pytest.raises(ValueError, match="inside"):
            opcount.count(fail)
        assert sys.gettrace() is tracer
    finally:
        sys.settrace(old)


def test_two_fresh_runs_print_the_same_count():
    # without PYTHONHASHSEED=0 in its environment the tool re-runs itself
    # with it, so both runs see the same set and dict order
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    runs = [subprocess.run([sys.executable, str(TOOL), "chain-new", "--g", "2"],
                           env=env, capture_output=True, text=True, timeout=120)
            for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0]
    tails = [r.stderr.splitlines()[-2:] for r in runs]
    assert tails[0] == tails[1]
    assert tails[0][0].startswith("opcodes ") and int(tails[0][0].split()[1]) > 0
    assert tails[0][1] == "exit 0"
    assert runs[0].stdout == runs[1].stdout
