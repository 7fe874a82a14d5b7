"""tools/branches.py on a small module traced in process: a line never
run, ``if``s taken one way only, and ``if``s taken both ways."""
import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "branches", Path(__file__).resolve().parent.parent / "tools" / "branches.py")
branches = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(branches)

SOURCE = '''\
def f(x):
    if x > 0:
        y = 1
    else:
        y = 2
    if x > 100:
        y = 3
    if x > -100:
        y += 1
    return y


def g(x):
    for k in range(x):
        if (k
                and k > 1):
            continue
    if x:
        return 1


def h(x):
    if x: return 2
'''


def test_one_sided_and_two_sided_ifs(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE)

    def run():
        space = {}
        exec(compile(SOURCE, str(path), "exec"), space)
        for x in (1, -1):
            space["f"](x)
        # g's loop test falls through on k = 0, passes on k = 2; its last
        # if returns 1, or leaves the frame with no line between
        for x in (0, 3):
            space["g"](x)
        space["h"](1)

    _result, arcs = branches.trace(run, str(tmp_path))
    # lines 2, 15 and 18 were taken both ways
    assert branches.report(str(path), SOURCE, arcs[str(path)]) == [
        (6, "never true"), (7, "never run"), (8, "never false"), (23, "one line")]
