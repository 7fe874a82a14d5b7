"""Golden regression for ``tropdiv gp0``.

``tropdiv gp0 --tableau all`` runs in process on the default generic
chain for every tableau of shapes 2x2, 2x3, 3x2, 2x4 and 4x2 (40
reports); each shape's ``--out`` file must hold, byte for byte, the
``serialize.dumps`` text of the reports recorded in
``data/gp0_golden.json``: the same empty-cell tables, the same
permutations and the same certificate offsets.  The genus-12 (3x4, 462
reports) and genus-15 (3x5, 6,006 reports) sweeps are pinned by the
SHA-256 of their ``--out`` files in ``data/scale_golden.json``, which
``scale/golden.py`` writes and ``scale/test_gp0.py`` checks.

The file was written by this module on the code of commit b053e9d,
before the twisted divisors were reduced and read in a single scan.
Rewrite it only for an intended change of output:
``PYTHONPATH=src python -m tests.test_gp0_golden``.
"""
import json
import tempfile
from pathlib import Path

from tropdiv import cli
from tropdiv.serialize import dumps

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "gp0_golden.json"
SHAPES = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2))


def _sweep(rows: int, cols: int) -> str:
    """The ``--out`` text of ``tropdiv gp0 --tableau all`` for the shape."""
    g, r = rows * cols, cols - 1
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "gp0.json"
        argv = ["gp0", "--g", str(g), "--r", str(r), "--d", str(g + r - rows),
                "--tableau", "all", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        return out.read_text()


def test_gp0_reports_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert [e["shape"] for e in golden["shapes"]] == [list(s) for s in SHAPES]
    assert sum(len(e["reports"]) for e in golden["shapes"]) == 40
    # the digests that scale/test_gp0.py checks the two larger sweeps with
    scale = json.loads((DATA / "scale_golden.json").read_text())
    assert {"gp0 --g 12 --tableau all", "gp0 --g 15 --tableau all"} <= scale.keys()
    for e in golden["shapes"]:
        assert _sweep(*e["shape"]) == dumps({"reports": e["reports"]}), e["shape"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({
        "shapes": [{"shape": list(s), "reports": json.loads(_sweep(*s))["reports"]}
                   for s in SHAPES],
    }, sort_keys=True, separators=(",", ":")) + "\n")
