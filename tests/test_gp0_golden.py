"""Golden regression for ``tropdiv gp0``.

``tropdiv gp0 --tableau all`` runs in process on the default generic
chain for every tableau of shapes 2x2, 2x3, 3x2, 2x4 and 4x2 (40
reports); each shape's output, without ``elapsed_seconds``, must have
the ``serialize.dumps`` text of the one recorded in
``data/gp0_golden.json``: the same empty-cell tables, the same
permutations and the same certificate offsets.  The file also records
``check_gp0_reports.sweep_digest`` of the genus-12 (3x4, 462 reports)
and genus-15 (3x5, 6,006 reports) sweeps, which the CI steps running
those sweeps check with ``tests/check_gp0_reports.py --golden``.

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

from .check_gp0_reports import GOLDEN, sweep_digest

SHAPES = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2))
SWEEPS = ((3, 4), (3, 5))


def _sweep(rows: int, cols: int) -> list:
    """The reports of ``tropdiv gp0 --tableau all`` for the shape, without
    ``elapsed_seconds``."""
    g, r = rows * cols, cols - 1
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "gp0.json"
        argv = ["gp0", "--g", str(g), "--r", str(r), "--d", str(g + r - rows),
                "--tableau", "all", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        reports = json.loads(out.read_text())["reports"]
    for rep in reports:
        del rep["elapsed_seconds"]
    return reports


def test_gp0_reports_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert [e["shape"] for e in golden["shapes"]] == [list(s) for s in SHAPES]
    assert sum(len(e["reports"]) for e in golden["shapes"]) == 40
    assert sorted(golden["sweep_sha256"]) == [str(rows * cols) for rows, cols in SWEEPS]
    for e in golden["shapes"]:
        assert dumps(_sweep(*e["shape"])) == dumps(e["reports"]), e["shape"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({
        "shapes": [{"shape": list(s), "reports": _sweep(*s)} for s in SHAPES],
        "sweep_sha256": {str(rows * cols): sweep_digest(_sweep(rows, cols))
                         for rows, cols in SWEEPS},
    }, sort_keys=True, separators=(",", ":")) + "\n")
