"""The rho = 0 sweeps of ``tropdiv gp0``, every report checked by
``tests/check_gp0_reports.py``: each "independent", its certificate
re-verified on the family rebuilt as ``PLFunction`` sums, and, with
``--golden``, the reports hashed to the digest in
``tests/data/gp0_golden.json``, which pins every certificate offset."""
import pytest

from scale.golden import check
from tests.check_gp0_reports import main as check_reports


# tableau 0, the row-filled one, of 4x4, 5x4, 5x5 and 6x6: families of 16
# to 36 functions, with 24,024 to 1.7e15 tableaux that --tableau 0 streams
# past rather than lists
ROW_FILLED = [(16, 3, 15), (20, 3, 18), (25, 4, 24), (36, 5, 35)]


@pytest.mark.parametrize("g,r,d", ROW_FILLED)
def test_row_filled_tableau(tropdiv, tmp_path, g, r, d):
    assert tropdiv("gp0", "--g", g, "--r", r, "--d", d, "--tableau", 0, "--out", "gp.json")[0] == 0
    assert check_reports([str(tmp_path / "gp.json"), "--count", "1"]) == 0
    check(f"gp0 --g {g} --tableau 0", tmp_path / "gp.json")


def test_every_tableau_at_genus_12(tropdiv, tmp_path):
    sweep = ("gp0", "--g", 12, "--r", 3, "--d", 12, "--tableau", "all")
    assert tropdiv(*sweep, "--out", "gp12.json")[0] == 0
    assert check_reports([str(tmp_path / "gp12.json"), "--count", "462", "--golden"]) == 0
    # both output paths of cli._emit write the same bytes, and so do two
    # runs: the reports hold no timing
    code, out, _mb = tropdiv(*sweep)
    assert code == 0
    assert out == (tmp_path / "gp12.json").read_text()


def test_every_tableau_at_genus_15(tropdiv, tmp_path):
    # all 6,006 tableaux of 3x5; gp0 writes each report as it is made, so
    # the guard sits at 100 MB: 215 MB when the reports were held until
    # the end, 17 MB streamed.  Every 50th report is checked, 121 of them:
    # all 6,006 take about 3 min
    code, _out, mb = tropdiv("gp0", "--g", 15, "--r", 4, "--d", 16, "--tableau", "all",
                             "--out", "gp15.json")
    assert code == 0 and mb <= 100, mb
    assert check_reports([str(tmp_path / "gp15.json"), "--count", "6006", "--every", "50",
                          "--golden"]) == 0
