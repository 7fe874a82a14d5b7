"""The rho = 0 sweeps of ``tropdiv gp0``, checked by
``tests/check_gp0_reports.py``: every report "independent", and the
certificate and empty cells of every report re-checked on phi_j and
psi_k from ``v_reduce`` (every 35th at genus 15); and each file
compared with its digest in ``tests/data/scale_golden.json``
(``scale.golden.check``), which pins every certificate offset."""
import pytest

from scale.golden import check
from tests.check_gp0_reports import main as check_reports


# tableau 0, the row-filled one, of 4x4, 5x4, 5x5 and 6x6: families of 16
# to 36 functions, with 24,024 to 1.7e15 tableaux that --tableau 0 streams
# past rather than lists
ROW_FILLED = [(16, 3, 15), (20, 3, 18), (25, 4, 24), (36, 5, 35)]
# every tableau of 3x4 and of 3x5: 462 and 6,006 reports
SWEEPS = [(12, 3, 12), (15, 4, 16)]


@pytest.mark.parametrize("g,r,d", ROW_FILLED)
def test_row_filled_tableau(tropdiv, tmp_path, g, r, d):
    assert tropdiv("gp0", "--g", g, "--r", r, "--d", d, "--tableau", 0, "--out", "gp.json")[0] == 0
    assert check_reports([str(tmp_path / "gp.json"), "--count", "1"]) == 0
    check(f"gp0 --g {g} --tableau 0", tmp_path / "gp.json")


def test_every_tableau_at_genus_12(tropdiv, tmp_path):
    g, r, d = SWEEPS[0]
    sweep = ("gp0", "--g", g, "--r", r, "--d", d, "--tableau", "all")
    assert tropdiv(*sweep, "--out", "gp12.json")[0] == 0
    assert check_reports([str(tmp_path / "gp12.json"), "--count", "462"]) == 0
    check("gp0 --g 12 --tableau all", tmp_path / "gp12.json")
    # both output paths of cli._emit write the same bytes, and so do two
    # runs: the reports hold no timing
    code, out, _mb = tropdiv(*sweep)
    assert code == 0
    assert out == (tmp_path / "gp12.json").read_text()


def test_every_tableau_at_genus_15(tropdiv, tmp_path):
    # all 6,006 tableaux of 3x5; gp0 writes each report as it is made, so
    # the guard sits at 100 MB: 215 MB when the reports were held until
    # the end, 17 MB streamed.  Every 35th report is checked, 172 of them,
    # at about 9 ms each: all 6,006 take about 1 min
    g, r, d = SWEEPS[1]
    code, _out, mb = tropdiv("gp0", "--g", g, "--r", r, "--d", d, "--tableau", "all",
                             "--out", "gp15.json")
    assert code == 0 and mb <= 100, mb
    assert check_reports([str(tmp_path / "gp15.json"), "--count", "6006", "--every", "35"]) == 0
    check("gp0 --g 15 --tableau all", tmp_path / "gp15.json")
