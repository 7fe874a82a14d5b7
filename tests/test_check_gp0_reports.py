"""``tests/check_gp0_reports.py`` rejects a doctored report: a moved
certificate offset, a swapped permutation, two swapped certificate
points, a point replaced by another's and a changed empty cell each make
``main`` return 1, on files that keep the layout ``serialize.dumps``
writes, so only the check of the content can reject them.  It verifies
each certificate by one route: no ``PLFunction`` sum, and each witness
read once at each certificate point."""
import json
from fractions import Fraction

import pytest

from tropdiv import cli
from tropdiv.plfunc import PLFunction

from .check_gp0_reports import main


def _move_offset(rep):
    # far above every other offset, the family member the certificate
    # picks at its first point is no longer the strict minimum there
    cert = rep["certificate"]
    s = cert["permutation"][0]
    cert["offsets"][s] = str(Fraction(cert["offsets"][s]) + 1000)


def _swap_permutation(rep):
    perm = rep["certificate"]["permutation"]
    perm[0], perm[1] = perm[1], perm[0]


def _swap_points(rep):
    points = rep["certificate"]["points"]
    points[0], points[1] = points[1], points[0]


def _repeat_point(rep):
    # two rows of the matrix alike: no offsets make a different member
    # the strict minimum at each
    points = rep["certificate"]["points"]
    points[0] = dict(points[1])


def _change_empty_cell(rep):
    cells = rep["empty_cells"]
    cells["0,0"] = cells["0,0"] % rep["g"] + 1


@pytest.fixture
def sweep(tmp_path):
    """The g = 4 sweep, both tableaux of 2x2, as ``gp0 --out`` writes it."""
    out = tmp_path / "gp4.json"
    assert cli.main(["gp0", "--g", "4", "--r", "1", "--d", "3", "--tableau", "all",
                     "--out", str(out)]) == cli.EXIT_OK
    return out


def test_untouched_reports_pass(sweep):
    assert main([str(sweep), "--count", "2"]) == 0


def test_no_family_sum_is_built(sweep, monkeypatch):
    def refuse(self, other):
        raise AssertionError("the checker summed two PLFunctions")
    monkeypatch.setattr(PLFunction, "__add__", refuse)
    assert main([str(sweep), "--count", "2"]) == 0


def test_each_witness_is_read_once_per_point(sweep, monkeypatch):
    # 2x2 at g = 4: each of the 2 + 2 witnesses read once at each of the
    # 4 certificate points, in each of the 2 reports
    calls = []
    call = PLFunction.__call__
    def counted(self, p):
        calls.append(p)
        return call(self, p)
    monkeypatch.setattr(PLFunction, "__call__", counted)
    assert main([str(sweep), "--count", "2"]) == 0
    assert len(calls) == 2 * (2 + 2) * 4


@pytest.mark.parametrize("doctor", [_move_offset, _swap_permutation, _swap_points,
                                    _repeat_point, _change_empty_cell])
def test_doctored_report_fails(sweep, doctor):
    reports = json.loads(sweep.read_text())
    doctor(reports["reports"][0])
    sweep.write_text(json.dumps(reports, sort_keys=True, indent=2) + "\n")
    assert main([str(sweep), "--count", "2"]) == 1
