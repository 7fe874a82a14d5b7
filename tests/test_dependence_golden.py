"""Golden regression for the dependence search.

``find_dependence`` runs on the eight planted families of
``test_independence.planted_families`` (rho = 0 families with
theta = min(f_a + b_a, f_b + b_b) appended) and on the unplanted rho = 0
families phi_j + psi_k of every tableau of shapes (2,2), (1,3), (1,4) and
(1,5), and of the tableau ((1,2),(3,4),(5,6)) of shape (3,2), which the
search exhausts at 93,803 candidates.  The returned offsets (``null`` for
an omitted function, or ``null`` for no dependence found) and the number
of candidates tried are compared with those recorded in
``data/dependence_golden.json``, which pins the whole search: the same
candidates, in the same order, with the same certificate.

The file was written by this module on the code of commit ba16aed, before
the search moved onto an integer breakpoint grid, and added with that
change.  The (3,2) entry was appended on the code of commit a6189bc,
before the candidates were grown from box intervals; every earlier entry
was left byte for byte.  Rewrite it only for an intended change of
output: ``PYTHONPATH=src python -m tests.test_dependence_golden``.
"""
import json
from pathlib import Path

from tropdiv import default_generic_chain
from tropdiv.chainbn import Tableau, enumerate_tableaux
from tropdiv.independence import IndependenceReport, find_dependence
from tropdiv.serialize import rat_to_json

from .conftest import rho_zero_family
from .test_independence import planted_families

GOLDEN = Path(__file__).parent / "data" / "dependence_golden.json"
SHAPES = ((2, 2), (1, 3), (1, 4), (1, 5))
# one unplanted family of 3x2 at g = 6, where the search runs long
TABLEAUX = (Tableau(((1, 2), (3, 4), (5, 6))),)


def _families():
    """(key, family) pairs in a fixed order; the key names the family."""
    for i, (fam, _sub, _offsets) in enumerate(planted_families()):
        yield {"planted": i}, fam
    tableaux = [T for rows, cols in SHAPES for T in enumerate_tableaux(rows, cols)]
    for T in tableaux + list(TABLEAUX):
        yield ({"shape": [T.rows, T.cols], "tableau": [list(r) for r in T.entries]},
               rho_zero_family(T, default_generic_chain(T.size)))


def _search(fam) -> dict:
    report = IndependenceReport()
    cert = find_dependence(fam, report=report)
    offsets = None if cert is None else [
        None if b is None else rat_to_json(b) for b in cert.offsets]
    return {"offsets": offsets, "candidates_tried": report.candidates_tried}


def _golden() -> list:
    return [{"family": key, "out": _search(fam)} for key, fam in _families()]


def test_dependence_matches_golden():
    entries = json.loads(GOLDEN.read_text())
    assert len(entries) == 8 + 2 + 1 + 1 + 1 + 1
    assert sum(e["out"]["offsets"] is not None for e in entries) == 8
    for e, (key, fam) in zip(entries, _families(), strict=True):
        assert e["family"] == key
        assert _search(fam) == e["out"], key


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_golden(), sort_keys=True,
                                 separators=(",", ":")) + "\n")
