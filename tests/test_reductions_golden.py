"""Golden regression for reduction.

Fixed reductions on the genus-2 and genus-3 chains (degrees -2..2g, each
with debt, at the first vertex and at interior bases) and the D_j / E_k
of the (2,2) tableaux are recomputed and compared, as canonical JSON,
with the outputs recorded in ``data/reductions_golden.json``.  Each entry
carries its input, so the test does not depend on the sampler.

The file was written by this module, first on the code of commit
fe222ee (added in eb74198), and rewritten by commit b8b04cd, by the
commit after 05c57b1 ("Pay reduction debt from the divisor's own
chips") and last by the commit after 1001f56 ("Pay reduction debt in
one pass from the divisor's own chips plus a loan at the base"), whose
changes of the reduction's firing steps each changed only the ``steps``
values (162 to 137 in total at the last).
Rewrite it only for an intended change of output:
``PYTHONPATH=src python -m tests.test_reductions_golden``.
"""
import json
from fractions import Fraction
from pathlib import Path

import pytest

from tropdiv import Divisor, default_generic_chain, reduce
from tropdiv.chainbn import Tableau, build_Dj, build_Ek, enumerate_tableaux
from tropdiv.errors import ReductionCapError
from tropdiv.reduce import default_base, v_reduce
from tropdiv.sampling import SplitMix64, random_effective_divisor
from tropdiv.serialize import (divisor_from_json, divisor_to_json, dumps,
                               plfunction_to_json, point_from_json,
                               point_to_json)

GOLDEN = Path(__file__).parent / "data" / "reductions_golden.json"


def _reduction(G, D, base) -> dict:
    res = v_reduce(G, D, base)
    return {"reduced": divisor_to_json(G, res.reduced), "steps": res.steps,
            "witness": plfunction_to_json(res.witness)}


def _pair(T: Tableau, chain, kind: str, index: int) -> dict:
    div, f = (build_Dj if kind == "D" else build_Ek)(T, chain, index)
    return {"divisor": divisor_to_json(chain.graph, div),
            "witness": plfunction_to_json(f)}


def _golden() -> dict:
    reductions = []
    for g in (2, 3):
        chain = default_generic_chain(g)
        G = chain.graph
        rng = SplitMix64(g)
        # random points sit at multiples of 1/16 of an edge, so the debt
        # point on the last bottom edge (length 1) never gets a chip back
        debt_at = G.point(chain.bottom_edge(g), Fraction(1, 3))
        interior = [G.point(chain.bridge_edge(1), Fraction(1, 2)),
                    G.point(chain.top_edge(2), chain.ell[1] / 3)]
        for deg in range(-2, 2 * g + 1):
            debt = 2 - deg % 2
            bases = [default_base(G), interior[deg % 2]]
            # genus 3 alternates the base, keeping the file small
            for base in (bases if g == 2 else [bases[deg % 2]]):
                D = (random_effective_divisor(G, rng, deg + debt)
                     - Divisor({debt_at: debt}))
                reductions.append({"g": g, "D": divisor_to_json(G, D),
                                   "base": point_to_json(G, base),
                                   "out": _reduction(G, D, base)})
    pairs = []
    chain = default_generic_chain(4)
    for T in enumerate_tableaux(2, 2):
        for kind, count in (("D", T.cols), ("E", T.rows)):
            for index in range(count):
                pairs.append({"tableau": [list(row) for row in T.entries],
                              "kind": kind, "index": index,
                              "out": _pair(T, chain, kind, index)})
    return {"reductions": reductions, "pairs": pairs}


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


def test_reductions_match_golden():
    entries = _load()["reductions"]
    assert len(entries) >= 20
    for e in entries:
        G = default_generic_chain(e["g"]).graph
        D = divisor_from_json(G, e["D"])
        base = point_from_json(G, e["base"])
        assert dumps(_reduction(G, D, base)) == dumps(e["out"]), (e["g"], e["D"], e["base"])


def test_golden_steps_are_the_exact_budget(monkeypatch):
    # each recorded step count is exactly the budget the reduction needs
    for e in _load()["reductions"]:
        G = default_generic_chain(e["g"]).graph
        D = divisor_from_json(G, e["D"])
        base = point_from_json(G, e["base"])
        steps = e["out"]["steps"]
        monkeypatch.setattr(reduce, "DEFAULT_MAX_STEPS", steps)
        assert v_reduce(G, D, base, track_witness=False).steps == steps
        monkeypatch.setattr(reduce, "DEFAULT_MAX_STEPS", steps - 1)
        with pytest.raises(ReductionCapError):
            v_reduce(G, D, base, track_witness=False)


def test_tableau_pairs_match_golden():
    entries = _load()["pairs"]
    assert len(entries) == 8
    chain = default_generic_chain(4)
    for e in entries:
        T = Tableau(tuple(tuple(row) for row in e["tableau"]))
        got = _pair(T, chain, e["kind"], e["index"])
        assert dumps(got) == dumps(e["out"]), (e["tableau"], e["kind"], e["index"])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_golden(), sort_keys=True,
                                 separators=(",", ":")) + "\n")
