"""Golden regression for rank.

Fixed divisors on the genus-2 and genus-3 chains (degrees -2..2g+1, most
with debt) have their ``rank`` and ``riemann_roch_check`` outputs
recomputed and compared with those recorded in ``data/ranks_golden.json``.
Each entry carries its input, so the test does not depend on the sampler.

The file was written by this module on the code of commit 0aa59e3, before
the rank search moved onto the integer core, and added in ba16aed.
Rewrite it only for an intended change of output:
``PYTHONPATH=src python -m tests.test_ranks_golden``.
"""
import json
from pathlib import Path

from tropdiv import default_generic_chain
from tropdiv.reduce import rank, riemann_roch_check
from tropdiv.sampling import SplitMix64, random_divisor
from tropdiv.serialize import divisor_from_json, divisor_to_json

GOLDEN = Path(__file__).parent / "data" / "ranks_golden.json"


def _ranks(G, D) -> dict:
    ok, r, r_adj = riemann_roch_check(G, D)
    return {"rank": rank(G, D), "rr": [ok, r, r_adj]}


def _golden() -> list:
    entries = []
    for g, per_degree in ((2, 3), (3, 2)):
        G = default_generic_chain(g).graph
        rng = SplitMix64(100 + g)
        for deg in range(-2, 2 * g + 2):
            for _ in range(per_degree):
                D = random_divisor(G, rng, deg)
                entries.append({"g": g, "D": divisor_to_json(G, D), "out": _ranks(G, D)})
    return entries


def test_ranks_match_golden():
    entries = json.loads(GOLDEN.read_text())
    assert len(entries) >= 40
    for e in entries:
        G = default_generic_chain(e["g"]).graph
        D = divisor_from_json(G, e["D"])
        assert _ranks(G, D) == e["out"], (e["g"], e["D"])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_golden(), sort_keys=True,
                                 separators=(",", ":")) + "\n")
