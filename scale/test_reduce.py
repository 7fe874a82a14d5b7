"""Reductions with witnesses and Riemann-Roch through the console script,
and the graph's lattice store on a warm genus-8 graph."""
import json

import pytest

from tests.check_gp0_reports import layout_kept
from tropdiv import Divisor, MetricGraph, default_generic_chain
from tropdiv import serialize as sz
from tropdiv.reduce import (_STORE_SIZE, is_equivalent, is_reduced, rank,
                            riemann_roch_check, v_reduce)
from tropdiv.sampling import SplitMix64, random_point


def write(path, obj) -> None:
    path.write_text(json.dumps(obj))


def V(name, coeff):
    return {"point": {"vertex": name}, "coeff": coeff}


def E(edge, offset, coeff):
    return {"point": {"edge": edge, "offset": offset}, "coeff": coeff}


K4 = {"vertices": ["a", "b", "c", "d"],
      "edges": [["a", "b", "1/2"], ["a", "c", "2/3"], ["a", "d", "3/4"],
                ["b", "c", "4/5"], ["b", "d", "5/6"], ["c", "d", "6/7"]]}
REST = [V("v3", 1), E(6, "23/64", 1), E(6, "115/32", 1), E(7, "3/8", 1), E(7, "5/8", 1),
        E(7, "13/16", 1)]
DEBT0, DEBT3 = E(0, "21/32", -1), E(3, "11/16", -1)
# output: graph, input and base.  One chip of debt at an interior point,
# debt at two points, the same divisor listed in two orders, p - p' of
# degree 0, whose class has no effective member, debt at the base v1 and
# at two other points, and debt at two points on the genus-12 chain and
# on K4, whose witnesses are solved on Laplacians of 23 and 3 rows, the
# latter dense
REDUCTIONS = {
    "red3": ("chain3", [V("w3", 4), E(0, "1/3", -1)], "2:1/2"),
    "reddebt3": ("chain3", [V("w3", 6), E(0, "1/3", -1), V("v2", -2)], "2:1/2"),
    "redorder03": ("chain3", [DEBT0, DEBT3, *REST], "4:1/4"),
    "redorder30": ("chain3", [DEBT3, DEBT0, *REST], "4:1/4"),
    "rednoneff3": ("chain3", [E(0, "1/3", 1), E(3, "1/2", -1)], "w3"),
    "redbasedebt3": ("chain3", [V("v1", -1), E(0, "1/3", -1), E(3, "1/2", -1), V("w3", 4)], "v1"),
    "reddebt12": ("chain12", [V("w12", 14), E(0, "5", -1), E(16, "1/2", -1)], "18:7/2"),
    "reddebtk4": ("k4", [V("d", 5), E(0, "1/4", -1), E(5, "1/7", -1)], "2:1/3"),
}


def test_reductions_with_witnesses(tropdiv, tmp_path):
    def read(name):
        return (tmp_path / f"{name}.json").read_text()

    for g in (3, 12):
        assert tropdiv("chain-new", "--g", g, "--out", f"chain{g}.json")[0] == 0
    write(tmp_path / "k4.json", K4)
    for name, (graph, divisor, base) in REDUCTIONS.items():
        write(tmp_path / f"in-{name}.json", divisor)
        assert tropdiv("reduce", f"{graph}.json", f"in-{name}.json", "--base", base,
                       "--out", f"{name}.json")[0] == 0, name
    write(tmp_path / "eff3.json", [V("w3", 4), E(0, "1/3", 1)])
    assert tropdiv("shape", "chain3.json", "eff3.json", "--out", "shape3.json")[0] == 0
    assert all(layout_kept(read(name)) for name in ("chain3", "red3", "shape3"))
    assert json.loads(read("red3"))["witness"]["edges"]
    # debts are paid in key order, whatever the order listed, so the two
    # outputs are the same bytes, "events" included; 17 events pin the
    # firing sequence (26 when each debt was first moved to a sink)
    assert read("redorder03") == read("redorder30")
    assert json.loads(read("redorder03"))["events"] == 17
    for name, (graph, _divisor, _base) in REDUCTIONS.items():
        G = sz.graph_from_json(json.loads(read(graph)))
        rep = json.loads(read(name))
        D, red = (sz.divisor_from_json(G, rep[key]) for key in ("input", "reduced"))
        f = sz.plfunction_from_json(G, rep["witness"])
        base = sz.point_from_json(G, rep["base"])
        assert D + f.divisor() == red and is_reduced(G, red, base), name
        h = is_equivalent(G, D, red)
        assert h is not None and D + h.divisor() == red, name


BAD = {
    "float coefficient": ([V("w3", 3.9)], "reduce", "chain3.json", "in.json", "--base", "w3"),
    "vertex name 1": ([V("a", 1)], "reduce", "intname.json", "in.json", "--base", "a"),
    "edge true": ([E(True, "1/2", 1)], "reduce", "chain3.json", "in.json", "--base", "w3"),
    "--g 7 with a genus-3 chain": ([], "chain-new", "--g", 7, "--lengths", "chain3.json"),
    # JSON text nested past the parser's recursion limit, and a graph with no edge
    "nested JSON": ("[" * 100000 + "]" * 100000, "reduce", "chain3.json", "in.json",
                    "--base", "w3"),
    "edgeless graph": ([V("a", 1)], "reduce", "edgeless.json", "in.json", "--base", "a"),
}


@pytest.mark.parametrize("case", BAD)
def test_bad_input_exits_2_and_writes_no_file(tropdiv, tmp_path, case):
    divisor, *args = BAD[case]
    assert tropdiv("chain-new", "--g", 3, "--out", "chain3.json")[0] == 0
    write(tmp_path / "intname.json", {"vertices": [1, "a"], "edges": [[1, "a", "1"]]})
    write(tmp_path / "edgeless.json", {"vertices": ["a"], "edges": []})
    # a str is the file's text, written as it is
    if isinstance(divisor, str):
        (tmp_path / "in.json").write_text(divisor)
    else:
        write(tmp_path / "in.json", divisor)
    assert tropdiv(*args, "--out", "bad.json")[0] == 2
    assert not (tmp_path / "bad.json").exists()


def test_warm_genus_8_graph_matches_fresh_copies():
    # reduce stores one lattice per scale on the graph, the burn runs of
    # each base, the Laplacian and the bridge classes, and empties that
    # store when it would pass _STORE_SIZE entries; divisors with debt and
    # bases at fractions 1/5, 1/7 and 1/16 of their edges bring in many
    # scales.  The peak is read at every insert
    class Store(dict):
        clears = peak = 0

        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            Store.peak = max(Store.peak, len(self))

        def clear(self):
            Store.clears += 1
            super().clear()

    G = default_generic_chain(8).graph
    G._store = Store()
    g, rng = G.betti(), SplitMix64(4040)

    def point():
        return random_point(G, rng, rng.choice((5, 7, 16)))

    def fresh():
        return MetricGraph(G.vertices, G.edges)

    for i in range(200):
        degree = rng.randint(-2, 2 * g)
        neg = rng.randint(0, 2) + max(0, -degree)
        D = Divisor([(point(), -1) for _ in range(neg)]
                    + [(point(), 1) for _ in range(degree + neg)])
        base = point()
        warm, cold = v_reduce(G, D, base), v_reduce(fresh(), D, base)
        assert (warm.reduced, warm.witness, warm.steps) == \
            (cold.reduced, cold.witness, cold.steps), i
        assert rank(G, D) == rank(fresh(), D), i
        assert riemann_roch_check(G, D) == riemann_roch_check(fresh(), D), i
    assert Store.clears and Store.peak <= _STORE_SIZE, (Store.clears, Store.peak)


# rank and the rank of K - D on 40 random divisors of degrees -2..2g, about
# 0.2, 0.3, 0.5, 4 and 30 s, peaking at 18-21.5 MB: the rank search takes
# one point per class of equivalent points and keeps no memo of the nodes
# it has met, and its pre-pass and search end at the Riemann floor; with a
# memo of every node searched, genus 10 took 9 s and 57 MB and genus 11
# 64 s and 335 MB
@pytest.mark.parametrize("g", [5, 6, 8, 10, 11])
def test_riemann_roch(tropdiv, tmp_path, g):
    assert tropdiv("chain-new", "--g", g, "--out", "chain.json")[0] == 0
    code, _out, mb = tropdiv("rr-check", "chain.json", "--trials", 40, "--seed", 1,
                             "--out", "rr.json")
    assert code == 0 and mb <= 30, mb
    assert json.loads((tmp_path / "rr.json").read_text())["passed"] is True
