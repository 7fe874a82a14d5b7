"""Seeded fuzzing of the input boundary, with the standard library only.

Each mutant of a valid JSON input replaces one or two of its nodes below
the top (a scalar, or a whole list or object) with one of ``VALUES``,
and one in four also renames a key of one of its objects to one of
``KEYS``.  Every reader must return or raise a ``TropdivError``, and
every command, run in-process through ``cli.main``, must exit 0, 1, 2 or
3 and report no internal error: the readers are the one check of input,
so a builtin exception out of one is a bug.  The public API must raise a
``TropdivError`` for a point off an edge, or on an edge or at a vertex
the graph lacks.
"""
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from tropdiv import Divisor, Point, cli, default_generic_chain
from tropdiv import serialize as sz
from tropdiv.chainbn import Tableau, gp_rho_zero_experiment
from tropdiv.errors import TropdivError
from tropdiv.reduce import is_equivalent, rank, v_reduce
from tropdiv.sampling import SplitMix64

HUGE = (2 ** 64, -(10 ** 30))
VALUES = (True, False, 1.5, [], {}, *HUGE, -1, "1/0", "x", "9" * 5000, None)
KEYS = ("x", "1/0", "00", "9" * 5000)

CHAIN3, CHAIN4 = default_generic_chain(3), default_generic_chain(4)
G3 = CHAIN3.graph
# a graph that is no chain: parallel edges and a self-loop
SMALL = {"vertices": ["a", "b"], "edges": [["a", "b", "1/2"], ["a", "b", "3"], ["b", "b", "2"]]}
DIVISOR = [{"point": {"vertex": "w3"}, "coeff": 4},
           {"point": {"edge": 0, "offset": "1/3"}, "coeff": -1},
           {"point": {"edge": 4, "offset": "1/2"}, "coeff": 2}]
EFFECTIVE = [{"point": {"vertex": "w3"}, "coeff": 4},
             {"point": {"edge": 0, "offset": "1/3"}, "coeff": 1}]
WITNESS = v_reduce(G3, sz.divisor_from_json(G3, DIVISOR), G3.point(2, "1/2")).witness
CERTIFICATE = gp_rho_zero_experiment(Tableau([[1, 2], [3, 4]]), CHAIN4).independence_certificate


def _nodes(obj, path=()):
    """The path of every node of ``obj``, parents before their children."""
    yield path
    if isinstance(obj, (dict, list)):
        for k, v in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _nodes(v, path + (k,))


def _node(obj, path):
    """The node of ``obj`` at ``path``."""
    for k in path:
        obj = obj[k]
    return obj


def _at(obj, path, f):
    """A copy of ``obj`` whose node at ``path`` is ``f(node)``; the rest
    is shared, so the valid input is never changed."""
    if not path:
        return f(obj)
    k, rest = path[0], path[1:]
    if isinstance(obj, dict):
        return {**obj, k: _at(obj[k], rest, f)}
    return [*obj[:k], _at(obj[k], rest, f), *obj[k + 1:]]


class Mutator:
    """Mutants of one valid JSON input, drawn from ``rng``."""

    def __init__(self, valid, rng: SplitMix64, huge_coeffs: bool = True):
        self.valid, self.rng = valid, rng
        self.nodes = list(_nodes(valid))[1:]
        self.objects = [p for p in _nodes(valid) if isinstance(_node(valid, p), dict)]
        # 2^64 chips at w3 spend the reduction's whole step budget, about
        # 6 s, before it exits 3: a firing step moves one chip per germ
        self.huge_coeffs = huge_coeffs

    def __call__(self):
        rng, obj = self.rng, self.valid
        replaced = []

        def kept(path):
            # a node inside a replaced one is gone
            return not any(path[:len(r)] == r for r in replaced)

        for _ in range(rng.randint(1, 2)):
            path, value = rng.choice(self.nodes), rng.choice(VALUES)
            if path[-1:] == ("coeff",) and value in HUGE and not self.huge_coeffs:
                value = -1
            if kept(path):
                obj = _at(obj, path, lambda _node: value)
                replaced.append(path)
        if self.objects and rng.below(4) == 0:
            path, new = rng.choice(self.objects), rng.choice(KEYS)
            if kept(path) and _node(obj, path):
                old = rng.choice(list(_node(obj, path)))
                obj = _at(obj, path, lambda o: {(new if k == old else k): v for k, v in o.items()})
        return obj


def _outcomes(mutants, call) -> list[str]:
    """What ``call`` raised on each mutant that is not a ``TropdivError``."""
    bad = []
    for obj in mutants:
        try:
            call(obj)
        except TropdivError:
            pass
        except Exception as e:  # noqa: BLE001 -- any other is the finding
            bad.append(f"{type(e).__name__}: {str(e)[:80]} on {repr(obj)[:160]}")
    return bad


# each reader's valid inputs; the mutants alternate between them
READERS = {
    "graph": (sz.graph_from_json, [SMALL, sz.graph_to_json(G3), sz.chain_to_json(CHAIN3)]),
    "chain": (sz.chain_from_json, [sz.chain_to_json(CHAIN3),
                                   sz.chain_to_json(default_generic_chain(3, extended=True))]),
    "divisor": (lambda obj: sz.divisor_from_json(G3, obj), [DIVISOR]),
    "plfunction": (lambda obj: sz.plfunction_from_json(G3, obj), [sz.plfunction_to_json(WITNESS)]),
    "certificate": (lambda obj: sz.independence_certificate_from_json(CHAIN4.graph, obj),
                    [sz.independence_certificate_to_json(CHAIN4.graph, CERTIFICATE)]),
    "tableau": (Tableau, [[[1, 2, 5], [3, 4, 6]]]),
}
READER_MUTANTS = 2000


@pytest.mark.parametrize("reader", READERS)
def test_reader_returns_or_raises_a_tropdiv_error(reader):
    call, valid = READERS[reader]
    rng = SplitMix64(list(READERS).index(reader))
    mutators = [Mutator(v, rng) for v in valid]
    mutants = (mutators[i % len(mutators)]() for i in range(READER_MUTANTS))
    bad = _outcomes(mutants, call)
    assert not bad, f"{len(bad)} of {READER_MUTANTS} mutants: {bad[:3]}"


BASES = ("w3", "v1", "2:1/2", "0:1/3", "x", "99:1", "2:x", "2:1/0", "02:1/2", "2:-1",
         "2:" + "9" * 5000, "9" * 5000 + ":1", "", ":", "1:1:1")
TABLEAUX = ("0", "1", "all", "2", "-1", "x", "9" * 5000, "1_0", " 1", "")


def _reduce(rng, mutate, write):
    graph, divisor = sz.graph_to_json(G3), DIVISOR
    k = rng.below(3)
    if k != 1:
        graph = mutate("graph", graph)
    if k != 0:
        divisor = mutate("divisor", divisor)
    return ["reduce", write("graph", graph), write("div", divisor),
            "--base", rng.choice(BASES) if rng.below(2) else "2:1/2"]


def _shape(rng, mutate, write):
    chain, divisor = sz.chain_to_json(CHAIN3), EFFECTIVE
    k = rng.below(3)
    if k != 1:
        chain = mutate("chain", chain)
    if k != 0:
        divisor = mutate("effective", divisor)
    return ["shape", write("chain", chain), write("div", divisor)]


# each command's argv from a mutant or two and, for reduce and gp0, a
# --base or --tableau text
COMMANDS = {
    "chain-new": lambda rng, mutate, write: [
        "chain-new", "--g", "3",
        "--lengths", write("chain", mutate("chain", sz.chain_to_json(CHAIN3)))],
    "reduce": _reduce,
    "rr-check": lambda rng, mutate, write: [
        "rr-check", write("graph", mutate(*rng.choice([("small", SMALL),
                                                       ("chain3", sz.graph_to_json(G3))]))),
        "--trials", "1", "--seed", str(rng.below(100))],
    "gp0": lambda rng, mutate, write: [
        "gp0", "--g", "4", "--r", "1", "--d", "3",
        "--lengths", write("chain", mutate("chain4", sz.chain_to_json(CHAIN4))),
        "--tableau", rng.choice(TABLEAUX)],
    "shape": _shape,
}
CLI_MUTANTS = 200


@pytest.mark.parametrize("command", COMMANDS)
def test_command_exits_0_to_3_and_reports_no_internal_error(tmp_path, command):
    rng = SplitMix64(100 + list(COMMANDS).index(command))
    mutators = {}

    def mutate(name, valid):
        if name not in mutators:
            mutators[name] = Mutator(valid, rng, huge_coeffs=False)
        return mutators[name]()

    def write(name, obj):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    bad = []
    for _ in range(CLI_MUTANTS):
        argv = COMMANDS[command](rng, mutate, write)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        if code not in (0, 1, 2, 3) or "internal error" in err.getvalue():
            bad.append(f"exit {code}: {err.getvalue()[:120]} for {[a[:40] for a in argv]}")
    assert not bad, f"{len(bad)} of {CLI_MUTANTS} runs: {bad[:3]}"


# points that are not points of G3, each naming its way of missing it
BAD_POINTS = {
    "past an edge's end": Point(None, 0, G3.edge_length(0) + 1),
    "before an edge's start": Point(None, 0, Fraction(-1, 2)),
    "on an edge the graph lacks": Point(None, len(G3.edges) + 1, Fraction(1, 2)),
    "at a vertex the graph lacks": Point("zz", -1, Fraction(0)),
    # edge 0 of the genus-4 chain is longer than that of the genus-3 one
    "on another graph's longer edge": CHAIN4.graph.point(0, 6),
}
GOOD, BASE = G3.point(0, Fraction(1, 2)), G3.vertex_point("w3")
API = {
    "point": lambda p: G3.point(p.edge, p.offset),
    "PLFunction.__call__": WITNESS,
    "v_reduce at the point": lambda p: v_reduce(G3, Divisor({GOOD: 3}), p),
    "v_reduce of a divisor on it": lambda p: v_reduce(G3, Divisor({p: 1, GOOD: 2}), BASE),
    "rank": lambda p: rank(G3, Divisor({p: 1, GOOD: 2})),
    "distance from it": lambda p: G3.distance(p, GOOD),
    "distance to it": lambda p: G3.distance(GOOD, p),
    "is_equivalent": lambda p: is_equivalent(G3, Divisor({p: 1}), Divisor({GOOD: 1})),
}


@pytest.mark.parametrize("entry", API)
def test_api_raises_a_tropdiv_error_on_a_point_the_graph_lacks(entry):
    for where, p in BAD_POINTS.items():
        with pytest.raises(TropdivError):
            API[entry](p)
            pytest.fail(f"{entry} took a point {where}")


@pytest.mark.parametrize("edge", [len(G3.edges), -1, True, 1.0, "0", None, 2 ** 64])
def test_edge_length_raises_a_tropdiv_error_on_an_edge_the_graph_lacks(edge):
    with pytest.raises(TropdivError):
        G3.edge_length(edge)
