"""Round-trip tests for the JSON formats."""
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tropdiv import Divisor, Point, default_generic_chain
from tropdiv.chainbn import enumerate_tableaux, gp_rho_zero_experiment
from tropdiv.errors import GraphError
from tropdiv.graph import _rat
from tropdiv.independence import IndependenceCertificate
from tropdiv.plfunc import distance_function
from tropdiv.serialize import (chain_from_json, chain_to_json,
                               divisor_from_json, divisor_to_json, dump, dumps,
                               graph_from_json, graph_to_json,
                               independence_certificate_from_json,
                               independence_certificate_to_json,
                               plfunction_from_json, plfunction_to_json,
                               point_from_json, point_to_json, rat_to_json)

from .conftest import theta_graph


DATA = Path(__file__).parent / "data"

# strings with non-ASCII characters, quotes, backslashes and control characters
_TEXT = st.text(st.sampled_from('ab"\\/\n\t\x00\x1f\x7fé€😀'), max_size=4) | st.text()


def _reference(obj) -> str:
    def default(o):
        if isinstance(o, Fraction):
            return rat_to_json(o)
        raise TypeError(o)
    return json.dumps(obj, sort_keys=True, indent=2, default=default) + "\n"


class TestRationals:
    @pytest.mark.parametrize("q", [Fraction(0), Fraction(3), Fraction(-7, 2),
                                   Fraction(22, 7)])
    def test_round_trip(self, q):
        assert _rat(rat_to_json(q)) == q

    def test_integers_are_compact(self):
        assert rat_to_json(Fraction(5)) == "5"
        assert rat_to_json(Fraction(5, 2)) == "5/2"

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            _rat("1/0")

    @pytest.mark.parametrize("s", ["1/0", "abc", "", "1.5", "1/2/3", "1/x", "/2", "nan"])
    def test_malformed_string_raises_graph_error(self, s):
        with pytest.raises(GraphError):
            _rat(s)

    @pytest.mark.parametrize("s,q", [("3", 3), ("-7/2", Fraction(-7, 2)), ("4/6", Fraction(2, 3)),
                                     ("1/-2", Fraction(-1, 2)), (" 5 ", 5)])
    def test_integer_strings_accepted(self, s, q):
        assert _rat(s) == q

    def test_ints_are_rationals(self):
        assert rat_to_json(-4) == "-4"
        assert rat_to_json(10**30) == str(10**30)

    @pytest.mark.parametrize("x", [0.5, 2.0, "1/2", "3", None, True, False])
    def test_inexact_or_unparsed_rejected(self, x):
        with pytest.raises(TypeError):
            rat_to_json(x)


class TestPointsAndDivisors:
    def test_point_round_trip(self):
        G = theta_graph()
        for p in [G.vertex_point("a"), G.point(2, Fraction(7, 3))]:
            assert point_from_json(G, point_to_json(G, p)) == p

    def test_divisor_round_trip(self):
        G = theta_graph()
        D = Divisor({G.vertex_point("b"): -2, G.point(0, 1): 3})
        assert divisor_from_json(G, divisor_to_json(G, D)) == D

    @pytest.mark.parametrize("p", [Point("zz", -1, 0), Point(None, 99, Fraction(1, 2)),
                                   Point(None, 0, 1000)], ids=["vertex", "edge", "offset"])
    def test_writers_reject_a_point_the_graph_lacks(self, p):
        # the unknown vertex raised a bare KeyError, and the other two were
        # written as JSON that point_from_json rejects
        G = default_generic_chain(2).graph
        cert = IndependenceCertificate((p,), (0,), (Fraction(0),))
        for write in (lambda: point_to_json(G, p),
                      lambda: divisor_to_json(G, Divisor({p: 1})),
                      lambda: independence_certificate_to_json(G, cert)):
            with pytest.raises(GraphError):
                write()


class TestGraphsAndChains:
    def test_graph_round_trip(self):
        G = theta_graph()
        G2 = graph_from_json(graph_to_json(G))
        assert G2.vertices == G.vertices
        assert G2.edges == G.edges

    def test_chain_round_trip(self):
        ch = default_generic_chain(3, extended=True)
        ch2 = chain_from_json(chain_to_json(ch))
        assert ch2.g == 3 and ch2.extended
        assert ch2.ell == ch.ell and ch2.m == ch.m and ch2.beta == ch.beta

    def test_chain_with_one_pendant_length_rejected(self):
        obj = chain_to_json(default_generic_chain(2, extended=True))
        obj["pendant"] = ["1"]
        with pytest.raises(GraphError, match="2 pendant bridge lengths"):
            chain_from_json(obj)

    def test_graph_from_json_dispatches_chain(self):
        ch = default_generic_chain(2)
        G = graph_from_json(chain_to_json(ch))
        assert G.edges == ch.graph.edges


class TestIndependenceCertificates:
    @staticmethod
    def round_trip(G, cert):
        text = dumps(independence_certificate_to_json(G, cert))
        return independence_certificate_from_json(G, json.loads(text))

    def test_offsets_round_trip_exactly(self):
        G = theta_graph()
        pts = (G.vertex_point("a"), G.point(2, Fraction(7, 3)), G.vertex_point("b"),
               G.point(0, Fraction(1, 2)))
        offsets = (Fraction(-7, 3), Fraction(0), Fraction(5, 2), Fraction(-4))
        cert = IndependenceCertificate(pts, (2, 0, 3, 1), offsets)
        obj = independence_certificate_to_json(G, cert)
        assert obj["offsets"] == ["-7/3", "0", "5/2", "-4"]
        back = self.round_trip(G, cert)
        assert back == cert
        assert all(type(b) is Fraction for b in back.offsets)

    def test_experiment_certificates_round_trip(self):
        chain = default_generic_chain(6)
        seen = set()
        for T in enumerate_tableaux(2, 3):
            cert = gp_rho_zero_experiment(T, chain).independence_certificate
            assert self.round_trip(chain.graph, cert) == cert
            seen |= {b.denominator for b in cert.offsets}
        # non-integer offsets are among them
        assert seen != {1}


class TestPLFunctions:
    def test_round_trip(self):
        G = theta_graph()
        f = distance_function(G, G.point(1, Fraction(1, 2)))
        f2 = plfunction_from_json(G, plfunction_to_json(f))
        for ei in range(3):
            for k in range(5):
                p = G.point(ei, G.edge_length(ei) * k / 4)
                assert f2(p) == f(p)


_CHAIN = default_generic_chain(3)
_G = _CHAIN.graph


def _readers():
    """(reader, valid JSON for it) pairs; each object holds ints and
    rationals where a test puts a bad value."""
    point = {"edge": 0, "offset": "1/2"}
    return {
        "point": (lambda o: point_from_json(_G, o), point),
        "divisor": (lambda o: divisor_from_json(_G, o),
                    [{"point": point, "coeff": 3}]),
        "graph": (graph_from_json, graph_to_json(_G)),
        "chain": (chain_from_json, chain_to_json(_CHAIN)),
        "plfunction": (lambda o: plfunction_from_json(_G, o),
                       plfunction_to_json(distance_function(_G, _CHAIN.v(1)))),
        "certificate": (lambda o: independence_certificate_from_json(_G, o),
                        {"points": [point, {"vertex": "v1"}],
                         "permutation": [1, 0], "offsets": ["0", "-1/2"]}),
    }


class TestInputBoundary:
    """Every JSON value reaches the constructor that checks it: a float
    where an integer belongs, or a rational string ``_rat`` does not
    read, raises ``GraphError`` from every reader; none is truncated by
    ``int()``."""

    CASES = [
        ("divisor", (0, "coeff"), 3.9),
        ("point", ("edge",), 1.0),
        ("point", ("edge",), 1.9),
        ("chain", ("g",), 3.0),
        ("certificate", ("permutation", 1), 0.0),
        ("point", ("offset",), "1.5"),
        ("divisor", (0, "point", "offset"), "1.5"),
        ("graph", ("edges", 0, 2), "1.5"),
        ("chain", ("ell", 0), "1.5"),
        ("plfunction", ("edges", "0", 0, "value"), "1.5"),
        ("certificate", ("offsets", 0), "1.5"),
    ]

    @pytest.mark.parametrize("reader,path,bad", CASES, ids=[
        "-".join(map(str, (reader, *path, bad))) for reader, path, bad in CASES])
    def test_reader_rejects_inexact_input(self, reader, path, bad):
        read, good = _readers()[reader]
        read(good)
        obj = json.loads(json.dumps(good))
        *outer, last = path
        inner = obj
        for key in outer:
            inner = inner[key]
        inner[last] = bad
        with pytest.raises(GraphError, match="integer" if isinstance(bad, float)
                           else "not an exact rational"):
            read(obj)


    @pytest.mark.parametrize("reader,key,bad", [
        ("chain", "ell", "777"), ("chain", "beta", "11"), ("chain", "m", 5),
        ("graph", "vertices", "ab"), ("graph", "edges", ["ab1"]),
    ])
    def test_string_or_int_where_a_list_belongs_rejected(self, reader, key, bad):
        read, good = _readers()[reader]
        obj = json.loads(json.dumps(good))
        obj[key] = bad
        with pytest.raises(GraphError, match="must be a list"):
            read(obj)

    CONTAINERS = [
        ("certificate", ("offsets",), "000", "offsets must be a list"),
        ("certificate", ("points",), "ab", "points must be a list"),
        ("certificate", ("permutation",), "10", "permutation must be a list"),
        ("certificate", ("points", 0), "v1", "a point must be a JSON object"),
        ("point", (), "v1", "a point must be a JSON object"),
        ("divisor", (0,), "v1", "a divisor term must be a JSON object"),
        ("divisor", (0, "point"), ["v1"], "a point must be a JSON object"),
        ("plfunction", ("edges",), [[]], "edges must be a JSON object"),
        ("plfunction", ("edges", "0"), "ab", "breakpoints must be a list"),
        ("plfunction", ("edges", "0", 0), "ab", "a breakpoint must be a JSON object"),
        ("plfunction", (), [], "a PL function must be a JSON object"),
        ("certificate", (), [], "a certificate must be a JSON object"),
        ("graph", (), "g", "a graph must be a JSON object"),
        ("chain", (), [], "a chain must be a JSON object"),
    ]

    @pytest.mark.parametrize("reader,path,bad,message", CONTAINERS, ids=[
        "-".join(map(str, (reader, *path, bad))) for reader, path, bad, _m in CONTAINERS])
    def test_wrong_container_type_rejected(self, reader, path, bad, message):
        read, good = _readers()[reader]
        obj = json.loads(json.dumps(good))
        if path:
            *outer, last = path
            inner = obj
            for key in outer:
                inner = inner[key]
            inner[last] = bad
        else:
            obj = bad
        with pytest.raises(GraphError, match=message):
            read(obj)

    MISSING = [
        ("point", (), "edge"), ("point", (), "offset"),
        ("divisor", (0,), "point"), ("divisor", (0,), "coeff"),
        ("divisor", (0, "point"), "edge"),
        ("graph", (), "vertices"), ("graph", (), "edges"),
        ("chain", (), "g"), ("chain", (), "ell"), ("chain", (), "m"), ("chain", (), "beta"),
        ("plfunction", (), "edges"),
        ("plfunction", ("edges", "0", 0), "offset"), ("plfunction", ("edges", "0", 0), "value"),
        ("certificate", (), "points"), ("certificate", (), "permutation"),
        ("certificate", (), "offsets"), ("certificate", ("points", 0), "offset"),
    ]

    @pytest.mark.parametrize("reader,path,key", MISSING, ids=[
        "-".join(map(str, (reader, *path, key))) for reader, path, key in MISSING])
    def test_missing_key_is_named(self, reader, path, key):
        read, good = _readers()[reader]
        obj = json.loads(json.dumps(good))
        inner = obj
        for step in path:
            inner = inner[step]
        del inner[key]
        with pytest.raises(GraphError, match=f"has no '{key}'"):
            read(obj)

    @pytest.mark.parametrize("key", ["x", " 0", "0 ", "00", "+0", "-1", "1.0", "", "\u0660"])
    def test_edge_key_must_be_canonical_decimal(self, key):
        # int() reads all but "x", "1.0" and "" as an edge index
        read, good = _readers()["plfunction"]
        obj = json.loads(json.dumps(good))
        obj["edges"][key] = obj["edges"].pop("0")
        with pytest.raises(GraphError, match="is not an edge index"):
            read(obj)

    def test_chain_reader_needs_a_chain(self):
        obj = chain_to_json(default_generic_chain(2))
        obj["type"] = "graph"
        with pytest.raises(GraphError, match="not a chain description"):
            chain_from_json(obj)


class TestDumps:
    def test_canonical_output(self):
        obj = {"b": Fraction(1, 2), "a": [Fraction(3)]}
        text = dumps(obj)
        assert text.endswith("\n")
        assert json.loads(text) == {"a": ["3"], "b": "1/2"}
        assert text.index('"a"') < text.index('"b"')

    def test_empty_containers_and_scalars(self):
        obj = {"d": {}, "l": [], "t": (), "n": None, "b": [True, False]}
        assert dumps(obj) == _reference(obj)

    @pytest.mark.parametrize("items", [[], [{"i": 0}], [{"i": 0}, [], {"i": Fraction(1, 2)}]])
    def test_generator_written_as_its_list(self, items):
        obj = {"n": len(items), "items": items}
        want = _reference(obj)
        assert dumps({**obj, "items": (x for x in items)}) == want
        fh = io.StringIO()
        dump({**obj, "items": (x for x in items)}, fh)
        assert fh.getvalue() == want

    def test_dump_writes_each_item_before_the_next_is_made(self):
        fh = io.StringIO()
        written = []

        def items():
            for i in range(3):
                written.append(fh.getvalue())
                yield {"i": i}

        dump({"items": items()}, fh)
        assert [w.count('"i": ') for w in written] == [0, 1, 2]
        assert fh.getvalue() == _reference({"items": [{"i": i} for i in range(3)]})

    @pytest.mark.parametrize("obj", [{1: "a"}, {"a": {(1, 2): 0}},
                                     {"a": {1, 2}}, [b"x"], 1 + 2j,
                                     0.5, math.nan, math.inf,
                                     # the writer dispatches on exact types
                                     *(type("Sub", (t,), {})(v) for t, v in
                                       ((str, "a"), (dict, {"a": 1}), (list, [1])))])
    def test_unsupported_keys_and_values_raise(self, obj):
        with pytest.raises(TypeError):
            dumps(obj)

    @pytest.mark.parametrize("name", ["reductions", "ranks", "dependence"])
    def test_golden_entries_reencode(self, name):
        data = json.loads((DATA / f"{name}_golden.json").read_text())
        entries = data["reductions"] + data["pairs"] if name == "reductions" else data
        assert entries
        for entry in entries:
            assert dumps(entry) == _reference(entry)

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers(-10**30, 10**30)
        | st.fractions() | _TEXT,
        lambda kids: (st.lists(kids, max_size=4)
                      | st.lists(kids, max_size=4).map(tuple)
                      | st.dictionaries(_TEXT, kids, max_size=4)),
        max_leaves=30))
    def test_matches_the_standard_library(self, obj):
        assert dumps(obj) == _reference(obj)

