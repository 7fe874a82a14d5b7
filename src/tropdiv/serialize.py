"""JSON serialization with exact round-tripping.

Each ``*_to_json`` writer has a ``*_from_json`` reader.  Rationals travel
as strings "p" or "p/q" in lowest terms (``rat_to_json``); points as
{"edge": id, "offset": "p/q"} (or {"vertex": name} on input); divisors as
sorted lists of {point, coeff}; independence certificates as {points,
permutation, offsets}.  The readers pass each JSON value as it is to the
constructor that checks it, so ``graph._rat`` reads every rational, and
a float where an integer belongs raises ``GraphError``.  ``dumps`` and
``dump`` write the canonical text.
"""
from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from types import GeneratorType
from typing import Any

from .errors import GraphError
from .graph import ChainOfLoops, Divisor, MetricGraph, Point, _rat, _seq
from .independence import IndependenceCertificate
from .plfunc import PLFunction


def rat_to_json(x: Fraction | int) -> str:
    """``x``, an int or a ``Fraction``, as "p" or "p/q"; ``TypeError`` for
    anything else, bools, floats and strings included."""
    if isinstance(x, Fraction):
        return Fraction.__str__(x)  # in lowest terms already
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"not an exact rational: {x!r}")
    return int.__repr__(x)


def _ratio(n: int, s: int) -> str:
    """The rational n/s, s > 0, as :func:`rat_to_json` writes it."""
    g = gcd(n, s)
    return str(n // g) if g == s else f"{n // g}/{s // g}"


def _obj(x, what: str) -> dict:
    """``x`` if it is a JSON object, ``GraphError`` otherwise, as
    ``graph._seq`` does for lists."""
    if not isinstance(x, dict):
        raise GraphError(f"{what} must be a JSON object, got {type(x).__name__}")
    return x


def _field(obj, key: str, what: str):
    """``obj[key]``; ``GraphError`` if ``what`` is not a JSON object, or
    if it lacks the key, which the message names."""
    if key not in _obj(obj, what):
        raise GraphError(f"{what} has no {key!r}")
    return obj[key]


def _edge_key(key) -> int:
    """The edge index a PL function's JSON key names: "0" or digits
    without a leading zero, so that " 0" or "00" is not read as edge 0,
    and fewer than 20 of them, as an index is below ``sys.maxsize``."""
    if not (isinstance(key, str) and key.isascii() and key.isdigit() and len(key) < 20
            and (key == "0" or key[0] != "0")):
        raise GraphError(f"edge key {key!r} is not an edge index")
    return int(key)


def point_to_json(graph: MetricGraph, p: Point) -> dict:
    graph.check_point(p)
    if p.is_vertex:
        # the first of ``edge_coordinates``, read with no Fraction built
        ei, side, _y = graph._incidence[graph.vertex_index[p.vertex]][0]
        return {"edge": ei, "offset": rat_to_json(graph.edges[ei][2]) if side else "0"}
    return {"edge": p.edge, "offset": rat_to_json(p.offset)}


def point_from_json(graph: MetricGraph, obj: dict) -> Point:
    if "vertex" in _obj(obj, "a point"):
        return graph.vertex_point(obj["vertex"])
    return graph.point(_field(obj, "edge", "a point"), _field(obj, "offset", "a point"))


def divisor_to_json(graph: MetricGraph, D: Divisor) -> list:
    items = sorted(D.items(), key=lambda t: t[0].sort_key())
    return [{"point": point_to_json(graph, p), "coeff": c} for p, c in items]


def divisor_from_json(graph: MetricGraph, obj: list) -> Divisor:
    return Divisor([(point_from_json(graph, _field(t, "point", "a divisor term")),
                     _field(t, "coeff", "a divisor term")) for t in _seq(obj, "a divisor")])


def graph_to_json(graph: MetricGraph) -> dict:
    return {
        "type": "graph",
        "vertices": list(graph.vertices),
        "edges": [[u, v, rat_to_json(l)] for (u, v, l) in graph.edges],
    }


def chain_to_json(chain: ChainOfLoops) -> dict:
    obj = {
        "type": "chain",
        "g": chain.g,
        "ell": [rat_to_json(x) for x in chain.ell],
        "m": [rat_to_json(x) for x in chain.m],
        "beta": [rat_to_json(x) for x in chain.beta],
        "extended": chain.extended,
    }
    if chain.extended:
        obj["pendant"] = [rat_to_json(x) for x in chain.pendant]
    return obj


def graph_from_json(obj: dict) -> MetricGraph:
    if _obj(obj, "a graph").get("type") == "chain":
        return chain_from_json(obj).graph
    return MetricGraph(_field(obj, "vertices", "a graph"), _field(obj, "edges", "a graph"))


def chain_from_json(obj: dict) -> ChainOfLoops:
    if _obj(obj, "a chain").get("type") != "chain":
        raise GraphError("not a chain description")
    g, ell, m, beta = (_field(obj, key, "a chain") for key in ("g", "ell", "m", "beta"))
    return ChainOfLoops(g, ell, m, beta, extended=obj.get("extended", False),
                        pendant=obj.get("pendant", (1, 1)))


def plfunction_to_json(f: PLFunction) -> dict:
    return {
        "edges": {
            str(ei): [{"offset": _ratio(o, s), "value": _ratio(v, s)}
                      for (o, v) in zip(O, V)]
            for ei, (s, O, V) in enumerate(f.scaled)
        }
    }


def plfunction_from_json(graph: MetricGraph, obj: dict) -> PLFunction:
    edges = _obj(_field(obj, "edges", "a PL function"), "a PL function's edges")
    return PLFunction(graph, {_edge_key(ei): [(_field(t, "offset", "a breakpoint"),
                                               _field(t, "value", "a breakpoint"))
                                              for t in _seq(pts, "an edge's breakpoints")]
                              for ei, pts in edges.items()})


def independence_certificate_to_json(graph: MetricGraph,
                                     cert: IndependenceCertificate) -> dict:
    return {"points": [point_to_json(graph, p) for p in cert.points],
            "permutation": list(cert.permutation),
            "offsets": [rat_to_json(b) for b in cert.offsets]}


def independence_certificate_from_json(graph: MetricGraph,
                                       obj: dict) -> IndependenceCertificate:
    what = "a certificate"
    perm = tuple(_seq(_field(obj, "permutation", what), "permutation"))
    if any(type(j) is not int for j in perm):
        raise GraphError(f"permutation {list(perm)} holds a non-integer")
    return IndependenceCertificate(
        tuple(point_from_json(graph, p) for p in _seq(_field(obj, "points", what), "points")),
        perm, tuple(_rat(b) for b in _seq(_field(obj, "offsets", what), "offsets")))


def dumps(obj: Any) -> str:
    """Canonical JSON text: sorted keys, stable layout, trailing newline.

    The text is that of ``json.dumps(obj, sort_keys=True, indent=2)``
    plus "\\n", for dicts with ``str`` keys, lists, tuples, strings,
    ints, bools and ``None``; a generator is written as the list of what
    it yields, and ``Fraction`` values anywhere in ``obj`` as the string
    :func:`rat_to_json` gives.  Any other key or value, a float or a
    subclass of str, dict or list included, raises ``TypeError``: output
    is exact, as input is.
    """
    out: list[str] = []
    _write(obj, "\n", out.append)
    return "".join(out) + "\n"


def dump(obj: Any, fh) -> None:
    """Write the text of :func:`dumps` to the text file ``fh`` piece by
    piece, so that a generator in ``obj`` is never held whole."""
    _write(obj, "\n", fh.write)
    fh.write("\n")


def _write(o: Any, nl: str, emit) -> None:
    """Pass the JSON text of ``o`` to ``emit`` in pieces; ``nl`` is a
    newline and the indent of ``o``'s own level.  Strings and containers
    go by exact type; a dict's str and int values go out with their key.
    One item per line, indented two spaces per level, "," ending every
    line of a container but its last, ": " after each key, ``[]`` and
    ``{}`` for empty containers, and strings escaped to ASCII by the
    standard library's C encoder: ``json``'s own indented encoder runs in
    pure Python, and it cost more than the reductions it printed."""
    t = type(o)
    if t is str:
        emit(_quote(o))
    elif t is dict:
        if not o:
            emit("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(o):
            v = o[k]
            tv = type(v)
            if tv is str or tv is int:
                emit(f"{sep}{_quote(k)}: {_quote(v) if tv is str else int.__repr__(v)}")
            else:
                emit(f"{sep}{_quote(k)}: ")
                _write(v, inner, emit)
            sep = "," + inner
        emit(nl + "}")
    elif t is list or t is tuple or t is GeneratorType:
        inner = nl + "  "
        sep = "[" + inner
        for x in o:
            emit(sep)
            _write(x, inner, emit)
            sep = "," + inner
        # sep still opens the list when nothing was written
        emit("[]" if sep[0] == "[" else nl + "]")
    else:
        emit(_scalar(o))


def _scalar(o: Any) -> str:
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, Fraction):
        return _quote(rat_to_json(o))
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
