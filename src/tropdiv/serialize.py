"""JSON serialization with exact round-tripping.

Rationals travel as strings "p" or "p/q" in lowest terms; points as
{"edge": id, "offset": "p/q"} (or {"vertex": name} on input); divisors as
sorted lists of {point, coeff}; independence certificates as
{points, permutation, offsets}.  Output is deterministic: keys
sorted, rationals canonical.

``dumps`` writes, with its own small recursive writer, the text of
``json.dumps(obj, sort_keys=True, indent=2)`` and a trailing newline,
byte for byte: one item per line, indented two spaces per level, ","
ending every line of a container but its last, ": " after each key,
``[]`` and ``{}`` for empty containers, and strings escaped to ASCII by
the standard library's C encoder.  (``json``'s own indented encoder runs
in pure Python, and it cost more than the reductions it printed.)
Rationals are written from their integers, never through ``Fraction``.
"""
from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, inf
from typing import Any

from .errors import GraphError
from .graph import ChainOfLoops, Divisor, MetricGraph, Point
from .independence import IndependenceCertificate
from .plfunc import PLFunction


def rat_to_json(x: Fraction | int) -> str:
    """``x``, an int or a ``Fraction``, as "p" or "p/q"; ``TypeError`` for
    anything else, floats and strings included."""
    if not isinstance(x, (Fraction, int)):
        raise TypeError(f"not an exact rational: {x!r}")
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _ratio(n: int, s: int) -> str:
    """The rational n/s, s > 0, as :func:`rat_to_json` writes it."""
    g = gcd(n, s)
    return str(n // g) if g == s else f"{n // g}/{s // g}"


def rat_from_json(s: Any) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise GraphError(f"expected a rational string, got {s!r}")
    try:
        # a third part fails the unpacking, a part int() rejects the parse
        num, den = map(int, s.split("/")) if "/" in s else (int(s), 1)
    except ValueError:
        raise GraphError(f"malformed rational {s!r}") from None
    if den == 0:
        raise GraphError(f"zero denominator in {s!r}")
    return Fraction(num, den)


def point_to_json(graph: MetricGraph, p: Point) -> dict:
    ei, off = graph.edge_coordinates(p)[0]
    return {"edge": ei, "offset": rat_to_json(off)}


def point_from_json(graph: MetricGraph, obj: dict) -> Point:
    if "vertex" in obj:
        return graph.vertex_point(obj["vertex"])
    return graph.point(int(obj["edge"]), rat_from_json(obj["offset"]))


def divisor_to_json(graph: MetricGraph, D: Divisor) -> list:
    items = sorted(D.items(), key=lambda t: t[0].sort_key())
    return [{"point": point_to_json(graph, p), "coeff": c} for p, c in items]


def divisor_from_json(graph: MetricGraph, obj: list) -> Divisor:
    return Divisor([(point_from_json(graph, t["point"]), int(t["coeff"]))
                    for t in obj])


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
        G = chain.graph
        obj["pendant"] = [rat_to_json(G.edge_length(chain.bridge_edge(0))),
                          rat_to_json(G.edge_length(chain.bridge_edge(chain.g)))]
    return obj


def graph_from_json(obj: dict) -> MetricGraph:
    kind = obj.get("type", "graph")
    if kind == "chain":
        return chain_from_json(obj).graph
    return MetricGraph(obj["vertices"],
                       [(u, v, rat_from_json(l)) for (u, v, l) in obj["edges"]])


def chain_from_json(obj: dict) -> ChainOfLoops:
    if obj.get("type") != "chain":
        raise GraphError("not a chain description")
    return ChainOfLoops(
        int(obj["g"]),
        [rat_from_json(x) for x in obj["ell"]],
        [rat_from_json(x) for x in obj["m"]],
        [rat_from_json(x) for x in obj["beta"]],
        extended=bool(obj.get("extended", False)),
        pendant=[rat_from_json(x) for x in obj.get("pendant", [1, 1])],
    )


def plfunction_to_json(f: PLFunction) -> dict:
    return {
        "edges": {
            str(ei): [{"offset": _ratio(o, s), "value": _ratio(v, s)}
                      for (o, v) in zip(O, V)]
            for ei, (s, O, V) in enumerate(f.scaled)
        }
    }


def plfunction_from_json(graph: MetricGraph, obj: dict) -> PLFunction:
    data = {
        int(ei): [(rat_from_json(t["offset"]), rat_from_json(t["value"]))
                  for t in pts]
        for ei, pts in obj["edges"].items()
    }
    return PLFunction(graph, data)


def independence_certificate_to_json(graph: MetricGraph,
                                     cert: IndependenceCertificate) -> dict:
    return {"points": [point_to_json(graph, p) for p in cert.points],
            "permutation": list(cert.permutation),
            "offsets": [rat_to_json(b) for b in cert.offsets]}


def independence_certificate_from_json(graph: MetricGraph,
                                       obj: dict) -> IndependenceCertificate:
    return IndependenceCertificate(
        tuple(point_from_json(graph, p) for p in obj["points"]),
        tuple(int(j) for j in obj["permutation"]),
        tuple(rat_from_json(b) for b in obj["offsets"]))


def dumps(obj: Any) -> str:
    """Canonical JSON text: sorted keys, stable layout, trailing newline.

    The text is that of ``json.dumps(obj, sort_keys=True, indent=2)``
    plus "\\n", for dicts with ``str`` keys, lists, tuples, strings,
    ints, bools, ``None`` and floats (``NaN`` and ``Infinity`` as
    ``json`` writes them); ``Fraction`` values anywhere in ``obj`` are
    written as the string :func:`rat_to_json` gives.  Any other key or
    value raises ``TypeError``.
    """
    out: list[str] = []
    _write(obj, "\n", out.append)
    return "".join(out) + "\n"


def _write(o: Any, nl: str, emit) -> None:
    """Pass the JSON text of ``o`` to ``emit`` in pieces; ``nl`` is a
    newline and the indent of ``o``'s own level."""
    if isinstance(o, str):
        emit(_quote(o))
    elif isinstance(o, dict):
        if not o:
            emit("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(o):
            emit(sep)
            emit(_quote(k))
            emit(": ")
            _write(o[k], inner, emit)
            sep = "," + inner
        emit(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            emit("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for x in o:
            emit(sep)
            _write(x, inner, emit)
            sep = "," + inner
        emit(nl + "]")
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
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == inf:
            return "Infinity"
        if o == -inf:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
