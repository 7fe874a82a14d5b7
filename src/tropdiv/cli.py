"""Command-line front end.

Subcommands: chain-new, reduce, rr-check, gp0, shape.  ``main`` maps
errors to the ``EXIT_*`` codes; README's "Command line" section states
what they mean.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from contextlib import suppress

from .chainbn import (enumerate_tableaux, gp_rho_zero_experiment,
                      hook_length_count, shape_profile)
from .errors import (GenericityError, GraphError, PreconditionError,
                     ReductionCapError, TheoremViolation)
from .graph import BNParams, ChainOfLoops, MetricGraph, default_generic_chain
from .reduce import riemann_roch_check, v_reduce
from .sampling import SplitMix64, random_divisor
from . import serialize as sz

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _emit(obj, out_path: str | None) -> None:
    """Write ``obj`` as :func:`serialize.dumps` text to stdout in one
    piece, or to ``out_path`` as its generators yield: into
    ``<out_path>.part``, renamed to ``out_path`` once complete and
    deleted on any exception, so a failure leaves no file behind."""
    if not out_path:
        sys.stdout.write(sz.dumps(obj))
        return
    part = out_path + ".part"
    try:
        with open(part, "w") as fh:
            sz.dump(obj, fh)
        os.replace(part, out_path)
    except BaseException:
        with suppress(OSError):
            os.remove(part)
        raise


def _load_json(path: str):
    with open(path) as fh:
        # ValueError: bad syntax or UTF-8, an int past the digit limit
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as e:
            raise PreconditionError(f"{path} is not JSON: {type(e).__name__}: {e}") from None


def _load_chain_arg(args) -> ChainOfLoops:
    if args.lengths:
        return sz.chain_from_json(_load_json(args.lengths))
    return default_generic_chain(args.g)


def _parse_base(graph: MetricGraph, text: str):
    # the edge index is read as a PL function's JSON edge key, so " 2",
    # "02", "+2" and "1_0" are no edge index
    if ":" in text:
        edge_s, off_s = text.split(":", 1)
        return graph.point(sz._edge_key(edge_s), off_s)
    return graph.vertex_point(text)


def cmd_chain_new(args) -> int:
    chain = _load_chain_arg(args)
    if chain.g != args.g:
        raise PreconditionError(f"--g {args.g} does not match the genus {chain.g} "
                                f"of the chain in {args.lengths}")
    if args.require_generic and not chain.generic:
        raise GenericityError("chain lengths are not generic")
    obj = sz.chain_to_json(chain)
    obj["graph"] = sz.graph_to_json(chain.graph)
    obj["generic"] = chain.generic
    _emit(obj, args.out)
    return EXIT_OK


def cmd_reduce(args) -> int:
    graph = sz.graph_from_json(_load_json(args.graph))
    D = sz.divisor_from_json(graph, _load_json(args.divisor))
    base = _parse_base(graph, args.base)
    res = v_reduce(graph, D, base)
    _emit({
        "input": sz.divisor_to_json(graph, D),
        "base": sz.point_to_json(graph, base),
        "reduced": sz.divisor_to_json(graph, res.reduced),
        "witness": sz.plfunction_to_json(res.witness),
        "events": res.steps,
    }, args.out)
    return EXIT_OK


def cmd_rr_check(args) -> int:
    if args.trials < 0:
        raise PreconditionError(f"--trials must be nonnegative, got {args.trials}")
    graph = sz.graph_from_json(_load_json(args.graph))
    g = graph.betti()
    rng = SplitMix64(args.seed)
    failures = []
    for t in range(args.trials):
        deg = rng.randint(-2, 2 * g)
        D = random_divisor(graph, rng, deg)
        ok, r1, r2 = riemann_roch_check(graph, D)
        if not ok:
            failures.append({
                "trial": t,
                "divisor": sz.divisor_to_json(graph, D),
                "rank": r1,
                "rank_adjoint": r2,
            })
    obj = {"trials": args.trials, "genus": g, "seed": args.seed,
           "failures": failures, "passed": not failures}
    if args.trials == 0:
        obj["warning"] = "zero trials requested; nothing was checked"
    _emit(obj, args.out)
    return EXIT_FALSIFIED if failures else EXIT_OK


def cmd_gp0(args) -> int:
    chain = _load_chain_arg(args)
    rho = BNParams(args.g, args.r, args.d).rho
    if rho != 0:
        raise PreconditionError(f"rho(g,r,d) = {rho}, gp0 needs rho = 0")
    # rho = 0 makes rows * cols = g
    rows, cols = args.g - args.d + args.r, args.r + 1
    tableaux = enumerate_tableaux(rows, cols)
    if args.tableau != "all":
        index = args.tableau
        count = hook_length_count(rows, cols)
        if not 0 <= index < count:
            raise PreconditionError(f"tableau index {index} is out of range: shape "
                                    f"{rows}x{cols} has {count} tableaux")
        tableaux = itertools.islice(tableaux, index, index + 1)

    def reports():
        for T in tableaux:
            rep = gp_rho_zero_experiment(T, chain)
            yield {
                "g": args.g, "r": args.r, "d": args.d,
                "tableau": T.entries,
                "verdict": rep.verdict,
                "empty_cells": {f"{j},{k}": i
                                for (j, k), i in rep.empty_cell_table.items()},
                "certificate": sz.independence_certificate_to_json(
                    chain.graph, rep.independence_certificate),
            }

    _emit({"reports": reports()}, args.out)
    return EXIT_OK


def cmd_shape(args) -> int:
    chain = sz.chain_from_json(_load_json(args.graph))
    D = sz.divisor_from_json(chain.graph, _load_json(args.divisor))
    prof = shape_profile(D, chain)
    _emit({
        "cells": list(prof.cells),
        "bridges": list(prof.bridges),
        "wg_coeff": prof.wg_coeff,
        "empty_cells": list(prof.empty_cells()),
    }, args.out)
    return EXIT_OK


def tableau_index(text: str):
    """--tableau's value: "all", or an int that ``cmd_gp0`` range-checks."""
    return text if text == "all" else int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tropdiv",
        description="Exact divisor theory on metric graphs: reduction, rank, "
                    "tropical Riemann-Roch, and independence experiments on "
                    "chains of loops.")
    sub = p.add_subparsers(dest="cmd", required=True)

    pc = sub.add_parser("chain-new", help="construct a chain of loops")
    pc.add_argument("--g", type=int, required=True)
    pc.add_argument("--lengths", help="JSON chain description file")
    pc.add_argument("--require-generic", action="store_true")
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_chain_new)

    pr = sub.add_parser("reduce", help="reduce a divisor at a base point")
    pr.add_argument("graph")
    pr.add_argument("divisor")
    pr.add_argument("--base", required=True,
                    help="vertex name or edge:offset (offset as p/q)")
    pr.add_argument("--out")
    pr.set_defaults(func=cmd_reduce)

    pq = sub.add_parser("rr-check", help="randomized Riemann-Roch identity check")
    pq.add_argument("graph")
    pq.add_argument("--trials", type=int, default=50)
    pq.add_argument("--seed", type=int, default=0)
    pq.add_argument("--out")
    pq.set_defaults(func=cmd_rr_check)

    pg = sub.add_parser("gp0", help="rho=0 independence experiments")
    pg.add_argument("--g", type=int, required=True)
    pg.add_argument("--r", type=int, required=True)
    pg.add_argument("--d", type=int, required=True)
    pg.add_argument("--lengths", help="JSON chain description file")
    pg.add_argument("--tableau", default="all", type=tableau_index,
                    help="index i in Yamanouchi-word order "
                    "(the row-concatenated entries' on <= 2 rows and at the first and "
                    "last index), reached by enumerating i tableaux; or 'all'")
    pg.add_argument("--out")
    pg.set_defaults(func=cmd_gp0)

    ps = sub.add_parser("shape", help="cell occupancy profile of a divisor")
    ps.add_argument("graph", help="chain JSON file")
    ps.add_argument("divisor")
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_shape)
    return p


# built once per process: parse_args leaves a parser as it found it,
# and each subcommand's func is a module function that looks up what
# it calls when it runs
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_OK
    try:
        return args.func(args)
    except TheoremViolation as e:
        sys.stderr.write(f"falsified: {e}\n")
        return EXIT_FALSIFIED
    except ReductionCapError as e:
        sys.stderr.write(f"cap exceeded: {e}\n")
        return EXIT_CAP
    except (GraphError, GenericityError, PreconditionError,
            OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except Exception as e:
        sys.stderr.write(f"internal error: {type(e).__name__}: {e}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
