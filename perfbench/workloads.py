"""The benchmark's workloads.

A workload is built from a seed; building it is the set-up that
``setup_s`` times.  It then hands out its ops in rounds.  Every round
holds the same mix of input classes, so runs on different seeds do the
same kinds of work and differ only in the generated inputs; the first
``pool_rounds`` rounds are generated in set-up and later ones on demand.
``run`` performs one op through the library's public functions and
``check`` verifies its output exactly.
"""
from __future__ import annotations

import json
import os
import shutil
import tempfile
from fractions import Fraction
from itertools import combinations, product

import tropdiv.cli
from tropdiv import (chainbn, graph, independence, plfunc, reduce, sampling,
                     serialize)

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def shuffled(items: list, rng) -> list:
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


class Workload:
    name = ""
    round_s = 1.0        # op seconds per round at the reference speed
    pool_rounds = 1
    setup_repeats = 5    # setup_s is the median over this many set-ups

    def __init__(self, seed: int, tracer):
        self.tracer = tracer
        self.rng = sampling.SplitMix64(seed)
        self.pool: list[list] = []
        self.served = 0

    def fill_pool(self) -> None:
        with self.tracer.span("sampling.inputs"):
            self.pool = [self.make_round() for _ in range(self.pool_rounds)]

    def next_round(self) -> list:
        if self.served < len(self.pool):
            ops = self.pool[self.served]
        else:
            with self.tracer.span("sampling.inputs"):
                ops = self.make_round()
        self.served += 1
        return ops

    def make_round(self) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> bool:
        raise NotImplementedError

    def probe(self) -> dict:
        """Counts from fixed probes outside the timed ops."""
        return {}

    def close(self) -> None:
        pass


class Reduce(Workload):
    """v_reduce with a witness, then the result serialized as by
    ``tropdiv reduce``, on the genus-3 default chain.  Every round holds one
    divisor with one chip of debt for each degree 0..2g, with chips and
    base point at random multiples of 1/16 of an edge.

    The cost of a reduction follows the distance from the base to the
    debt, so the debt chip is drawn from one of 2g+1 equal distance bands
    around the base, each band used once per round.  Divisors without
    debt took a few ms against tens for those with, so a mix of both put
    the median between the two groups, where it jumped by a quarter from
    seed to seed; debts of two chips left too few ops in a run."""

    name = "reduce"
    round_s = 0.7
    pool_rounds = 29
    genus = 3

    def __init__(self, seed, tracer):
        super().__init__(seed, tracer)
        self.graph = graph.default_generic_chain(self.genus).graph
        self.fill_pool()

    def point_in_band(self, base, band: int, bands: int):
        G, rng = self.graph, self.rng
        reach = max(G.distance(base, G.vertex_point(v)) for v in G.vertices)
        lo, hi = reach * band / bands, reach * (band + 1) / bands
        last = band == bands - 1
        for _ in range(10_000):
            p = sampling.random_point(G, rng)
            d = G.distance(base, p)
            if lo <= d and (d < hi or last):
                return p
        raise RuntimeError(f"no point in distance band {band} around {base}")

    def make_round(self):
        G, rng = self.graph, self.rng
        degrees = range(2 * self.genus + 1)
        ops = []
        for deg, band in zip(degrees, shuffled(degrees, rng)):
            base = sampling.random_point(G, rng, 16)
            D = graph.Divisor({self.point_in_band(base, band, len(degrees)): -1})
            D = D + sampling.random_effective_divisor(G, rng, deg + 1)
            ops.append((D, base))
        return shuffled(ops, rng)

    def run(self, op):
        D, base = op
        G = self.graph
        res = reduce.v_reduce(G, D, base)
        text = serialize.dumps({
            "input": serialize.divisor_to_json(G, D),
            "base": serialize.point_to_json(G, base),
            "reduced": serialize.divisor_to_json(G, res.reduced),
            "witness": serialize.plfunction_to_json(res.witness),
            "events": res.steps,
        })
        return res, text

    def check(self, op, out):
        D, base = op
        res, text = out
        G = self.graph
        plain = reduce.v_reduce(G, D, base, track_witness=False)
        return (D + res.witness.divisor() == res.reduced
                and res.witness(base) == 0
                and reduce.is_reduced(G, res.reduced, base)
                and plain.reduced == res.reduced
                and json.loads(text)["reduced"]
                == serialize.divisor_to_json(G, res.reduced))


def divisor_with_debt(G, rng, degree: int, debt: int):
    """A divisor of the given degree with ``debt`` extra chips of debt
    beyond those a negative degree needs, as sampling.random_divisor
    draws them but with the debt chosen by the caller."""
    neg = debt + max(0, -degree)
    D = graph.Divisor([(sampling.random_point(G, rng), -1) for _ in range(neg)])
    return D + sampling.random_effective_divisor(G, rng, degree + neg)


class Rank(Workload):
    """riemann_roch_check at genus 3, and rank against the 4-fold
    subdivision oracle at genus 2 and 3.  Every round holds two
    Riemann-Roch ops for each degree -2..2g, each divisor with one chip of
    debt beyond those its degree needs, and one oracle op for each degree
    -2..4 at genus 2 and -2..1 at genus 3, its extra debt drawn from a
    balanced 0, 1, 2 cycle.

    The cost of a Riemann-Roch op grows with its debt, and mixing debts
    of 0, 1 and 2 chips, or genus 2 with genus 3, put the median between
    groups of ops, where it moved by a fifth from seed to seed.  Genus 4,
    and the oracle at higher degrees, took up to seconds an op, and the
    few such ops in a run moved its throughput by 15 %."""

    name = "rank"
    round_s = 2.1
    pool_rounds = 10
    rr_genus = 3
    oracle_degrees = {2: range(-2, 5), 3: range(-2, 2)}

    def __init__(self, seed, tracer):
        super().__init__(seed, tracer)
        self.graphs = {g: graph.default_generic_chain(g).graph
                       for g in sorted({self.rr_genus, *self.oracle_degrees})}
        self.fill_pool()

    def make_round(self):
        rng = self.rng
        g = self.rr_genus
        ops = [("rr", g, divisor_with_debt(self.graphs[g], rng, deg, 1))
               for deg in range(-2, 2 * g + 1) for _ in range(2)]
        for g, degrees in self.oracle_degrees.items():
            debts = shuffled([i % 3 for i in range(len(degrees))], rng)
            for deg, debt in zip(degrees, debts):
                ops.append(("oracle", g, divisor_with_debt(self.graphs[g], rng, deg, debt)))
        return shuffled(ops, rng)

    def run(self, op):
        kind, g, D = op
        G = self.graphs[g]
        if kind == "rr":
            return reduce.riemann_roch_check(G, D)
        return reduce.rank(G, D), reduce.rank_subdivision_oracle(G, D, n=4)

    def check(self, op, out):
        kind, g, D = op
        if kind == "rr":
            ok, r, r_adj = out
            return ok and r - r_adj == D.degree - g + 1
        r_fast, r_oracle = out
        return r_fast == r_oracle


class GP0(Workload):
    """``tropdiv gp0`` run in-process, one tableau per op, on chains that
    set-up writes as JSON; every round runs each tableau once, in an order
    drawn from the seed."""

    name = "gp0"
    round_s = 4.3
    pool_rounds = 5
    setup_repeats = 21
    # (g, r, d, tableau index): shapes (2,2) twice, (1,3), (1,4), (1,5)
    specs = ((4, 1, 3, 0), (4, 1, 3, 1), (3, 2, 4, 0), (4, 3, 6, 0),
             (5, 4, 8, 0))

    def __init__(self, seed, tracer):
        super().__init__(seed, tracer)
        os.makedirs(OUT_DIR, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="gp0-", dir=OUT_DIR)
        self.chain_files = {}
        for g in sorted({s[0] for s in self.specs}):
            chain = graph.default_generic_chain(g)
            path = os.path.join(self.dir, f"chain{g}.json")
            with open(path, "w") as fh:
                fh.write(serialize.dumps(serialize.chain_to_json(chain)))
            self.chain_files[g] = path
        self.report = os.path.join(self.dir, "report.json")
        self.fill_pool()

    def make_round(self):
        return shuffled(self.specs, self.rng)

    def run(self, op):
        g, r, d, t = op
        if os.path.exists(self.report):
            os.remove(self.report)  # a failed op must not read a stale report
        rc = tropdiv.cli.main([
            "gp0", "--g", str(g), "--r", str(r), "--d", str(d),
            "--lengths", self.chain_files[g], "--tableau", str(t),
            "--out", self.report])
        with open(self.report) as fh:
            return rc, json.load(fh)

    def check(self, op, out):
        g, r, d, _t = op
        rc, doc = out
        if rc != 0 or len(doc["reports"]) != 1:
            return False
        rep = doc["reports"][0]
        rows = g - d + r
        cells = {f"{j},{k}" for j in range(r + 1) for k in range(rows)}
        return (rep["verdict"] == "independent"
                and set(rep["empty_cells"]) == cells
                and sorted(rep["empty_cells"].values()) == list(range(1, g + 1)))

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def point_contact_family() -> list:
    """Four functions on one edge of length 2 that are dependent with all
    offsets 0, although the two coincident pairs meet only at a point."""
    G = graph.MetricGraph(["a", "b"], [("a", "b", 2)])
    pieces = ([(0, 0), (1, 0), (2, 1)], [(0, 0), (1, 0), (2, 2)],
              [(0, 1), (1, 0), (2, 0)], [(0, 2), (1, 0), (2, 0)])
    return [plfunc.PLFunction(G, {0: p}) for p in pieces]


class Dependence(Workload):
    """find_dependence on the rho = 0 families phi_j + psi_k of every
    tableau of shapes (2,2), (1,3), (1,4), (1,5), (3,2) and (2,3), each
    with one planted member theta = min_j(f_j + b_j) over 2 or 3 of its
    own functions, b_j in -2..2.  Every round plants 2 functions in each
    of the 15 families and 3 in each of the five families of at most five
    functions.  Which functions, their offsets and where theta is inserted
    are dealt from shuffled decks, so that the rounds of a run cover them
    evenly."""

    name = "dependence"
    round_s = 2.2
    pool_rounds = 9
    setup_repeats = 3
    shapes = ((2, 2), (1, 3), (1, 4), (1, 5), (3, 2), (2, 3))

    def __init__(self, seed, tracer):
        super().__init__(seed, tracer)
        chains = {}
        self.families = []
        for rows, cols in self.shapes:
            g = rows * cols
            if g not in chains:
                chains[g] = graph.default_generic_chain(g)
            chain = chains[g]
            for T in chainbn.enumerate_tableaux(rows, cols):
                phis = [chainbn.build_Dj(T, chain, j)[1] for j in range(cols)]
                psis = [chainbn.build_Ek(T, chain, k)[1] for k in range(rows)]
                self.families.append([phi + psi for phi in phis for psi in psis])
        self.decks: dict[tuple, list] = {}
        self.fill_pool()

    def deal(self, key: tuple, cards):
        deck = self.decks.get(key)
        if not deck:
            deck = self.decks[key] = shuffled(cards, self.rng)
        return deck.pop()

    def plant(self, i: int, m: int) -> list:
        fam = self.families[i]
        members = self.deal((i, m), list(combinations(range(len(fam)), m)))
        offsets = self.deal((i, m, "b"), list(product(range(-2, 3), repeat=m)))
        theta = plfunc.min_combination([fam[j] for j in members],
                                       [Fraction(b) for b in offsets])
        pos = self.deal((i, m, "pos"), range(len(fam) + 1))
        return fam[:pos] + [theta] + fam[pos:]

    def make_round(self):
        ops = [self.plant(i, 2) for i in range(len(self.families))]
        ops += [self.plant(i, 3) for i, f in enumerate(self.families) if len(f) <= 5]
        return shuffled(ops, self.rng)

    def run(self, op):
        return independence.find_dependence(op)

    def check(self, op, cert):
        if cert is None:
            return False
        active = cert.active
        ok, _point = independence.verify_dependence(
            [op[j] for j in active], [cert.offsets[j] for j in active])
        return ok and len(active) >= 2

    def probe(self):
        # the family is dependent, yet the search misses it; counted here
        # rather than as a failed op (see README.md)
        fam = point_contact_family()
        dependent, _ = independence.verify_dependence(fam, [0] * len(fam))
        missed = dependent and independence.find_dependence(fam) is None
        return {"independence.known_misses": int(missed)}


WORKLOADS = {cls.name: cls for cls in (Reduce, Rank, GP0, Dependence)}
