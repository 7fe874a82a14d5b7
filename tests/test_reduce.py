"""Tests for burning, reduction, equivalence, and rank."""
from collections import Counter
from fractions import Fraction
from math import lcm
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings, strategies as st

from tropdiv import (Divisor, MetricGraph, Point, canonical_divisor,
                     default_generic_chain)
from tropdiv import reduce as reduce_core
from tropdiv.chainbn import enumerate_tableaux, gp_rho_zero_experiment
from tropdiv.errors import (GraphError, PreconditionError, ReductionCapError,
                            TheoremViolation)
from tropdiv.graph import Interval, Region
from tropdiv.plfunc import PLFunction, distance_function, min_combination
from tropdiv.reduce import (DEFAULT_MAX_STEPS, _Lattice, _fire, _potential, _Runs,
                            default_base, default_rank_points,
                            dhar_unburnt, effective_class,
                            find_unoccupied_edge, is_equivalent, is_reduced, rank,
                            rank_subdivision_oracle, riemann_roch_check,
                            v_reduce)
from tropdiv.sampling import (SplitMix64, random_divisor, random_effective_divisor,
                              random_point)

from . import reference_core
from .conftest import (circle_graph, coprime_graph, k4_graph, petersen_graph,
                       random_connected_graph, solve_potential, theta_graph)


def lollipop_graph() -> MetricGraph:
    """An edge a-b with a self-loop at b."""
    return MetricGraph(["a", "b"], [("a", "b", Fraction(2)), ("b", "b", Fraction(3))])


def two_loops_graph() -> MetricGraph:
    """A bridge a-b with a self-loop at each end."""
    return MetricGraph(["a", "b"], [("a", "a", Fraction(3)), ("a", "b", Fraction(1, 2)),
                                    ("b", "b", Fraction(5, 2))])


def bouquet_graph() -> MetricGraph:
    """One vertex with two loops: the Laplacian system for the witness's
    vertex values is empty."""
    return MetricGraph(["a"], [("a", "a", Fraction(2)), ("a", "a", Fraction(5, 2))])


class TestBurning:
    def test_effective_reduced_divisor_burns_completely(self):
        G = theta_graph()
        a = G.vertex_point("a")
        assert is_reduced(G, Divisor({a: 5}), a)
        assert dhar_unburnt(G, Divisor({a: 5}), a).is_empty

    def test_debt_away_from_the_base_is_not_reduced(self):
        # debt at the base itself is allowed, anywhere else it is not
        G = theta_graph()
        a, b = G.vertex_point("a"), G.vertex_point("b")
        assert is_reduced(G, Divisor({a: -1}), a)
        assert not is_reduced(G, Divisor({a: 2, b: -1}), a)

    @pytest.mark.parametrize("coeff", [1, -1])
    def test_point_the_graph_lacks_raises(self, chain2, coeff):
        # whatever its coefficient: debt there would otherwise answer False
        foreign = default_generic_chain(3).graph.point(6, Fraction(1, 2))
        with pytest.raises(GraphError):
            is_reduced(chain2.graph, Divisor({foreign: coeff, chain2.v(1): 2}), chain2.v(1))

    def test_blocking_chips_survive(self):
        G = circle_graph(4)
        a = G.vertex_point("a")
        p = G.point(0, 1)
        # two chips at the antipode block fire from both sides
        far = G.point(1, Fraction(1))
        unburnt = dhar_unburnt(G, Divisor({far: 2}), a)
        assert not unburnt.is_empty
        assert unburnt.contains(far)
        assert not unburnt.contains(p)

    def test_debt_away_from_base_rejected(self):
        G = theta_graph()
        a, b = G.vertex_point("a"), G.vertex_point("b")
        with pytest.raises(PreconditionError):
            dhar_unburnt(G, Divisor({b: -1}), a)


def probe_points(G: MetricGraph, D: Divisor, base: Point) -> list[Point]:
    """Every vertex, chip point and interior base, and the midpoint of each
    piece of an edge between them."""
    cuts: dict[int, set[Fraction]] = {ei: {Fraction(0), G.edge_length(ei)}
                                      for ei in range(len(G.edges))}
    for p in [base, *D.support()]:
        if not p.is_vertex:
            cuts[p.edge].add(p.offset)
    pts = []
    for ei, offs in cuts.items():
        offs = sorted(offs)
        pts += [G.point(ei, o) for o in offs]
        pts += [G.point(ei, (lo + hi) / 2) for lo, hi in zip(offs, offs[1:])]
    return pts


def assert_unburnt(G: MetricGraph, D: Divisor, base: Point, intervals=(), points=()):
    """dhar_unburnt(G, D, base) holds exactly the given closed intervals
    (edge, lo, hi) and isolated points, probed at every breakpoint and
    midpoint; ``is_reduced`` holds iff they are empty."""
    want = Region(G, [Interval(ei, Fraction(lo), Fraction(hi)) for ei, lo, hi in intervals],
                  points)
    got = dhar_unburnt(G, D, base)
    for p in probe_points(G, D, base):
        assert got.contains(p) == want.contains(p), p
    assert is_reduced(G, D, base) == want.is_empty


class TestBurnRules:
    """One hand-built burn per rule of the per-edge burn."""

    def test_lone_one_chip_point_reached_from_both_ends_burns(self):
        # circle of two edges of length 2 between a and b, base a
        G = circle_graph(4)
        a, b, p = G.vertex_point("a"), G.vertex_point("b"), G.point(0, 1)
        assert_unburnt(G, Divisor({p: 1}), a)
        # with a chip at b, fire reaches p from a only, so p survives
        # together with the piece of its edge up to b
        assert_unburnt(G, Divisor({p: 1, b: 1}), a, intervals=[(0, 1, 2)])

    def test_lone_two_chip_point_survives_as_an_isolated_point(self):
        G = circle_graph(4)
        p = G.point(0, 1)
        assert_unburnt(G, Divisor({p: 2}), G.vertex_point("a"), points=[p])

    def test_two_chips_on_one_edge_survive_with_the_interval_between(self):
        G = circle_graph(4)
        D = Divisor({G.point(0, Fraction(1, 2)): 1, G.point(0, Fraction(3, 2)): 1})
        assert_unburnt(G, D, G.vertex_point("a"),
                       intervals=[(0, Fraction(1, 2), Fraction(3, 2))])

    def test_corridor_runs_through_the_valence_two_end_of_the_chain(self):
        # two chips near w2 on the top edge of the last loop: they survive
        # as a point, and one step fires them by the corridor round w2 and
        # along the bottom edge to v2, shorter than the top edge back to v2
        chain = default_generic_chain(2)
        G = chain.graph
        top, bottom = chain.top_edge(2), chain.bottom_edge(2)
        ell = G.edge_length(top)
        p = G.point(top, ell - Fraction(1, 4))
        D, base = Divisor({p: 2}), chain.v(1)
        assert G.valence("w2") == 2
        assert_unburnt(G, D, base, points=[p])
        lat = _Lattice(G, [base, p])
        chips = lat.chips(D)
        with pytest.raises(ReductionCapError):
            reduce_core._fire(lat, chips, lat.key(base), [1])
        eps = Fraction(1, 4) + G.edge_length(bottom)
        assert lat.divisor(chips) == Divisor({chain.v(2): 1,
                                              G.point(top, ell - Fraction(1, 4) - eps): 1})

    def test_interior_base_with_chips_on_both_sides_of_its_edge(self):
        # fire from the base stops at the chip on each side of it, so
        # nothing else burns; chips or debt at the base change nothing
        G = circle_graph(4)
        base = G.point(0, 1)
        for c in (-1, 0, 2):
            D = Divisor({G.point(0, Fraction(1, 2)): 1, G.point(0, Fraction(3, 2)): 1,
                         base: c})
            assert_unburnt(G, D, base, intervals=[
                (0, 0, Fraction(1, 2)), (0, Fraction(3, 2), 2), (1, 0, 2)])

    def test_self_loop_at_the_base(self):
        # the lollipop's loop at b, length 3: both of its ends are the base
        G = lollipop_graph()
        b = G.vertex_point("b")
        p, q = G.point(1, 1), G.point(1, 2)
        assert_unburnt(G, Divisor({p: 1}), b)
        assert_unburnt(G, Divisor({p: 2}), b, points=[p])
        assert_unburnt(G, Divisor({p: 1, q: 1}), b, intervals=[(1, 1, 2)])
        # an interior base on the loop cuts it into two runs: fire crosses
        # the free one to b, too little for its two chips, and stops at q
        # on the other, so the edge to a and the piece from q to b survive
        assert_unburnt(G, Divisor({q: 1, b: 2}), p, intervals=[(0, 0, 2), (1, 2, 3)])


def oracle_graphs():
    rng = SplitMix64(4711)
    graphs = [(f"random{i}", random_connected_graph(rng)) for i in range(6)]
    graphs += [("lollipop", lollipop_graph()), ("bouquet", bouquet_graph()),
               ("theta", theta_graph()), ("circle", circle_graph(4))]
    graphs += [(f"chain{g}{'-extended' if extended else ''}",
                default_generic_chain(g, extended=extended).graph)
               for g in (2, 3, 4) for extended in (False, True)]
    return [pytest.param(name, G, id=name) for name, G in graphs]


class TestReferenceCore:
    """The per-edge burn and firing loop against the reference core, which
    rebuilds and burns the subdivided model on every step."""

    @staticmethod
    def bases(G: MetricGraph, rng: SplitMix64) -> list[Point]:
        out = [default_base(G), G.vertex_point(G.vertices[-1])]
        for _ in range(2):
            ei = rng.below(len(G.edges))
            out.append(G.point(ei, G.edge_length(ei) * Fraction(rng.randint(1, 7), 8)))
        return out

    @pytest.mark.parametrize("name,G", oracle_graphs())
    def test_burn_and_reduction_agree(self, name, G, monkeypatch):
        rng = SplitMix64(len(name) * 101 + len(G.edges))
        cases = []
        for base in self.bases(G, rng):
            for _ in range(8):
                # chips or debt at the base, and when it is interior, chips
                # on both sides of it on its own edge
                extra = Divisor({base: rng.randint(-2, 2)})
                if not base.is_vertex:
                    length = G.edge_length(base.edge)
                    below = base.offset * Fraction(rng.randint(1, 3), 4)
                    above = length - (length - base.offset) / 2
                    extra += Divisor({G.point(base.edge, below): 1,
                                      G.point(base.edge, above): 1})
                E = random_effective_divisor(G, rng, rng.randint(0, 5)) + extra
                D = random_divisor(G, rng, rng.randint(-1, 5)) + extra
                cases.append((base, E, D))
        # debt at two or three points, debt at the base with debt elsewhere,
        # and p - p' of degree 0, whose class is not effective unless p ~ p':
        # the base lends it g chips to pay p', and stays in debt after the
        # reduction when the class has no effective member
        debts = []
        for base in self.bases(G, rng):
            for _ in range(3):
                pts = [random_point(G, rng) for _ in range(3)]
                debts += [
                    (base, random_effective_divisor(G, rng, rng.randint(2, 6))
                     - Divisor([(pts[0], 1), (pts[1], 2), (pts[2], rng.randint(0, 1))])),
                    (base, random_effective_divisor(G, rng, rng.randint(1, 5))
                     - Divisor([(base, rng.randint(1, 2)), (pts[0], 1), (pts[1], 1)])),
                    (base, Divisor([(pts[0], 1), (pts[1], -1)]))]
        new = [(dhar_unburnt(G, E, base), v_reduce(G, D, base, track_witness=False))
               for base, E, D in cases]
        new_debts = [v_reduce(G, D, base, track_witness=False) for base, D in debts]
        with monkeypatch.context() as m:
            m.setattr(reduce_core, "_fire", reference_core._fire)
            for (base, E, D), (unburnt, res) in zip(cases, new):
                ref = reference_core.dhar_unburnt(G, E, base)
                assert (unburnt.intervals, unburnt.points) == (ref.intervals, ref.points), (
                    base, E)
                assert is_reduced(G, E, base) == unburnt.is_empty, (base, E)
                ref = v_reduce(G, D, base, track_witness=False)
                assert (res.reduced, res.steps) == (ref.reduced, ref.steps), (base, D)
            for (base, D), res in zip(debts, new_debts):
                ref = v_reduce(G, D, base, track_witness=False)
                assert (res.reduced, res.steps) == (ref.reduced, ref.steps), (base, D)
        assert sum(not unburnt.is_empty for unburnt, _res in new) >= len(cases) // 4
        # on a graph with a cycle, some p - p' (every third case) are not
        # effective, so the base that lent chips to pay p' stays in debt
        not_effective = sum(res.reduced.coeff(base) < 0
                            for (base, _D), res in zip(debts[2::3], new_debts[2::3]))
        assert not_effective >= (1 if G.betti() else 0)


class TestReduction:
    def test_circle_group_law(self):
        # on a circle, deg-2 divisor p + q reduces at a to a + (p +_circle q)
        G = circle_graph(4)
        a = G.vertex_point("a")
        p = G.point(0, Fraction(1, 2))
        res = v_reduce(G, Divisor({p: 2}), a)
        assert res.reduced == Divisor({a: 1, G.point(0, 1): 1})

    def test_witness_equation_and_normalization(self, chain2, rng):
        G = chain2.graph
        base = default_base(G)
        for _ in range(5):
            D = random_divisor(G, rng, rng.randint(-2, 4))
            res = v_reduce(G, D, base)
            assert D + res.witness.divisor() == res.reduced
            assert res.witness(base) == 0

    def test_idempotent(self, chain2, rng):
        G = chain2.graph
        base = default_base(G)
        D = random_divisor(G, rng, 3)
        red = v_reduce(G, D, base).reduced
        assert is_reduced(G, red, base)
        assert v_reduce(G, red, base).reduced == red

    def test_debt_is_cleared(self, chain2):
        G = chain2.graph
        base = default_base(G)
        far = chain2.w(2)
        res = v_reduce(G, Divisor({far: -2, base: 5}), base)
        assert all(c >= 0 for p, c in res.reduced.items() if p != base)

    def test_cap_raises(self, chain2, monkeypatch):
        G = chain2.graph
        D = Divisor({chain2.w(2): 3})
        monkeypatch.setattr(reduce_core, "DEFAULT_MAX_STEPS", 1)
        with pytest.raises(ReductionCapError):
            v_reduce(G, D, default_base(G))

    def test_cap_counts_debt_pass_steps(self, chain2, monkeypatch):
        # the base in debt with debt at w2, and p - p' with no effective
        # member: both have degree below g once the base's debt is set
        # aside, so the base is lent chips, and the debt pass's firings
        # draw from the one budget that the firing at the base then uses
        G = chain2.graph
        base = default_base(G)
        p, p2 = chain2.w(2), G.point(chain2.top_edge(1), Fraction(1, 3))
        spent = []
        clear_debt = reduce_core._clear_debt

        def counted(lat, chips, q, budget):
            before = budget[0]
            clear_debt(lat, chips, q, budget)
            spent.append(before - budget[0])

        monkeypatch.setattr(reduce_core, "_clear_debt", counted)
        for D in (Divisor({p: -1, chain2.v(2): 2, base: -1}), Divisor({p: 1, p2: -1})):
            assert D.degree - min(D.coeff(base), 0) < G.betti()
            spent.clear()
            monkeypatch.setattr(reduce_core, "DEFAULT_MAX_STEPS", DEFAULT_MAX_STEPS)
            res = v_reduce(G, D, base)
            assert spent[0] > 0
            monkeypatch.setattr(reduce_core, "DEFAULT_MAX_STEPS", res.steps)
            assert v_reduce(G, D, base).steps == res.steps
            monkeypatch.setattr(reduce_core, "DEFAULT_MAX_STEPS", res.steps - 1)
            with pytest.raises(ReductionCapError):
                v_reduce(G, D, base)
        assert res.reduced.coeff(base) < 0

    def test_debt_at_genus_8(self, monkeypatch):
        # the cap catches a debt pass whose chip count grows with the genus
        monkeypatch.setattr(reduce_core, "DEFAULT_MAX_STEPS", 2_000)
        chain = default_generic_chain(8)
        G = chain.graph
        base = chain.v(1)
        rng = SplitMix64(777)
        done = 0
        while done < 10:
            D = random_divisor(G, rng, rng.randint(0, 14))
            if all(c >= 0 for p, c in D.items() if p != base):
                continue
            res = v_reduce(G, D, base)
            assert D + res.witness.divisor() == res.reduced
            assert is_reduced(G, res.reduced, base)
            done += 1

    def test_two_debt_points_and_debt_at_the_base(self, chain3):
        G = chain3.graph
        cone = distance_function(G, chain3.w(1), cap=Fraction(3, 2)).divisor()
        for base in (default_base(G), G.point(chain3.top_edge(2), Fraction(1, 3))):
            D = Divisor({chain3.w(3): -2, chain3.v(2): -1, base: -1, chain3.w(1): 3,
                         G.point(chain3.bottom_edge(1), Fraction(1, 2)): 2})
            res = v_reduce(G, D, base)
            assert D + res.witness.divisor() == res.reduced
            assert res.witness(base) == 0
            assert is_reduced(G, res.reduced, base)
            assert v_reduce(G, D + cone, base).reduced == res.reduced

    def test_the_order_of_the_terms_changes_nothing(self, chain3):
        # the debts are paid in key order, not in the order of the terms
        # listed, so steps too depends only on D and the base
        G = chain3.graph
        rng = SplitMix64(3232)
        seen = 0
        while seen < 12:
            debts = list(dict.fromkeys(random_point(G, rng) for _ in range(rng.randint(2, 3))))
            chips = list(dict.fromkeys(random_point(G, rng) for _ in range(2)))
            if any(p.is_vertex for p in debts) or len(debts) < 2 or set(debts) & set(chips):
                continue
            terms = [(p, -1) for p in debts] + [(p, rng.randint(2, 3)) for p in chips]
            base = rng.choice([default_base(G), random_point(G, rng)])
            first = v_reduce(G, Divisor(terms), base)
            for order in permutations(terms):
                assert v_reduce(G, Divisor(order), base) == first
            seen += 1

    def test_debt_on_a_tree(self):
        # on a tree every divisor of degree 0 is principal, so the debt at
        # p is paid from r's chips with no chip lent at the base
        G = MetricGraph(["a", "b", "c", "d"], [
            ("a", "b", Fraction(2)), ("b", "c", Fraction(3)), ("b", "d", Fraction(1, 2))])
        assert G.betti() == 0
        p, r = G.point(1, Fraction(1)), G.vertex_point("d")
        for q in (G.vertex_point("a"), G.point(0, Fraction(1, 3))):
            assert v_reduce(G, Divisor({q: 1, p: -1}), p).reduced == Divisor()
            D = Divisor({p: -2, r: 3})
            res = v_reduce(G, D, q)
            assert res.reduced == Divisor({q: 1})
            assert D + res.witness.divisor() == res.reduced

    def test_missing_effective_representative_raises(self):
        # with the genus understated, the base lends too few chips: q - p
        # on a circle has no effective representative, and the debt pass
        # must say so
        G = circle_graph(4)
        G.betti = lambda: 0
        with pytest.raises(TheoremViolation):
            v_reduce(G, Divisor({G.point(0, Fraction(1)): -1}), G.vertex_point("a"))

    @pytest.mark.parametrize("make", [lollipop_graph, bouquet_graph])
    def test_witness_equation_on_self_loops(self, make, rng):
        G = make()
        loop = len(G.edges) - 1
        for base in (default_base(G), G.point(loop, Fraction(7, 5))):
            for deg in range(-1, 4):
                D = random_divisor(G, rng, deg)
                res = v_reduce(G, D, base)
                assert D + res.witness.divisor() == res.reduced
                assert res.witness(base) == 0
                assert is_reduced(G, res.reduced, base)

    def test_witness_equation_with_coprime_denominators(self, rng):
        # chips at multiples of 1/13 and an interior base at 3/17, so the
        # scale of the integer core takes a factor from every input
        G = coprime_graph()
        slots = [(ei, Fraction(k, 13)) for ei in range(3)
                 for k in range(int(G.edge_length(ei) * 13) + 1)]
        for base in (G.vertex_point("a"), G.point(2, Fraction(3, 17))):
            for deg in range(-1, 5):
                neg = rng.randint(0, 2) + max(0, -deg)
                D = Divisor([(G.point(*rng.choice(slots)), -1 if i < neg else 1)
                             for i in range(deg + 2 * neg)])
                res = v_reduce(G, D, base)
                assert D + res.witness.divisor() == res.reduced
                assert res.witness(base) == 0
                assert is_reduced(G, res.reduced, base)
                fast = v_reduce(G, D, base, track_witness=False)
                assert (fast.reduced, fast.steps) == (res.reduced, res.steps)

    def test_points_the_graph_lacks_are_rejected(self, chain2):
        # an edge of the genus-3 chain that the genus-2 chain lacks, and an
        # offset past its edge's end
        G, v1 = chain2.graph, chain2.v(1)
        foreign = default_generic_chain(3).graph.point(6, Fraction(1, 2))
        past_end = Point(None, 0, G.edge_length(0) + Fraction(1, 2))
        for p in (foreign, past_end):
            for track_witness in (True, False):
                with pytest.raises(GraphError):
                    v_reduce(G, Divisor({p: 1, v1: 1}), v1, track_witness=track_witness)
            with pytest.raises(GraphError):
                v_reduce(G, Divisor({v1: 1}), p)

    def test_track_witness_paths_agree(self, rng):
        # both paths fire the same sets by the same distances, so they agree
        # on the steps taken as well as on the result, also at interior
        # bases and on the extended chain
        for extended in (False, True):
            G = default_generic_chain(3, extended=extended).graph
            bases = [default_base(G), G.point(1, Fraction(1, 2))]
            for i in range(6):
                D = random_divisor(G, rng, rng.randint(-1, 5))
                base = bases[i % 2]
                slow = v_reduce(G, D, base, track_witness=True)
                fast = v_reduce(G, D, base, track_witness=False)
                assert slow.reduced == fast.reduced
                assert slow.steps == fast.steps
                assert D + slow.witness.divisor() == slow.reduced


class TestDebtAtManyPoints:
    """The debt pass against the Laplacian solve behind ``is_equivalent``,
    which shares no firing code with it: divisors with debt at two to six
    points, some with debt at the base too, of every degree from -2 to
    2g + 1, on chains and on graphs that are not chains."""

    GRAPHS = {"chain2": lambda: default_generic_chain(2).graph,
              "chain3": lambda: default_generic_chain(3).graph,
              "chain4": lambda: default_generic_chain(4).graph,
              "chain3-extended": lambda: default_generic_chain(3, extended=True).graph,
              "theta": theta_graph, "K4": k4_graph, "lollipop": lollipop_graph}

    @staticmethod
    def divisor(G: MetricGraph, rng: SplitMix64, base: Point, degree: int) -> Divisor:
        """A divisor of the given degree with debt at 2..6 points other
        than the base, and at the base too when rng says so."""
        while True:
            debts = Divisor([(random_point(G, rng), rng.randint(1, 2))
                             for _ in range(rng.randint(2, 6))])
            at_base = Divisor({base: rng.randint(0, 1) * rng.randint(1, 2)})
            total = debts.degree + at_base.degree
            if degree + total < 0:
                continue
            D = random_effective_divisor(G, rng, degree + total) - debts - at_base
            if sum(c < 0 for p, c in D.items() if p != base) >= 2:
                return D

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_reduced_and_equivalent_whatever_the_order(self, name):
        G = self.GRAPHS[name]()
        g = G.betti()
        rng = SplitMix64(len(name) * 131 + g)
        bases = [default_base(G), random_point(G, rng)]
        at_base = 0
        for degree in range(-2, 2 * g + 2):
            for base in bases:
                D = self.divisor(G, rng, base, degree)
                at_base += D.coeff(base) < 0
                res = v_reduce(G, D, base, track_witness=False)
                assert is_reduced(G, res.reduced, base), (base, D)
                f = is_equivalent(G, D, res.reduced)
                assert f is not None and D + f.divisor() == res.reduced, (base, D)
                terms = list(D.items())
                for order in (terms[::-1], terms[1:] + terms[:1]):
                    other = v_reduce(G, Divisor(order), base, track_witness=False)
                    assert (other.reduced, other.steps) == (res.reduced, res.steps), (base, D)
        assert at_base >= 2


class TestEquivalence:
    def test_equivalent_after_firing(self, chain2, rng):
        G = chain2.graph
        D = random_effective_divisor(G, rng, 3)
        f = distance_function(G, default_base(G), cap=Fraction(1, 2))
        E = D + f.divisor()
        w = is_equivalent(G, D, E)
        assert w is not None
        assert D + w.divisor() == E

    @pytest.mark.parametrize("make", [
        theta_graph, circle_graph, lambda: default_generic_chain(3).graph,
        lollipop_graph, bouquet_graph, coprime_graph])
    def test_witness_is_the_normalized_function(self, make, rng):
        # div(f) determines f up to a constant, so the witness is f itself,
        # shifted to vanish at the base
        G = make()
        base = default_base(G)
        for i in range(4):
            cones = [distance_function(G, random_point(G, rng),
                                       cap=Fraction(rng.randint(1, 8), 2))
                     for _ in range(3)]
            f = cones[0] if i == 0 else min_combination(
                cones, [rng.randint(-2, 2) for _ in cones])
            D = random_effective_divisor(G, rng, 2)
            assert is_equivalent(G, D, D + f.divisor()) == f.add_const(-f(base))

    def test_inequivalent(self, chain2):
        G = chain2.graph
        D = Divisor({chain2.v(1): 1})
        E = Divisor({chain2.w(2): 1})  # distinct points, genus > 0
        assert is_equivalent(G, D, E) is None

    def test_degree_mismatch(self, chain2):
        G = chain2.graph
        assert is_equivalent(G, Divisor(), Divisor({chain2.v(1): 1})) is None

    @pytest.mark.parametrize("make", [
        lambda: default_generic_chain(2).graph, lambda: default_generic_chain(3).graph,
        lambda: default_generic_chain(3, extended=True).graph,
        lambda: MetricGraph(["a", "b"], [("a", "b", Fraction(2)), ("a", "b", Fraction(3, 2)),
                                         ("b", "b", Fraction(5, 2))])],
        ids=["chain2", "chain3", "extended3", "loop_and_parallel"])
    def test_matches_reducing_both(self, make):
        # the oracle: equal degrees and equal reductions at the base; half
        # the pairs are equivalent by construction, D2 being D1 reduced
        # at a random point, and the others are random of about the same
        # degree
        G = make()
        rng = SplitMix64(0xE0)
        base = default_base(G)
        outcomes = set()
        for t in range(400):
            D1 = random_divisor(G, rng, rng.randint(-1, 4))
            if t % 2:
                D2 = v_reduce(G, D1, random_point(G, rng), track_witness=False).reduced
            else:
                D2 = random_divisor(G, rng, D1.degree + (t % 3 == 0))
            want = (D1.degree == D2.degree
                    and v_reduce(G, D1, base, track_witness=False).reduced
                    == v_reduce(G, D2, base, track_witness=False).reduced)
            f = is_equivalent(G, D1, D2)
            assert (f is not None) == want
            if f is not None:
                assert D1 + f.divisor() == D2
                assert f(base) == 0
            outcomes.add(want)
        assert outcomes == {True, False}

    def test_point_off_the_graph_raises(self, chain2):
        # the lattice is built from both supports, so a point the graph
        # lacks raises even where the two divisors cancel it
        G = chain2.graph
        stray = default_generic_chain(3).graph.point(7, Fraction(1, 2))
        with pytest.raises(GraphError):
            is_equivalent(G, Divisor({stray: 1}), Divisor({stray: 1}))

    def test_effective_class(self, chain2):
        G = chain2.graph
        assert effective_class(G, Divisor({chain2.v(1): 1}))
        assert not effective_class(G, Divisor({chain2.v(1): -1}))

    @pytest.mark.parametrize("which", ["zero", "w1"])
    def test_effective_class_with_no_chip_left_at_the_base(self, chain2, which):
        # reduced at the base, these keep no chip there: effective is
        # a coefficient >= 0 at the base, not >= 1
        G = chain2.graph
        D = Divisor() if which == "zero" else Divisor({chain2.w(1): 1})
        base = default_base(G)
        assert v_reduce(G, D, base).reduced.coeff(base) == 0
        assert effective_class(G, D)

    @pytest.mark.parametrize("make", [theta_graph, coprime_graph,
                                      lambda: default_generic_chain(2).graph])
    def test_potential_rejects_non_principal_divisors(self, make):
        # degree 0 but not principal: two distinct points on a graph of
        # genus > 0, and a chip moved off a vertex by less than an edge
        G = make()
        a, b = G.vertex_point(G.vertices[0]), G.vertex_point(G.vertices[1])
        for E in (Divisor({a: 1, b: -1}), Divisor({G.point(0, G.edge_length(0) / 3): 1, a: -1})):
            with pytest.raises(GraphError):
                solve_potential(G, E, a)
            with pytest.raises(GraphError):
                solve_potential(G, E, G.point(0, G.edge_length(0) / 2))

    def test_potential_rejects_nonzero_degree(self, chain2):
        # the system pins the first vertex and drops its equation, so only
        # the degree tells that a chip there is not principal
        G = chain2.graph
        a = G.vertex_point(G.vertices[0])
        for E in (Divisor({a: 1}), Divisor({a: -2}), Divisor({chain2.w(2): 1})):
            with pytest.raises(GraphError, match="degree"):
                solve_potential(G, E, a)

    def test_potential_checks_each_far_end(self, monkeypatch):
        # with divisions that round down instead of raising, a divisor that
        # is not principal gets slopes that miss their edges' far ends
        monkeypatch.setattr(reduce_core, "_exact", lambda num, den: num // den)
        G = theta_graph()
        a, b = G.vertex_point("a"), G.vertex_point("b")
        with pytest.raises(TheoremViolation, match="discontinuous at vertex b"):
            solve_potential(G, Divisor({a: 1, b: -1}), a)


def brute_force_rank(G: MetricGraph, D: Divisor) -> int:
    """rank(D) straight from the definition over ``default_rank_points``,
    with public ``v_reduce`` and no pruning: rank(D) >= r iff D - E reduced
    at the base has no debt there for every effective E of degree r on the
    points.  Any E of degree deg(D) + 1 fails, so the loop ends."""
    points, base = default_rank_points(G), default_base(G)
    r = 0
    while all(v_reduce(G, D - Divisor([(p, 1) for p in E]), base,
                       track_witness=False).reduced.coeff(base) >= 0
              for E in combinations_with_replacement(points, r)):
        r += 1
    return r - 1


def subdivision_points(G: MetricGraph, n: int) -> list[Point]:
    """The vertices and the n-fold subdivision points of every edge, the
    point set of ``rank_subdivision_oracle``."""
    pts = [G.vertex_point(v) for v in G.vertices]
    return pts + [G.point(ei, G.edge_length(ei) * k / n)
                  for ei in range(len(G.edges)) for k in range(1, n)]


class TestRank:
    @pytest.mark.parametrize("n,per_degree", [(None, 8), (2, 4), (3, 2), (4, 1)])
    def test_matches_rank_dfs_with_debt(self, chain2, chain3, n, per_degree):
        # the search that reduces again wherever the walk leads, on
        # divisors with debt of every degree -2..2g+1, over the default
        # points or the n-fold subdivision points; every other divisor
        # takes the points in reverse order, and rank_dfs a random base:
        # the rank does not depend on the base, and rank takes the default
        rng = SplitMix64(2020 + (n or 0))
        for G in (chain2.graph, chain3.graph, lollipop_graph()):
            points = default_rank_points(G) if n is None else subdivision_points(G, n)
            for degree in range(-2, 2 * G.betti() + 2):
                seen = 0
                while seen < per_degree:
                    D = random_divisor(G, rng, degree)
                    if D.is_effective:
                        continue
                    seen += 1
                    pts, base = points, None
                    if seen % 2 == 0:
                        pts, base = points[::-1], random_point(G, rng)
                    assert rank(G, D, pts) == reference_core.rank_dfs(G, D, pts, base), \
                        (n, dict(D.items()), base)

    def test_matches_rank_dfs_on_small_point_sets(self, chain2):
        # over a few points that do not determine rank, few multisets of
        # least degree fail, so a node wrongly skipped changes the rank
        rng = SplitMix64(4242)
        for G in (chain2.graph, lollipop_graph()):
            for _ in range(300):
                cands = subdivision_points(G, rng.randint(2, 4))
                points = list(dict.fromkeys(cands[rng.below(len(cands))]
                                            for _ in range(rng.randint(2, 6))))
                base = random_point(G, rng) if rng.below(2) else None
                D = random_divisor(G, rng, rng.randint(1, 2 * G.betti() + 2))
                assert rank(G, D, points) == reference_core.rank_dfs(G, D, points, base), \
                    (points, base, dict(D.items()))

    def test_negative_degree_reduces_nothing(self, chain3, monkeypatch):
        calls = []
        for name in ("_reduce", "_fire"):
            def counted(*args, _real=getattr(reduce_core, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(reduce_core, name, counted)
        G = chain3.graph
        D = Divisor({chain3.v(1): 3, chain3.w(2): -2, G.point(0, Fraction(1, 2)): -2})
        assert rank(G, D) == rank(G, D, subdivision_points(G, 3)) == -1
        assert calls == []
        # the points are still checked, and an empty set still rejected
        foreign = default_generic_chain(4).graph.point(9, Fraction(1, 2))
        with pytest.raises(GraphError):
            rank(G, D, points=[chain3.v(1), foreign])
        with pytest.raises(PreconditionError):
            rank(G, D, points=[])
        assert calls == []
        # the counters see the reductions of a divisor of degree 0
        assert rank(G, D + Divisor({chain3.v(2): 1})) == -1
        assert {"_reduce", "_fire"} <= set(calls)

    def test_each_point_is_checked_once(self, chain3, monkeypatch):
        # the base, D's support and the given points are checked once, on
        # rank's lattice, where D is reduced with no second check; D has
        # interior chips and debt, and a degree of at least 0, so that it
        # is reduced
        G = chain3.graph
        D = Divisor({chain3.v(2): 3, G.point(1, Fraction(1, 3)): 2, chain3.w(3): -1,
                     G.point(4, Fraction(1, 2)): -1})
        points = subdivision_points(G, 2)
        expected = rank(G, D)
        checked = []

        def counted(self, p, _real=MetricGraph.check_point):
            checked.append(p)
            return _real(self, p)

        monkeypatch.setattr(MetricGraph, "check_point", counted)
        for pts in (None, points):
            checked.clear()
            assert rank(G, D, pts) == expected
            assert Counter(checked) == Counter([default_base(G), *D.support(), *(pts or [])])

    def test_matches_brute_force_with_debt(self, chain2, chain3):
        # 20 divisors with debt on each graph, degrees -1..4
        rng = SplitMix64(8080)
        for G in (chain2.graph, chain3.graph, lollipop_graph()):
            seen = 0
            while seen < 20:
                D = random_divisor(G, rng, rng.randint(-1, 4))
                if D.is_effective:
                    continue
                seen += 1
                assert rank(G, D) == brute_force_rank(G, D), dict(D.items())

    def test_brute_force_reference_on_known_ranks(self, chain2):
        G, v1 = chain2.graph, chain2.v(1)
        assert brute_force_rank(G, Divisor({v1: 3})) == 1
        assert brute_force_rank(G, canonical_divisor(G)) == 1
        assert brute_force_rank(G, Divisor({v1: -1})) == -1

    def test_empty_point_set_is_rejected(self, chain2):
        # over no points every E is zero, which would make the rank deg(D)
        with pytest.raises(PreconditionError):
            rank(chain2.graph, Divisor({chain2.v(1): 3}), points=[])

    def test_points_the_graph_lacks_are_rejected(self, chain2):
        # checked before reducing, also when D's class is not effective
        G, v1 = chain2.graph, chain2.v(1)
        foreign = default_generic_chain(3).graph.point(6, Fraction(1, 2))
        past_end = Point(None, 0, G.edge_length(0) + Fraction(1, 2))
        for p in (foreign, past_end):
            for D in (Divisor({v1: -1}), Divisor({v1: 2})):
                with pytest.raises(GraphError):
                    rank(G, D, points=[v1, p])

    def test_known_values(self, chain3):
        G = chain3.graph
        K = canonical_divisor(G)
        assert rank(G, Divisor()) == 0
        assert rank(G, K) == 3 - 1
        assert rank(G, Divisor({chain3.v(1): -1})) == -1
        assert rank(G, Divisor({chain3.v(2): 1})) == 0
        # degree above 2g-2 forces rank d - g
        assert rank(G, K + Divisor({chain3.v(1): 2})) == 6 - 3

    def test_rank_is_class_invariant(self, chain2, rng):
        G = chain2.graph
        D = random_effective_divisor(G, rng, 2)
        f = distance_function(G, chain2.w(1), cap=Fraction(1, 3))
        assert rank(G, D) == rank(G, D + f.divisor())

    def test_subdivision_oracle_agrees(self, chain2, rng):
        G = chain2.graph
        for _ in range(4):
            D = random_divisor(G, rng, rng.randint(-1, 4))
            assert rank(G, D) == rank_subdivision_oracle(G, D, n=4)

    @pytest.mark.parametrize("n", [1, 0, -3, 2.0, True, "4"])
    def test_subdivision_oracle_needs_n_of_two_or_more(self, n):
        # the vertex alone does not determine rank on a circle with one
        # vertex: 2p has rank 1 there, but 2 on the vertex set
        G = MetricGraph(["a"], [("a", "a", 4)])
        D = Divisor({G.point(0, 2): 2})
        assert rank(G, D) == rank_subdivision_oracle(G, D, n=2) == 1
        with pytest.raises(PreconditionError, match="n >= 2"):
            rank_subdivision_oracle(G, D, n=n)

    @pytest.mark.parametrize("make", [lambda: default_generic_chain(3).graph, lollipop_graph,
                                      k4_graph, two_loops_graph],
                             ids=["chain3", "lollipop", "K4", "two_loops"])
    def test_default_points_match_the_same_points_given(self, make):
        # with no point set, rank reads the vertices' keys off the bridge
        # classes and keys only the self-loop midpoints; given as a list,
        # every point is checked and keyed
        G = make()
        rng = SplitMix64(len(G.edges) * 3001 + G.betti())
        points = default_rank_points(G)
        for degree in range(-2, 2 * G.betti() + 2):
            seen = 0
            while seen < 4:
                D = random_divisor(G, rng, degree)
                if D.is_effective:
                    continue
                seen += 1
                assert rank(G, D) == rank(G, D, points), dict(D.items())

    def test_default_rank_points_loopless(self, chain3):
        # the chain model is loopless (each loop is a pair of parallel
        # edges), so its vertex set is returned as it stands
        pts = default_rank_points(chain3.graph)
        assert len(pts) == len(chain3.graph.vertices)
        assert all(p.is_vertex for p in pts)

    def test_default_rank_points_self_loop(self):
        from tropdiv import MetricGraph
        G = MetricGraph(["a"], [("a", "a", Fraction(3))])
        pts = default_rank_points(G)
        assert len(pts) == 2  # the vertex plus a loop-breaking midpoint

    def test_bridge_classes_match_is_equivalent(self, chain3):
        # rank's classes against the Laplacian solve behind is_equivalent:
        # each vertex's class is led by its least equivalent vertex, and an
        # edge names that vertex iff its midpoint is equivalent to its first
        # end; the tail d-c-b lists its bridges from the far end, so that
        # one pass over them would not join d to a
        tail = MetricGraph(["a", "b", "c", "d", "e"], [
            ("c", "d", Fraction(1)), ("b", "c", Fraction(2)), ("a", "b", Fraction(3, 2)),
            ("a", "e", Fraction(1)), ("a", "e", Fraction(2)), ("e", "e", Fraction(5, 2))])
        rng = SplitMix64(4141)
        for G in [chain3.graph, tail, lollipop_graph(),
                  *(random_connected_graph(rng) for _ in range(12))]:
            vrep, erep = reduce_core._classes(G)
            one = {p: Divisor({p: 1}) for p in G.vertex_points}
            for x, p in enumerate(G.vertex_points):
                least = next(y for y, q in enumerate(G.vertex_points)
                             if is_equivalent(G, one[p], one[q]) is not None)
                assert vrep[x] == least, (G.edges, x)
            for e, (u, _v) in enumerate(G.edge_ends):
                mid = Divisor({G.point(e, G.edges[e][2] / 2): 1})
                joined = is_equivalent(G, one[G.vertex_points[u]], mid) is not None
                assert erep[e] == (vrep[u] if joined else None), (G.edges, e)


class TestRiemannRoch:
    @pytest.mark.parametrize("g", [2, 3])
    def test_identity_small_sample(self, g):
        chain = default_generic_chain(g)
        G = chain.graph
        rng = SplitMix64(5 * g)
        for _ in range(6):
            D = random_divisor(G, rng, rng.randint(-2, 2 * g))
            ok, r1, r2 = riemann_roch_check(G, D)
            assert ok, (D, r1, r2)

    def test_one_plain_reduction_and_the_ranks_of_d_and_k_minus_d(self, chain3, monkeypatch):
        # a D of degree at least 0 is reduced once, with no witness, and
        # one of negative degree not at all; both ranks are those that
        # rank gives D and K - D directly.  30 seeded divisors of degree
        # -2..2g+1 on each graph: a tree with leaves, one loop, a loop on a
        # stalk, two loops at one vertex, and chains with and without
        # pendant bridges
        tree = MetricGraph(["a", "b", "c", "d"], [
            ("a", "b", Fraction(1)), ("b", "c", Fraction(3, 2)), ("b", "d", Fraction(2))])
        graphs = [tree, circle_graph(), lollipop_graph(), bouquet_graph(), chain3.graph,
                  default_generic_chain(4, extended=True).graph]
        calls = []

        def counted(graph, D, base, track_witness=True, _real=reduce_core.v_reduce):
            calls.append(track_witness)
            return _real(graph, D, base, track_witness)

        rng = SplitMix64(5353)
        for G in graphs:
            g, K = G.betti(), canonical_divisor(G)
            for i in range(30):
                D = random_divisor(G, rng, -2 + i % (2 * g + 4))
                calls.clear()
                with monkeypatch.context() as m:
                    m.setattr(reduce_core, "v_reduce", counted)
                    ok, r1, r2 = riemann_roch_check(G, D)
                assert calls == ([False] if D.degree >= 0 else []), (G.edges, dict(D.items()))
                assert ok and (r1, r2) == (rank(G, D), rank(G, K - D)), \
                    (G.edges, dict(D.items()))


class TestRiemannFloor:
    """rank(D) >= deg(D) - g, so ``rank`` ends its search at the first
    failure of degree deg(D) - g + 1, and every reduction, ``v_reduce``'s
    and ``rank``'s own, checks the lemma that bound rests on: a reduced divisor holds at most g chips off its
    base."""

    def test_nonspecial_ranks_match_rank_dfs_and_take_the_floor(self, monkeypatch):
        # D of degree 2g-1..2g+1 with debt, and K - D for D of degree -2
        # or -1, on the chains of genus 3, 4 and 5 (fewer at genus 5,
        # where rank_dfs takes 0.1 s each): each has rank deg - g, and
        # the floored search fires fewer times than the search of every
        # level on most of them
        count = [0]

        def counted(*args, _real=reduce_core._fire, **kwargs):
            count[0] += 1
            return _real(*args, **kwargs)

        def fires(G, D, **kwargs):
            count[0] = 0
            return rank(G, D, **kwargs), count[0]

        monkeypatch.setattr(reduce_core, "_fire", counted)
        rng = SplitMix64(3636)
        fewer = 0
        for g, n in ((3, 32), (4, 20), (5, 8)):
            G = default_generic_chain(g).graph
            K = canonical_divisor(G)
            for i in range(n):
                if i % 3 == 2:
                    D = K - random_divisor(G, rng, rng.randint(-2, -1))
                else:
                    D = random_divisor(G, rng, rng.randint(2 * g - 1, 2 * g + 1))
                (r, floored), (r_all, every_level) = fires(G, D), fires(G, D, _floor=False)
                assert r == r_all == D.degree - g == reference_core.rank_dfs(G, D), \
                    (g, dict(D.items()))
                assert floored <= every_level
                fewer += floored < every_level
        assert fewer >= 54, fewer

    def test_special_ranks_match_rank_dfs_and_the_pre_pass_stops_at_the_floor(
            self, monkeypatch):
        # D of degree 0..2g-2 with debt, and K - D, on the chains of genus
        # 3, 4 and 5: rank, floored or not, matches rank_dfs; and once the
        # pre-pass's bound, deg(D) + 1 and then each red_p(D)(p) + 1 in
        # point order, is at most max(deg(D) - g + 1, 1), rank fires no
        # more, neither in the pre-pass nor in a search.  rank searches one
        # point per class of equivalent points, the first default point met
        # in it, so the count runs over those, found here by is_equivalent
        fires = [0]

        def counted(*args, _real=reduce_core._fire, **kwargs):
            fires[0] += 1
            return _real(*args, **kwargs)

        def counted_from_here(*args, _real=reduce_core._reduce, **kwargs):
            # the count starts after rank's one reduction at the base
            result = _real(*args, **kwargs)
            fires[0] = 0
            return result

        rng = SplitMix64(3737)
        stopped = 0
        for g, n in ((3, 36), (4, 24), (5, 12)):
            G = default_generic_chain(g).graph
            K, base = canonical_divisor(G), default_base(G)
            points = []
            for p in default_rank_points(G):
                if all(is_equivalent(G, Divisor({p: 1}), Divisor({x: 1})) is None
                       for x in points):
                    points.append(p)
            for i in range(2 * n):
                if i % 2 == 0:
                    D = random_divisor(G, rng, rng.randint(0, 2 * g - 2))
                else:
                    D = K - D
                r = reference_core.rank_dfs(G, D)
                floor, bound, fired = max(D.degree - g + 1, 1), D.degree + 1, 0
                for p in points:
                    if bound <= floor:
                        break
                    fired += p != base
                    bound = min(bound, v_reduce(G, D, p, track_witness=False)
                                .reduced.coeff(p) + 1)
                with monkeypatch.context() as m:
                    m.setattr(reduce_core, "_fire", counted)
                    m.setattr(reduce_core, "_reduce", counted_from_here)
                    assert rank(G, D) == r, (g, dict(D.items()))
                if r < 0:
                    # no effective class: nothing fires after red0
                    assert fires[0] == 0, (g, dict(D.items()))
                elif bound <= floor:
                    assert fires[0] == fired, (g, dict(D.items()))
                    stopped += fired < len(points) - 1
                assert rank(G, D, _floor=False) == r, (g, dict(D.items()))
        # the pre-pass stopped before its last point on 62 of the 144 today
        assert stopped >= 55, stopped

    def test_the_search_ends_at_its_first_failure_of_the_floors_degree(self, monkeypatch):
        # D of degree 2g-1..2g+1 with debt, and K - D for D of degree -2
        # or -1, on the chains of genus 3, 4 and 5, kept where the
        # pre-pass's bound, deg(D) + 1 and then each red_p(D)(p) + 1,
        # stays above the floor deg(D) - g + 1, so that the search starts:
        # rank(D) = deg(D) - g, so the search meets a failure of the
        # floor's degree, and it must end there, with no firing after the
        # one that left its base without a chip
        after = []

        def recorded(lat, chips, base, *args, _real=reduce_core._fire, **kwargs):
            _real(lat, chips, base, *args, **kwargs)
            after.append(chips.get(base))

        rng = SplitMix64(3838)
        searched = 0
        for g, n in ((3, 30), (4, 24), (5, 12)):
            G = default_generic_chain(g).graph
            K, points = canonical_divisor(G), default_rank_points(G)
            for i in range(n):
                if i % 3 == 2:
                    D = K - random_divisor(G, rng, rng.randint(-2, -1))
                else:
                    D = random_divisor(G, rng, rng.randint(2 * g - 1, 2 * g + 1))
                floor = D.degree - g + 1
                bound = min(D.degree + 1, *(v_reduce(G, D, p, track_witness=False)
                                            .reduced.coeff(p) + 1 for p in points))
                if bound <= floor:
                    continue
                searched += 1
                after.clear()
                with monkeypatch.context() as m:
                    m.setattr(reduce_core, "_fire", recorded)
                    assert rank(G, D) == floor - 1, (g, dict(D.items()))
                assert after[-1] <= 0, (g, dict(D.items()), after)
        # the search started on 6 of the 66 today
        assert searched >= 5, searched

    def test_more_than_g_chips_off_the_base_raises(self, chain3, monkeypatch):
        # with firing turned off, an unreduced effective divisor passes
        # through v_reduce as it stands: g chips off the base are allowed,
        # g + 1 are not
        monkeypatch.setattr(reduce_core, "_fire", lambda *args, **kwargs: None)
        G, base = chain3.graph, chain3.v(1)
        D = Divisor({chain3.w(3): 3, base: 2})
        assert v_reduce(G, D, base).reduced == D
        with pytest.raises(TheoremViolation, match="more than g = 3") as raised:
            v_reduce(G, D + Divisor({chain3.w(2): 1}), base)
        # rank reduces at the same base, the default, and checks the lemma
        # there too
        assert default_base(G) == base
        with pytest.raises(TheoremViolation) as from_rank:
            rank(G, D + Divisor({chain3.w(2): 1}))
        assert str(from_rank.value) == str(raised.value)


def fresh_copy(G: MetricGraph) -> MetricGraph:
    """The same graph built anew, so that nothing is stored on it."""
    return MetricGraph(G.vertices, G.edges)


class TestLeafFiring:
    """``_fire`` with ``until``: the firing on the rank search's last level
    (1), and the payment of debt (0 and the debt's size)."""

    def test_stops_at_an_equivalent_effective_divisor(self, chain2, chain3):
        for until in (1, 2, 3):
            rng = SplitMix64(6161)
            stopped_early = 0
            for G in (chain2.graph, chain3.graph, lollipop_graph()):
                for _ in range(60):
                    base = random_point(G, rng)
                    # two more chips for each more the base must hold
                    degree = rng.randint(0, 2 * G.betti()) + 2 * (until - 1)
                    D = random_effective_divisor(G, rng, degree)
                    lat = _Lattice(G, [base, *D.support()])
                    q = lat.key(base)
                    full, part = lat.chips(D), lat.chips(D)
                    _fire(lat, full, q, [DEFAULT_MAX_STEPS])
                    _fire(lat, part, q, [DEFAULT_MAX_STEPS], until=until)
                    reduced, left = lat.divisor(full), lat.divisor(part)
                    assert left.is_effective, (until, base, D)
                    assert is_equivalent(G, left, reduced) is not None, (until, base, D)
                    assert ((left.coeff(base) >= until)
                            == (reduced.coeff(base) >= until)), (until, base, D)
                    stopped_early += left != reduced
            # the stop is taken often enough for the checks above to mean something
            assert stopped_early >= 30, until


def held(G: MetricGraph) -> int:
    """The entries in ``G``'s store, lattices, runs, Laplacian and bridge
    classes alike, counted as ``_STORE_SIZE`` bounds them."""
    return len(G._store)


class Store(dict):
    """A graph's store that records the key of every entry it takes,
    ``limit`` the bound checked after each."""

    limit = None

    def __init__(self):
        super().__init__()
        self.built, self.clears = [], 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.built.append(key)
        assert self.limit is None or len(self) <= self.limit, key

    def clear(self):
        self.clears += 1
        super().clear()


def stored_graph(G: MetricGraph, limit: int | None = None) -> MetricGraph:
    """A fresh copy of G whose store is a ``Store`` bounded at ``limit``."""
    G = fresh_copy(G)
    G._store = Store()
    G._store.limit = limit
    return G


def point_of_denominator(G: MetricGraph, rng: SplitMix64, d: int) -> Point:
    """A point at offset n/d on a random edge, a vertex where n is 0 or
    n/d the edge's length."""
    e = rng.below(len(G.edges))
    return G.point(e, Fraction(rng.randint(0, int(G.edge_length(e) * d)), d))


class TestRunsOnTheGraph:
    """The graph's one lattice per scale, and the burn runs it stores for
    each base under (scale, base)."""

    def test_warm_graph_matches_a_fresh_one(self, chain3):
        rng = SplitMix64(7373)
        for G in (fresh_copy(chain3.graph), lollipop_graph()):
            for _ in range(25):
                base = random_point(G, rng)
                D = random_divisor(G, rng, rng.randint(-1, 2 * G.betti()))
                warm = v_reduce(G, D, base)
                cold = v_reduce(fresh_copy(G), D, base)
                assert (warm.reduced, warm.steps) == (cold.reduced, cold.steps), (base, D)
                assert warm.witness == cold.witness
                points = subdivision_points(G, rng.randint(1, 3))
                assert rank(G, D, points) == rank(fresh_copy(G), D, points)
                assert riemann_roch_check(G, D) == riemann_roch_check(fresh_copy(G), D)
            # runs of more than one scale have been stored
            assert len({key[0] for key in G._store if type(key) is tuple}) > 1

    def test_store_never_passes_its_cap(self, chain3, monkeypatch):
        cap = 7
        monkeypatch.setattr(reduce_core, "_STORE_SIZE", cap)
        # the store checks the cap at every insert
        G = stored_graph(chain3.graph, limit=cap)
        rng = SplitMix64(8484)
        for _ in range(6):
            D = random_divisor(G, rng, rng.randint(0, 4))
            assert rank_subdivision_oracle(G, D, n=2) == rank(fresh_copy(G), D)
            assert held(G) <= cap
        assert len(G._store.built) > 3 * cap

    def test_second_riemann_roch_check_builds_no_runs(self, chain3, monkeypatch):
        builds = []
        real = _Runs.__init__

        def counted(self, *args):
            builds.append(args)
            real(self, *args)

        monkeypatch.setattr(_Runs, "__init__", counted)
        G = stored_graph(chain3.graph)
        built = G._store.built
        rng = SplitMix64(9595)
        first_builds = []
        for degree in (1, 3, 6):
            D = random_divisor(G, rng, degree)
            builds.clear()
            built.clear()
            first = riemann_roch_check(G, D)
            first_builds.append(len(builds))
            builds.clear()
            built.clear()
            assert riemann_roch_check(G, D) == first
            assert builds == [] and built == []
        # the counter sees the first check on a fresh graph
        assert first_builds[0] > 0

    def test_second_rank_builds_no_lattice(self, chain3):
        G = stored_graph(chain3.graph)
        built = G._store.built
        rng = SplitMix64(1717)
        base = default_base(G)
        first_builds = []
        for degree in (0, 2, 5):
            D = random_divisor(G, rng, degree)
            points = subdivision_points(G, 3)
            built.clear()
            first = rank(G, D, points)
            first_builds.append(len(built))
            lat = _Lattice(G, [base, *D.support(), *points])
            edges = lat.edges
            built.clear()
            assert rank(G, D, points) == first
            assert built == []
            assert _Lattice(G, [base, *D.support(), *points]) is lat
            assert lat.edges is edges
        # the counter sees the first call on a fresh graph
        assert first_builds[0] > 0


class TestAnEmptiedStore:
    """With the store bounded at 2, nearly every insert empties it, the
    eliminated Laplacian and the bridge classes included; each is made
    again where it is next needed, and every result matches a fresh
    graph's."""

    GRAPHS = {"chain3": lambda: default_generic_chain(3).graph,
              "lollipop": lollipop_graph, "K4": k4_graph}

    @pytest.mark.parametrize("name", GRAPHS)
    def test_results_match_a_fresh_graph(self, name, monkeypatch):
        made = Counter()
        for what in ("_laplacian", "_classes"):
            def counted(graph, real=getattr(reduce_core, what), what=what):
                made[what, graph] += 1
                return real(graph)
            monkeypatch.setattr(reduce_core, what, counted)
        monkeypatch.setattr(reduce_core, "_STORE_SIZE", 2)
        G = stored_graph(self.GRAPHS[name](), limit=2)
        rng = SplitMix64(len(name) * 6007)
        for _ in range(25):
            base = random_point(G, rng)
            D = random_divisor(G, rng, rng.randint(-1, 2 * G.betti()))
            warm, cold = v_reduce(G, D, base), v_reduce(fresh_copy(G), D, base)
            assert (warm.reduced, warm.witness, warm.steps) == \
                (cold.reduced, cold.witness, cold.steps), (base, D)
            assert rank(G, D) == rank(fresh_copy(G), D), D
            assert (rank_subdivision_oracle(G, D, n=2)
                    == rank_subdivision_oracle(fresh_copy(G), D, n=2)), D
            assert riemann_roch_check(G, D) == riemann_roch_check(fresh_copy(G), D), D
        # the store was emptied, and the Laplacian and the classes were
        # evicted from it and made again on the same graph
        assert G._store.clears > 25
        assert made["_laplacian", G] > 1 and made["_classes", G] > 1


class TestLatticeIntegerReads:
    """The lattice's integer reads of points against their ``Fraction``
    forms, on divisors with debt and offsets of denominators 1 to 16."""

    GRAPHS = {**{f"chain{g}": (lambda g=g: default_generic_chain(g).graph) for g in (2, 3, 4)},
              "theta": theta_graph, "K4": k4_graph, "lollipop": lollipop_graph}

    @pytest.mark.parametrize("name", GRAPHS)
    def test_integer_reads_match_the_fractions(self, name):
        G = self.GRAPHS[name]()
        rng = SplitMix64(2929)
        for d in range(1, 17):
            for _ in range(4):
                base = point_of_denominator(G, rng, d)
                terms = [(point_of_denominator(G, rng, rng.randint(1, 16)), rng.randint(-2, 3))
                         for _ in range(rng.randint(1, 6))]
                D = Divisor(terms + [(base, G.betti())])
                points = [base, *D.support()]
                lat = _Lattice(G, points)
                assert lat.scale == lcm(G.scale, *(Fraction(p.offset).denominator
                                                   for p in points))
                for p in points:
                    if p.is_vertex:
                        assert lat.key(p) == G.vertex_index[p.vertex]
                    else:
                        assert lat.key(p) == (p.edge, Fraction(p.offset) * lat.scale)
                assert lat.divisor(lat.chips(D)) == D
                # chips fired to the base, debt paid first, as v_reduce does
                chips, q = lat.chips(D), lat.key(base)
                reduce_core._clear_debt(lat, chips, q, [DEFAULT_MAX_STEPS])
                _fire(lat, chips, q, [DEFAULT_MAX_STEPS])
                assert lat.divisor(chips) == v_reduce(G, D, base, track_witness=False).reduced
                for c in (chips, lat.chips(D)):
                    E = lat.divisor(c)
                    assert E == Divisor([(lat.point(k), n) for k, n in c.items()])
                    assert all(type(n) is int and n for _p, n in E.items())


class TestBadPointsOnAWarmGraph:
    """A point the graph lacks raises ``GraphError`` from every reduction
    entry on a graph that holds the lattice of its scale, as on a fresh
    one: a shared lattice skips no check."""

    def bad_points(self, G: MetricGraph) -> dict[str, Point]:
        return {"past an edge's end": Point(None, 1, G.edge_length(1) + Fraction(1, 2)),
                "on an edge the graph lacks": Point(None, len(G.edges) + 2, Fraction(1, 2)),
                "at a vertex the graph lacks": Point("zz", -1, Fraction(0))}

    def entries(self, G: MetricGraph, bad: Point):
        base, good = default_base(G), G.point(0, Fraction(1, 2))
        D = Divisor({bad: 1, good: G.betti()})
        return {"v_reduce": lambda: v_reduce(G, D, base),
                "rank through D": lambda: rank(G, D),
                "rank through points": lambda: rank(G, Divisor({good: 2}),
                                                    [*G.vertex_points, bad]),
                "rank_subdivision_oracle": lambda: rank_subdivision_oracle(G, D, n=2),
                "is_reduced": lambda: is_reduced(G, D, base),
                "is_equivalent": lambda: is_equivalent(G, D, Divisor({good: 3})),
                "dhar_unburnt": lambda: dhar_unburnt(G, D, base),
                "effective_class": lambda: effective_class(G, D)}

    @pytest.mark.parametrize("name", ["chain3", "lollipop"])
    def test_every_entry_raises_on_a_warm_graph(self, name):
        G = default_generic_chain(3).graph if name == "chain3" else lollipop_graph()
        base, good = default_base(G), G.point(0, Fraction(1, 2))
        # warm the lattices that the bad points' offsets would scale to,
        # with the runs of their bases
        for E in (Divisor({good: G.betti() + 1}), Divisor({good: -1, base: G.betti() + 2})):
            v_reduce(G, E, base)
            rank(G, E)
            rank_subdivision_oracle(G, E, n=2)
        L = lcm(G.scale, 2)
        assert type(G._store[L]) is _Lattice
        assert type(G._store[L, G.vertex_index[base.vertex]]) is _Runs
        for where, bad in self.bad_points(G).items():
            for graph in (G, fresh_copy(G)):
                for entry, call in self.entries(graph, bad).items():
                    with pytest.raises(GraphError):
                        call()
                        pytest.fail(f"{entry} took a point {where}")


class TestWitnessLaplacian:
    """The witness solve on the graph's once-eliminated Laplacian against
    ``reference_core.potential``, which builds and eliminates it on every
    call, right-hand side included."""

    GRAPHS = {**{f"chain{g}": (lambda g=g: default_generic_chain(g).graph) for g in range(2, 9)},
              "chain3-extended": lambda: default_generic_chain(3, extended=True).graph,
              "theta": theta_graph, "K4": k4_graph, "lollipop": lollipop_graph,
              "petersen": petersen_graph}
    # principal divisors per graph, 1,080 in all
    TRIALS = 90

    @staticmethod
    def oracle(G: MetricGraph, E: Divisor, base: Point):
        lat = _Lattice(G, [base, *E.support()])
        return reference_core.potential(lat, lat.chips(E), lat.key(base))

    @staticmethod
    def interior_point(G: MetricGraph, rng: SplitMix64) -> Point:
        while (p := random_point(G, rng)).is_vertex:
            pass
        return p

    @staticmethod
    def checked(f: PLFunction) -> PLFunction:
        """f, once its canonical edges are shown to be those that the
        checked ``_from_ints`` builds from its own breakpoints."""
        rebuilt = PLFunction._from_ints(f.graph, [(s, list(zip(O, V))) for s, O, V in f.scaled])
        assert rebuilt.scaled == f.scaled
        return f

    def solve(self, G: MetricGraph, E: Divisor, base: Point) -> PLFunction:
        """``solve_potential``, checked to leave its chips as they were."""
        lat = _Lattice(G, [base, *E.support()])
        chips = lat.chips(E)
        before = chips.items()
        f = _potential(lat, chips, lat.key(base))
        assert chips.items() == before, (base, E)
        return self.checked(f)

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_witnesses_match_the_per_call_elimination(self, name):
        G = self.GRAPHS[name]()
        g = G.betti()
        rng = SplitMix64(len(name) * 977 + g)
        for t in range(self.TRIALS):
            # vertex and interior bases in turn
            base = (G.vertex_points[rng.below(len(G.vertices))] if t % 2
                    else self.interior_point(G, rng))
            D = random_divisor(G, rng, rng.randint(0, 2 * g))
            res = v_reduce(G, D, base)
            E = res.reduced - D
            assert self.checked(res.witness) == self.oracle(G, E, base), (base, D)
            # another base, solved as is_equivalent solves it
            other = self.interior_point(G, rng) if t % 2 else default_base(G)
            assert self.solve(G, E, other) == self.oracle(G, E, other), (other, D)
        assert "laplacian" in G._store

    @pytest.mark.parametrize("name", sorted([*GRAPHS, "bouquet"]))
    def test_interior_bases_on_before_and_after_the_chips(self, name):
        G = bouquet_graph() if name == "bouquet" else self.GRAPHS[name]()
        rng = SplitMix64(len(name) * 541 + G.betti())
        loops = [e for e, (u, v, _length) in enumerate(G.edges) if u == v]
        seen = Counter()
        for t in range(20):
            base = self.interior_point(G, rng) if t % 2 else G.vertex_points[0]
            D = random_divisor(G, rng, rng.randint(1, 2 * G.betti()))
            E = v_reduce(G, D, base).reduced - D
            offsets: dict[int, list[Fraction]] = {}
            for p in E.support():
                if not p.is_vertex:
                    offsets.setdefault(p.edge, []).append(p.offset)
            bases = [("on a chip", G.point(e, x)) for e, xs in offsets.items() for x in xs]
            bases += [("before the first chip", G.point(e, min(xs) / 2))
                      for e, xs in offsets.items()]
            bases += [("after the last chip", G.point(e, (max(xs) + G.edge_length(e)) / 2))
                      for e, xs in offsets.items()]
            bases += [("on a self-loop", G.point(e, G.edge_length(e) * rng.randint(1, 7) / 8))
                      for e in loops]
            for kind, b in bases:
                assert self.solve(G, E, b) == self.oracle(G, E, b), (kind, b, E)
                seen[kind] += 1
        assert seen["on a chip"] and seen["before the first chip"] and seen["after the last chip"]
        assert bool(seen["on a self-loop"]) == bool(loops)

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_non_principal_divisors_raise_in_both(self, name):
        G = self.GRAPHS[name]()
        rng = SplitMix64(len(name) * 313)
        raised = 0
        for t in range(30):
            base = G.vertex_points[0] if t % 2 else self.interior_point(G, rng)
            k = rng.randint(1, 3)
            E = random_effective_divisor(G, rng, k) - random_effective_divisor(G, rng, k)
            try:
                want = self.oracle(G, E, base)
            except GraphError as exc:
                assert "not principal" in str(exc)
                with pytest.raises(GraphError, match="not principal"):
                    solve_potential(G, E, base)
                raised += 1
            else:
                assert solve_potential(G, E, base) == want, (base, E)
        # a random divisor of degree 0 is principal only by accident (on
        # the lollipop's bridge, one in three)
        assert raised >= 15

    def test_eliminated_once_per_graph(self, chain3, monkeypatch):
        calls = []
        real = reduce_core._laplacian

        def counted(graph):
            calls.append(graph)
            return real(graph)

        monkeypatch.setattr(reduce_core, "_laplacian", counted)
        G = fresh_copy(chain3.graph)
        assert "laplacian" not in G._store
        rng = SplitMix64(4646)
        for t in range(20):
            # lattices of several scales: bases at 1/16, 1/48 and 1/80 of an edge
            base = random_point(G, rng, 16 * (2 * (t % 3) + 1))
            D = random_divisor(G, rng, 4)
            res = v_reduce(G, D, base)
            assert is_equivalent(G, D, res.reduced) is not None
        assert calls == [G]

    def test_gp0_never_eliminates(self, monkeypatch):
        monkeypatch.setattr(reduce_core, "_laplacian", None)
        chain = default_generic_chain(6)
        for T in enumerate_tableaux(2, 3):
            assert gp_rho_zero_experiment(T, chain).verdict == "independent"
        assert "laplacian" not in chain.graph._store


class TestUnoccupiedEdge:
    def test_canonical_skips_an_open_edge(self, chain3):
        G = chain3.graph
        K = canonical_divisor(G)
        tops = [chain3.top_edge(i) for i in range(1, 4)]
        ei = find_unoccupied_edge(G, K, tops)
        assert ei in tops

    def test_passes_over_a_chip_inside_the_first_open_edge(self):
        # K reduced at p, inside the first open edge, keeps rank(K) = g - 1
        # chips at p, so the search must read an edge point's edge and go on
        chain = default_generic_chain(3)
        G = chain.graph
        tops = [chain.top_edge(i) for i in range(1, 4)]
        p = G.point(tops[0], G.edge_length(tops[0]) / 3)
        D = v_reduce(G, canonical_divisor(G), p).reduced
        assert D.coeff(p) >= 2
        ei = find_unoccupied_edge(G, D, tops)
        assert ei in tops[1:] and all(q.edge != ei for q in D.support())

    def test_requires_effective_divisor(self, chain3):
        K = canonical_divisor(chain3.graph)
        D = K + Divisor({chain3.v(1): 1, chain3.w(3): -1})
        with pytest.raises(PreconditionError, match="must be effective"):
            find_unoccupied_edge(chain3.graph, D, [chain3.top_edge(1)])

    def test_requires_canonical_class(self, chain3):
        with pytest.raises(PreconditionError):
            find_unoccupied_edge(chain3.graph, Divisor({chain3.v(1): 1}),
                                 [chain3.top_edge(1)])

    @pytest.mark.parametrize("edges", [[99], [0, 1, 99], [-1], [True], [1.0]])
    def test_open_edge_not_in_the_graph(self, chain3, edges):
        with pytest.raises(GraphError, match="no edge"):
            find_unoccupied_edge(chain3.graph, canonical_divisor(chain3.graph), edges)

    @pytest.mark.parametrize("which", ["none", "repeated", "two bridges",
                                       "bridges and a top", "four"])
    def test_open_edges_must_leave_a_tree(self, chain3, which):
        top, bridge = chain3.top_edge, chain3.bridge_edge
        edges = {"none": [], "repeated": [top(1)] * 3,
                 "two bridges": [bridge(1), bridge(2)],
                 "bridges and a top": [bridge(1), bridge(2), top(1)],
                 "four": [top(1), top(2), top(3), chain3.bottom_edge(1)]}[which]
        with pytest.raises(PreconditionError, match="distinct open edges|disconnects"):
            find_unoccupied_edge(chain3.graph, canonical_divisor(chain3.graph), edges)
