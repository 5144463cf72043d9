import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordfair import Instance, ThresholdGraph, envy_free_matching
from ordfair.allocators import matching
from ordfair.errors import InvariantViolationError, PreconditionError

from helpers import ref_max_envy_free_matching, ref_threshold_edges


def graph_from_edges(nbags: int, nagents: int, edges) -> ThresholdGraph:
    """The graph on (agent, bag index) edges, each bag's agents ascending."""
    edges = set(edges)
    return ThresholdGraph(
        agents=tuple(range(nagents)),
        neighbors=tuple(
            tuple(i for i in range(nagents) if (i, j) in edges) for j in range(nbags)
        ),
    )


def edges_of(graph: ThresholdGraph) -> frozenset[tuple[int, int]]:
    """Every (agent, bag index) pair of the adjacency lists."""
    return frozenset((i, j) for j, agents in enumerate(graph.neighbors) for i in agents)


def assert_envy_free(graph: ThresholdGraph, pairs) -> None:
    assert pairs
    matched_agents = {a for a, _ in pairs}
    matched_bags = {j for _, j in pairs}
    assert len(matched_agents) == len(pairs) and len(matched_bags) == len(pairs)
    edges = edges_of(graph)
    for a, j in pairs:
        assert (a, j) in edges
    for i, j in edges:
        assert not (i not in matched_agents and j in matched_bags)


@st.composite
def graph_inputs(draw):
    """An instance on small rows, each divided by its own integer, bags (some
    empty, some sharing goods), eligible agents and, per agent, a threshold
    of 0, exactly a bag's sum, above every sum or any small rational."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 7))
    row = st.tuples(st.lists(st.integers(0, 12), min_size=m, max_size=m), st.integers(1, 6))
    rows = draw(st.lists(row, min_size=n, max_size=n))
    inst = Instance.from_rows([[Fraction(v, k) for v in ints] for ints, k in rows])
    bags = draw(st.lists(st.frozensets(st.integers(0, m - 1)), max_size=5))
    agents = draw(st.lists(st.integers(0, n - 1), unique=True))
    taus = [
        draw(
            st.sampled_from(
                [Fraction(0), sum(inst.values[i]) + 1] + [inst.value(i, b) for b in bags]
            )
            | st.fractions(min_value=0, max_value=30, max_denominator=6)
        )
        for i in range(n)
    ]
    return inst, bags, agents, taus


class TestEnvyFreeMatching:
    # Re-recorded when the Hall step became one alternating-path pass from the
    # unmatched agents: graphs that take it now get a maximum envy-free
    # matching, and those that raised ``InvariantViolationError`` for more
    # agents than bags, or for a shrink that stopped short of a minimal Hall
    # violator, now match or raise ``PreconditionError``.
    GOLDEN = "f2f78bdf5fe01028b1d26927c0cfce40ff019dfc9967363a691da9bd618f8439"

    def test_random_graph_outputs_unchanged(self):
        """``envy_free_matching`` on 20,000 seeded random graphs of 1-6 bags
        and 1-6 agents at random densities, errors included.  Each output is
        an envy-free matching on the graph's edges of the brute-force maximum
        size, and ``PreconditionError`` comes exactly where that maximum is 0
        or a bag has no edge.  The digest pins which maximum is returned."""
        rng = random.Random(19)
        h = hashlib.sha256()
        for _ in range(20_000):
            nbags, nagents, p = rng.randrange(1, 7), rng.randrange(1, 7), rng.random()
            edges = sorted(
                (i, j) for i in range(nagents) for j in range(nbags) if rng.random() < p
            )
            g = graph_from_edges(nbags, nagents, edges)
            best = ref_max_envy_free_matching(g.agents, edges)
            unservable = best == 0 or any(not adj for adj in g.neighbors)
            try:
                out = envy_free_matching(g)
            except PreconditionError as err:
                assert unservable, (nbags, nagents, edges)
                out = f"{type(err).__name__} {err}"
            else:
                assert not unservable, (nbags, nagents, edges)
                assert_envy_free(g, out)
                assert len(out) == best, (nbags, nagents, edges)
            h.update(f"{nbags} {nagents} {edges} {out}\n".encode())
        assert h.hexdigest() == self.GOLDEN

    def test_full_two_by_two_is_perfect(self):
        g = graph_from_edges(2, 2, [(i, j) for i in range(2) for j in range(2)])
        pairs = envy_free_matching(g)
        assert len(pairs) == 2
        assert_envy_free(g, pairs)

    def test_hall_violator_subset(self):
        cases = [
            (3, [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)], ((0, 1),)),
            # A shrink of the Hall violator by single removals stopped short
            # of a minimal one here and raised on this valid graph.
            (
                6,
                [(0, 1), (0, 5), (1, 0), (1, 2), (1, 3), (2, 4), (4, 4), (5, 0), (5, 1), (5, 5)],
                ((5, 0), (0, 1), (1, 2)),
            ),
        ]
        for size, edges, expected in cases:
            g = graph_from_edges(size, size, edges)
            pairs = envy_free_matching(g)
            assert pairs == expected
            assert len(pairs) == ref_max_envy_free_matching(g.agents, edges)

    def test_bag_without_edge_rejected(self):
        g = graph_from_edges(2, 2, [(0, 0), (1, 0)])
        with pytest.raises(PreconditionError):
            envy_free_matching(g)

    def test_exhaustive_small_square_graphs(self):
        for size in (1, 2, 3):
            cells = [(i, j) for i in range(size) for j in range(size)]
            for mask in range(1 << len(cells)):
                edges = {cells[t] for t in range(len(cells)) if mask >> t & 1}
                if any(all((i, j) not in edges for i in range(size)) for j in range(size)):
                    continue
                g = graph_from_edges(size, size, edges)
                assert_envy_free(g, envy_free_matching(g))

    def test_random_square_graphs(self):
        rng = random.Random(15)
        for _ in range(300):
            size = rng.randrange(4, 7)
            edges = {
                (i, j)
                for i in range(size)
                for j in range(size)
                if rng.random() < 0.4
            }
            for j in range(size):
                if all((i, j) not in edges for i in range(size)):
                    edges.add((rng.randrange(size), j))
            g = graph_from_edges(size, size, edges)
            assert_envy_free(g, envy_free_matching(g))

    def test_more_bags_than_agents(self):
        # No bag-perfect matching can exist; the alternating-path step must
        # still produce a nonempty envy-free matching.
        rng = random.Random(16)
        for _ in range(100):
            nbags = rng.randrange(2, 6)
            nagents = rng.randrange(1, nbags)
            edges = {
                (i, j)
                for i in range(nagents)
                for j in range(nbags)
                if rng.random() < 0.5
            }
            for j in range(nbags):
                if all((i, j) not in edges for i in range(nagents)):
                    edges.add((rng.randrange(nagents), j))
            g = graph_from_edges(nbags, nagents, edges)
            assert_envy_free(g, envy_free_matching(g))

    def test_more_agents_than_one_bag_is_precondition_error(self):
        # Whichever agent takes the bag, the other envies it.
        g = graph_from_edges(1, 2, [(0, 0), (1, 0)])
        with pytest.raises(PreconditionError):
            envy_free_matching(g)

    def test_more_agents_than_bags_returns_the_maximum(self):
        # Agents 0 and 1 accept only bag 0, so whichever takes it, the other
        # envies it; agent 2 alone accepts bag 1.
        edges = [(0, 0), (1, 0), (2, 1)]
        g = graph_from_edges(2, 3, edges)
        assert ref_max_envy_free_matching(g.agents, edges) == 1
        assert envy_free_matching(g) == ((2, 1),)

    def test_matching_short_of_maximum_is_invariant_violation(self, monkeypatch):
        # An alternating path that ends at an unmatched bag is an augmenting
        # path: the matching it started from was not maximum.
        monkeypatch.setattr(matching, "_max_matching", lambda neighbors: {})
        with pytest.raises(InvariantViolationError):
            envy_free_matching(graph_from_edges(2, 2, [(0, 0), (1, 1)]))

    def test_edges_recomputable_from_graph_inputs(self):
        inst = Instance.from_rows([[3, 1, 2], [1, 1, 1]])
        bags = [{0}, {1, 2}]
        taus = (Fraction(2), Fraction(2))
        g = ThresholdGraph.build(inst, bags, [(i, inst.level(i, taus[i])) for i in range(2)])
        expected = {
            (i, j)
            for i in range(2)
            for j, bag in enumerate(bags)
            if inst.value(i, bag) >= taus[i]
        }
        assert edges_of(g) == frozenset(expected)

    @settings(max_examples=200, deadline=None)
    @given(graph_inputs())
    def test_build_matches_per_pair_reference(self, case):
        """One pass per agent over the bags' goods gives the edges of one
        ``Instance.int_value`` call per (agent, bag) pair."""
        inst, bags, agents, taus = case
        levels = [(i, inst.level(i, taus[i])) for i in agents]
        graph = ThresholdGraph.build(inst, bags, levels)
        assert edges_of(graph) == ref_threshold_edges(inst, bags, levels)
        assert graph.agents == tuple(agents)
        assert len(graph.neighbors) == len(bags)

    @settings(max_examples=200, deadline=None)
    @given(graph_inputs())
    def test_adjacency_is_ascending_whatever_the_agent_order(self, case):
        """Agents passed in descending order: the adjacency lists hold the
        per-pair reference's edges, each bag's agents ascending, and
        ``agents`` keeps the order given."""
        inst, bags, agents, taus = case
        agents = sorted(agents, reverse=True)
        levels = [(i, inst.level(i, taus[i])) for i in agents]
        graph = ThresholdGraph.build(inst, bags, levels)
        assert graph.agents == tuple(agents)
        assert len(graph.neighbors) == len(bags)
        assert edges_of(graph) == ref_threshold_edges(inst, bags, levels)
        for adj in graph.neighbors:
            assert list(adj) == sorted(set(adj))

    def test_complete_graph_matches_in_kuhn_order(self):
        # Bags in order, each trying its agents in ascending order: bag k's
        # augmenting path moves every earlier bag one agent up, so on the
        # complete 24 x 24 graph bag j ends with agent 23 - j.
        g = graph_from_edges(24, 24, [(i, j) for i in range(24) for j in range(24)])
        assert envy_free_matching(g) == tuple((23 - j, j) for j in range(24))

    def test_bag_neighbors_are_the_ascending_edge_scan(self):
        # The helper's adjacency lists keep the scan's order, as ``build``'s
        # do, so augmenting paths and matchings here are those of the
        # allocator's graphs.
        rng = random.Random(17)
        for _ in range(100):
            nbags, nagents = rng.randrange(1, 7), rng.randrange(1, 7)
            edges = {
                (i, j)
                for i in range(nagents)
                for j in range(nbags)
                if rng.random() < 0.4
            }
            g = graph_from_edges(nbags, nagents, edges)
            for j in range(nbags):
                assert list(g.neighbors[j]) == sorted(i for i, b in edges if b == j)
