import random
from fractions import Fraction

import pytest

from ordfair import Instance, ThresholdGraph, envy_free_matching
from ordfair.errors import PreconditionError


def graph_from_edges(nbags: int, nagents: int, edges) -> ThresholdGraph:
    return ThresholdGraph(
        bags=tuple(frozenset({j}) for j in range(nbags)),
        agents=tuple(range(nagents)),
        edges=frozenset(edges),
    )


def assert_envy_free(graph: ThresholdGraph, pairs) -> None:
    assert pairs
    matched_agents = {a for a, _ in pairs}
    matched_bags = {j for _, j in pairs}
    assert len(matched_agents) == len(pairs) and len(matched_bags) == len(pairs)
    for a, j in pairs:
        assert (a, j) in graph.edges
    for i, j in graph.edges:
        assert not (i not in matched_agents and j in matched_bags)


class TestEnvyFreeMatching:
    def test_full_two_by_two_is_perfect(self):
        g = graph_from_edges(2, 2, [(i, j) for i in range(2) for j in range(2)])
        pairs = envy_free_matching(g)
        assert len(pairs) == 2
        assert_envy_free(g, pairs)

    def test_hall_violator_subset(self):
        edges = [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]
        g = graph_from_edges(3, 3, edges)
        pairs = envy_free_matching(g)
        assert pairs == ((0, 1),)

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
        # No bag-perfect matching can exist; the Hall route must still
        # produce an envy-free matching.
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

    def test_edges_recomputable_from_graph_inputs(self):
        inst = Instance.from_rows([[3, 1, 2], [1, 1, 1]])
        bags = [{0}, {1, 2}]
        taus = (Fraction(2), Fraction(2))
        g = ThresholdGraph.build(inst, bags, [0, 1], taus)
        expected = {
            (i, j)
            for i in range(2)
            for j, bag in enumerate(bags)
            if inst.value(i, bag) >= taus[i]
        }
        assert g.edges == frozenset(expected)

    def test_bag_neighbors_are_the_ascending_edge_scan(self):
        # The adjacency lists keep the scan's order, so augmenting paths,
        # matchings and Hall sets do not depend on how they are stored.
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
                assert list(g.neighbors_of_bag(j)) == sorted(i for i, b in edges if b == j)
