"""Envy-free matchings in bipartite agent/bag threshold graphs.

A matching is envy-free when no unmatched agent has an edge to a matched
bag.  If a bag-perfect matching exists it is returned; otherwise a perfect
matching is built between a proper subset of an inclusion-minimal
Hall-violating bag set and its neighborhood, which leaves every interested
agent matched.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from ..errors import InvariantViolationError, PreconditionError
from ..model import Instance


@dataclass(frozen=True)
class ThresholdGraph:
    """Bags vs. eligible agents; edge (i, j) iff agent i values bag j at or
    above i's threshold."""

    bags: tuple[frozenset[int], ...]
    agents: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    @classmethod
    def build(
        cls,
        inst: Instance,
        bags: Sequence[Iterable[int]],
        agents: Sequence[int],
        taus: Sequence[Fraction],
    ) -> "ThresholdGraph":
        """taus is indexed by agent id (full instance indexing)."""
        frozen = tuple(frozenset(b) for b in bags)
        edges = frozenset(
            (i, j)
            for i in agents
            for j, bag in enumerate(frozen)
            if inst.value(i, bag) >= taus[i]
        )
        return cls(bags=frozen, agents=tuple(agents), edges=edges)

    @cached_property
    def _bag_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Per bag index, its agents in ascending order."""
        adjacent: list[list[int]] = [[] for _ in self.bags]
        for i, j in self.edges:
            adjacent[j].append(i)
        return tuple(tuple(sorted(agents)) for agents in adjacent)

    def neighbors_of_bag(self, j: int) -> tuple[int, ...]:
        return self._bag_neighbors[j]


def _max_matching(graph: ThresholdGraph) -> dict[int, int]:
    """Augmenting-path maximum matching, bag -> agent (deterministic)."""
    match_bag: dict[int, int] = {}
    match_agent: dict[int, int] = {}

    def augment(j: int, visited: set[int]) -> bool:
        for i in graph.neighbors_of_bag(j):
            if i in visited:
                continue
            visited.add(i)
            if i not in match_agent or augment(match_agent[i], visited):
                match_bag[j] = i
                match_agent[i] = j
                return True
        return False

    for j in range(len(graph.bags)):
        augment(j, set())
    return match_bag


def _neighborhood(graph: ThresholdGraph, bag_set: Iterable[int]) -> set[int]:
    bag_set = set(bag_set)
    return {i for (i, j) in graph.edges if j in bag_set}


def envy_free_matching(graph: ThresholdGraph) -> tuple[tuple[int, int], ...]:
    """Nonempty envy-free matching as (agent, bag_index) pairs.

    Precondition: every bag has at least one incident edge.
    """
    nbags = len(graph.bags)
    if nbags == 0:
        raise PreconditionError("no bags to match")
    for j in range(nbags):
        if not graph.neighbors_of_bag(j):
            raise PreconditionError(f"bag {j} has no incident edge")

    match_bag = _max_matching(graph)
    if len(match_bag) == nbags:
        pairs = tuple(sorted(((a, j) for j, a in match_bag.items()), key=lambda p: p[1]))
        _verify_envy_free(graph, pairs)
        return pairs

    # Hall violator: bags reachable from an unmatched bag by alternating paths.
    match_agent = {a: j for j, a in match_bag.items()}
    frontier = [j for j in range(nbags) if j not in match_bag]
    x = set(frontier)
    while frontier:
        nxt: list[int] = []
        for j in frontier:
            for i in graph.neighbors_of_bag(j):
                owner = match_agent.get(i)
                if owner is not None and owner not in x:
                    x.add(owner)
                    nxt.append(owner)
        frontier = nxt
    if len(_neighborhood(graph, x)) >= len(x):
        raise InvariantViolationError("expected a Hall-violating bag set")

    # Greedy shrink to an inclusion-minimal violator.
    changed = True
    while changed:
        changed = False
        for j in sorted(x):
            trial = x - {j}
            if trial and len(_neighborhood(graph, trial)) < len(trial):
                x = trial
                changed = True
                break
    if len(x) < 2:
        raise InvariantViolationError("minimal Hall violator collapsed")

    y = sorted(x)[:-1]
    sub_agents = sorted(_neighborhood(graph, y))
    sub = ThresholdGraph(
        bags=tuple(graph.bags[j] for j in y),
        agents=tuple(sub_agents),
        edges=frozenset(
            (i, pos) for pos, j in enumerate(y) for i in graph.neighbors_of_bag(j)
        ),
    )
    sub_match = _max_matching(sub)
    if len(sub_match) != len(y) or len(set(sub_match.values())) != len(sub_agents):
        raise InvariantViolationError(
            "no perfect matching between the Hall subset and its neighborhood"
        )
    pairs = tuple(sorted(((a, y[pos]) for pos, a in sub_match.items()), key=lambda p: p[1]))
    _verify_envy_free(graph, pairs)
    return pairs


def _verify_envy_free(
    graph: ThresholdGraph, pairs: tuple[tuple[int, int], ...]
) -> None:
    if not pairs:
        raise InvariantViolationError("empty matching")
    matched_agents = {a for a, _ in pairs}
    matched_bags = {j for _, j in pairs}
    for i, j in graph.edges:
        if i not in matched_agents and j in matched_bags:
            raise InvariantViolationError(
                f"unmatched agent {i} has an edge to matched bag {j}"
            )
