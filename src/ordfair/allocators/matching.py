"""Envy-free matchings in bipartite agent/bag threshold graphs.

A matching is envy-free when no unmatched agent has an edge to a matched
bag.  If a bag-perfect matching exists it is returned; otherwise a perfect
matching is built between a proper subset of an inclusion-minimal
Hall-violating bag set and its neighborhood, which leaves every interested
agent matched.

Matching and neighborhoods read the graph's per-bag adjacency tuples; the
Hall step matches the violator's subset on those tuples, not on a
sub-graph.  Its shrink to a minimal violator restarts after each removal:
violating Hall's condition is not monotone (a set that does not violate it
can have a subset that does), so one pass would keep a different violator.

``ThresholdGraph.build`` decides each edge on the agent's integer row: the
bag's sum on that row (what ``Instance.int_value`` gives), at or above the
threshold's ``Instance.level``.  Each agent's bag sums come from one pass
over the bags' (good, bag) pairs.
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
        """taus is indexed by agent id (full instance indexing), in value
        units."""
        levels = inst.levels(taus)
        return cls._from_levels(inst, bags, [(i, levels[i]) for i in agents])

    @classmethod
    def _from_levels(
        cls, inst: Instance, bags: Sequence[Iterable[int]], levels: Sequence[tuple[int, int]]
    ) -> "ThresholdGraph":
        """``build`` on (agent, ``Instance.level``) pairs, in agent order."""
        frozen = tuple(frozenset(b) for b in bags)
        pairs = [(g, j) for j, bag in enumerate(frozen) for g in bag]
        edges = []
        for i, level in levels:
            row = inst.int_rows[i][0]
            sums = [0] * len(frozen)
            for g, j in pairs:
                sums[j] += row[g]
            edges += [(i, j) for j, total in enumerate(sums) if total >= level]
        return cls(bags=frozen, agents=tuple(i for i, _ in levels), edges=frozenset(edges))

    @cached_property
    def _bag_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Per bag index, its agents in ascending order."""
        adjacent: list[list[int]] = [[] for _ in self.bags]
        for i, j in self.edges:
            adjacent[j].append(i)
        return tuple(tuple(sorted(agents)) for agents in adjacent)

    def neighbors_of_bag(self, j: int) -> tuple[int, ...]:
        return self._bag_neighbors[j]


def _max_matching(neighbors: Sequence[tuple[int, ...]]) -> dict[int, int]:
    """Augmenting-path maximum matching, bag position -> agent
    (deterministic), on each bag's agents in ascending order."""
    match_bag: dict[int, int] = {}
    match_agent: dict[int, int] = {}

    def augment(j: int, visited: set[int]) -> bool:
        for i in neighbors[j]:
            if i in visited:
                continue
            visited.add(i)
            if i not in match_agent or augment(match_agent[i], visited):
                match_bag[j] = i
                match_agent[i] = j
                return True
        return False

    for j in range(len(neighbors)):
        augment(j, set())
    return match_bag


def _neighborhood(neighbors: Sequence[tuple[int, ...]], bag_set: Iterable[int]) -> set[int]:
    return {i for j in bag_set for i in neighbors[j]}


def envy_free_matching(graph: ThresholdGraph) -> tuple[tuple[int, int], ...]:
    """Nonempty envy-free matching as (agent, bag_index) pairs.

    Precondition: every bag has at least one incident edge.
    """
    nbags = len(graph.bags)
    if nbags == 0:
        raise PreconditionError("no bags to match")
    neighbors = graph._bag_neighbors
    for j in range(nbags):
        if not neighbors[j]:
            raise PreconditionError(f"bag {j} has no incident edge")

    match_bag = _max_matching(neighbors)
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
            for i in neighbors[j]:
                owner = match_agent.get(i)
                if owner is not None and owner not in x:
                    x.add(owner)
                    nxt.append(owner)
        frontier = nxt
    if len(_neighborhood(neighbors, x)) >= len(x):
        raise InvariantViolationError("expected a Hall-violating bag set")

    # Greedy shrink to an inclusion-minimal violator.  It restarts after each
    # removal because Hall violation is not monotone (module docstring).
    changed = True
    while changed:
        changed = False
        for j in sorted(x):
            trial = x - {j}
            if trial and len(_neighborhood(neighbors, trial)) < len(trial):
                x = trial
                changed = True
                break
    if len(x) < 2:
        raise InvariantViolationError("minimal Hall violator collapsed")

    y = sorted(x)[:-1]
    sub_match = _max_matching([neighbors[j] for j in y])
    sub_agents = _neighborhood(neighbors, y)
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
