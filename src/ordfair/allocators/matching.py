"""Envy-free matchings in bipartite agent/bag threshold graphs.

A matching is envy-free when no unmatched agent has an edge to a matched
bag.  ``envy_free_matching`` follows Aigner-Horev and Segal-Halevi
("Envy-free matchings in bipartite graphs and their applications to fair
division", Information Sciences 587, 2022): take a maximum matching M, walk
alternating paths (agent -> a bag it accepts -> that bag's M-partner) from
the agents M leaves unmatched, and keep M's pairs whose agent no path
reaches.  Every bag a reached agent accepts is matched to a reached agent,
so no unmatched agent envies a kept bag, and the result is a
maximum-cardinality envy-free matching.  When there are no more agents than
bags and every bag has an edge, it is nonempty: if every agent were
reached, every bag would have a reached neighbour and so be matched (else M
would have an augmenting path), M would be perfect, and no agent would be
reached.

``ThresholdGraph.build`` takes each agent's threshold as its level
(``Instance.level``), which the lone divider maps once, and decides each edge
on the agent's integer row: the bag's sum on that row (what
``Instance.int_value`` gives), at or above that level.  One call of the
model's column kernel (``_bundle_sums``) gives each bag's column of sums,
and each bag's neighbours are read from its column.  The graph is the
eligible agents and each bag's agents in ascending order: what the maximum
matching, the alternating-path walk and the envy-freeness check read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import InvariantViolationError, PreconditionError
from ..model import Instance, _bundle_sums


@dataclass(frozen=True)
class ThresholdGraph:
    """Bags vs. eligible agents; agent i is adjacent to bag j iff i values
    bag j at or above i's threshold.  ``neighbors[j]`` lists bag j's agents
    in ascending order."""

    agents: tuple[int, ...]
    neighbors: tuple[tuple[int, ...], ...]

    @classmethod
    def build(
        cls, inst: Instance, bags: Sequence[Iterable[int]], levels: Sequence[tuple[int, int]]
    ) -> "ThresholdGraph":
        """The graph of (agent, ``Instance.level``) pairs.  ``agents`` keeps
        the pairs' order; each bag's list is ascending whatever that order."""
        ranked = sorted(levels)
        neighbors = (
            tuple(i for i, level in ranked if col[i] >= level)
            for col in _bundle_sums(inst, tuple(map(frozenset, bags)))
        )
        return cls(tuple(i for i, _ in levels), tuple(neighbors))


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


def envy_free_matching(graph: ThresholdGraph) -> tuple[tuple[int, int], ...]:
    """Maximum-cardinality envy-free matching as (agent, bag_index) pairs,
    in bag order.

    Precondition: every bag has at least one incident edge, and the maximum
    envy-free matching is nonempty (always so when there are no more agents
    than bags); otherwise ``PreconditionError``.
    """
    neighbors = graph.neighbors
    for j, agents in enumerate(neighbors):
        if not agents:
            raise PreconditionError(f"bag {j} has no incident edge")

    match_bag = _max_matching(neighbors)
    matched = set(match_bag.values())
    frontier = [i for i in graph.agents if i not in matched]
    reached = set(frontier)
    if frontier:
        # Alternating paths from the unmatched agents: agent -> a bag it
        # accepts -> that bag's partner.
        accepts: dict[int, list[int]] = {}
        for j, agents in enumerate(neighbors):
            for i in agents:
                accepts.setdefault(i, []).append(j)
        while frontier:
            i = frontier.pop()
            for j in accepts.get(i, ()):
                partner = match_bag.get(j)
                if partner is None:
                    raise InvariantViolationError(
                        f"agent {i} reaches unmatched bag {j}: the matching is not maximum"
                    )
                if partner not in reached:
                    reached.add(partner)
                    frontier.append(partner)

    pairs = tuple(
        sorted(((a, j) for j, a in match_bag.items() if a not in reached), key=lambda p: p[1])
    )
    if not pairs:
        raise PreconditionError("the maximum envy-free matching is empty")
    _verify_envy_free(graph, pairs)
    return pairs


def _verify_envy_free(
    graph: ThresholdGraph, pairs: tuple[tuple[int, int], ...]
) -> None:
    if not pairs:
        raise InvariantViolationError("empty matching")
    matched_agents = {a for a, _ in pairs}
    for _, j in pairs:
        for i in graph.neighbors[j]:
            if i not in matched_agents:
                raise InvariantViolationError(
                    f"unmatched agent {i} has an edge to matched bag {j}"
                )
