"""Envy-free matchings in bipartite agent/bag graphs.

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

The graph is ``neighbors[j]``, bag j's accepting agents in ascending order;
the caller decides who accepts a bag.  An agent no bag lists is never
matched and reaches nothing, so the eligible agents are those listed.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import InvariantViolationError, PreconditionError


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


def envy_free_matching(neighbors: Sequence[tuple[int, ...]]) -> tuple[tuple[int, int], ...]:
    """Maximum-cardinality envy-free matching as (agent, bag_index) pairs,
    in bag order, where ``neighbors[j]`` lists bag j's agents ascending.

    Precondition: every bag has at least one incident edge, and the maximum
    envy-free matching is nonempty (always so when there are no more agents
    than bags); otherwise ``PreconditionError``.
    """
    for j, agents in enumerate(neighbors):
        if not agents:
            raise PreconditionError(f"bag {j} has no incident edge")

    match_bag = _max_matching(neighbors)
    frontier = sorted(set().union(*neighbors).difference(match_bag.values()))
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
            for j in accepts[i]:
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
    _verify_envy_free(neighbors, pairs)
    return pairs


def _verify_envy_free(
    neighbors: Sequence[tuple[int, ...]], pairs: tuple[tuple[int, int], ...]
) -> None:
    if not pairs:
        raise InvariantViolationError("empty matching")
    matched_agents = {a for a, _ in pairs}
    for _, j in pairs:
        for i in neighbors[j]:
            if i not in matched_agents:
                raise InvariantViolationError(
                    f"unmatched agent {i} has an edge to matched bag {j}"
                )
