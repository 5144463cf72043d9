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

from typing import Iterator, Sequence

from ..errors import InvariantViolationError, PreconditionError


def _max_matching(neighbors: Sequence[tuple[int, ...]]) -> dict[int, int]:
    """Augmenting-path maximum matching, bag position -> agent
    (deterministic), on each bag's agents in ascending order.

    Each bag in turn starts a depth-first search: a bag tries its unvisited
    agents in order, taking a free one or moving on to a matched one's bag.
    A path may pass every bag, past Python's recursion limit, so the search
    keeps its path in lists indexed by bag, not on the call stack.  One
    slot per bag is enough: the root is unmatched, and a search enters a
    matched bag only through its partner, which it then has visited, so it
    enters no bag twice."""
    match_bag: dict[int, int] = {}
    match_agent: dict[int, int] = {}
    # Per bag on the path: the bag it was entered from, its agents still to
    # try, and the agent it is trying.
    parent = [0] * len(neighbors)
    resume: list[Iterator[int] | None] = [None] * len(neighbors)
    tried = [0] * len(neighbors)
    for root, agents in enumerate(neighbors):
        visited: set[int] = set()
        bag, agents = root, iter(agents)
        while True:
            for i in agents:
                if i not in visited:
                    break
            else:
                if bag == root:
                    break
                bag = parent[bag]
                agents = resume[bag]
                continue
            visited.add(i)
            partner = match_agent.get(i)
            if partner is not None:
                resume[bag] = agents
                tried[bag] = i
                parent[partner] = bag
                bag = partner
                agents = iter(neighbors[partner])
                continue
            # A free agent: each bag on the path takes the agent it tried.
            match_bag[bag] = i
            match_agent[i] = bag
            while bag != root:
                bag = parent[bag]
                i = tried[bag]
                match_bag[bag] = i
                match_agent[i] = bag
            break
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
