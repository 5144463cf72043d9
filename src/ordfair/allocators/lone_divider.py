"""Lone-divider allocation for top-n instances: EFX + 1-out-of-ceil(3n/2) MMS.

One unserved agent repeatedly partitions the remaining goods into bags worth
at least their own share, one designated top good per bag.  Bags are shrunk
to inclusion-minimal sets still acceptable to some unserved agent; if a
served agent strongly envies a shrunk bag they steal a minimal envied core
of it, otherwise an envy-free matching hands bags out.  The served agents'
bundles are the one record: each round derives the unserved agents and the
pool from them, and the pool holds one top good per unserved agent, since
every bundle holds one.  The top goods are the instance's cached top-n set
(``Instance.top_n_set``), which the pipeline's structure check derived.

Both shrinks are single passes: a removal test that fails once fails for
every smaller bag, so restarting after each removal would only re-test
goods that fail again.  The steal takes the first shrunk bag a served agent
strongly envies and keeps its one top good, the good it was shrunk around.

Every decision compares one agent's sums on their integer row
(``Instance.int_rows``) with their threshold on the same scale
(``Instance.levels``).  ``alloc_topn_lone_divider`` takes thresholds in
value units and maps them once; the partition, the shrink and the matching's
edges (``_acceptors``) take those levels.  Only the progress measure, a
total across agents whose scales differ, stays in ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ..errors import (
    InvariantViolationError,
    PreconditionError,
    StructuralMismatchError,
)
from ..model import Allocation, Instance, _bundle_sums, _fraction
from .bagfill import run_bag_fill
from .matching import envy_free_matching
from .trace import AllocatorTrace


class _Discard:
    """A trace that keeps no events: the partition's bag-filling runs are
    not part of a2's trace, which records the bags they make instead."""

    @staticmethod
    def emit(iteration: int, kind: str, **args: object) -> None:
        pass


_DISCARD = _Discard()


def _int_value(inst: Instance, agent: int, goods: Iterable[int]) -> int:
    """``Instance.int_value`` without its range checks: the lone divider's
    agents and goods all come from the instance."""
    return sum(map(inst.int_rows[agent][0].__getitem__, goods))


def lone_divider_partition(
    inst: Instance,
    divider: int,
    pool: Iterable[int],
    top_goods: Iterable[int],
    level: int,
) -> list[frozenset[int]]:
    """Partition `pool` into one bag per good of `top_goods` in it, each
    worth at least `level` on the divider's integer row (their
    ``Instance.levels`` entry) and each holding exactly one of those goods.

    Runs the singleton-phase bag filler with one copy of the divider per
    bag, along the pool ordered by the divider's values (top goods winning
    ties, then lower indices), then spreads leftover goods round-robin
    across the bags.  The filler's events go to a sink that keeps none.
    """
    pool = sorted(set(pool))
    top = frozenset(top_goods)
    bag_count = len(top.intersection(pool))
    if bag_count < 1:
        raise PreconditionError("need at least one bag")
    # Two stable sorts of the ascending pool: top goods first, then by the
    # divider's value, descending, so ties keep top goods first by index.
    order = sorted(pool, key=top.__contains__, reverse=True)
    order.sort(key=inst.int_rows[divider][0].__getitem__, reverse=True)

    bags = run_bag_fill(
        [inst.int_rows[divider]] * bag_count, [level] * bag_count, order, True, _DISCARD
    )
    used = set().union(*bags)
    leftovers = [g for g in order if g not in used]
    for idx, g in enumerate(leftovers):
        bags[idx % bag_count].add(g)

    for bag in bags:
        if len(bag & top) != 1:
            raise InvariantViolationError("bag lost its top good")
        if _int_value(inst, divider, bag) < level:
            raise InvariantViolationError("divider bag fell below the share")
    return [frozenset(b) for b in bags]


def shrink_minimal(
    inst: Instance, bag: Iterable[int], protected: int, levels: Sequence[tuple[int, int]]
) -> frozenset[int]:
    """Inclusion-minimal subset keeping `protected` that some agent of the
    (agent, ``Instance.levels`` entry) pairs `levels` still values at or
    above their level."""
    current = set(bag)
    if protected not in current:
        raise PreconditionError("protected good must be in the bag")
    if not any(_int_value(inst, i, current) >= level for i, level in levels):
        raise PreconditionError("no agent accepts the bag to begin with")
    # Values are non-negative, so a good that cannot leave the bag now cannot
    # leave any smaller bag either: one ascending pass removes what removing
    # the lowest removable good and restarting would.
    for x in sorted(current - {protected}):
        trial = current - {x}
        if any(_int_value(inst, i, trial) >= level for i, level in levels):
            current = trial
    return frozenset(current)


def _acceptors(
    inst: Instance, bags: Sequence[frozenset[int]], levels: Sequence[tuple[int, int]]
) -> tuple[tuple[int, ...], ...]:
    """Per bag, the agents of the (agent, ``Instance.levels`` entry) pairs
    `levels` whose sum in the bag's column is at or above their level,
    ascending."""
    ranked = sorted(levels)
    return tuple(
        tuple(i for i, level in ranked if col[i] >= level)
        for col in _bundle_sums(inst, bags)
    )


def _envies(inst: Instance, agent: int, own: Iterable[int], target: Iterable[int]) -> bool:
    return _int_value(inst, agent, target) > _int_value(inst, agent, own)


def strongly_envies_bundle(
    inst: Instance, agent: int, own: Iterable[int], target: Iterable[int]
) -> bool:
    """Strong envy of a candidate bundle that is not (yet) anyone's: the
    target without its least valued good is worth more than ``own``."""
    row = inst.int_rows[agent][0]
    values = [row[g] for g in set(target)]
    return bool(values) and sum(values) - min(values) > _int_value(inst, agent, own)


def most_envious_shrink(
    inst: Instance,
    bag: Iterable[int],
    protected: int,
    holdings: Mapping[int, frozenset[int]],
) -> tuple[int, frozenset[int]]:
    """Shrink `bag` (keeping `protected`) to a minimal set some served agent
    still envies; return that agent and the set.

    Postcondition, checked explicitly: no served agent strongly envies the
    result, including via removal of the protected good.
    """
    z = set(bag)
    if protected not in z:
        raise PreconditionError("protected good must be in the bag")
    served = sorted(holdings)
    if not any(
        strongly_envies_bundle(inst, a, holdings[a], z) for a in served
    ):
        raise PreconditionError("nobody strongly envies the bag")
    # Envy of a smaller set is weaker, so an (agent, good) pair that fails
    # once fails for every later z and one pass suffices, as above.
    for a in served:
        for x in sorted(z - {protected}):
            if _envies(inst, a, holdings[a], z - {x}):
                z.remove(x)
    winner = next((a for a in served if _envies(inst, a, holdings[a], z)), None)
    if winner is None:
        raise InvariantViolationError("envied core lost all its enviers")
    for a in served:
        if strongly_envies_bundle(inst, a, holdings[a], z):
            raise InvariantViolationError(
                "a served agent still strongly envies the shrunk bag"
            )
    return winner, frozenset(z)


def alloc_topn_lone_divider(
    inst: Instance, taus: Sequence[Fraction]
) -> tuple[Allocation, AllocatorTrace]:
    """Lone-divider allocation on a top-n instance, with any number of goods.

    ``taus`` are the agents' thresholds, their 1-out-of-ceil(3n/2) shares
    for the guarantee.  Returns a partial allocation that is EFX with every
    agent's bundle at or above their threshold.  The top goods are
    ``top_k_set(inst, n)``, read from the instance's cache, so a solve
    derives them once.
    """
    n = inst.n
    top = inst.top_n_set
    if top is None:
        raise StructuralMismatchError("instance is not top-n")

    trace = AllocatorTrace("alloc_topn_lone_divider")
    levels = inst.levels(taus)
    bundles: dict[int, frozenset[int]] = {}
    prev_measure: tuple[Fraction, int] | None = None
    iteration = 0

    while len(bundles) < n:
        iteration += 1
        unserved = [i for i in range(n) if i not in bundles]
        pool = frozenset(inst.goods).difference(*bundles.values())
        values = (_fraction(_int_value(inst, i, b), inst.int_rows[i][1]) for i, b in bundles.items())
        measure = (sum(values, Fraction(0)), len(bundles))
        if prev_measure is not None and measure <= prev_measure:
            raise InvariantViolationError("progress measure failed to increase")
        prev_measure = measure
        _assert_loop_invariants(inst, bundles, unserved, levels)

        divider = unserved[0]
        top_in_pool = top & pool
        if len(top_in_pool) != len(unserved):
            raise InvariantViolationError("top goods out of sync with unserved agents")
        trace.emit(iteration, "lone_divider", agent=divider)
        bags = lone_divider_partition(inst, divider, pool, top_in_pool, levels[divider])
        for j, bag in enumerate(bags):
            trace.emit(iteration, "bag_init", bag=j, goods=bag)

        unserved_levels = [(i, levels[i]) for i in unserved]
        shrunk: list[frozenset[int]] = []
        for j, bag in enumerate(bags):
            shrunk.append(shrink_minimal(inst, bag, next(iter(bag & top)), unserved_levels))
            trace.emit(iteration, "shrink", bag=j, kept=shrunk[j])

        envied = next(
            (
                bag
                for bag in shrunk
                if any(strongly_envies_bundle(inst, a, bundles[a], bag) for a in bundles)
            ),
            None,
        )
        if envied is not None:
            winner, core = most_envious_shrink(inst, envied, next(iter(envied & top)), bundles)
            bundles[winner] = core
            trace.emit(iteration, "steal", agent=winner, goods=core)
            continue

        pairs = envy_free_matching(_acceptors(inst, shrunk, unserved_levels))
        for agent, j in pairs:
            bundles[agent] = shrunk[j]
        trace.emit(
            iteration, "matching", pairs=tuple((agent, shrunk[j]) for agent, j in pairs)
        )

    served = tuple(bundles[i] for i in range(n))
    alloc = Allocation(served, frozenset(inst.goods).difference(*served))
    for i in inst.agents:
        if _int_value(inst, i, alloc.bundles[i]) < levels[i]:
            raise InvariantViolationError(f"agent {i} ended below their threshold")
    return alloc, trace


def _assert_loop_invariants(
    inst: Instance,
    bundles: Mapping[int, frozenset[int]],
    unserved: Iterable[int],
    levels: Sequence[int],
) -> None:
    """Served agents form an EFX sub-allocation; no unserved agent accepts
    any already-assigned bag."""
    served = sorted(bundles)
    for a in served:
        for b in served:
            if a != b and strongly_envies_bundle(
                inst, a, bundles[a], bundles[b]
            ):
                raise InvariantViolationError(
                    f"served agents lost EFX: {a} strongly envies {b}"
                )
    for i in unserved:
        for a in served:
            if _int_value(inst, i, bundles[a]) >= levels[i]:
                raise InvariantViolationError(
                    f"unserved agent {i} accepts an assigned bag"
                )
