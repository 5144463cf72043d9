"""Shared helpers for the test suite: canned instances, seeded sampling, and
naive reference implementations kept deliberately independent of the library
internals (plain loops over explicit sums)."""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from fractions import Fraction

from ordfair import (
    Allocation,
    FairnessReport,
    GeneratorConfig,
    Instance,
    generate,
    is_ef1,
    is_efx,
    is_ordinal_mms,
)
from ordfair.verification import MmsVerdict

# The two worked instances used throughout the suite (0-based goods).
I_A = Instance.from_rows([[3, 2, 2, 1, 1], [4, 3, 1, 1, 1]])
I_B = Instance.from_rows([[5, 4, 2, 1], [4, 5, 1, 2]])
EX51 = Instance.from_rows([[1, 1, 1, 1, 1], [1, 1, 1, 1, 1], [1, 1, 1, 2, 1]])
# Witness partitions the worked example fixes for EX51 (agents 0,1 then 2).
EX51_WITNESSES = {
    0: [{0, 1}, {2, 3}, {4}],
    1: [{0, 1}, {2, 3}, {4}],
    2: [{0, 1}, {2, 4}, {3}],
}


def seeded_instance(family: str, n: int, m: int, seed: int, max_value: int = 20) -> Instance:
    return generate(GeneratorConfig(family=family, n=n, m=m, max_value=max_value, seed=seed))


def positive_ordered_instance(n: int, m: int, seed: int, max_value: int = 8) -> Instance:
    """Ordered instance with strictly positive values (shares stay positive)."""
    inst = seeded_instance("ordered", n, m, seed, max_value)
    return inst.with_values([[v + 1 for v in row] for row in inst.values])


def make_allocation(bundles, pool=()) -> Allocation:
    return Allocation(tuple(frozenset(b) for b in bundles), frozenset(pool))


def random_partial_allocation(inst: Instance, rng: random.Random) -> Allocation:
    """Uniformly random partial allocation: each good to an agent or the pool."""
    bundles = [set() for _ in range(inst.n)]
    pool = set()
    for g in inst.goods:
        slot = rng.randrange(inst.n + 1)
        if slot == inst.n:
            pool.add(g)
        else:
            bundles[slot].add(g)
    return make_allocation(bundles, pool)


# --- naive reference checkers (no shared code with ordfair.verification) ----


def naive_value(inst: Instance, agent: int, goods) -> Fraction:
    total = Fraction(0)
    for g in goods:
        total = total + inst.values[agent][g]
    return total


def naive_strong_envy(inst: Instance, alloc: Allocation, i: int, j: int) -> bool:
    own = naive_value(inst, i, alloc.bundles[i])
    found = False
    for g in alloc.bundles[j]:
        rest = [h for h in alloc.bundles[j] if h != g]
        if naive_value(inst, i, rest) > own:
            found = True
    return found


def naive_is_efx(inst: Instance, alloc: Allocation) -> bool:
    for i in range(inst.n):
        for j in range(inst.n):
            if i != j and naive_strong_envy(inst, alloc, i, j):
                return False
    return True


def naive_is_ef1(inst: Instance, alloc: Allocation) -> bool:
    for i in range(inst.n):
        own = naive_value(inst, i, alloc.bundles[i])
        for j in range(inst.n):
            if i == j:
                continue
            if own >= naive_value(inst, i, alloc.bundles[j]):
                continue
            fixable = False
            for g in alloc.bundles[j]:
                rest = [h for h in alloc.bundles[j] if h != g]
                if own >= naive_value(inst, i, rest):
                    fixable = True
            if not fixable:
                return False
    return True


def ref_cover_ceiling(vals: list[int], d: int) -> int:
    """``shares._cover_ceiling`` as the full loop: min over every k < d of
    (sum of all but the k largest of vals, sorted desc) // (d - k)."""
    total = sum(vals)
    best, top = total // d, 0
    for k, v in enumerate(vals[: d - 1], 1):
        top += v
        best = min(best, (total - top) // (d - k))
    return best


def ref_cover(vals: list[int], d: int, target: int) -> list[int] | None:
    """Partition all of vals (sorted desc) into d bundles, each >= target:
    a good-by-good branch and bound, the reference that decides share probes
    independently of ``shares._find_covering``'s bin completion.

    Returns the bundle index per good, or None.  Branching: goods by
    descending value, bundles by ascending index; among uncovered bundles
    only the first of each load is tried, among covered ones only the first.
    Every prune below only cuts a subtree that holds no covering, so none of
    them changes which partition is found first:

    - the goods left cannot close the total deficit even if each one counts
      for at most the largest uncovered deficit, the most it can close in
      any one bundle;
    - the uncovered bundles need more goods than are left, counting for
      each bundle the fewest of the largest goods left that close its
      deficit (at least one, since goods go to one bundle each);
    - a (good index, sorted uncovered loads) state that failed once: its
      outcome depends on nothing else.

    Once every bundle is covered the search would put each remaining good in
    bundle 0 (the first covered one), so that is done directly.
    """
    k = len(vals)
    if target == 0:
        return [0] * k
    loads = [0] * d
    assign = [0] * k
    suffix = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] + vals[i]
    # Both are ascending, so bisect finds where the goods drop below a level
    # and how many of the largest goods from an index on reach a sum.
    neg = [-v for v in vals]
    neg_suffix = [-s for s in suffix]
    # The loads of the uncovered bundles, kept sorted: opened[0] is the
    # lowest load and target - opened[0] the largest deficit.
    opened = [0] * d

    dead: set[tuple[int, tuple[int, ...]]] = set()

    def dfs(idx: int, deficit: int) -> bool:
        if deficit == 0:
            assign[idx:] = [0] * (k - idx)
            return True
        cap = target - opened[0]
        split = bisect_right(neg, -cap, idx)
        if (split - idx) * cap + suffix[split] < deficit:
            return False
        # Deficits fall along opened, so once one bundle needs a single
        # good, so does every later one.
        need, left = 0, suffix[idx]
        for pos, load in enumerate(opened):
            fewest = bisect_left(neg_suffix, target - load - left, idx) - idx
            if fewest == 1:
                need += len(opened) - pos
                break
            need += fewest
        if need > k - idx:
            return False
        key = (idx, tuple(opened))
        if key in dead:
            return False
        v = vals[idx]
        tried: set[int] = set()
        covered_seen = False
        for b in range(d):
            load = loads[b]
            if load >= target:
                # Covered bundles are interchangeable from here on (the good
                # becomes surplus either way), and the first solution in
                # bundle-index order keeps surplus lowest, so one covered
                # branch suffices without changing the found witness.
                if covered_seen:
                    continue
                covered_seen = True
                loads[b] = load + v
                assign[idx] = b
                if dfs(idx + 1, deficit):
                    return True
                loads[b] = load
                continue
            if load in tried:
                continue
            tried.add(load)
            new, gap = load + v, target - load
            opened.remove(load)
            if new < target:
                insort(opened, new)
            loads[b] = new
            assign[idx] = b
            if dfs(idx + 1, deficit - (v if v < gap else gap)):
                return True
            loads[b] = load
            if new < target:
                opened.remove(new)
            insort(opened, load)
        dead.add(key)
        return False

    found = dfs(0, d * target)
    # dfs refers to itself, so its closure and memo form a cycle; unbinding
    # it frees them now instead of at the cyclic collector's next run.
    del dfs
    return assign if found else None


# --- Fraction references for the integer-scaled library code ----------------
# Copies of the library's envy, EFX and EF1 checks and of envy-cycle
# completion as they were written on Fraction values, before comparisons
# moved to per-agent integer rows.  The differential tests assert that both
# give the same verdicts, witnesses, allocations and traces.


def frac_common_order(inst: Instance):
    """Goods sorted by the lexicographic tuple of all agents' values
    (descending, stable), and whether that order sorts every agent."""
    order = sorted(
        range(inst.m), key=lambda g: tuple(-inst.values[i][g] for i in range(inst.n))
    )
    ordered = all(
        inst.values[i][order[p]] >= inst.values[i][order[p + 1]]
        for i in range(inst.n)
        for p in range(inst.m - 1)
    )
    return order, ordered


def ref_detect_structure(inst: Instance):
    """``model.detect_structure`` as it sorted before column sums: by the
    lexicographic tuple of all agents' integer values, then checked."""
    rows = [row for row, _ in inst.int_rows]
    candidate = sorted(range(inst.m), key=lambda g: tuple(-row[g] for row in rows))
    ordered = all(
        row[candidate[p]] >= row[candidate[p + 1]] for row in rows for p in range(inst.m - 1)
    )
    return tuple(candidate) if ordered else None


def ref_top_k_set(inst: Instance, k: int):
    """``model.top_k_set`` as it was written with two set comprehensions per
    agent."""
    if not 1 <= k <= inst.m:
        return None
    must: set[int] = set()
    may = None
    for row, _ in inst.int_rows:
        kth = sorted(row, reverse=True)[k - 1]
        must |= {g for g in inst.goods if row[g] > kth}
        agent_may = {g for g in inst.goods if row[g] >= kth}
        may = agent_may if may is None else may & agent_may
    if not must <= may or len(must) > k or len(may) < k:
        return None
    return frozenset(must | set(sorted(may - must)[: k - len(must)]))


def ref_threshold_edges(inst: Instance, bags, levels) -> frozenset[tuple[int, int]]:
    """``ThresholdGraph.build``'s edges as it found them with one
    ``Instance.int_value`` call per (agent, bag) pair: (i, j) iff agent i's
    integer sum of bag j is at least i's level."""
    frozen = tuple(frozenset(b) for b in bags)
    return frozenset(
        (i, j)
        for i, level in levels
        for j, bag in enumerate(frozen)
        if inst.int_value(i, bag) >= level
    )


def ref_max_envy_free_matching(agents, edges) -> int:
    """Size of a largest envy-free matching, by trying every envy-free
    matching: each agent in turn stays unmatched or takes an adjacent bag
    that no earlier agent took.  A matching is envy-free when no unmatched
    agent has an edge to a matched bag, so an agent may stay unmatched only
    if no earlier agent took a bag it accepts, and afterwards no one may."""
    agents = list(agents)
    adjacent = {i: {j for a, j in edges if a == i} for i in agents}
    best = 0

    def extend(k: int, taken: set[int], envied: set[int]) -> None:
        nonlocal best
        if k == len(agents):
            best = max(best, len(taken))
            return
        i = agents[k]
        if not adjacent[i] & taken:
            extend(k + 1, taken, envied | adjacent[i])
        for j in adjacent[i] - taken - envied:
            extend(k + 1, taken | {j}, envied)

    extend(0, set(), set())
    return best


def ref_shrink_minimal(inst: Instance, bag, protected, agents, taus) -> frozenset[int]:
    """``shrink_minimal`` as the restart loop it was: remove the lowest good
    whose removal leaves the bag acceptable to some agent, then start over
    from the lowest good."""
    current = set(bag)
    while True:
        for x in sorted(current - {protected}):
            trial = current - {x}
            if any(inst.value(i, trial) >= taus[i] for i in agents):
                current = trial
                break
        else:
            return frozenset(current)


def ref_most_envious_shrink(inst: Instance, bag, protected, holdings):
    """``most_envious_shrink``'s search as the restart loop it was: remove
    the good of the first (served agent, good) pair whose removal the agent
    still envies, then start over.  Returns the first agent who envies the
    result (None if nobody does) and the result, without the postcondition
    check."""
    z = set(bag)
    served = sorted(holdings)

    def envies(a, goods):
        return inst.value(a, goods) > inst.value(a, holdings[a])

    while True:
        pair = next(
            ((a, x) for a in served for x in sorted(z - {protected}) if envies(a, z - {x})),
            None,
        )
        if pair is None:
            return next((a for a in served if envies(a, z)), None), frozenset(z)
        z.remove(pair[1])


def frac_envy_edges(inst: Instance, bundles) -> list[set[int]]:
    """incoming[j] = agents that envy j."""
    own = [inst.value(i, bundles[i]) for i in inst.agents]
    incoming: list[set[int]] = [set() for _ in inst.agents]
    for i in inst.agents:
        for j in inst.agents:
            if i != j and inst.value(i, bundles[j]) > own[i]:
                incoming[j].add(i)
    return incoming


def frac_strongly_envies(inst: Instance, alloc: Allocation, i: int, j: int):
    bundle = alloc.bundles[j]
    if not bundle:
        return False, None
    own = inst.value(i, alloc.bundles[i])
    total = inst.value(i, bundle)
    drop = min(sorted(bundle), key=lambda g: inst.values[i][g])
    if total - inst.values[i][drop] > own:
        return True, drop
    return False, None


def frac_is_efx(inst: Instance, alloc: Allocation):
    for i in inst.agents:
        for j in inst.agents:
            if i != j:
                bad, g = frac_strongly_envies(inst, alloc, i, j)
                if bad:
                    return False, (i, j, g)
    return True, None


def frac_is_ef1(inst: Instance, alloc: Allocation):
    for i in inst.agents:
        own = inst.value(i, alloc.bundles[i])
        for j in inst.agents:
            if i == j:
                continue
            bundle = alloc.bundles[j]
            if not bundle:
                continue
            total = inst.value(i, bundle)
            if own >= total:
                continue
            best_drop = max(inst.values[i][g] for g in bundle)
            if own < total - best_drop:
                return False, (i, j)
    return True, None


def frac_envy_cycle_elimination(inst: Instance, alloc: Allocation):
    """Envy-cycle completion re-summing every bundle in Fraction on every
    event; returns the completed allocation and the trace text."""
    from ordfair.allocators.envy_cycle import _find_cycle
    from ordfair.allocators.trace import AllocatorTrace

    bundles = [set(b) for b in alloc.bundles]
    pool = set(alloc.pool)
    trace = AllocatorTrace("envy_cycle_elimination")
    iteration = 0
    while pool:
        iteration += 1
        incoming = frac_envy_edges(inst, bundles)
        sources = [i for i in inst.agents if not incoming[i]]
        if not sources:
            cycle = _find_cycle(incoming)
            saved = [set(bundles[a]) for a in cycle]
            for idx, a in enumerate(cycle):
                bundles[a] = saved[(idx + 1) % len(cycle)]
            trace.emit(iteration, "cycle_rotation", cycle=tuple(cycle))
            continue
        source = min(sources)
        row = inst.values[source]
        good = min(pool, key=lambda g: (-row[g], g))
        bundles[source].add(good)
        pool.remove(good)
        trace.emit(iteration, "source_gift", agent=source, good=good)
    return make_allocation(bundles), trace.to_text()


def rational_rows_instance(rng: random.Random, n: int, m: int, family: str = "general") -> Instance:
    """A seeded instance with each row divided by its own random rational, so
    denominators differ between rows and, where the divisor's numerator has
    factors, within a row.  Every row keeps its order."""
    base = seeded_instance(family, n, m, rng.randrange(2**32), max_value=rng.choice([3, 9, 20]))
    rows = []
    for row in base.values:
        scale = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        rows.append([v / scale for v in row])
    return Instance.from_rows(rows)


def reference_report(inst: Instance, alloc: Allocation, thresholds_by_divisor) -> FairnessReport:
    """``verification.report`` as it was built before it read one worth
    matrix: the public checkers, each on its own, and ``Instance.value``."""
    efx, efx_wit = is_efx(inst, alloc)
    ef1, ef1_wit = is_ef1(inst, alloc)
    verdicts = []
    for d, taus in thresholds_by_divisor.items():
        ok, wit = is_ordinal_mms(inst, alloc, d, taus)
        verdicts.append(MmsVerdict(divisor=d, ok=ok, thresholds=tuple(taus), witness=wit))
    return FairnessReport(
        complete=alloc.is_complete(inst.m),
        bundle_values=tuple(inst.value(i, alloc.bundles[i]) for i in inst.agents),
        efx=efx,
        efx_witness=efx_wit,
        ef1=ef1,
        ef1_witness=ef1_wit,
        mms=tuple(verdicts),
    )
