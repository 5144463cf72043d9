"""Shared helpers for the test suite: canned instances, seeded sampling, and
naive reference implementations kept deliberately independent of the library
internals (plain loops over explicit sums)."""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from fractions import Fraction
from math import inf, lcm
from typing import Iterable, Mapping, Sequence

from ordfair import (
    Allocation,
    FairnessReport,
    GeneratorConfig,
    Instance,
    detect_structure,
    generate,
    is_ef1,
    is_efx,
    is_ordinal_mms,
    thresholds,
)
from ordfair.allocators.bagfill import ceil_3n_over_2, event_cap, run_bag_fill
from ordfair.allocators.trace import AllocatorTrace
from ordfair.errors import (
    InvariantViolationError,
    PreconditionError,
    StructuralMismatchError,
    ZeroMaximinError,
)
from ordfair.shares import _max_pairs, _witness_for
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


def permuted(inst: Instance, order: Sequence[int]) -> Instance:
    """``inst`` with its goods reindexed so that new good p is old good
    order[p], labels included, built through the ``Instance`` constructor."""
    return Instance(
        tuple(tuple(row[g] for g in order) for row in inst.values),
        inst.agent_labels,
        tuple(inst.good_labels[g] for g in order),
    )


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


# The share search written plainly: each node scans where ``shares``
# bisects, takes every completion from the generator and pairs every good it
# can.  It visits the same tree in the same order, and the differential
# tests hold the library to it node for node.


def ref_pairing_refutes(goods: tuple[int, ...], bundles: int, target: int) -> bool:
    """``shares._pairing_refutes`` as p + (s - 2p) // 3 < bundles over the
    full pairing."""
    pairs = _max_pairs(goods, target)
    return pairs + (len(goods) - 2 * pairs) // 3 < bundles


def ref_minimal_completions(
    goods: tuple[int, ...], gap: int, limit: float = inf, start: int = 0, total: int = 0
):
    """``shares._minimal_completions``, the single good found by a scan."""
    need = gap - total
    first = start
    while first < len(goods) and goods[first] >= need:
        first += 1
    if first > start:
        b = goods[first - 1]
        if total + b < limit:
            yield (first - 1,)
        limit = min(limit, total + b)
    room = sum(goods[first:])
    for i in range(first, len(goods)):
        if total + room < gap:
            return
        v = goods[i]
        room -= v
        if (i > first and v == goods[i - 1]) or total + v >= limit:
            continue
        for more in ref_minimal_completions(goods, gap, limit, i + 1, total + v):
            yield (i,) + more


def ref_complete(
    goods: tuple[int, ...],
    bundles: int,
    target: int,
    dead: set[tuple[tuple[int, ...], int]],
    filled: list[tuple[int, ...]],
) -> bool:
    """``shares._complete`` with every completion, the single good's too,
    taken from ``ref_minimal_completions``."""
    if len(goods) < 2 * bundles:
        return False
    if bundles == 1:
        if sum(goods) < target:
            return False
        filled.append(goods)
        return True
    key = (goods, bundles)
    if (
        key in dead
        or ref_cover_ceiling(list(goods), bundles) < target
        or ref_pairing_refutes(goods, bundles, target)
    ):
        return False
    a, rest = goods[0], goods[1:]
    for picked in ref_minimal_completions(rest, target - a):
        bundle, left, prev = (a,), (), 0
        for i in picked:
            bundle += (rest[i],)
            left += rest[prev:i]
            prev = i + 1
        filled.append(bundle)
        if ref_complete(left + rest[prev:], bundles - 1, target, dead, filled):
            return True
        filled.pop()
    dead.add(key)
    return False


def ref_find_covering(vals: list[int], d: int, target: int) -> list[int] | None:
    """``shares._find_covering`` with the row split by scanning in from each
    end, searched by ``ref_complete``."""
    big, end = 0, len(vals)
    while big < end and vals[big] >= target:
        big += 1
    filled = [(v,) for v in vals[: min(big, d)]]
    if big < d:
        while end > big and vals[end - 1] == 0:
            end -= 1
        if not ref_complete(tuple(vals[big:end]), d - big, target, set(), filled):
            return None
    slots: dict[int, list[int]] = {}
    for i in range(len(vals) - 1, -1, -1):
        slots.setdefault(vals[i], []).append(i)
    assign = [0] * len(vals)
    for b, bundle in enumerate(filled):
        for v in bundle:
            assign[slots[v].pop()] = b
    return assign


def ref_normalize_order_preserving(
    inst: Instance,
    d: int,
    witnesses: Mapping[int, Sequence[Iterable[int]]] | None = None,
) -> Instance:
    """``shares.normalize_order_preserving`` as the crossing-event simulation
    it was, kept as the reference its sorted-row form is tested against.

    Per agent, work in the share-1 scale and push each over-valued witness
    bundle's value down to 1 by uniformly shrinking its members.  Whenever a
    shrinking member is about to drop below a good sitting later in the
    common order, the two goods trade bundle slots instead (the latest-placed
    equal-valued good is chosen), so the common order keeps sorting the new
    values.  Output satisfies: every witness bundle has value exactly 1, no
    good gained value relative to v/mu, and the input order still sorts it.
    """
    order = detect_structure(inst)
    if order is None:
        raise StructuralMismatchError("order-preserving normalization needs an ordered instance")
    pos_of = {g: p for p, g in enumerate(order)}
    m = inst.m
    event_cap = 4 * (m + 2) * (m + 2)

    rows: list[list[Fraction]] = []
    for i in inst.agents:
        mu, partition = _witness_for(inst, i, d, witnesses)
        if mu == 0:
            raise ZeroMaximinError(f"agent {i} has zero 1-out-of-{d} share")
        current = [inst.values[i][g] / mu for g in inst.goods]
        slots = [set(part) for part in partition]
        slot_of = {g: j for j, part in enumerate(slots) for g in part}

        for j in range(d):
            events = 0
            while True:
                events += 1
                if events > event_cap:
                    raise InvariantViolationError(
                        f"normalization event cap hit on agent {i} bundle {j}"
                    )
                members = slots[j]
                bag_value = sum((current[g] for g in members), Fraction(0))
                if bag_value < 1:
                    raise InvariantViolationError("witness bundle below the share")
                if bag_value == 1:
                    break
                t_bag = Fraction(1) / bag_value
                # Crossing events: member g meets the largest good placed
                # after it in the order that is not in this bundle.
                best_t: Fraction | None = None
                best_g: int | None = None
                for g in members:
                    if current[g] == 0:
                        continue
                    barrier: Fraction | None = None
                    for p in range(pos_of[g] + 1, m):
                        h = order[p]
                        if h in members:
                            continue
                        if barrier is None or current[h] > barrier:
                            barrier = current[h]
                    if barrier is None or barrier == 0:
                        continue
                    t_g = barrier / current[g]
                    if t_g > 1:
                        raise InvariantViolationError("ordering already violated")
                    if (
                        best_t is None
                        or t_g > best_t
                        or (t_g == best_t and pos_of[g] < pos_of[best_g])
                    ):
                        best_t, best_g = t_g, g
                if best_t is None or t_bag >= best_t:
                    for g in members:
                        current[g] *= t_bag
                    break
                for g in members:
                    current[g] *= best_t
                # Swap best_g with the latest-placed good of equal value.
                level = current[best_g]
                partner = None
                for p in range(m - 1, pos_of[best_g], -1):
                    h = order[p]
                    if h not in members and current[h] == level:
                        partner = h
                        break
                if partner is None:
                    raise InvariantViolationError("crossing event lost its partner")
                k = slot_of[partner]
                slots[k].remove(partner)
                slots[k].add(best_g)
                slots[j].remove(best_g)
                slots[j].add(partner)
                slot_of[best_g] = k
                slot_of[partner] = j

        for j in range(d):
            if sum((current[g] for g in slots[j]), Fraction(0)) != 1:
                raise InvariantViolationError("bundle not normalized to 1")
        for g in inst.goods:
            if current[g] > inst.values[i][g] / mu:
                raise InvariantViolationError("normalization increased a value")
        for p in range(m - 1):
            if current[order[p]] < current[order[p + 1]]:
                raise InvariantViolationError("normalization broke the order")
        rows.append(current)
    return inst.with_values(rows)


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


# 20-digit primes: pairwise coprime denominators, so a row over several of
# them has an lcm of up to 120 digits.
LARGE_PRIMES = (
    10000000000000000051,
    10000000000000000087,
    30000000000000000041,
    30000000000000000059,
    70000000000000000013,
    70000000000000000039,
)


def ref_int_rows(inst: Instance):
    """``Instance.int_rows`` as it was built before it read ``Fraction``
    slots: one ``as_integer_ratio`` call per value, each row scaled by the
    lcm of its own denominators."""
    out = []
    for row in inst.values:
        ratios = [v.as_integer_ratio() for v in row]
        denom = lcm(*(den for _, den in ratios)) if ratios else 1
        out.append((tuple(num * (denom // den) for num, den in ratios), denom))
    return tuple(out)


def ref_ordered_along(inst: Instance, order: Sequence[int]) -> bool:
    """``model.is_ordered_along`` one row at a time, on the Fractions."""
    return all(
        row[g] >= row[h] for row in inst.values for g, h in zip(order, order[1:])
    )


def ref_mms(own: Sequence[Fraction], taus: Sequence[Fraction]):
    """The ordinal MMS verdict as it was decided on ``Fraction`` bundle
    values: every agent below its threshold is a candidate, and the witness
    is the worst shortfall, lowest index on ties."""
    worst = None
    for i, (value, tau) in enumerate(zip(own, taus)):
        if tau > value:
            gap = tau - value
            if worst is None or gap > worst[1]:
                worst = (i, gap)
    return (True, None) if worst is None else (False, worst)


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


def ref_run_bag_fill(
    rows: Sequence[tuple[Sequence[int], int]],
    levels: Sequence[int],
    order: Sequence[int],
    singleton_phase: bool,
    trace: AllocatorTrace,
) -> list[set[int]]:
    """``bagfill.run_bag_fill`` as it was when every iteration derived the
    unserved agents and the open bags from ``owner`` with two set
    differences and ``sorted``, kept verbatim as the reference the engine's
    differential test compares bags and events against."""
    n = len(rows)
    m = len(order)

    def bag_value(agent: int, bag: set[int]) -> int:
        row = rows[agent][0]
        return sum(row[g] for g in bag)

    bags: dict[int, set[int]] = {}
    owner: dict[int, int] = {}
    k = 0
    while singleton_phase and k < m:
        good = order[k]
        claimant = next(
            (i for i in range(n) if i not in owner and rows[i][0][good] >= levels[i]), None
        )
        if claimant is None:
            break
        bags[k] = {good}
        owner[claimant] = k
        trace.emit(0, "singleton_claim", agent=claimant, good=good, bag=k)
        k += 1
    for j in range(k, n):
        bags[j] = {order[p] for p in (j, 2 * n - 1 - j) if p < m}
        trace.emit(0, "bag_init", bag=j, goods=frozenset(bags[j]))
    next_fill = 2 * n - k

    agents = frozenset(range(n))
    iteration = 0
    cap = event_cap(n, m)
    while len(owner) < n:
        iteration += 1
        if iteration > cap:
            raise InvariantViolationError("bag filling exceeded its event cap")
        unserved = sorted(agents.difference(owner))
        open_bags = sorted(bags.keys() - owner.values())

        claim = next(
            (
                (i, b)
                for i in unserved
                for b in open_bags
                if bag_value(i, bags[b]) >= levels[i]
            ),
            None,
        )
        if claim is not None:
            i, b = claim
            owner[i] = b
            trace.emit(iteration, "claim", agent=i, bag=b)
            continue

        # Swap branch: a served agent strictly prefers an open bag.  The pair
        # with the largest gain in value wins, ties to the lowest agent then
        # bag.  Gains of different agents are on different scales, so they
        # are compared as gain / scale, cross-multiplied.
        best = None
        for i in sorted(owner):
            scale = rows[i][1]
            current = bag_value(i, bags[owner[i]])
            for b in open_bags:
                gain = bag_value(i, bags[b]) - current
                if gain > 0 and (best is None or gain * best[1] > best[0] * scale):
                    best = (gain, scale, i, b)
        if best is not None:
            _, _, i, b = best
            trace.emit(iteration, "swap", agent=i, frm=owner[i], to=b)
            owner[i] = b
            continue

        if next_fill >= m:
            raise InvariantViolationError(
                "bag filling exhausted the goods with unserved agents left"
            )
        good = order[next_fill]
        bags[open_bags[0]].add(good)
        trace.emit(iteration, "fill", good=good, bag=open_bags[0])
        next_fill += 1

    return [bags[owner[i]] for i in range(n)]


def ref_lone_divider_partition(
    inst: Instance, divider: int, pool, top_goods, level: int
) -> list[frozenset[int]]:
    """``lone_divider.lone_divider_partition`` as it was when it sorted the
    pool with one tuple key per good and gave the engine a scratch
    ``AllocatorTrace``, kept verbatim as the reference its differential
    test compares bags against."""
    pool = sorted(set(pool))
    top = frozenset(top_goods)
    bag_count = len(top.intersection(pool))
    if bag_count < 1:
        raise PreconditionError("need at least one bag")
    row = inst.int_rows[divider][0]
    order = sorted(pool, key=lambda g: (-row[g], g not in top, g))

    scratch = AllocatorTrace("lone_divider_partition")
    bags = run_bag_fill(
        [inst.int_rows[divider]] * bag_count, [level] * bag_count, order, True, scratch
    )
    used = set().union(*bags)
    leftovers = [g for g in order if g not in used]
    for idx, g in enumerate(leftovers):
        bags[idx % bag_count].add(g)

    for bag in bags:
        if len(bag & top) != 1:
            raise InvariantViolationError("bag lost its top good")
        if inst.int_value(divider, bag) < level:
            raise InvariantViolationError("divider bag fell below the share")
    return [frozenset(b) for b in bags]


def bag_fill_calls(rng: random.Random, draws: int, n_range: range):
    """Seeded calls of the bag-filling engine as (rows, levels, order,
    singleton_phase), three per draw of an ordered instance with n in
    ``n_range``, m from n to 3n and max_value 3 or 20, its goods permuted
    so that the common order is not the goods by index:
    - a1's shape: the agents' rows, singleton phase on;
    - a3's shape: phase off, copies of agent 0 up to a multiple of three;
    - the lone divider's shape: one agent's row once per bag, phase on.
    At the paper's divisors the opening bags served every agent of 9,000
    such calls, with no fill or swap, so a1's and a3's levels are the
    shares at a d drawn from n up to the paper's divisor, and the
    divider's at its bag count or at a1's divisor.  Some calls run out of
    goods."""
    for _ in range(draws):
        n = rng.choice(n_range)
        m = rng.randrange(n, 3 * n + 1)
        inst = seeded_instance("ordered", n, m, rng.randrange(2**32), rng.choice((3, 20)))
        inst = permuted(inst, rng.sample(range(m), m))
        order = detect_structure(inst)
        rows = inst.int_rows
        a1 = inst.levels(thresholds(inst, rng.randrange(n, ceil_3n_over_2(n) + 1)))
        yield rows, a1, order, True
        copies = -n % 3
        a3 = inst.levels(thresholds(inst, rng.randrange(n, 4 * ((n + 2) // 3) + 1)))
        yield rows + (rows[0],) * copies, a3 + [a3[0]] * copies, order, False
        divider, bags = rng.randrange(n), rng.randrange(1, n + 1)
        if rng.random() < 0.5:
            level = inst.levels(thresholds(inst, bags))[divider]
        else:
            level = inst.levels(thresholds(inst, ceil_3n_over_2(n)))[divider]
        yield [rows[divider]] * bags, [level] * bags, order, True


def bag_fill_outcome(engine, call):
    """The engine's bags, or its ``InvariantViolationError`` message, and
    the events it emitted."""
    trace = AllocatorTrace("bag_fill")
    try:
        return engine(*call, trace), trace.events
    except InvariantViolationError as err:
        return str(err), trace.events


def ref_threshold_edges(inst: Instance, bags, levels) -> frozenset[tuple[int, int]]:
    """The lone divider's matching edges (``_acceptors``) with one
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


def ref_max_matching(neighbors) -> dict[int, int]:
    """``matching._max_matching`` as the recursive search it was: each bag
    in turn tries its agents in order, taking a free one or recursing into
    a matched one's bag.  Its depth is the augmenting path's length."""
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


def frac_envy_cycle_elimination(inst: Instance, alloc: Allocation, order=None):
    """Envy-cycle completion re-summing every bundle in Fraction on every
    event, ties to the good earliest in `order` (by default the goods by
    index); returns the completed allocation and the trace text."""
    from ordfair.allocators.envy_cycle import _find_cycle
    from ordfair.allocators.trace import AllocatorTrace

    bundles = [set(b) for b in alloc.bundles]
    pool = set(alloc.pool)
    rank = {g: p for p, g in enumerate(inst.goods if order is None else order)}
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
        good = min(pool, key=lambda g: (-row[g], rank[g]))
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
