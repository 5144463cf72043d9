"""Exact 1-out-of-d maximin shares and normalization procedures.

``mms_bruteforce`` is the test oracle: plain enumeration of set partitions.
``mms_exact`` is the production solver: it clears denominators, binary-searches
the (integer) share value and decides feasibility with a branch-and-bound bin
covering check, ``_cover``.  Both return a witness partition achieving the
optimum.

The witness ``mms_exact`` returns is canonical: it is the first covering
``_cover`` finds at the optimum, and it depends on nothing but the sorted
values, d and the optimum.  The search is kept small without changing it:

- the binary search starts at the greedy cover value (each good, largest
  first, joins the least-loaded bundle), which is feasible, and stops at
  min over k < d of (total - k largest goods) // (d - k), since the k
  largest goods lie in at most k bundles.  Neither bound moves the optimum;
- the last feasible probe is the covering at the optimum, so it is kept
  rather than searched for again;
- ``_cover`` prunes only subtrees that hold no covering (its docstring says
  which), so the first covering it finds is the same with or without them;
- ``thresholds`` solves each distinct value row once; a share depends on
  nothing else.

Values are scaled to integers once per agent (``Instance.int_rows``); when a
query takes every good, the solvers use that cached row.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapreplace
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import (
    InvariantViolationError,
    OracleLimitError,
    PreconditionError,
    StructuralMismatchError,
    ZeroMaximinError,
)
from .model import Instance, detect_structure

DEFAULT_ORACLE_LIMIT = 12


@dataclass(frozen=True)
class MaximinResult:
    """An agent's exact 1-out-of-d share value with a witness d-partition."""

    value: Fraction
    partition: tuple[frozenset[int], ...]
    agent: int
    divisor: int

    def __post_init__(self) -> None:
        if len(self.partition) != self.divisor:
            raise InvariantViolationError("witness is not a d-partition")


def _scaled_row(inst: Instance, agent: int, goods: Sequence[int]):
    """Integer-scaled values for one agent restricted to `goods` (distinct,
    ascending), with the lcm of their denominators."""
    if len(goods) == inst.m:
        ints, denom = inst.int_rows[agent]
        return list(ints), denom
    row = inst.values[agent]
    denom = lcm(*(row[g].denominator for g in goods)) if goods else 1
    return [int(row[g] * denom) for g in goods], denom


def _pick_goods(inst: Instance, goods: Sequence[int] | None) -> list[int]:
    if goods is None:
        return list(inst.goods)
    out = sorted(set(goods))
    for g in out:
        if not 0 <= g < inst.m:
            raise PreconditionError(f"good {g} out of range")
    return out


def mms_bruteforce(
    inst: Instance,
    agent: int,
    d: int,
    goods: Sequence[int] | None = None,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
) -> MaximinResult:
    """Exhaustive oracle: enumerate all partitions into at most d blocks.

    Canonical first-occurrence labeling breaks block symmetry.  Intended for
    cross-checks; guarded by `oracle_limit` on the number of goods.
    """
    if d < 1:
        raise PreconditionError("d must be >= 1")
    chosen = _pick_goods(inst, goods)
    if len(chosen) > oracle_limit:
        raise OracleLimitError(
            f"{len(chosen)} goods exceed the oracle limit {oracle_limit}"
        )
    vals, denom = _scaled_row(inst, agent, chosen)
    k = len(chosen)
    best = -1
    best_blocks: list[list[int]] = []
    blocks: list[list[int]] = []
    sums: list[int] = []

    def rec(idx: int) -> None:
        nonlocal best, best_blocks
        if idx == k:
            mn = 0 if len(sums) < d else min(sums)
            if mn > best:
                best = mn
                best_blocks = [list(b) for b in blocks]
            return
        v = vals[idx]
        for b in range(len(blocks)):
            blocks[b].append(idx)
            sums[b] += v
            rec(idx + 1)
            blocks[b].pop()
            sums[b] -= v
        if len(blocks) < d:
            blocks.append([idx])
            sums.append(v)
            rec(idx + 1)
            blocks.pop()
            sums.pop()

    rec(0)
    parts = [frozenset(chosen[i] for i in blk) for blk in best_blocks]
    parts += [frozenset()] * (d - len(parts))
    return MaximinResult(
        value=Fraction(best, denom), partition=tuple(parts), agent=agent, divisor=d
    )


def _cover(vals: list[int], d: int, target: int) -> list[int] | None:
    """Partition all of vals (sorted desc) into d bundles, each >= target.

    Returns the bundle index per good, or None.  Branching: goods by
    descending value, bundles by ascending index; among uncovered bundles
    only the first of each load is tried, among covered ones only the first.
    The first partition found in this order is the canonical witness.  Every
    prune below only cuts a subtree that holds no covering, so none of them
    changes which partition is found first:

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


def _greedy_cover(vals: list[int], d: int) -> int:
    """Lowest bundle value when each good (sorted desc) joins the least-loaded
    bundle: a covering level that is always feasible."""
    heap = [0] * d
    for v in vals:
        heapreplace(heap, heap[0] + v)
    return heap[0]


def _cover_ceiling(vals: list[int], d: int) -> int:
    """An upper bound on the share: the k largest goods (vals sorted desc)
    lie in at most k bundles, so the other d - k bundles share the rest."""
    total = sum(vals)
    best, top = total // d, 0
    for k, v in enumerate(vals[: d - 1], 1):
        top += v
        best = min(best, (total - top) // (d - k))
    return best


def mms_exact(
    inst: Instance,
    agent: int,
    d: int,
    goods: Sequence[int] | None = None,
) -> MaximinResult:
    """Exact 1-out-of-d share via binary search + bin-covering feasibility."""
    if d < 1:
        raise PreconditionError("d must be >= 1")
    chosen = _pick_goods(inst, goods)
    vals, denom = _scaled_row(inst, agent, chosen)
    order = sorted(range(len(chosen)), key=lambda t: (-vals[t], chosen[t]))
    sorted_vals = [vals[t] for t in order]

    # The witness is _cover's at the optimum, so it does not depend on the
    # bounds, and the last feasible probe has already found it.
    lo, hi = _greedy_cover(sorted_vals, d), _cover_ceiling(sorted_vals, d)
    assign = None
    while lo < hi:
        mid = (lo + hi + 1) // 2
        found = _cover(sorted_vals, d, mid)
        if found is not None:
            lo, assign = mid, found
        else:
            hi = mid - 1
    if assign is None:
        assign = _cover(sorted_vals, d, lo)
    if assign is None:
        raise InvariantViolationError("feasibility flipped at the optimum")
    parts: list[set[int]] = [set() for _ in range(d)]
    for t, b in enumerate(assign):
        parts[b].add(chosen[order[t]])
    value = Fraction(lo, denom)
    result = MaximinResult(
        value=value,
        partition=tuple(frozenset(p) for p in parts),
        agent=agent,
        divisor=d,
    )
    witness_min = min(inst.value(agent, p) for p in result.partition)
    if witness_min != value:
        raise InvariantViolationError("witness minimum does not match the value")
    return result


def thresholds(inst: Instance, d: int) -> tuple[Fraction, ...]:
    """Per-agent 1-out-of-d share values; the allocators' acceptance levels.

    A share depends only on the agent's value row, so agents with identical
    rows (such as the copies of agent 0 that padding adds) share one solve.
    Two rows are equal iff their integer scalings and lcms are, which are
    cheaper to compare.
    """
    rows = inst.int_rows
    out: list[Fraction] = []
    for i, row in enumerate(rows):
        first = rows.index(row)
        out.append(out[first] if first < i else mms_exact(inst, i, d).value)
    return tuple(out)


def write_maximin_result(res: MaximinResult) -> str:
    """Allocation file format with value/agent/d header lines prepended."""
    from .model import Allocation, format_rational, write_allocation

    header = [
        f"value {format_rational(res.value)}",
        f"agent {res.agent}",
        f"d {res.divisor}",
    ]
    witness = write_allocation(Allocation(res.partition, frozenset()))
    return "\n".join(header) + "\n" + witness


def read_maximin_result(text: str) -> MaximinResult:
    from .errors import ParseError
    from .model import read_allocation

    fields: dict[str, str] = {}
    body: list[str] = []
    for ln in text.splitlines():
        stripped = ln.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, _, rest = stripped.partition(" ")
        if key in ("value", "agent", "d") and key not in fields:
            fields[key] = rest
        else:
            body.append(stripped)
    try:
        alloc = read_allocation("\n".join(body))
        return MaximinResult(
            value=Fraction(fields["value"]),
            partition=alloc.bundles,
            agent=int(fields["agent"]),
            divisor=int(fields["d"]),
        )
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad maximin result file: {exc}") from exc


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def _witness_for(
    inst: Instance,
    agent: int,
    d: int,
    witnesses: Mapping[int, Sequence[Iterable[int]]] | None,
) -> tuple[Fraction, tuple[frozenset[int], ...]]:
    """Share value plus witness partition, honoring an injected witness."""
    share = mms_exact(inst, agent, d)
    mu = share.value
    if witnesses is None or agent not in witnesses:
        return mu, share.partition
    parts = tuple(frozenset(p) for p in witnesses[agent])
    if len(parts) != d:
        raise PreconditionError(f"witness for agent {agent} is not a {d}-partition")
    seen: set[int] = set()
    for p in parts:
        seen |= p
    if seen != set(inst.goods) or sum(len(p) for p in parts) != inst.m:
        raise PreconditionError(f"witness for agent {agent} does not partition the goods")
    if min(inst.value(agent, p) for p in parts) != mu:
        raise PreconditionError(f"witness for agent {agent} does not achieve the share")
    return mu, parts


def normalize_scale(
    inst: Instance,
    d: int,
    witnesses: Mapping[int, Sequence[Iterable[int]]] | None = None,
) -> Instance:
    """Per-bundle scaling: every witness bundle gets value exactly 1.

    Each agent's goods are divided by the value of their witness bundle, so
    the scaled share is 1.  Requires a positive share for every agent.
    Witness partitions are computed unless supplied per agent.
    """
    rows: list[list[Fraction]] = []
    for i in inst.agents:
        mu, partition = _witness_for(inst, i, d, witnesses)
        if mu == 0:
            raise ZeroMaximinError(f"agent {i} has zero 1-out-of-{d} share")
        factor = {}
        for part in partition:
            pv = inst.value(i, part)
            for g in part:
                factor[g] = pv
        rows.append([inst.values[i][g] / factor[g] for g in inst.goods])
    return inst.with_values(rows)


def normalize_order_preserving(
    inst: Instance,
    d: int,
    witnesses: Mapping[int, Sequence[Iterable[int]]] | None = None,
) -> Instance:
    """Order-preserving normalization for ordered instances.

    Per agent, work in the share-1 scale and push each over-valued witness
    bundle's value down to 1 by uniformly shrinking its members.  Whenever a
    shrinking member is about to drop below a good sitting later in the
    common order, the two goods trade bundle slots instead (the latest-placed
    equal-valued good is chosen), so the common order keeps sorting the new
    values.  Output satisfies: every witness bundle has value exactly 1, no
    good gained value relative to v/mu, and the input order still sorts it.
    """
    rep = detect_structure(inst)
    if not rep.ordered:
        raise StructuralMismatchError("order-preserving normalization needs an ordered instance")
    assert rep.order_witness is not None
    pos_of = {g: p for p, g in enumerate(rep.order_witness)}
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
                        h = rep.order_witness[p]
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
                    h = rep.order_witness[p]
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
            if current[rep.order_witness[p]] < current[rep.order_witness[p + 1]]:
                raise InvariantViolationError("normalization broke the order")
        rows.append(current)
    return inst.with_values(rows)
