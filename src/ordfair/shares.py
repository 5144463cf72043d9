"""Exact 1-out-of-d maximin shares and normalization procedures.

``mms_bruteforce`` is the test oracle: plain enumeration of set partitions.
The production solver clears denominators and binary-searches the (integer)
share value in ``_share_value``:

- the search runs between the greedy cover value (each good, largest first,
  joins the least-loaded bundle), which is feasible, and min over k < d of
  (total - k largest goods) // (d - k), since the k largest goods lie in at
  most k bundles;
- zero-valued goods are dropped first: they change no bundle's value;
- each probe is decided by ``_find_covering``, a bin-completion search
  that fills one whole bundle at a time.  At each node it applies the
  ceiling and a counting bound (``_pairing_refutes``) that proves many
  levels infeasible from how many goods the bundles need, and it skips
  (goods left, bundles left) states that failed before.  A covering found
  lifts the lower end to its lowest bundle sum.

Both directions of the value are sound.  Every covering used is checked on
the integer row (``_covering_floor``: each good in one of the d bundles,
each bundle at least the probe), so the value is never above the share.
The value is lowered only by ``_find_covering`` finding no covering (its
docstrings give the bounds and exchange arguments that prove it) or by the
ceiling, so it is never below it.

``thresholds`` takes only these values, once per distinct value row: a
share depends on nothing else.  ``mms_exact`` adds the witness partition
from the same search: one more ``_find_covering`` call at the share, which
the value search has already proved feasible.  That witness is canonical:
the first covering ``_find_covering`` finds at the share, so it depends on
nothing but the sorted values, d and the share.  Its bounds and its memo of
failed states cut only subtrees that hold no covering, so the first
covering it finds is the same with or without them.

Values are scaled to integers once per agent (``Instance.int_rows``).  The
solvers use that cached row, the oracle only when its query takes every good.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapreplace
from math import inf, lcm
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


def _greedy_cover(vals: list[int], d: int) -> int:
    """Lowest bundle value when each good (sorted desc) joins the least-loaded
    bundle: a covering level that is always feasible."""
    heap = [0] * d
    for v in vals:
        heapreplace(heap, heap[0] + v)
    return heap[0]


def _cover_ceiling(vals: list[int], d: int) -> int:
    """An upper bound on the share: the k largest goods (vals sorted desc)
    lie in at most k bundles, so the other d - k share the rest r_k.  With
    f(k) = r_k / (d - k), f(k) < f(k-1) iff v * (d - k + 1) > r_{k-1} for
    v = vals[k-1], and once that fails it fails for every later k, since
    vals[k] * (d - k) + v <= v * (d - k + 1).  So f falls, then never falls
    again; as floor is monotone, r_k // (d - k) at the last k before the
    first that fails is the minimum over all k < d."""
    rest = sum(vals)
    best = rest // d
    for k, v in enumerate(vals[: d - 1], 1):
        if v * (d - k + 1) <= rest:
            break
        rest -= v
        best = rest // (d - k)
    return best


def _covering_floor(vals: list[int], d: int, target: int, assign: list[int]) -> int:
    """Lowest bundle sum of a covering of vals at `target`, once it is checked
    to be one: every good in exactly one of the d bundles, each bundle's sum
    at least `target`.  A covering proves the share is at least `target`, so
    one that fails the check must not be used."""
    if len(assign) != len(vals):
        raise InvariantViolationError("covering does not assign every good once")
    sums = [0] * d
    for v, b in zip(vals, assign):
        if not 0 <= b < d:
            raise InvariantViolationError(f"covering names bundle {b} of {d}")
        sums[b] += v
    floor = min(sums)
    if floor < target:
        raise InvariantViolationError(f"covering has a bundle below {target}")
    return floor


def _max_pairs(small: list[int], target: int) -> int:
    """The most disjoint pairs of `small` (sorted desc) that each sum to at
    least `target`.  Greedy, and exact: pair the largest good left with the
    smallest one that closes the gap, and drop a smallest good that not even
    the largest left closes."""
    pairs, top, bottom = 0, 0, len(small) - 1
    while top < bottom:
        if small[top] + small[bottom] >= target:
            pairs += 1
            top += 1
        bottom -= 1
    return pairs


def _pairing_refutes(vals: list[int], d: int, target: int) -> bool:
    """True only when no d-partition of vals (sorted desc) has every bundle
    at least target > 0; False proves nothing.

    When only `big` < d goods reach `target` alone, at least d - big bundles
    hold only small goods (0 < v < target), two or more each.  A bundle of
    exactly two is one of at most p disjoint pairs that reach `target`; the
    others take three or more.  So with s small goods, at most
    p + (s - 2p) // 3 bundles can be covered that way.
    """
    big = sum(1 for v in vals if v >= target)
    if big >= d:
        return False
    small = [v for v in vals[big:] if v > 0]
    pairs = _max_pairs(small, target)
    return pairs + (len(small) - 2 * pairs) // 3 < d - big


def _minimal_completions(
    goods: tuple[int, ...], gap: int, limit: float = inf, start: int = 0, total: int = 0
):
    """Index tuples of goods[start:] (sorted desc) that bring `total` up to
    `gap` and fall short of it without any one member: the minimal ways to
    complete a bundle that lacks gap - total.  Only those that keep the new
    total below `limit` are yielded, and one per multiset of values.

    Let b be the smallest good that makes up the lack alone.  A covering
    that completes the bundle with a larger such good, or with smaller goods
    summing to b or more, stays a covering when those goods trade places
    with b.  So b is the only single good tried, and smaller goods only
    while they sum below b.
    """
    need = gap - total
    first = start
    while first < len(goods) and goods[first] >= need:
        first += 1
    if first > start:
        b = goods[first - 1]
        if total + b < limit:
            yield (first - 1,)
        limit = min(limit, total + b)
    # Members are picked largest first, so the last one is the smallest and
    # the set is minimal as long as the total before it fell short.
    room = sum(goods[first:])
    for i in range(first, len(goods)):
        if total + room < gap:
            return
        v = goods[i]
        room -= v
        if (i > first and v == goods[i - 1]) or total + v >= limit:
            continue
        for more in _minimal_completions(goods, gap, limit, i + 1, total + v):
            yield (i,) + more


def _complete(
    goods: tuple[int, ...],
    bundles: int,
    target: int,
    dead: set[tuple[tuple[int, ...], int]],
    filled: list[tuple[int, ...]],
) -> bool:
    """Whether `bundles` bundles, each at least target, can be cut from goods
    (sorted desc, each 0 < v < target), the goods left over joining any of
    them.  On success `filled` holds the bundles' values; the last takes
    every good left.  Failed (goods, bundles) states go into `dead`.

    Bundles are filled one at a time, each around the largest good left, a,
    with a minimal completion (``_minimal_completions``) of target - a: in
    any covering, the goods a's bundle can spare move to another covered
    bundle.
    """
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
        or _cover_ceiling(goods, bundles) < target
        or _pairing_refutes(goods, bundles, target)
    ):
        return False
    a, rest = goods[0], goods[1:]
    for picked in _minimal_completions(rest, target - a):
        bundle, left, prev = (a,), (), 0
        for i in picked:
            bundle += (rest[i],)
            left += rest[prev:i]
            prev = i + 1
        filled.append(bundle)
        if _complete(left + rest[prev:], bundles - 1, target, dead, filled):
            return True
        filled.pop()
    dead.add(key)
    return False


def _find_covering(vals: list[int], d: int, target: int) -> list[int] | None:
    """Partition all of vals (sorted desc) into d bundles, each at least
    target > 0, by bin completion (Korf, "A new algorithm for optimal bin
    packing", AAAI 2002).  Returns the bundle index per good, or None when no
    such partition exists.

    While fewer than d goods reach target, some covering gives each of them
    a bundle of its own: whatever shares a bundle with one of them can move
    to a bundle that holds none.  So ``_complete`` cuts the other bundles
    from the smaller positive goods.  Zero-valued goods and any surplus go
    to bundle 0."""
    big = sum(1 for v in vals if v >= target)
    filled = [(v,) for v in vals[: min(big, d)]]
    if big < d:
        small = tuple(v for v in vals[big:] if v > 0)
        if not _complete(small, d - big, target, set(), filled):
            return None
    slots: dict[int, list[int]] = {}
    for i in range(len(vals) - 1, -1, -1):
        slots.setdefault(vals[i], []).append(i)
    assign = [0] * len(vals)
    for b, bundle in enumerate(filled):
        for v in bundle:
            assign[slots[v].pop()] = b
    return assign


def _share_value(vals: list[int], d: int) -> int:
    """The 1-out-of-d share of vals (integers, sorted desc), value only.

    Zero-valued goods are dropped first; with fewer than d left, some bundle
    holds none, and the share is 0.  Binary search between the greedy
    cover value and the ceiling, each probe decided by ``_find_covering``.
    A covering it finds, checked by ``_covering_floor``, lifts the lower end
    to its lowest bundle sum; only its finding none, which its bounds and
    exchange arguments prove, lowers the upper end.
    """
    vals = [v for v in vals if v > 0]
    if len(vals) < d:
        return 0
    lo, hi = _greedy_cover(vals, d), _cover_ceiling(vals, d)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        assign = _find_covering(vals, d, mid)
        if assign is None:
            hi = mid - 1
        else:
            lo = _covering_floor(vals, d, mid, assign)
    return lo


def mms_exact(inst: Instance, agent: int, d: int) -> MaximinResult:
    """Exact 1-out-of-d share with the canonical witness: the value from
    ``_share_value``, then the first covering ``_find_covering`` finds at it
    (every good in bundle 0 when the share is 0), checked by
    ``_covering_floor`` to reach exactly the value."""
    if d < 1:
        raise PreconditionError("d must be >= 1")
    vals, denom = inst.int_rows[agent]
    order = sorted(inst.goods, key=lambda g: (-vals[g], g))
    sorted_vals = [vals[g] for g in order]

    lo = _share_value(sorted_vals, d)
    assign = _find_covering(sorted_vals, d, lo) if lo else [0] * len(sorted_vals)
    if assign is None:
        raise InvariantViolationError("feasibility flipped at the optimum")
    if _covering_floor(sorted_vals, d, lo, assign) != lo:
        raise InvariantViolationError("witness minimum does not match the value")
    parts: list[set[int]] = [set() for _ in range(d)]
    for t, b in enumerate(assign):
        parts[b].add(order[t])
    return MaximinResult(
        value=Fraction(lo, denom),
        partition=tuple(frozenset(p) for p in parts),
        agent=agent,
        divisor=d,
    )


def thresholds(inst: Instance, d: int) -> tuple[Fraction, ...]:
    """Per-agent 1-out-of-d share values; the allocators' acceptance levels.

    Only the values are needed, so no witness is built.  A share depends
    only on the agent's value row, so agents with identical rows share one
    solve.  Two rows are equal iff their integer scalings and lcms are,
    which are cheaper to compare.
    """
    if d < 1:
        raise PreconditionError("d must be >= 1")
    rows = inst.int_rows
    out: list[Fraction] = []
    for i, row in enumerate(rows):
        first = rows.index(row)
        if first < i:
            out.append(out[first])
        else:
            ints, denom = row
            out.append(Fraction(_share_value(sorted(ints, reverse=True), d), denom))
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
