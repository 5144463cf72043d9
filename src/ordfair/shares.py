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
  that fills one whole bundle at a time.  It splits the row once, by
  bisecting it, into the goods that reach the probe alone, the zeros and
  the small positive goods between them; only the small goods enter the
  search (``_complete``).  At each node it applies the ceiling and a
  counting bound (``_pairing_refutes``: s goods with p pairs that reach the
  probe cover at most (s + p) // 3 bundles) that proves many levels
  infeasible from how many goods the bundles need, and it skips (goods
  left, bundles left) states that failed before.  Each node tries the
  single good that completes its bundle first, found by bisection, and only
  then opens the generator of the other completions.  A covering found
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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapreplace
from math import inf
from operator import neg
from typing import Iterable, Mapping, Sequence

from .errors import (
    InvariantViolationError,
    OracleLimitError,
    PreconditionError,
    StructuralMismatchError,
    ZeroMaximinError,
)
from .model import Instance, _fraction, detect_structure

DEFAULT_ORACLE_LIMIT = 12
_ZERO = Fraction(0)


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


def mms_bruteforce(
    inst: Instance,
    agent: int,
    d: int,
    oracle_limit: int = DEFAULT_ORACLE_LIMIT,
) -> MaximinResult:
    """Exhaustive oracle: enumerate all partitions into at most d blocks.

    Canonical first-occurrence labeling breaks block symmetry.  Intended for
    cross-checks; guarded by `oracle_limit` on the number of goods.
    """
    if d < 1:
        raise PreconditionError("d must be >= 1")
    k = inst.m
    if k > oracle_limit:
        raise OracleLimitError(f"{k} goods exceed the oracle limit {oracle_limit}")
    vals, denom = inst.int_rows[agent]
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
    parts = [frozenset(blk) for blk in best_blocks]
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
    best, left = rest // d, d
    for v in vals:
        # left = d - k + 1 bundles share rest before v = vals[k-1] is set
        # aside.
        if left == 1 or v * left <= rest:
            break
        rest -= v
        left -= 1
        best = rest // left
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


def _max_pairs(small: Sequence[int], target: int, stop: float = inf) -> int:
    """The most disjoint pairs of `small` (sorted desc) that each sum to at
    least `target`, or `stop` once that many are found.  Greedy, and exact:
    pair the largest good left with the smallest one that closes the gap,
    and drop a smallest good that not even the largest left closes."""
    pairs, top, bottom = 0, 0, len(small) - 1
    while top < bottom:
        if small[top] + small[bottom] >= target:
            pairs += 1
            if pairs == stop:
                break
            top += 1
        bottom -= 1
    return pairs


def _pairing_refutes(goods: tuple[int, ...], bundles: int, target: int) -> bool:
    """True only when `bundles` bundles, each at least target, cannot be cut
    from goods (sorted desc, each 0 < v < target); False proves nothing.

    No good reaches target alone, so every bundle holds two or more.  A
    bundle of exactly two is one of at most p disjoint pairs that reach
    `target`; the others take three or more.  So with s goods, at most
    p + (s - 2p) // 3 = (s + p) // 3 bundles can be covered, and the bound
    refutes exactly when p < 3 * bundles - s.  That never holds when
    3 * bundles <= s, and pairs past 3 * bundles - s change nothing, so the
    pairing stops there.  These are exactly the goods ``_complete``
    receives, so it applies the bound to them directly.
    """
    short = 3 * bundles - len(goods)
    return short > 0 and _max_pairs(goods, target, short) < short


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
    bundle.  The goods left after a completion are a sub-multiset of goods,
    so every node keeps the contract, and each node applies the ceiling and
    the counting bound (``_pairing_refutes``) to its goods directly.

    The generator's first completion, when there is one, is the single good
    b: the smallest that makes up target - a alone.  The node finds it by
    bisection and tries it before it opens the generator, which it then
    resumes past b with b as its limit.  So the children and their order
    are the generator's, and a node whose first child succeeds builds no
    generator at all.
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
    gap = target - a
    # rest[:first] are the goods that make up the gap alone.
    first = bisect_right(rest, -gap, key=neg)
    limit = inf
    if first:
        b = limit = rest[first - 1]
        filled.append((a, b))
        if _complete(rest[: first - 1] + rest[first:], bundles - 1, target, dead, filled):
            return True
        filled.pop()
    for picked in _minimal_completions(rest, gap, limit, first):
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

    The row splits, by bisection, into the big goods that reach target
    alone, the zeros, and the small positive goods between.
    While fewer than d goods are big, some covering gives each of them a
    bundle of its own: whatever shares a bundle with one of them can move to
    a bundle that holds none.  So ``_complete`` cuts the other bundles from
    the small goods, which are exactly the goods its contract admits.  Zeros
    and any surplus go to bundle 0.

    ``_complete`` recurses once per bundle it fills, so a search for more
    bundles than Python's recursion limit allows is a ``PreconditionError``
    naming the bundle count."""
    big = bisect_right(vals, -target, key=neg)
    filled = [(v,) for v in vals[: min(big, d)]]
    if big < d:
        end = bisect_left(vals, 0, big, key=neg)
        try:
            found = _complete(tuple(vals[big:end]), d - big, target, set(), filled)
        except RecursionError:
            raise PreconditionError(
                f"the share search for {d} bundles is past Python's recursion limit"
            ) from None
        if not found:
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
    solve: rows are keyed by their integer scalings and lcms, which are
    equal iff the rows are.  A row with fewer than d positive goods leaves
    some bundle without one, so its share is 0 with no sort or search
    (``_share_value`` applies the same rule).  With fewer goods than d, that
    holds for every row, so every share is 0 and no row is read.
    """
    if d < 1:
        raise PreconditionError("d must be >= 1")
    if inst.m < d:
        return (_ZERO,) * inst.n
    solved: dict[tuple[tuple[int, ...], int], Fraction] = {}
    out: list[Fraction] = []
    for row in inst.int_rows:
        share = solved.get(row)
        if share is None:
            ints, denom = row
            if len(ints) - ints.count(0) < d:
                share = _ZERO
            else:
                share = _fraction(_share_value(sorted(ints, reverse=True), d), denom)
            solved[row] = share
        out.append(share)
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


def _scaled_rows(
    inst: Instance,
    d: int,
    witnesses: Mapping[int, Sequence[Iterable[int]]] | None,
):
    """Per agent, its share mu and its row with each good divided by the
    value of its witness bundle, so that every witness bundle is worth 1."""
    for i in inst.agents:
        mu, partition = _witness_for(inst, i, d, witnesses)
        if mu == 0:
            raise ZeroMaximinError(f"agent {i} has zero 1-out-of-{d} share")
        row = inst.values[i]
        scaled = list(row)
        for part in partition:
            pv = inst.value(i, part)
            for g in part:
                scaled[g] = row[g] / pv
        yield mu, scaled


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
    return inst.with_values([scaled for _, scaled in _scaled_rows(inst, d, witnesses)])


def normalize_order_preserving(
    inst: Instance,
    d: int,
    witnesses: Mapping[int, Sequence[Iterable[int]]] | None = None,
) -> Instance:
    """Order-preserving normalization for ordered instances: each agent's
    ``normalize_scale`` row, sorted non-increasingly along the common order.

    Sorting keeps the row's multiset of values, on which alone a share
    depends, so the share stays 1 and the values still sum to d; the common
    order sorts the row by construction.  No good gains value over v/mu: the
    scaled row is at most v/mu good by good (each witness bundle is worth at
    least mu), so its p-th largest value is at most the p-th largest of
    v/mu, which the order puts at position p.
    """
    order = detect_structure(inst)
    if order is None:
        raise StructuralMismatchError("order-preserving normalization needs an ordered instance")
    rows: list[list[Fraction]] = []
    for (mu, scaled), row in zip(_scaled_rows(inst, d, witnesses), inst.values):
        for g, v in zip(order, sorted(scaled, reverse=True)):
            scaled[g] = v
        if any(v > w / mu for v, w in zip(scaled, row)):
            raise InvariantViolationError("normalization increased a value")
        rows.append(scaled)
    return inst.with_values(rows)
