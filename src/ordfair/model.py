"""Instances, allocations, structure detection, padding transforms, generators.

Valuations are exact non-negative rationals (``fractions.Fraction``).  All
threshold comparisons downstream are exact, so floats are rejected at the
boundary.  Comparisons within one agent's valuation run on that agent's row
scaled to integers (``Instance.int_rows``), which keeps them exact.  The
allocators decide on these rows: ``Instance.int_value`` sums a set of goods
on one and ``Instance.level`` maps a threshold onto the same scale.
Instances and allocations are immutable and safe to share.  Permuted, padded
and stripped instances skip checks that hold by construction and carry
``int_rows`` over; dummy goods are zero, so no row's lcm changes.

The per-row passes run in C-implemented builtins: a permutation or strip
gathers each int row, Fraction row and label tuple with one
``operator.itemgetter`` call (``_gather``), an order check compares a row
with itself shifted by one (``all(map(ge, row, row[1:]))``), and ``int_rows``
scales a row from one ``map(Fraction.as_integer_ratio, row)`` pass.

Good and agent indices are 0-based everywhere, including the file formats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import lcm
from operator import floordiv, ge, itemgetter, mul
from typing import Callable, Iterable, Sequence

from .errors import (
    InvalidConfigError,
    InvalidInstanceError,
    ParseError,
    PreconditionError,
)

GENERATOR_FAMILIES = ("ordered", "top_n", "general")


def as_rational(x: int | str | Fraction) -> Fraction:
    """Coerce an exact input to Fraction; floats are deliberately rejected."""
    if isinstance(x, bool):
        raise InvalidInstanceError(f"not an exact rational: {x!r}")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {x!r}") from exc
    raise InvalidInstanceError(f"not an exact rational: {x!r}")


def _gather(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A function from a sequence to the tuple of its items at ``indices``.

    ``itemgetter`` returns a bare item for one index and takes no zero, so
    those two lengths get their own functions."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        one = itemgetter(indices[0])
        return lambda seq: (one(seq),)
    return lambda seq: ()


def _ordered(row: Sequence) -> bool:
    """True iff ``row`` is non-increasing."""
    return all(map(ge, row, row[1:]))


def _default_agent_labels(n: int) -> tuple[str, ...]:
    return tuple(f"a{i}" for i in range(n))


def _default_good_labels(m: int) -> tuple[str, ...]:
    return tuple(f"g{j}" for j in range(m))


@dataclass(frozen=True)
class Instance:
    """A fair-division instance: n agents, m goods, additive valuations.

    ``dummy_goods`` are zero-valued padding goods; ``dummy_agents`` holds
    (agent, source) pairs for padding agents that copy the source's row.
    """

    values: tuple[tuple[Fraction, ...], ...]
    agent_labels: tuple[str, ...] = ()
    good_labels: tuple[str, ...] = ()
    dummy_goods: frozenset[int] = frozenset()
    dummy_agents: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        n = len(self.values)
        if n < 1:
            raise InvalidInstanceError("instance needs at least one agent")
        m = len(self.values[0])
        for row in self.values:
            if len(row) != m:
                raise InvalidInstanceError("ragged valuation matrix")
            for v in row:
                if not isinstance(v, Fraction):
                    raise InvalidInstanceError(f"non-rational valuation {v!r}")
                # A Fraction has the sign of its numerator.
                if v.numerator < 0:
                    raise InvalidInstanceError(f"negative valuation {v}")
        if not self.agent_labels:
            object.__setattr__(self, "agent_labels", _default_agent_labels(n))
        if not self.good_labels:
            object.__setattr__(self, "good_labels", _default_good_labels(m))
        if len(self.agent_labels) != n or len(self.good_labels) != m:
            raise InvalidInstanceError("label count mismatch")
        for label in self.agent_labels + self.good_labels:
            # The text format writes labels whitespace-separated on one line.
            if not isinstance(label, str) or label.split() != [label]:
                raise InvalidInstanceError(
                    f"label {label!r} is not a non-empty string without whitespace"
                )
        for g in self.dummy_goods:
            if not 0 <= g < m:
                raise InvalidInstanceError(f"dummy good {g} out of range")
            for i in range(n):
                if self.values[i][g] != 0:
                    raise InvalidInstanceError(
                        f"dummy good {g} has nonzero value for agent {i}"
                    )
        dummy_ids = {a for a, _ in self.dummy_agents}
        if len(dummy_ids) != len(self.dummy_agents):
            raise InvalidInstanceError("repeated dummy agent")
        for a, src in self.dummy_agents:
            if not 0 <= a < n or not 0 <= src < n:
                raise InvalidInstanceError("dummy agent index out of range")
            if src in dummy_ids:
                raise InvalidInstanceError("dummy agent source is itself dummy")
            if self.values[a] != self.values[src]:
                raise InvalidInstanceError(
                    f"dummy agent {a} row differs from source {src}"
                )

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[int | str | Fraction]],
        agent_labels: Sequence[str] = (),
        good_labels: Sequence[str] = (),
        dummy_goods: Iterable[int] = (),
        dummy_agents: Iterable[tuple[int, int]] = (),
    ) -> "Instance":
        values = tuple(tuple(as_rational(v) for v in row) for row in rows)
        return cls(
            values=values,
            agent_labels=tuple(agent_labels),
            good_labels=tuple(good_labels),
            dummy_goods=frozenset(dummy_goods),
            dummy_agents=tuple(sorted(dummy_agents)),
        )

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def m(self) -> int:
        return len(self.values[0])

    @property
    def agents(self) -> range:
        return range(self.n)

    @property
    def goods(self) -> range:
        return range(self.m)

    @property
    def real_agents(self) -> tuple[int, ...]:
        dummies = {a for a, _ in self.dummy_agents}
        return tuple(i for i in self.agents if i not in dummies)

    @cached_property
    def int_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Per agent, its row times the lcm of the row's denominators, and
        that lcm.

        Scaling one agent's row by a positive constant keeps every sum and
        comparison within that agent's valuation, so envy, EFX/EF1 and order
        checks run on these integers and stay exact.
        """
        out = []
        for row in self.values:
            if not row:
                out.append(((), 1))
                continue
            nums, dens = zip(*map(Fraction.as_integer_ratio, row))
            denom = lcm(*dens)
            if denom != 1:
                nums = tuple(map(mul, nums, map(floordiv, repeat(denom), dens)))
            out.append((nums, denom))
        return tuple(out)

    def value(self, agent: int, goods: Iterable[int]) -> Fraction:
        row = self.values[agent]
        return sum((row[g] for g in goods), Fraction(0))

    def int_value(self, agent: int, goods: Iterable[int]) -> int:
        """``value`` on the agent's ``int_rows`` scale."""
        return sum(map(self.int_rows[agent][0].__getitem__, goods))

    def level(self, agent: int, tau: Fraction) -> int:
        """``tau`` on the agent's ``int_rows`` scale, rounded up:
        ceil(tau * lcm).  An integer sum is at least tau * lcm iff it is at
        least this level, so comparing ``int_value`` with it is exact for
        any rational tau.  A share from ``shares.thresholds`` is a bundle
        sum, so for it the level is exactly tau * lcm."""
        num, den = tau.as_integer_ratio()
        return -(-num * self.int_rows[agent][1] // den)

    def levels(self, taus: Sequence[Fraction]) -> list[int]:
        """Each agent's ``level`` of their threshold in ``taus``, which the
        allocators take indexed by agent."""
        if len(taus) != self.n:
            raise PreconditionError("one threshold per agent required")
        return [self.level(i, tau) for i, tau in enumerate(taus)]

    def _derive(self, int_rows, **changes) -> "Instance":
        """``replace`` without ``__post_init__``; callers keep its checks and ``int_rows`` exact."""
        new = object.__new__(type(self))
        vars(new).update(vars(self), **changes, int_rows=int_rows)
        return new

    def with_values(self, values: Sequence[Sequence[Fraction]]) -> "Instance":
        """Same shape, labels and flags, different valuation matrix."""
        return replace(self, values=tuple(tuple(row) for row in values))

    def permute_goods(self, order: Sequence[int]) -> "Instance":
        """Reindex goods so new position p holds old good order[p]."""
        if sorted(order) != list(range(self.m)):
            raise InvalidInstanceError("not a permutation of goods")
        inv = {old: new for new, old in enumerate(order)}
        gather = _gather(order)
        ints, denoms = zip(*self.int_rows)
        return self._derive(
            tuple(zip(map(gather, ints), denoms)),
            values=tuple(map(gather, self.values)),
            good_labels=gather(self.good_labels),
            dummy_goods=frozenset(inv[g] for g in self.dummy_goods),
        )


@dataclass(frozen=True)
class Allocation:
    """Per-agent bundles plus the pool of unallocated goods."""

    bundles: tuple[frozenset[int], ...]
    pool: frozenset[int] = frozenset()

    def allocated(self) -> frozenset[int]:
        out: set[int] = set()
        for b in self.bundles:
            out |= b
        return frozenset(out)

    def is_complete(self, m: int) -> bool:
        return not self.pool and self.allocated() == frozenset(range(m))


def check_allocation(inst: Instance, alloc: Allocation) -> None:
    """Validate an allocation against an instance; raise on violation."""
    if len(alloc.bundles) != inst.n:
        raise InvalidInstanceError(
            f"allocation has {len(alloc.bundles)} bundles for {inst.n} agents"
        )
    m = inst.m
    seen: set[int] = set()
    for part in (*alloc.bundles, alloc.pool):
        for g in part:
            if not 0 <= g < m:
                raise InvalidInstanceError(f"good {g} out of range")
            if g in seen:
                raise InvalidInstanceError(f"good {g} assigned twice")
            seen.add(g)


# ---------------------------------------------------------------------------
# Structure detection
# ---------------------------------------------------------------------------


def detect_structure(inst: Instance) -> tuple[int, ...] | None:
    """A common order: good indices from most to least valuable for every
    agent, or None when the instance is not ordered.  For a common set of
    the k most valuable goods use ``top_k_set``.

    Goods are sorted by (-column sum of the integer rows, index), then the
    order is checked.  If a common order exists, every row values one of any
    two goods, say g, at least as much as the other, h; rows are scaled by
    positive constants, so g's column sum is larger unless the two columns
    are identical, and the sort places g and h as the common order does,
    ties by index.  So it finds a common order whenever one exists, the
    identity when that is one; when none exists, no candidate passes."""
    rows = [row for row, _ in inst.int_rows]
    sums = [sum(column) for column in zip(*rows)]
    # A reverse sort is stable too: equal sums keep ascending indices.
    candidate = sorted(inst.goods, key=sums.__getitem__, reverse=True)
    gather = _gather(candidate)
    return tuple(candidate) if all(map(_ordered, map(gather, rows))) else None


def top_k_set(inst: Instance, k: int) -> frozenset[int] | None:
    """A common set of the k most valuable goods, or None.

    A set S works for agent i iff every good strictly above i's k-th largest
    value is in S and S stays within the goods weakly above it.  Boundary
    ties are therefore free to be counted inside S.
    """
    if not 1 <= k <= inst.m:
        return None
    must: set[int] = set()
    may: set[int] | None = None
    for row, _ in inst.int_rows:
        kth = sorted(row, reverse=True)[k - 1]
        agent_may: set[int] = set()
        for g, v in enumerate(row):
            if v >= kth:
                agent_may.add(g)
                if v > kth:
                    must.add(g)
        may = agent_may if may is None else may & agent_may
    assert may is not None
    if not must <= may or len(must) > k or len(may) < k:
        return None
    fill = sorted(may - must)[: k - len(must)]
    return frozenset(must | set(fill))


def is_identity_ordered(inst: Instance) -> bool:
    """True iff every agent's values are non-increasing by good index."""
    return all(_ordered(row) for row, _ in inst.int_rows)


# ---------------------------------------------------------------------------
# Padding transforms and their inverse
# ---------------------------------------------------------------------------


def pad_goods(inst: Instance, target: int) -> Instance:
    """Append zero-valued dummy goods until the instance has `target` goods."""
    if target < inst.m:
        raise PreconditionError(f"pad target {target} below good count {inst.m}")
    if target == inst.m:
        return inst
    extra = target - inst.m
    int_zeros, zeros = (0,) * extra, (Fraction(0),) * extra
    return inst._derive(
        tuple((ints + int_zeros, denom) for ints, denom in inst.int_rows),
        values=tuple(row + zeros for row in inst.values),
        good_labels=inst.good_labels + tuple(f"g{inst.m + j}" for j in range(extra)),
        dummy_goods=inst.dummy_goods | frozenset(range(inst.m, target)),
    )


def pad_agents_to_multiple_of_three(inst: Instance) -> Instance:
    """Copy agent 0's row until the agent count is a multiple of three.

    The copies name agent 0's own source when agent 0 is itself a copy: its
    row is that source's, and the source is no copy."""
    n = inst.n
    target = 3 * ((n + 2) // 3)
    if target == n:
        return inst
    source = dict(inst.dummy_agents).get(0, 0)
    extra = target - n
    return inst._derive(
        inst.int_rows + (inst.int_rows[0],) * extra,
        values=inst.values + (inst.values[0],) * extra,
        agent_labels=inst.agent_labels + tuple(f"a{n + i}" for i in range(extra)),
        dummy_agents=inst.dummy_agents + tuple((n + i, source) for i in range(extra)),
    )


def strip_dummies(
    inst: Instance, alloc: Allocation
) -> tuple[Instance, Allocation]:
    """Remove dummy goods and agents; dummy agents' bundles join the pool.

    Surviving goods and agents keep their labels, which carry the mapping
    back to the original indices.
    """
    check_allocation(inst, alloc)
    keep_goods = [g for g in inst.goods if g not in inst.dummy_goods]
    good_map = {g: p for p, g in enumerate(keep_goods)}
    dummy_agent_ids = {a for a, _ in inst.dummy_agents}
    keep_agents = [i for i in inst.agents if i not in dummy_agent_ids]

    gather_goods, gather_agents = _gather(keep_goods), _gather(keep_agents)
    ints, denoms = zip(*gather_agents(inst.int_rows))
    new_inst = inst._derive(
        tuple(zip(map(gather_goods, ints), denoms)),
        values=tuple(map(gather_goods, gather_agents(inst.values))),
        agent_labels=gather_agents(inst.agent_labels),
        good_labels=gather_goods(inst.good_labels),
        dummy_goods=frozenset(), dummy_agents=(),
    )
    pool = set(alloc.pool)
    for a in dummy_agent_ids:
        pool |= alloc.bundles[a]
    bundles = tuple(
        frozenset(good_map[g] for g in alloc.bundles[i] if g in good_map)
        for i in keep_agents
    )
    new_pool = frozenset(good_map[g] for g in pool if g in good_map)
    return new_inst, Allocation(bundles, new_pool)


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig:
    family: str
    n: int
    m: int
    max_value: int
    seed: int

    def __post_init__(self) -> None:
        if self.family not in GENERATOR_FAMILIES:
            raise InvalidConfigError(f"unknown family {self.family!r}")
        if self.n < 1 or self.m < 1:
            raise InvalidConfigError("need n >= 1 and m >= 1")
        if self.max_value < 1:
            raise InvalidConfigError("max_value must be positive")
        if not 0 <= self.seed < 2**64:
            raise InvalidConfigError("seed must fit in 64 bits")
        if self.family == "top_n" and self.m < self.n:
            raise InvalidConfigError("top_n family needs m >= n")


def _sample_distinct(rng: random.Random, m: int, k: int) -> list[int]:
    # Partial Fisher-Yates; avoids random.sample for cross-version stability.
    idx = list(range(m))
    for t in range(k):
        j = rng.randrange(t, m)
        idx[t], idx[j] = idx[j], idx[t]
    return idx[:k]


def generate(cfg: GeneratorConfig) -> Instance:
    """Deterministic instance generation: same config, identical instance."""
    rng = random.Random(cfg.seed)
    raw = [
        [rng.randrange(cfg.max_value + 1) for _ in range(cfg.m)]
        for _ in range(cfg.n)
    ]
    if cfg.family == "general":
        return Instance.from_rows(raw)
    if cfg.family == "ordered":
        # One shared "magnitude" rank per column; each agent's sorted values
        # are laid out along that rank, so a single common order sorts all.
        mags = [rng.randrange(cfg.max_value + 1) for _ in range(cfg.m)]
        order = sorted(range(cfg.m), key=lambda c: (-mags[c], c))
        values = [[0] * cfg.m for _ in range(cfg.n)]
        for i in range(cfg.n):
            row_sorted = sorted(raw[i], reverse=True)
            for rank, col in enumerate(order):
                values[i][col] = row_sorted[rank]
        return Instance.from_rows(values)
    # top_n: boost a fixed set of n goods strictly above every non-member.
    top = set(_sample_distinct(rng, cfg.m, cfg.n))
    for i in range(cfg.n):
        outside = [raw[i][g] for g in range(cfg.m) if g not in top]
        base = max(outside) if outside else 0
        for g in top:
            raw[i][g] += base + 1
    return Instance.from_rows(raw)


# ---------------------------------------------------------------------------
# Text file formats (lossless round-trip)
# ---------------------------------------------------------------------------


def format_rational(x: Fraction) -> str:
    return str(x)


def write_instance(inst: Instance) -> str:
    lines = [f"n {inst.n}", f"m {inst.m}", "valuations"]
    for row in inst.values:
        lines.append(" ".join(format_rational(v) for v in row))
    if inst.dummy_goods:
        lines.append("dummy_goods " + " ".join(str(g) for g in sorted(inst.dummy_goods)))
    if inst.dummy_agents:
        lines.append(
            "dummy_agents "
            + " ".join(f"{a}:{src}" for a, src in inst.dummy_agents)
        )
    if inst.agent_labels != _default_agent_labels(inst.n):
        lines.append("agent_labels " + " ".join(inst.agent_labels))
    if inst.good_labels != _default_good_labels(inst.m):
        lines.append("good_labels " + " ".join(inst.good_labels))
    return "\n".join(lines) + "\n"


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise ParseError(f"bad {what} {token!r}") from exc


def read_instance(text: str) -> Instance:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    fields: dict[str, str] = {}
    rows: list[list[str]] = []
    i = 0
    n = m = None
    while i < len(lines):
        ln = lines[i]
        key, _, rest = ln.partition(" ")
        if key == "valuations":
            if n is None or m is None:
                raise ParseError("valuations before n/m")
            for r in range(n):
                i += 1
                if i >= len(lines):
                    raise ParseError("truncated valuation matrix")
                entries = lines[i].split()
                if len(entries) != m:
                    raise ParseError(f"row {r} has {len(entries)} entries, want {m}")
                rows.append(entries)
        elif key == "n":
            n = _parse_int(rest, "agent count")
        elif key == "m":
            m = _parse_int(rest, "good count")
        elif key in ("dummy_goods", "dummy_agents", "agent_labels", "good_labels"):
            fields[key] = rest
        else:
            raise ParseError(f"unknown instance field {key!r}")
        i += 1
    if n is None or m is None or len(rows) != n:
        raise ParseError("incomplete instance file")
    dummy_goods = [
        _parse_int(t, "dummy good") for t in fields.get("dummy_goods", "").split()
    ]
    dummy_agents = []
    for tok in fields.get("dummy_agents", "").split():
        a, _, src = tok.partition(":")
        if not src:
            raise ParseError(f"dummy agent entry {tok!r} needs index:source")
        dummy_agents.append(
            (_parse_int(a, "dummy agent"), _parse_int(src, "dummy agent source"))
        )
    return Instance.from_rows(
        rows,
        agent_labels=tuple(fields["agent_labels"].split()) if "agent_labels" in fields else (),
        good_labels=tuple(fields["good_labels"].split()) if "good_labels" in fields else (),
        dummy_goods=dummy_goods,
        dummy_agents=dummy_agents,
    )


def write_allocation(alloc: Allocation) -> str:
    lines = [f"agents {len(alloc.bundles)}", "bundles"]
    for i, b in enumerate(alloc.bundles):
        goods = " ".join(str(g) for g in sorted(b))
        lines.append(f"{i}: {goods}".rstrip())
    pool = " ".join(str(g) for g in sorted(alloc.pool))
    lines.append(f"pool {pool}".rstrip())
    return "\n".join(lines) + "\n"


def _parse_goods(text: str, where: str) -> frozenset[int]:
    goods = [_parse_int(t, "good") for t in text.split()]
    if len(set(goods)) != len(goods):
        raise ParseError(f"a good is listed twice on {where}")
    return frozenset(goods)


def read_allocation(text: str) -> Allocation:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    n = None
    bundles: list[frozenset[int]] = []
    pool: frozenset[int] = frozenset()
    i = 0
    while i < len(lines):
        ln = lines[i]
        key, _, rest = ln.partition(" ")
        if key == "agents":
            n = _parse_int(rest, "agent count")
        elif key == "bundles":
            if n is None:
                raise ParseError("bundles before agents count")
            for r in range(n):
                i += 1
                if i >= len(lines):
                    raise ParseError("truncated bundle list")
                head, _, goods = lines[i].partition(":")
                if _parse_int(head, "bundle index") != r:
                    raise ParseError(f"expected bundle {r}, got {head!r}")
                bundles.append(_parse_goods(goods, f"bundle {r}"))
        elif key == "pool":
            pool = _parse_goods(rest, "the pool line")
        else:
            raise ParseError(f"unknown allocation field {key!r}")
        i += 1
    if n is None or len(bundles) != n:
        raise ParseError("incomplete allocation file")
    return Allocation(tuple(bundles), pool)
