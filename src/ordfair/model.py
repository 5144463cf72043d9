"""Instances, allocations, structure detection, padding transforms, generators.

Valuations are exact non-negative rationals (``fractions.Fraction``).  All
threshold comparisons downstream are exact, so floats are rejected at the
boundary.  Comparisons within one agent's valuation run on that agent's row
scaled to integers (``Instance.int_rows``), which keeps them exact.
Instances and allocations are immutable and safe to share.

Good and agent indices are 0-based everywhere, including the file formats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Sequence

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
                if v < 0:
                    raise InvalidInstanceError(f"negative valuation {v}")
        if not self.agent_labels:
            object.__setattr__(self, "agent_labels", _default_agent_labels(n))
        if not self.good_labels:
            object.__setattr__(self, "good_labels", _default_good_labels(m))
        if len(self.agent_labels) != n or len(self.good_labels) != m:
            raise InvalidInstanceError("label count mismatch")
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
            denom = lcm(*(v.denominator for v in row))
            ints = tuple(v.numerator * (denom // v.denominator) for v in row)
            out.append((ints, denom))
        return tuple(out)

    def value(self, agent: int, goods: Iterable[int]) -> Fraction:
        row = self.values[agent]
        return sum((row[g] for g in goods), Fraction(0))

    def with_values(self, values: Sequence[Sequence[Fraction]]) -> "Instance":
        """Same shape, labels and flags, different valuation matrix."""
        return Instance(
            values=tuple(tuple(row) for row in values),
            agent_labels=self.agent_labels,
            good_labels=self.good_labels,
            dummy_goods=self.dummy_goods,
            dummy_agents=self.dummy_agents,
        )

    def permute_goods(self, order: Sequence[int]) -> "Instance":
        """Reindex goods so new position p holds old good order[p]."""
        if sorted(order) != list(range(self.m)):
            raise InvalidInstanceError("not a permutation of goods")
        inv = {old: new for new, old in enumerate(order)}
        return Instance(
            values=tuple(tuple(row[g] for g in order) for row in self.values),
            agent_labels=self.agent_labels,
            good_labels=tuple(self.good_labels[g] for g in order),
            dummy_goods=frozenset(inv[g] for g in self.dummy_goods),
            dummy_agents=self.dummy_agents,
        )


@dataclass(frozen=True)
class Allocation:
    """Per-agent bundles plus the pool of unallocated goods."""

    bundles: tuple[frozenset[int], ...]
    pool: frozenset[int] = frozenset()

    @classmethod
    def make(
        cls, bundles: Sequence[Iterable[int]], pool: Iterable[int] = ()
    ) -> "Allocation":
        return cls(tuple(frozenset(b) for b in bundles), frozenset(pool))

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
    seen: set[int] = set()
    for part in (*alloc.bundles, alloc.pool):
        for g in part:
            if not 0 <= g < inst.m:
                raise InvalidInstanceError(f"good {g} out of range")
            if g in seen:
                raise InvalidInstanceError(f"good {g} assigned twice")
            seen.add(g)


# ---------------------------------------------------------------------------
# Structure detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    """Ordering structure of an instance.

    ``order_witness`` lists good indices from most to least valuable under a
    common order valid for every agent (present iff ``ordered``).  For a
    common set of the k most valuable goods use ``top_k_set``.
    """

    ordered: bool
    order_witness: tuple[int, ...] | None


def detect_structure(inst: Instance) -> StructureReport:
    m = inst.m
    rows = [row for row, _ in inst.int_rows]
    # A common order exists iff pairwise dominance is total; sorting by the
    # lexicographic tuple of all agents' values (descending, stable by index)
    # produces a witness whenever one exists, and keeps the identity order
    # when the identity already works.
    candidate = sorted(range(m), key=lambda g: tuple(-row[g] for row in rows))
    ordered = all(
        row[candidate[p]] >= row[candidate[p + 1]]
        for row in rows
        for p in range(m - 1)
    )
    return StructureReport(
        ordered=ordered, order_witness=tuple(candidate) if ordered else None
    )


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
        must |= {g for g in inst.goods if row[g] > kth}
        agent_may = {g for g in inst.goods if row[g] >= kth}
        may = agent_may if may is None else may & agent_may
    assert may is not None
    if not must <= may or len(must) > k or len(may) < k:
        return None
    fill = sorted(may - must)[: k - len(must)]
    return frozenset(must | set(fill))


def is_identity_ordered(inst: Instance) -> bool:
    """True iff every agent's values are non-increasing by good index."""
    return all(
        row[g] >= row[g + 1] for row, _ in inst.int_rows for g in range(inst.m - 1)
    )


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
    zero = Fraction(0)
    values = tuple(row + (zero,) * extra for row in inst.values)
    labels = inst.good_labels + tuple(f"g{inst.m + j}" for j in range(extra))
    return Instance(
        values=values,
        agent_labels=inst.agent_labels,
        good_labels=labels,
        dummy_goods=inst.dummy_goods | frozenset(range(inst.m, target)),
        dummy_agents=inst.dummy_agents,
    )


def pad_agents_to_multiple_of_three(inst: Instance) -> Instance:
    """Copy agent 0's row until the agent count is a multiple of three."""
    n = inst.n
    target = 3 * ((n + 2) // 3)
    if target == n:
        return inst
    extra = target - n
    values = inst.values + tuple(inst.values[0] for _ in range(extra))
    labels = inst.agent_labels + tuple(f"a{n + i}" for i in range(extra))
    new_dummies = inst.dummy_agents + tuple((n + i, 0) for i in range(extra))
    return Instance(
        values=values,
        agent_labels=labels,
        good_labels=inst.good_labels,
        dummy_goods=inst.dummy_goods,
        dummy_agents=new_dummies,
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

    new_inst = Instance(
        values=tuple(
            tuple(inst.values[i][g] for g in keep_goods) for i in keep_agents
        ),
        agent_labels=tuple(inst.agent_labels[i] for i in keep_agents),
        good_labels=tuple(inst.good_labels[g] for g in keep_goods),
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
                bundles.append(frozenset(_parse_int(t, "good") for t in goods.split()))
        elif key == "pool":
            pool = frozenset(_parse_int(t, "good") for t in rest.split())
        else:
            raise ParseError(f"unknown allocation field {key!r}")
        i += 1
    if n is None or len(bundles) != n:
        raise ParseError("incomplete allocation file")
    return Allocation(tuple(bundles), pool)
