"""Instances, allocations, structure detection, padding transforms, generators.

Valuations are exact non-negative rationals (``fractions.Fraction``).  All
threshold comparisons downstream are exact, so floats are rejected at the
boundary.  Comparisons within one agent's valuation run on that agent's row
scaled to integers (``Instance.int_rows``), which keeps them exact.  The
allocators decide on these rows, summing a set of goods on one, and
``Instance.levels`` maps each agent's threshold onto the same scale.
``_bundle_sums`` gives every agent's value of every bundle at once, from
per-good columns of those rows cached next to them.  The public
``value`` and ``int_value`` refuse an agent or a good out of range; the
allocators and the verifier read the rows directly, so no solve pays for
those checks.
Instances and allocations are immutable and safe to share.  Every instance
is built and checked by the constructor, the padding helpers' too (no solve
calls them).  No solve reindexes the goods: the allocators that need the
common order read the instance's own, so every layer runs on the caller's
goods.  Padding is appended, so ``strip_dummies`` undoes it from the
caller's n and m alone.

The per-row passes run in C-implemented builtins: a gather along a list of
goods takes one ``operator.itemgetter`` call (``_gather``), an order check
compares each column with the next (``_columns_ordered``), the top-k check
compares each row's minimum over the first k goods of the column-sum
ranking with its maximum over the rest, and ``int_rows`` reads the whole
matrix's numerators and denominators in one ``map`` each over the
``Fraction`` slots (``_num``, ``_den``).  When every denominator is 1, as
in every generated instance, the numerator rows are the integer rows, with
no lcm taken; otherwise it scales only a row whose lcm is above 1.
``levels`` reads thresholds, which must be exact too, through the same
slots, and ``_fraction`` writes a bundle value or share back into them
from its integer pair.

An instance's facts are derived once, lazily, and cached beside
``int_rows``: its common order (``detect_structure``) and its common set of
the n most valuable goods (``top_k_set(inst, inst.n)``).  Every call
returns the cached object; bag filling and the lone divider read these
facts from the instance, so a solve that checked the structure derives
neither again.

Good and agent indices are 0-based everywhere, including the file formats.
"""

from __future__ import annotations

import random
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, attrgetter, floordiv, ge, itemgetter, mul
from typing import Callable, Iterable, Sequence

from .errors import (
    InvalidConfigError,
    InvalidInstanceError,
    OrdfairError,
    ParseError,
    PreconditionError,
)

GENERATOR_FAMILIES = ("ordered", "top_n", "general")

# The largest instance the file reader and the generators take, and the
# largest value the generators draw.  A no-goods file states n in its header
# alone; an a1 solve of one at MAX_AGENTS took 36 s and 47 MB (Python 3.11,
# 2-core VM).  MAX_VALUES (n * m) random values took 1.8 s to generate and
# 4.7 s to read back, at a 114 MB peak; below MAX_VALUE they took 2.1 s to
# generate, at a 169 MB peak (436 MB below 10**100).
MAX_AGENTS = 20_000
MAX_VALUES = 1_000_000
MAX_VALUE = 10**18


def _check_size(n: int, m: int, error: type[OrdfairError]) -> None:
    if n > MAX_AGENTS:
        raise error(f"an instance may have at most {MAX_AGENTS} agents")
    if n * m > MAX_VALUES:
        raise error(f"an instance may have at most {MAX_VALUES} values (n * m)")


# An exponent follows a digit or the decimal point in every literal
# ``Fraction`` accepts.  Digit runs are what ``int`` converts, underscores
# aside.
_EXPONENT = re.compile(r"[\d.][eE]")
_DIGIT_RUN = re.compile(r"\d+(?:_\d+)*")
_ECHO = 24


def _echo(token: str) -> str:
    """``token`` quoted for an error message, cut to its first characters."""
    return repr(token) if len(token) <= _ECHO else repr(token[:_ECHO]) + "..."


def _check_digits(token: str, what: str) -> None:
    """Reject a literal with a digit run longer than Python converts
    (``sys.get_int_max_str_digits``), naming that limit and echoing a prefix:
    the conversion would fail anyway, with the whole token in its message."""
    # 0 means no limit, as on interpreters older than 3.10.7, which lack one.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit and len(token) > limit:
        if any(len(run) - run.count("_") > limit for run in _DIGIT_RUN.findall(token)):
            raise ParseError(f"{what} {_echo(token)} is past Python's {limit}-digit limit")


def as_rational(x: int | str | Fraction) -> Fraction:
    """Coerce an exact input to Fraction; floats are deliberately rejected.

    A string takes ``Fraction``'s forms without an exponent, whose value
    ``Fraction`` would expand in full, and within ``int``'s digit limit, so
    its cost is bounded by its length.
    """
    if isinstance(x, str):
        if _EXPONENT.search(x):
            raise ParseError(f"bad rational literal {_echo(x)}: exponents are not accepted")
        _check_digits(x, "rational literal")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {_echo(x)}") from exc
    return Fraction(_exact(x))


def _exact(x: object) -> int | Fraction:
    """``x`` if it is an exact number: an ``int`` that is not a ``bool``, or
    a ``Fraction``.  Anything else, a float included, is an
    ``InvalidInstanceError``."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x
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


def _columns_ordered(cols: Sequence[Sequence[int]]) -> bool:
    """True iff every entry of each column is at least that of the next
    column: every agent's values, with goods as columns, are non-increasing."""
    return all(map(all, map(map, repeat(ge), cols, cols[1:])))


# A Fraction's numerator and denominator, read from its slots in C.  CPython
# 3.10-3.13 declare ``Fraction.__slots__ = ('_numerator', '_denominator')``,
# and a subclass inherits them; there ``numerator``, ``denominator`` and
# ``as_integer_ratio`` are Python-level, a frame per value.  One getter per
# slot: a getter of both builds a pair per value and costs as much as
# ``as_integer_ratio``.
_num, _den = attrgetter("_numerator"), attrgetter("_denominator")


def _fraction(num: int, den: int) -> Fraction:
    """``Fraction(num, den)`` for ints ``num`` and ``den`` > 0, without
    ``Fraction.__new__``'s Python-level checks: reduced by their gcd and
    written into the two slots ``_num`` and ``_den`` read.  It took 0.4 of
    ``Fraction(num, den)``'s time (Python 3.11, 2-core x86-64 VM)."""
    g = gcd(num, den)
    out = object.__new__(Fraction)
    out._numerator = num // g
    out._denominator = den // g
    return out


def _default_agent_labels(n: int) -> tuple[str, ...]:
    return tuple(f"a{i}" for i in range(n))


def _default_good_labels(m: int) -> tuple[str, ...]:
    return tuple(f"g{j}" for j in range(m))


@dataclass(frozen=True)
class Instance:
    """A fair-division instance: n agents, m goods, additive valuations."""

    values: tuple[tuple[Fraction, ...], ...]
    agent_labels: tuple[str, ...] = ()
    good_labels: tuple[str, ...] = ()

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
                if _num(v) < 0:
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

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[int | str | Fraction]],
        agent_labels: Sequence[str] = (),
        good_labels: Sequence[str] = (),
    ) -> "Instance":
        values = tuple(tuple(as_rational(v) for v in row) for row in rows)
        return cls(
            values=values,
            agent_labels=tuple(agent_labels),
            good_labels=tuple(good_labels),
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

    @cached_property
    def int_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Per agent, its row times the lcm of the row's denominators, and
        that lcm.

        Scaling one agent's row by a positive constant keeps every sum and
        comparison within that agent's valuation, so envy, EFX/EF1 and order
        checks run on these integers and stay exact.  One pass reads every
        denominator first: when all of them are 1 (they are positive, so
        their maximum is 1), the numerator rows are the rows, with scale 1
        and no lcm taken.  Otherwise each row is scaled by its own lcm.
        """
        m = self.m
        if not m:
            return (((), 1),) * self.n
        flat = tuple(chain.from_iterable(self.values))
        rows = zip(*[iter(map(_num, flat))] * m)
        if max(map(_den, flat)) == 1:
            return tuple(zip(rows, repeat(1)))
        out = []
        for nums, dens in zip(rows, zip(*[iter(map(_den, flat))] * m)):
            denom = lcm(*dens)
            if denom != 1:
                nums = tuple(map(mul, nums, map(floordiv, repeat(denom), dens)))
            out.append((nums, denom))
        return tuple(out)

    @cached_property
    def common_order(self) -> tuple[int, ...] | None:
        """The instance's common order, derived once: ``detect_structure``
        returns it."""
        candidate = _by_column_sum(self)
        return tuple(candidate) if is_ordered_along(self, candidate) else None

    @cached_property
    def top_n_set(self) -> frozenset[int] | None:
        """The instance's common set of its n most valuable goods, derived
        once: ``top_k_set(inst, inst.n)`` returns it."""
        return _top_k(self, self.n)

    @cached_property
    def _int_columns(self) -> tuple[tuple[int, ...], ...]:
        """``int_rows`` transposed: per good, every agent's value of it on
        their own scale.  ``_bundle_sums`` adds these columns."""
        rows, _ = zip(*self.int_rows)
        return tuple(zip(*rows))

    def value(self, agent: int, goods: Iterable[int]) -> Fraction:
        """The agent's value of the goods.  An agent outside ``agents`` or a
        good outside ``goods``, a negative one included, is a
        ``PreconditionError``."""
        goods = self._checked_goods(agent, goods)
        return sum(map(self.values[agent].__getitem__, goods), Fraction(0))

    def int_value(self, agent: int, goods: Iterable[int]) -> int:
        """``value`` on the agent's ``int_rows`` scale, with its checks."""
        goods = self._checked_goods(agent, goods)
        return sum(map(self.int_rows[agent][0].__getitem__, goods))

    def _checked_goods(self, agent: int, goods: Iterable[int]) -> tuple[int, ...]:
        """``goods`` as a tuple, once the agent and every good are in range:
        a negative index would otherwise count from the end."""
        _check_agent(self, agent)
        goods = tuple(goods)
        m = self.m
        if goods and not (0 <= min(goods) and max(goods) < m):
            bad = next(g for g in goods if not 0 <= g < m)
            raise PreconditionError(f"good {bad} out of range")
        return goods

    def levels(self, taus: Sequence[Fraction]) -> list[int]:
        """Each agent's threshold in ``taus`` on their ``int_rows`` scale,
        rounded up: ceil(tau * lcm), indexed by agent as the allocators and
        the MMS verdict take them.  An integer sum is at least tau * lcm iff
        it is at least this level, so comparing ``int_value`` with it is
        exact for any rational tau.  A share from ``shares.thresholds`` is a
        bundle sum, so for it the level is exactly tau * lcm.  A threshold
        must be a ``Fraction`` or an ``int``; any other, a float or a bool
        included, is an ``InvalidInstanceError`` (``as_rational``'s)."""
        if len(taus) != self.n:
            raise PreconditionError("one threshold per agent required")
        try:
            ratios = zip(tuple(map(_num, taus)), tuple(map(_den, taus)))
        except AttributeError:  # an int, or a threshold that is not exact
            ratios = [_exact(tau).as_integer_ratio() for tau in taus]
        scales = map(itemgetter(1), self.int_rows)
        return [-(-num * scale // den) for (num, den), scale in zip(ratios, scales)]

    def with_values(self, values: Sequence[Sequence[Fraction]]) -> "Instance":
        """Same shape and labels, different valuation matrix."""
        return replace(self, values=tuple(tuple(row) for row in values))


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


def _bundle_sums(inst: Instance, bundles: Sequence[frozenset[int]]) -> list[Sequence[int]]:
    """worth[j][i]: agent i's value of bundle j on i's ``int_rows`` scale.

    Each entry adds its bundle's goods' columns (``Instance._int_columns``)
    with ``map(add, ...)``; the sums are exact integers, so the order does
    not matter.  A one-good bundle's entry is the cached column and empty
    bundles share one zero tuple, so no caller may write into an entry."""
    cols = inst._int_columns
    zero = (0,) * inst.n
    sums = []
    for b in bundles:
        goods = iter(b)
        acc = cols[next(goods)] if b else zero
        for g in goods:
            acc = [*map(add, acc, cols[g])]
        sums.append(acc)
    return sums


def _check_agent(inst: Instance, agent: int) -> None:
    """Refuse an agent index outside ``inst.agents``: a negative one would
    otherwise count from the end."""
    if not 0 <= agent < inst.n:
        raise PreconditionError(f"agent {agent} out of range")


def check_allocation(inst: Instance, alloc: Allocation) -> None:
    """Validate an allocation against an instance; raise on violation.

    One pass decides it: the goods are distinct when their union is as
    large as the parts' sizes summed, and in range when its least and
    greatest are.  Only an allocation that fails walks the parts to name
    the first offending good."""
    if len(alloc.bundles) != inst.n:
        raise InvalidInstanceError(
            f"allocation has {len(alloc.bundles)} bundles for {inst.n} agents"
        )
    m = inst.m
    parts = (*alloc.bundles, alloc.pool)
    goods = frozenset().union(*parts)
    if len(goods) == sum(map(len, parts)) and (not goods or 0 <= min(goods) and max(goods) < m):
        return
    seen: set[int] = set()
    for part in parts:
        for g in part:
            if not 0 <= g < m:
                raise InvalidInstanceError(f"good {g} out of range")
            if g in seen:
                raise InvalidInstanceError(f"good {g} assigned twice")
            seen.add(g)


# ---------------------------------------------------------------------------
# Structure detection
# ---------------------------------------------------------------------------


def _by_column_sum(inst: Instance) -> list[int]:
    """Goods by (-column sum of the integer rows, index), summing the cached
    columns that ``_bundle_sums`` reads later."""
    sums = list(map(sum, inst._int_columns))
    # A reverse sort is stable too: equal sums keep ascending indices.
    return sorted(inst.goods, key=sums.__getitem__, reverse=True)


def detect_structure(inst: Instance) -> tuple[int, ...] | None:
    """A common order: good indices from most to least valuable for every
    agent, or None when the instance is not ordered.  For a common set of
    the k most valuable goods use ``top_k_set``.

    Goods are sorted by (-column sum of the integer rows, index)
    (``_by_column_sum``), then the order is checked.  If a common order
    exists, every row values one of any two goods, say g, at least as much
    as the other, h; rows are scaled by positive constants, so g's column
    sum is larger unless the two columns are identical, and the sort places
    g and h as the common order does, ties by index.  So it finds a common
    order whenever one exists, the identity when that is one; when none
    exists, no candidate passes.

    The instance is immutable, so the answer is derived once and cached
    (``Instance.common_order``): every call returns the same tuple, the
    one bag filling fills along."""
    return inst.common_order


def top_k_set(inst: Instance, k: int) -> frozenset[int] | None:
    """A common set of the k most valuable goods, or None.  The set for
    k = n, the one a2 needs, is derived once and cached
    (``Instance.top_n_set``).

    A set S of k goods works for agent i iff i's lowest value inside S is at
    least its highest value outside; boundary ties may fall either way.
    Goods are ranked by (-column sum of the integer rows, index), as in
    ``detect_structure`` (``_by_column_sum``), and the first k are accepted iff they work for
    every agent.  That finds a common set whenever one exists, and the one
    that takes, of the goods free to be in or out, those of lowest index:

    - If S works for every agent, each row values every good in S at least
      as much as every good outside, so each good in S has a column sum at
      least that of each good outside, equal only for identical columns.
      The first k therefore differ from S only by goods of identical
      columns, and work too.
    - A good that is in some common sets and not in others has, in every
      row, exactly that row's k-th largest value: all such goods share one
      column.  Each good in every common set has a row above that value and
      none below, each good in none has a row below and none above, so
      they rank before and after it; the free goods in between keep
      ascending indices.
    """
    return inst.top_n_set if k == inst.n else _top_k(inst, k)


def _top_k(inst: Instance, k: int) -> frozenset[int] | None:
    m = inst.m
    if not 1 <= k <= m:
        return None
    ranked = _by_column_sum(inst)
    if k < m:
        rows, _ = zip(*inst.int_rows)
        lows = map(min, map(_gather(ranked[:k]), rows))
        highs = map(max, map(_gather(ranked[k:]), rows))
        if not all(map(ge, lows, highs)):
            return None
    return frozenset(ranked[:k])


def is_ordered_along(inst: Instance, order: Sequence[int]) -> bool:
    """True iff every agent's values are non-increasing along ``order``, a
    sequence of good indices."""
    return _columns_ordered(_gather(order)(inst._int_columns))


# ---------------------------------------------------------------------------
# Padding transforms and their inverse
# ---------------------------------------------------------------------------


def pad_goods(inst: Instance, target: int) -> Instance:
    """Append zero-valued goods until the instance has `target` goods."""
    if target < inst.m:
        raise PreconditionError(f"pad target {target} below good count {inst.m}")
    if target == inst.m:
        return inst
    extra = target - inst.m
    zeros = (Fraction(0),) * extra
    return Instance(
        tuple(row + zeros for row in inst.values),
        inst.agent_labels,
        inst.good_labels + tuple(f"g{inst.m + j}" for j in range(extra)),
    )


def pad_agents_to_multiple_of_three(inst: Instance) -> Instance:
    """Append copies of agent 0 until the agent count is a multiple of three."""
    n = inst.n
    target = 3 * ((n + 2) // 3)
    if target == n:
        return inst
    extra = target - n
    return Instance(
        inst.values + (inst.values[0],) * extra,
        inst.agent_labels + tuple(f"a{n + i}" for i in range(extra)),
        inst.good_labels,
    )


def strip_dummies(
    inst: Instance, alloc: Allocation, n: int, m: int
) -> tuple[Instance, Allocation]:
    """Keep agents below n and goods below m: the caller's instance before
    padding, with its indices and labels.  Padding agents' bundles join the
    pool, minus padding goods."""
    if not 1 <= n <= inst.n or not 0 <= m <= inst.m:
        raise PreconditionError(f"cannot strip {inst.n} agents, {inst.m} goods to {n}, {m}")
    check_allocation(inst, alloc)
    new_inst = Instance(
        tuple(row[:m] for row in inst.values[:n]),
        inst.agent_labels[:n],
        inst.good_labels[:m],
    )
    bundles = tuple(frozenset(g for g in b if g < m) for b in alloc.bundles[:n])
    pool = frozenset(g for g in alloc.pool.union(*alloc.bundles[n:]) if g < m)
    return new_inst, Allocation(bundles, pool)


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
        _check_size(self.n, self.m, InvalidConfigError)
        if self.max_value < 1:
            raise InvalidConfigError("max_value must be positive")
        if self.max_value > MAX_VALUE:
            raise InvalidConfigError(f"max_value must be at most {MAX_VALUE}")
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
    """``x`` as text.  A numerator or denominator longer than Python prints
    (``sys.get_int_max_str_digits``) raises ``PreconditionError`` naming
    that limit, where ``str`` would raise ``ValueError``."""
    try:
        return str(x)
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise PreconditionError(
            f"a rational to print is past Python's {limit}-digit limit"
        ) from exc


def write_instance(inst: Instance) -> str:
    lines = [f"n {inst.n}", f"m {inst.m}", "valuations"]
    for row in inst.values:
        lines.append(" ".join(format_rational(v) for v in row))
    if inst.agent_labels != _default_agent_labels(inst.n):
        lines.append("agent_labels " + " ".join(inst.agent_labels))
    if inst.good_labels != _default_good_labels(inst.m):
        lines.append("good_labels " + " ".join(inst.good_labels))
    return "\n".join(lines) + "\n"


def _parse_int(token: str, what: str) -> int:
    _check_digits(token, what)
    try:
        return int(token)
    except ValueError as exc:
        raise ParseError(f"bad {what} {_echo(token)}") from exc


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
            _check_size(n, m, ParseError)
            for r in range(n):
                if m == 0:  # a row of no goods is a blank line, dropped above
                    rows.append([])
                    continue
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
        elif key in ("agent_labels", "good_labels"):
            fields[key] = rest
        else:
            raise ParseError(f"unknown instance field {key!r}")
        i += 1
    if n is None or m is None or len(rows) != n:
        raise ParseError("incomplete instance file")
    return Instance.from_rows(
        rows,
        agent_labels=tuple(fields["agent_labels"].split()) if "agent_labels" in fields else (),
        good_labels=tuple(fields["good_labels"].split()) if "good_labels" in fields else (),
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
