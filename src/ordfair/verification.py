"""Allocation-agnostic fairness checkers: EFX, EF1, ordinal MMS.

These are the source of truth used to certify allocator outputs; they never
share state with the allocators.  The MMS verdict checks every agent of the
instance it is given against the thresholds the caller hands ``report``, one
tuple per divisor: this module imports only the model and computes no share.
It is decided on integers: agent i, whose bundle is worth w_i on its row of
``Instance.int_rows`` (scale lcm_i), meets the threshold tau_i iff
w_i >= ceil(tau_i * lcm_i), its ``Instance.levels`` entry; a ``Fraction``
shortfall is built only for an agent that misses.

EFX and EF1 compare bundles within one agent's valuation, so they read one
integer matrix: ``worth[j][i]`` is agent i's value of bundle j on i's row of
``Instance.int_rows``, one column per bundle from the model's kernel
(``_bundle_sums``); the scans open a bundle only where i envies it and it
holds two or more goods (a lone good dropped leaves 0), and EF1's only
where i's envy also exceeds the bundle's average good, a lower bound on
its most valued one.  ``report`` builds
it once, takes bundle values as ``Fraction(worth[i][i], lcm_i)``, built
by the model's ``_fraction`` from that integer pair without
``Fraction.__new__``'s Python-level checks, and skips EF1's pass when EFX
holds: then ``worth[j][i] - min <= worth[i][i]`` for every envied pair,
and max >= min.  The public checkers validate the
allocation against the instance first (``check_allocation``), as ``report``
does.  ``read_report`` reads back only what ``write_report`` writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import ge, getitem, itemgetter
from typing import Callable, Mapping, Sequence

from .errors import ParseError, PreconditionError
from .model import (
    Allocation,
    Instance,
    _bundle_sums,
    _check_agent,
    _echo,
    _fraction,
    _parse_int,
    as_rational,
    check_allocation,
    format_rational,
)


def strongly_envies(
    inst: Instance, alloc: Allocation, i: int, j: int
) -> tuple[bool, int | None]:
    """Does i still envy j after the best single removal from j's bundle?

    The witness is the removal that leaves the most value behind (the good i
    values least, lowest index on ties).  Both agents must be in
    ``inst.agents``.
    """
    _check_agent(inst, i)
    _check_agent(inst, j)
    if i == j:
        raise PreconditionError("strong envy needs distinct agents")
    check_allocation(inst, alloc)
    value = inst.int_rows[i][0].__getitem__
    own = sum(map(value, alloc.bundles[i]))
    total = sum(map(value, alloc.bundles[j]))
    if total <= own:
        return False, None
    drop = _strong_envy_drop(value, own, total, alloc.bundles[j])
    return drop is not None, drop


def _strong_envy_drop(
    value: Callable[[int], int], own: int, total: int, bundle: frozenset[int]
) -> int | None:
    """strongly_envies' witness for an agent who values each good g at
    value(g), their own bundle at `own` and `bundle` at `total` > `own`."""
    low = min(map(value, bundle))
    return min(g for g in bundle if value(g) == low) if total - low > own else None


def _efx(inst: Instance, alloc: Allocation, worth: Sequence[Sequence[int]]):
    multi = [j for j, b in enumerate(alloc.bundles) if len(b) > 1]
    for i, (row, _) in enumerate(inst.int_rows):
        own = worth[i][i]
        for j in multi:
            # i still envies j after dropping the good of j's it values least.
            total = worth[j][i]
            if total > own and total - min(map(row.__getitem__, alloc.bundles[j])) > own:
                drop = _strong_envy_drop(row.__getitem__, own, total, alloc.bundles[j])
                return False, (i, j, drop)
    return True, None


def _ef1(inst: Instance, alloc: Allocation, worth: Sequence[Sequence[int]]):
    multi = [(j, len(b)) for j, b in enumerate(alloc.bundles) if len(b) > 1]
    for i, (row, _) in enumerate(inst.int_rows):
        own = worth[i][i]
        for j, size in multi:
            total = worth[j][i]
            # j's most valued good is worth at least j's average, total / size,
            # so i's envy of j can outlast dropping it only when
            # total - own > total / size; values are non-negative, so that
            # also means total > own.
            if (total - own) * size > total and own < total - max(
                map(row.__getitem__, alloc.bundles[j])
            ):
                return False, (i, j)
    return True, None


def is_efx(inst: Instance, alloc: Allocation) -> tuple[bool, tuple[int, int, int] | None]:
    """No agent strongly envies another; first violating triple as witness."""
    check_allocation(inst, alloc)
    return _efx(inst, alloc, _bundle_sums(inst, alloc.bundles))


def is_ef1(inst: Instance, alloc: Allocation) -> tuple[bool, tuple[int, int] | None]:
    """Every envy is removable by dropping one good from the envied bundle."""
    check_allocation(inst, alloc)
    return _ef1(inst, alloc, _bundle_sums(inst, alloc.bundles))


def is_ordinal_mms(
    inst: Instance,
    alloc: Allocation,
    d: int,
    agent_thresholds: Sequence[Fraction],
) -> tuple[bool, tuple[int, Fraction] | None]:
    """Every agent's bundle meets their 1-out-of-d share.

    Witness: the agent with the worst shortfall (lowest index on ties).
    """
    check_allocation(inst, alloc)
    own = [sum(map(row.__getitem__, b)) for (row, _), b in zip(inst.int_rows, alloc.bundles)]
    return _mms(inst, own, agent_thresholds)


def _mms(inst: Instance, own: Sequence[int], agent_thresholds: Sequence[Fraction]):
    """The MMS verdict on integers (module docstring), where ``own[i]`` is
    agent i's value of its bundle on its ``int_rows`` scale."""
    levels = inst.levels(agent_thresholds)
    if all(map(ge, own, levels)):
        return True, None
    worst: tuple[int, Fraction] | None = None
    for i, (w, level, (_, scale)) in enumerate(zip(own, levels, inst.int_rows)):
        if w < level:
            gap = agent_thresholds[i] - Fraction(w, scale)
            if worst is None or gap > worst[1]:
                worst = (i, gap)
    return False, worst


@dataclass(frozen=True)
class MmsVerdict:
    divisor: int
    ok: bool
    thresholds: tuple[Fraction, ...]
    witness: tuple[int, Fraction] | None


@dataclass(frozen=True)
class FairnessReport:
    complete: bool
    bundle_values: tuple[Fraction, ...]
    efx: bool
    efx_witness: tuple[int, int, int] | None
    ef1: bool
    ef1_witness: tuple[int, int] | None
    mms: tuple[MmsVerdict, ...]

    def mms_ok(self, d: int) -> bool:
        for verdict in self.mms:
            if verdict.divisor == d:
                return verdict.ok
        raise KeyError(f"no MMS verdict for d={d}")


def report(
    inst: Instance, alloc: Allocation, thresholds: Mapping[int, Sequence[Fraction]]
) -> FairnessReport:
    """Aggregate verdicts, one MMS verdict per divisor of ``thresholds``
    in ascending order, as ``read_report`` reads them back."""
    check_allocation(inst, alloc)
    worth = _bundle_sums(inst, alloc.bundles)
    efx, efx_wit = _efx(inst, alloc, worth)
    ef1, ef1_wit = (True, None) if efx else _ef1(inst, alloc, worth)
    own = list(map(getitem, worth, inst.agents))
    values = tuple(map(_fraction, own, map(itemgetter(1), inst.int_rows)))
    verdicts = []
    for d in sorted(thresholds):
        taus = tuple(thresholds[d])
        ok, wit = _mms(inst, own, taus)
        verdicts.append(MmsVerdict(divisor=d, ok=ok, thresholds=taus, witness=wit))
    return FairnessReport(
        complete=alloc.is_complete(inst.m),
        bundle_values=values,
        efx=efx,
        efx_witness=efx_wit,
        ef1=ef1,
        ef1_witness=ef1_wit,
        mms=tuple(verdicts),
    )


# ---------------------------------------------------------------------------
# Report text format
# ---------------------------------------------------------------------------


def _bool(b: bool) -> str:
    return "true" if b else "false"


def write_report(rep: FairnessReport) -> str:
    lines = [
        f"complete {_bool(rep.complete)}",
        "values " + " ".join(format_rational(v) for v in rep.bundle_values),
        f"efx {_bool(rep.efx)}",
        "efx_witness "
        + ("none" if rep.efx_witness is None else " ".join(map(str, rep.efx_witness))),
        f"ef1 {_bool(rep.ef1)}",
        "ef1_witness "
        + ("none" if rep.ef1_witness is None else " ".join(map(str, rep.ef1_witness))),
    ]
    for verdict in rep.mms:
        wit = (
            "none"
            if verdict.witness is None
            else f"{verdict.witness[0]} {format_rational(verdict.witness[1])}"
        )
        lines.append(f"mms d={verdict.divisor} ok={_bool(verdict.ok)} witness={wit}")
        lines.append(
            f"thresholds d={verdict.divisor} "
            + " ".join(format_rational(t) for t in verdict.thresholds)
        )
    return "\n".join(lines) + "\n"


_FIELDS = ("complete", "values", "efx", "efx_witness", "ef1", "ef1_witness")


def _read_bool(token: str) -> bool:
    if token not in ("true", "false"):
        raise ParseError(f"bad report boolean {_echo(token)}")
    return token == "true"


_index = partial(_parse_int, what="report index")


def _read_witness(text: str, parsers: Sequence[Callable[[str], object]]) -> tuple | None:
    if text == "none":
        return None
    tokens = text.split()
    if len(tokens) != len(parsers):
        raise ParseError(f"witness {_echo(text)} needs {len(parsers)} entries")
    return tuple(parse(t) for parse, t in zip(parsers, tokens))


def _tag(token: str, name: str) -> str:
    """The value of a ``name=value`` token."""
    if not token.startswith(name + "="):
        raise ParseError(f"expected {name}=..., got {_echo(token)}")
    return token[len(name) + 1:]


def read_report(text: str) -> FairnessReport:
    """What ``write_report`` writes: each line once, booleans as ``true`` or
    ``false``, witnesses of their own length; anything else is a
    ``ParseError``."""
    fields: dict[str, str] = {}
    per_divisor: dict[int, dict[str, str]] = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        key, _, rest = ln.partition(" ")
        entry = fields
        if key in ("mms", "thresholds"):
            head, _, rest = rest.partition(" ")
            entry = per_divisor.setdefault(_parse_int(_tag(head, "d"), "report divisor"), {})
        elif key not in _FIELDS:
            raise ParseError(f"unknown report field {_echo(key)}")
        if key in entry:
            raise ParseError(f"repeated report line {_echo(ln)}")
        entry[key] = rest
    missing = [k for k in _FIELDS if k not in fields]
    for d, entry in sorted(per_divisor.items()):
        missing += [f"{k} d={d}" for k in ("mms", "thresholds") if k not in entry]
    if missing:
        raise ParseError(f"report has no {missing[0]} line")
    verdicts = []
    for d, entry in sorted(per_divisor.items()):
        ok, _, witness = entry["mms"].partition(" ")
        verdicts.append(
            MmsVerdict(
                divisor=d,
                ok=_read_bool(_tag(ok, "ok")),
                thresholds=tuple(map(as_rational, entry["thresholds"].split())),
                witness=_read_witness(_tag(witness, "witness"), (_index, as_rational)),
            )
        )
    return FairnessReport(
        complete=_read_bool(fields["complete"]),
        bundle_values=tuple(map(as_rational, fields["values"].split())),
        efx=_read_bool(fields["efx"]),
        efx_witness=_read_witness(fields["efx_witness"], (_index,) * 3),  # type: ignore[arg-type]
        ef1=_read_bool(fields["ef1"]),
        ef1_witness=_read_witness(fields["ef1_witness"], (_index,) * 2),  # type: ignore[arg-type]
        mms=tuple(verdicts),
    )
