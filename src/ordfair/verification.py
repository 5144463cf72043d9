"""Allocation-agnostic fairness checkers: EFX, EF1, ordinal MMS.

These are the source of truth used to certify allocator outputs; they never
share state with the allocators.  Agents flagged dummy in the instance are
skipped by the MMS verdict (they only exist as padding).

EFX and EF1 compare bundles within one agent's valuation, so they read one
integer matrix: ``worth[i][j]`` is agent i's value of bundle j on i's row of
``Instance.int_rows``, built in one pass per row over the allocated goods;
the scans walk its rows and open a bundle only where i envies it and it
holds two or more goods (a lone good dropped leaves 0).  ``report``
builds it once, takes bundle values as ``Fraction(worth[i][i], lcm_i)``, and
skips EF1's pass when EFX holds: then ``worth[i][j] - min <= worth[i][i]``
for every envied pair, and max >= min.  The public checkers validate the
allocation against the instance first (``check_allocation``), as ``report``
does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import ParseError, PreconditionError
from .model import Allocation, Instance, check_allocation, format_rational
from . import shares


def strongly_envies(
    inst: Instance, alloc: Allocation, i: int, j: int
) -> tuple[bool, int | None]:
    """Does i still envy j after the best single removal from j's bundle?

    The witness is the removal that leaves the most value behind (the good i
    values least, lowest index on ties).
    """
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


def _worth(inst: Instance, alloc: Allocation) -> list[list[int]]:
    """worth[i][j]: agent i's value of bundle j on i's integer row, summed in
    one pass per row over the allocated goods (exact, so in any order)."""
    pairs = [(g, j) for j, b in enumerate(alloc.bundles) for g in b]
    worth = []
    for row, _ in inst.int_rows:
        w = [0] * len(alloc.bundles)
        for g, j in pairs:
            w[j] += row[g]
        worth.append(w)
    return worth


def _efx(inst: Instance, alloc: Allocation, worth: list[list[int]]):
    multi = [j for j, b in enumerate(alloc.bundles) if len(b) > 1]
    for i, (row, _) in enumerate(inst.int_rows):
        own = worth[i][i]
        for j in multi:
            if worth[i][j] > own:
                drop = _strong_envy_drop(row.__getitem__, own, worth[i][j], alloc.bundles[j])
                if drop is not None:
                    return False, (i, j, drop)
    return True, None


def _ef1(inst: Instance, alloc: Allocation, worth: list[list[int]]):
    multi = [j for j, b in enumerate(alloc.bundles) if len(b) > 1]
    for i, (row, _) in enumerate(inst.int_rows):
        own = worth[i][i]
        for j in multi:
            total = worth[i][j]
            if total > own and own < total - max(map(row.__getitem__, alloc.bundles[j])):
                return False, (i, j)
    return True, None


def is_efx(inst: Instance, alloc: Allocation) -> tuple[bool, tuple[int, int, int] | None]:
    """No agent strongly envies another; first violating triple as witness."""
    check_allocation(inst, alloc)
    return _efx(inst, alloc, _worth(inst, alloc))


def is_ef1(inst: Instance, alloc: Allocation) -> tuple[bool, tuple[int, int] | None]:
    """Every envy is removable by dropping one good from the envied bundle."""
    check_allocation(inst, alloc)
    return _ef1(inst, alloc, _worth(inst, alloc))


def is_ordinal_mms(
    inst: Instance,
    alloc: Allocation,
    d: int,
    agent_thresholds: Sequence[Fraction],
) -> tuple[bool, tuple[int, Fraction] | None]:
    """Every non-dummy agent's bundle meets their 1-out-of-d share.

    Witness: the agent with the worst shortfall (lowest index on ties).
    """
    check_allocation(inst, alloc)
    return _mms(inst, [inst.value(i, b) for i, b in enumerate(alloc.bundles)], agent_thresholds)


def _mms(inst: Instance, own: Sequence[Fraction], agent_thresholds: Sequence[Fraction]):
    if len(agent_thresholds) != inst.n:
        raise PreconditionError("one threshold per agent required")
    worst: tuple[int, Fraction] | None = None
    for i in inst.real_agents:
        if agent_thresholds[i] > own[i]:
            gap = agent_thresholds[i] - own[i]
            if worst is None or gap > worst[1]:
                worst = (i, gap)
    if worst is None:
        return True, None
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
    inst: Instance,
    alloc: Allocation,
    divisors: Sequence[int] = (),
    thresholds_by_divisor: Mapping[int, Sequence[Fraction]] | None = None,
) -> FairnessReport:
    """Aggregate verdicts, one per distinct divisor in ascending order, as
    ``read_report`` reads them back; thresholds are computed unless
    supplied."""
    check_allocation(inst, alloc)
    worth = _worth(inst, alloc)
    efx, efx_wit = _efx(inst, alloc, worth)
    ef1, ef1_wit = (True, None) if efx else _ef1(inst, alloc, worth)
    values = tuple(Fraction(worth[i][i], lcm) for i, (_, lcm) in enumerate(inst.int_rows))
    verdicts = []
    for d in sorted(set(divisors)):
        if thresholds_by_divisor is not None and d in thresholds_by_divisor:
            taus = tuple(thresholds_by_divisor[d])
        else:
            taus = shares.thresholds(inst, d)
        ok, wit = _mms(inst, values, taus)
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


def read_report(text: str) -> FairnessReport:
    fields: dict[str, str] = {}
    mms_parts: dict[int, dict[str, str]] = {}
    try:
        for ln in text.splitlines():
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            key, _, rest = ln.partition(" ")
            if key == "mms":
                toks = dict(t.split("=", 1) for t in rest.split(" ", 2))
                d = int(toks["d"])
                entry = mms_parts.setdefault(d, {})
                entry["ok"] = toks["ok"]
                entry["witness"] = rest.split("witness=", 1)[1]
            elif key == "thresholds":
                dpart, _, vals = rest.partition(" ")
                d = int(dpart.split("=", 1)[1])
                mms_parts.setdefault(d, {})["thresholds"] = vals
            else:
                fields[key] = rest
        efx_wit = fields["efx_witness"]
        ef1_wit = fields["ef1_witness"]
        verdicts = []
        for d in sorted(mms_parts):
            entry = mms_parts[d]
            wit = entry["witness"]
            witness = None
            if wit != "none":
                a, gap = wit.split()
                witness = (int(a), Fraction(gap))
            verdicts.append(
                MmsVerdict(
                    divisor=d,
                    ok=entry["ok"] == "true",
                    thresholds=tuple(Fraction(t) for t in entry["thresholds"].split()),
                    witness=witness,
                )
            )
        return FairnessReport(
            complete=fields["complete"] == "true",
            bundle_values=tuple(Fraction(v) for v in fields["values"].split()),
            efx=fields["efx"] == "true",
            efx_witness=None
            if efx_wit == "none"
            else tuple(int(t) for t in efx_wit.split()),  # type: ignore[arg-type]
            ef1=fields["ef1"] == "true",
            ef1_witness=None
            if ef1_wit == "none"
            else tuple(int(t) for t in ef1_wit.split()),  # type: ignore[arg-type]
            mms=tuple(verdicts),
        )
    except (KeyError, ValueError, IndexError, ZeroDivisionError) as exc:
        raise ParseError(f"bad report file: {exc}") from exc
