"""Event traces for allocator runs.

Every allocator emits an ordered event list; replaying the events against the
instance the allocator ran on rebuilds its output allocation exactly, which
the tests assert.  Bag filling fills only open bags, so a held bag never
changes: replay hands an agent their bag's goods at the ``claim``, ``swap``
or ``singleton_claim``.  Every allocator runs on the caller's goods, so a
solve's trace names the caller's agents and goods, as every other field of
its result does.

An event keeps its arguments typed, as emitted: ints, frozensets of goods
(``goods``, ``kept``), a rotation's ``cycle`` as a tuple in order and a
matching's ``pairs`` as (agent, goods) tuples; emitters pass values that do
not change later.  Only ``TraceEvent.to_line`` formats them, one event per
line: iteration, kind and key=value arguments, tab-separated, with goods
ascending and comma-separated and pairs as ``agent:goods`` joined by ``;``.
``TraceEvent.from_line`` parses each argument back by its key, and reads
every integer as the file formats do (``model._parse_int``): past Python's
digit limit or malformed, it is a ``ParseError`` that, like every trace
error, echoes only a short prefix of the line, token or number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from ..errors import ParseError
from ..model import Allocation, _echo, _parse_int


def _fmt_ints(ints: Iterable[int]) -> str:
    return ",".join(map(str, ints))


def _int(text: str) -> int:
    return _parse_int(text, "trace integer")


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(map(_int, text.split(","))) if text else ()


def _parse_pairs(text: str) -> tuple[tuple[int, frozenset[int]], ...]:
    pairs = (p.partition(":") for p in text.split(";") if p)
    return tuple((_int(a), frozenset(_parse_ints(goods))) for a, _, goods in pairs)


# Argument key -> (format, parse).  Every other key holds an int.
_GOODS = (lambda goods: _fmt_ints(sorted(goods)), lambda text: frozenset(_parse_ints(text)))
_CODECS = {
    "goods": _GOODS,
    "kept": _GOODS,
    "cycle": (_fmt_ints, _parse_ints),
    "pairs": (
        lambda pairs: ";".join(f"{a}:{_fmt_ints(sorted(goods))}" for a, goods in pairs),
        _parse_pairs,
    ),
}
_INT = (str, _int)


@dataclass(slots=True)
class TraceEvent:
    iteration: int
    kind: str
    args: dict[str, Any]

    def get(self, key: str) -> Any:
        return self.args[key]

    def to_line(self) -> str:
        parts = [str(self.iteration), self.kind]
        parts += [f"{k}={_CODECS.get(k, _INT)[0](v)}" for k, v in self.args.items()]
        return "\t".join(parts)

    @classmethod
    def from_line(cls, line: str) -> "TraceEvent":
        parts = line.split("\t")
        if len(parts) < 2:
            raise ParseError(f"bad trace line {_echo(line)}")
        args = {}
        for tok in parts[2:]:
            k, eq, v = tok.partition("=")
            if not eq or k in args:
                raise ParseError(f"bad trace argument {_echo(tok)}")
            args[k] = _CODECS.get(k, _INT)[1](v)
        return cls(_int(parts[0]), parts[1], args)


@dataclass
class AllocatorTrace:
    algorithm: str
    events: list[TraceEvent] = field(default_factory=list)

    def emit(self, iteration: int, kind: str, **args: Any) -> None:
        self.events.append(TraceEvent(iteration, kind, args))

    def extend_offset(self, other: "AllocatorTrace") -> None:
        """Append another phase's events, renumbering its iterations to
        continue after this trace's last one."""
        base = max((ev.iteration for ev in self.events), default=0)
        for ev in other.events:
            self.events.append(TraceEvent(ev.iteration + base, ev.kind, ev.args))

    def to_text(self) -> str:
        lines = [f"# trace {self.algorithm}"]
        lines += [ev.to_line() for ev in self.events]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "AllocatorTrace":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("# trace "):
            raise ParseError("missing trace header")
        algorithm = lines[0][len("# trace "):]
        return cls(algorithm, [TraceEvent.from_line(ln) for ln in lines[1:]])


def replay(trace: AllocatorTrace, n: int, m: int, start: Allocation | None = None) -> Allocation:
    """Rebuild the final allocation by interpreting trace events.

    Bag-filling events track numbered bags; lone-divider and envy-cycle
    events carry explicit good sets, so no allocator logic is re-run here.
    An allocator's trace replays to its output exactly; pass the partial
    allocation as ``start`` for a completion trace.  A ``solve_complete``
    trace holds its allocator's events, then its completion's, on the
    caller's agents and goods; it replays to the complete allocation.

    A trace that names an unknown bag or agent or lacks an argument raises
    ``ParseError``, as does one whose bundles hold a good outside
    ``range(m)`` or a good twice; ``AllocatorTrace.from_text`` already
    rejects malformed numbers.
    """
    try:
        return _replay(trace, n, m, start)
    except KeyError as exc:
        raise ParseError(f"bad trace event: missing {_echo(str(exc.args[0]))}") from exc


def _replay(trace: AllocatorTrace, n: int, m: int, start: Allocation | None) -> Allocation:
    bags: dict[int, set[int]] = {}
    bundles: list[set[int]] = (
        [set(b) for b in start.bundles] if start is not None else [set() for _ in range(n)]
    )

    def agent_of(a: int) -> int:
        if not 0 <= a < len(bundles):
            raise ParseError(f"trace names agent {_echo(str(a))} of {len(bundles)}")
        return a

    def take(agent: int, bag: int) -> None:
        bundles[agent_of(agent)] = set(bags[bag])

    for ev in trace.events:
        kind = ev.kind
        if kind == "singleton_claim":
            bags[ev.get("bag")] = {ev.get("good")}
            take(ev.get("agent"), ev.get("bag"))
        elif kind == "bag_init":
            bags[ev.get("bag")] = set(ev.get("goods"))
        elif kind == "fill":
            bags[ev.get("bag")].add(ev.get("good"))
        elif kind == "claim":
            take(ev.get("agent"), ev.get("bag"))
        elif kind == "swap":
            take(ev.get("agent"), ev.get("to"))
        elif kind == "steal":
            bundles[agent_of(ev.get("agent"))] = set(ev.get("goods"))
        elif kind == "lone_divider":
            pass
        elif kind == "shrink":
            bags[ev.get("bag")] = set(ev.get("kept"))
        elif kind == "matching":
            for a, goods in ev.get("pairs"):
                bundles[agent_of(a)] = set(goods)
        elif kind == "cycle_rotation":
            cycle = [agent_of(a) for a in ev.get("cycle")]
            saved = [set(bundles[a]) for a in cycle]
            for idx, a in enumerate(cycle):
                bundles[a] = saved[(idx + 1) % len(cycle)]
        elif kind == "source_gift":
            agent = agent_of(ev.get("agent"))
            bundles[agent].add(ev.get("good"))
        else:
            raise ParseError(f"unknown trace event kind {_echo(kind)}")

    owned: set[int] = set()
    for b in bundles:
        for g in b:
            if not 0 <= g < m:
                raise ParseError(f"trace gives out good {_echo(str(g))} of {m}")
            if g in owned:
                raise ParseError(f"trace gives out good {g} twice")
            owned.add(g)
    pool = frozenset(range(m)) - owned
    return Allocation(tuple(frozenset(b) for b in bundles), pool)
