"""Event traces for allocator runs.

Every allocator emits an ordered event list; replaying the events against the
instance the allocator ran on rebuilds its output allocation exactly, which
the tests assert.
Serialized form is one event per line: iteration, kind, key=value arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..errors import ParseError
from ..model import Allocation


def _fmt_goods(goods: Iterable[int]) -> str:
    return ",".join(str(g) for g in sorted(goods))


def _parse_goods(text: str) -> frozenset[int]:
    if not text:
        return frozenset()
    return frozenset(int(t) for t in text.split(","))


@dataclass(frozen=True)
class TraceEvent:
    iteration: int
    kind: str
    args: tuple[tuple[str, str], ...]

    def get(self, key: str) -> str:
        for k, v in self.args:
            if k == key:
                return v
        raise KeyError(key)

    def to_line(self) -> str:
        parts = [str(self.iteration), self.kind]
        parts += [f"{k}={v}" for k, v in self.args]
        return "\t".join(parts)

    @classmethod
    def from_line(cls, line: str) -> "TraceEvent":
        parts = line.split("\t")
        if len(parts) < 2:
            raise ParseError(f"bad trace line {line!r}")
        args = []
        for tok in parts[2:]:
            k, eq, v = tok.partition("=")
            if not eq:
                raise ParseError(f"bad trace argument {tok!r}")
            args.append((k, v))
        try:
            iteration = int(parts[0])
        except ValueError as exc:
            raise ParseError(f"bad trace iteration {parts[0]!r}") from exc
        return cls(iteration=iteration, kind=parts[1], args=tuple(args))


@dataclass
class AllocatorTrace:
    algorithm: str
    events: list[TraceEvent] = field(default_factory=list)

    def emit(self, iteration: int, kind: str, **kwargs) -> None:
        args = []
        for k, v in kwargs.items():
            if isinstance(v, (set, frozenset, list, tuple)):
                args.append((k, _fmt_goods(v)))
            else:
                args.append((k, str(v)))
        self.events.append(TraceEvent(iteration, kind, tuple(args)))

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
    trace is in its run's coordinates (goods in witness order, padded to at
    least 2n goods, a3's padding agents included): a1 and a2 traces replay to
    the complete allocation before dummies are stripped, a3 traces to the
    allocator's partial allocation only.

    A trace that names an unknown bag or agent, lacks an argument or holds a
    malformed number raises ``ParseError``.
    """
    try:
        return _replay(trace, n, m, start)
    except (KeyError, IndexError, ValueError) as exc:
        raise ParseError(f"bad trace event: {exc!r}") from exc


def _replay(trace: AllocatorTrace, n: int, m: int, start: Allocation | None) -> Allocation:
    bags: dict[int, set[int]] = {}
    owner: dict[int, int] = {}
    bundles: list[set[int]] = (
        [set(b) for b in start.bundles] if start is not None else [set() for _ in range(n)]
    )
    consumed: set[int] = set(start.allocated()) if start is not None else set()

    def materialize() -> None:
        # Convert bag ownership into explicit bundles once the bag-filling
        # phase is over (completion events mutate bundles directly).
        for agent, bag in owner.items():
            bundles[agent] = set(bags[bag])
        owner.clear()

    def agent_of(text: str) -> int:
        a = int(text)
        if not 0 <= a < len(bundles):
            raise ParseError(f"trace names agent {a} of {len(bundles)}")
        return a

    for ev in trace.events:
        kind = ev.kind
        if kind == "singleton_claim":
            bag = int(ev.get("bag"))
            bags[bag] = {int(ev.get("good"))}
            owner[agent_of(ev.get("agent"))] = bag
        elif kind == "bag_init":
            bags[int(ev.get("bag"))] = set(_parse_goods(ev.get("goods")))
        elif kind == "fill":
            bags[int(ev.get("bag"))].add(int(ev.get("good")))
        elif kind == "claim":
            owner[agent_of(ev.get("agent"))] = int(ev.get("bag"))
        elif kind == "swap":
            agent = agent_of(ev.get("agent"))
            try:
                goods = ev.get("goods")
            except KeyError:
                owner[agent] = int(ev.get("to"))
            else:
                bundles[agent] = set(_parse_goods(goods))
        elif kind == "lone_divider":
            pass
        elif kind == "shrink":
            kept = _parse_goods(ev.get("kept"))
            bags[int(ev.get("bag"))] = set(kept)
        elif kind == "matching":
            for pair in ev.get("pairs").split(";"):
                if not pair:
                    continue
                a, _, goods = pair.partition(":")
                bundles[agent_of(a)] = set(_parse_goods(goods))
        elif kind == "cycle_rotation":
            materialize()
            cycle = [agent_of(t) for t in ev.get("cycle").split(",")]
            saved = [set(bundles[a]) for a in cycle]
            for idx, a in enumerate(cycle):
                bundles[a] = saved[(idx + 1) % len(cycle)]
        elif kind == "source_gift":
            materialize()
            agent = agent_of(ev.get("agent"))
            good = int(ev.get("good"))
            bundles[agent].add(good)
            consumed.add(good)
        else:
            raise ParseError(f"unknown trace event kind {kind!r}")

    materialize()
    for b in bundles:
        consumed |= b
    pool = frozenset(range(m)) - frozenset(consumed)
    return Allocation(tuple(frozenset(b) for b in bundles), pool)
