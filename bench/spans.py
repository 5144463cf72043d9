"""Spans around the calls between ordfair's layers, kept in memory.

``Tracer.install`` finds each traced function in every loaded ordfair module
that binds it; inside ``Tracer.active`` those bindings point to wrappers
that record a span: name, start, end, parent span and solve id.  Spans stay
in memory; ``Tracer.summary`` turns them into per-layer calls, self time and
share of solve time, plus the counters the benchmark reports.

Layers are named by module.  A layer's ``calls`` are its entries: spans of
the layer whose parent span belongs to another layer (so ``shares.calls``
counts ``thresholds`` calls, and ``mms_exact`` inside them is counted
separately).  Self time is a span's duration minus its child spans'.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from math import lcm

# (layer, defining module, functions).  The functions are the public names
# the layers call one another through.
LAYERS = (
    ("model", "ordfair.model", (
        "detect_structure", "top_k_set", "pad_goods",
        "pad_agents_to_multiple_of_three", "strip_dummies",
    )),
    ("shares", "ordfair.shares", ("thresholds", "mms_exact")),
    ("allocators.bagfill", "ordfair.allocators.bagfill",
     ("alloc_ordered_efx_3n2", "alloc_ordered_ef1_4n3")),
    ("allocators.lone_divider", "ordfair.allocators.lone_divider",
     ("alloc_topn_lone_divider",)),
    ("allocators.matching", "ordfair.allocators.matching", ("envy_free_matching",)),
    ("allocators.envy_cycle", "ordfair.allocators.envy_cycle",
     ("envy_cycle_elimination",)),
    ("verification", "ordfair.verification", ("report",)),
    ("allocators.pipeline", "ordfair.allocators.pipeline", ("solve_complete",)),
)
LAYER_NAMES = tuple(layer for layer, _, _ in LAYERS)
ROOT = "solve_complete"

# Layers every solve enters, and those only some algorithms enter.
COMMON_LAYERS = (
    "model", "shares", "allocators.envy_cycle", "verification", "allocators.pipeline",
)
ALGORITHM_LAYERS = {
    "a1": ("allocators.bagfill",),
    "a2": ("allocators.lone_divider", "allocators.matching"),
    "a3": ("allocators.bagfill",),
}

# Spans of these functions keep their arguments and result for the counters.
_KEEP = frozenset({
    "mms_exact", "pad_goods", "alloc_ordered_efx_3n2", "alloc_ordered_ef1_4n3",
    "alloc_topn_lone_divider", "envy_cycle_elimination", ROOT,
})

# Span fields.
NAME, START, END, PARENT, SOLVE, ARGS, RESULT = range(7)


class CoverageError(RuntimeError):
    """A traced name is gone, or an expected layer recorded no calls."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.solve_id = -1
        self._stack: list[int] = []
        # (module, attribute, original function, wrapper)
        self._sites: list[tuple] = []

    def _wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = name in _KEEP

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.solve_id,
                    args if keep else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if keep:
                span[RESULT] = out
            return out

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever an ordfair module binds it."""
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "ordfair" or key.startswith("ordfair.")
        ]
        for _, module_name, names in LAYERS:
            home = sys.modules.get(module_name)
            if home is None:
                raise CoverageError(f"module {module_name} is not loaded")
            for name in names:
                original = getattr(home, name, None)
                if not callable(original):
                    raise CoverageError(f"{module_name}.{name} no longer exists")
                wrapper = self._wrapper(name, original)
                for mod in modules:
                    for attr, value in vars(mod).items():
                        if value is original:
                            self._sites.append((mod, attr, original, wrapper))

    @contextmanager
    def active(self, solve_id: int):
        """Record spans of one solve while the block runs."""
        self.solve_id = solve_id
        for mod, attr, _, wrapper in self._sites:
            setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, original, _ in self._sites:
                setattr(mod, attr, original)

    def summary(self) -> dict[str, tuple[float, str]]:
        """Per-layer calls, self_s and share plus the counters, as
        {metric: (value, unit)}."""
        spans = self.spans
        layer_of = {name: layer for layer, _, names in LAYERS for name in names}
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        calls = dict.fromkeys(LAYER_NAMES, 0)
        self_s = dict.fromkeys(LAYER_NAMES, 0.0)
        for idx, span in enumerate(spans):
            layer = layer_of[span[NAME]]
            own = span[END] - span[START] - child_time[idx]
            if own < -1e-6:
                raise CoverageError(f"{span[NAME]} span is shorter than its children")
            self_s[layer] += own
            parent = span[PARENT]
            if parent < 0 or layer_of[spans[parent][NAME]] != layer:
                calls[layer] += 1
        solve_s = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
        if solve_s <= 0:
            raise CoverageError("no solve spans were recorded")
        out = {}
        for layer in LAYER_NAMES:
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.self_s"] = (self_s[layer], "s")
            out[f"{layer}.share"] = (self_s[layer] / solve_s, "frac")
        out.update(_counters(spans))
        return out


def _events(trace, kind: str) -> int:
    return sum(1 for ev in trace.events if ev.kind == kind)


def _share_key(inst, agent: int, d: int) -> tuple:
    row = inst.values[agent]
    denom = lcm(*(v.denominator for v in row))
    return tuple(sorted(int(v * denom) for v in row)), d


def _counters(spans) -> dict[str, tuple[float, str]]:
    mms_calls = 0
    mms_max = 0.0
    keys = set()
    zero_goods = goods = added = 0
    fills = swaps = shrinks = rotations = gifts = events = 0
    for span in spans:
        name, args, out = span[NAME], span[ARGS], span[RESULT]
        if out is None and name not in ("mms_exact", "pad_goods"):
            continue  # the call raised, so there is no result to count
        if name == "mms_exact":
            inst, agent, d = args[:3]
            mms_calls += 1
            mms_max = max(mms_max, span[END] - span[START])
            keys.add(_share_key(inst, agent, d))
            zero_goods += sum(1 for v in inst.values[agent] if not v)
            goods += inst.m
        elif name == "pad_goods":
            inst, target = args[:2]
            added += target - inst.m
        elif name in ("alloc_ordered_efx_3n2", "alloc_ordered_ef1_4n3"):
            fills += _events(out[1], "fill")
            swaps += _events(out[1], "swap")
        elif name == "alloc_topn_lone_divider":
            shrinks += _events(out[1], "shrink")
        elif name == "envy_cycle_elimination":
            rotations += _events(out[1], "cycle_rotation")
            gifts += _events(out[1], "source_gift")
        elif name == ROOT:
            events += len(out.trace.events)
    return {
        "shares.mms_exact.calls": (mms_calls, "count"),
        "shares.mms_exact.max_ms": (mms_max * 1000, "ms"),
        "shares.mms_exact.distinct_frac": (len(keys) / mms_calls if mms_calls else 0.0, "frac"),
        "shares.zero_goods_frac": (zero_goods / goods if goods else 0.0, "frac"),
        "model.pad_goods.added_goods": (added, "count"),
        "allocators.bagfill.fills": (fills, "count"),
        "allocators.bagfill.swaps": (swaps, "count"),
        "allocators.lone_divider.shrinks": (shrinks, "count"),
        "allocators.envy_cycle.rotations": (rotations, "count"),
        "allocators.envy_cycle.gifts": (gifts, "count"),
        "allocators.trace.events": (events, "count"),
    }


def expected_layers(algorithms) -> tuple[str, ...]:
    layers = set(COMMON_LAYERS)
    for algo in algorithms:
        layers.update(ALGORITHM_LAYERS[algo])
    return tuple(layer for layer in LAYER_NAMES if layer in layers)
