#!/usr/bin/env python3
"""The ordfair benchmark: one command per workload and mode.

    python3 bench/run.py --workload solve-ordered --seed 1 --seconds 20 --trace 0

Workloads: solve-ordered, solve-topn, solve-light (BENCHMARK.json says why
each was chosen, workloads.py what each solves).  Each run is one fresh
process with no threads; solves run one after another on the instances
built from ``--seed``.

``--trace 0`` is the timed run.  It solves a fixed number of items, sized
so that the seed commit takes about ``--seconds``, untraced, and checks
every output: the result
must be certified, the independent verifiers must pass on the returned
allocation (completeness, EFX for a1 or EF1 for a2/a3, ordinal MMS at the
paper's divisor) and the thresholds must match the reference values
recorded at the seed commit.  A solve that raises, fails a check or passes
the per-solve cap counts as failed.  It reports the end-to-end metrics:

    setup_s       median over fresh interpreters of start, ``import ordfair``
                  and building the first instance, up to the first solve
    solves_per_s  solves that passed every check, per second of solve time
    solve_p50_ms  median wall time of one solve
    solve_tail_ms the highest percentile with at least ten solves beyond it
                  (the run prints which percentile that is)
    ok_frac       solves that passed every check / solves attempted
    peak_rss_mb   the run's ru_maxrss

Times are wall times restated at a nominal speed of the core (see
``speed.py``), because the host's speed drifts by half; the raw wall times
are printed on a comment line before the result.

``--trace 1`` is the traced run.  It solves half as many items twice each,
untraced and with spans around the calls between layers (see ``spans.py``),
and reports per-layer calls, self time and share of solve time, the
counters, each cell's median raw solve time from the untraced solves, and
the tracing overhead.  It exits non-zero if a traced name is missing, if
a layer the workload needs records no calls, or if the layers' self times do
not add up to the solve time within the measured overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

# The slowest item any workload solves takes about 7 s at the seed commit
# (11 s while the host runs slow).
SOLVE_CAP_S = 60.0
# Every solve ends by this many seconds after start, so a run ends in 180 s.
RUN_BUDGET_S = 165.0
SETUP_PROBES = 9
TAIL_BEYOND = 10

# A set-up probe: a fresh interpreter that imports ordfair and builds the
# first instance.  It prints when it got there, less the time it spent
# sampling its core's speed before and after, and that speed.
PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import speed\n"
    "meter = speed.Speedometer()\n"
    "meter.sample()\n"
    "import workloads\n"
    "workloads.build_item(sys.argv[3], int(sys.argv[4]), 0)\n"
    "ready = time.monotonic() - meter.busy\n"
    "meter.sample()\n"
    "print(ready, meter.stated(1.0))\n"
)

STARTED = time.monotonic()


class SolveTimeout(Exception):
    pass


class Outcome(NamedTuple):
    # Wall time restated at the reference's nominal speed (see speed.py);
    # equal to raw_seconds in the traced run, which does not restate.
    seconds: float
    raw_seconds: float
    error: str | None = None
    # A timed-out solve failed without giving a wrong output.
    timed_out: bool = False


def _alarm(signum, frame):
    raise SolveTimeout


def _thresholds_digest(thresholds) -> str:
    text = " ".join(str(t) for t in thresholds)
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def check(item, result, reference) -> str | None:
    """Why the solve's output is wrong, or None when every check passes."""
    from ordfair import is_ef1, is_efx, is_ordinal_mms
    from ordfair.errors import OrdfairError
    from ordfair.model import check_allocation

    inst, alloc, cell = item.instance, result.allocation, item.cell
    if not result.certified:
        return "not certified"
    if result.divisor != cell.divisor:
        return f"divisor {result.divisor}, expected {cell.divisor}"
    try:
        check_allocation(inst, alloc)
    except OrdfairError as exc:
        return f"invalid allocation: {exc}"
    if not alloc.is_complete(inst.m):
        return "allocation is not complete"
    fair = is_efx if cell.algorithm == "a1" else is_ef1
    ok, witness = fair(inst, alloc)
    if not ok:
        return f"{fair.__name__} fails, witness {witness}"
    ok, witness = is_ordinal_mms(inst, alloc, result.divisor, result.thresholds)
    if not ok:
        return f"ordinal MMS fails, witness {witness}"
    if item.index < len(reference):
        if _thresholds_digest(result.thresholds) != reference[item.index]:
            return f"thresholds {result.thresholds} differ from the reference"
    return None


def attempt(item, cap: float):
    """One solve under the per-solve cap: (result, error, timed out)."""
    import ordfair

    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        return ordfair.solve_complete(item.instance, item.cell.algorithm), None, False
    except SolveTimeout:
        return None, f"passed the {cap:.0f} s per-solve cap", True
    except Exception:
        return None, traceback.format_exc(), False
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def solve_one(item, reference, meter=None) -> Outcome:
    """Solve one item and check its output; restate its time with `meter`."""
    cap = min(SOLVE_CAP_S, RUN_BUDGET_S - (time.monotonic() - STARTED))
    if cap <= 0:
        return Outcome(0.0, 0.0, "run budget exhausted before the solve", True)
    # Each solve starts without the previous solves' garbage, so its time and
    # memory peak do not depend on when the cyclic collector last ran; what
    # survives is frozen, so the traced run's kept spans do not make later
    # collections slower.
    gc.collect()
    gc.freeze()
    if meter is None:
        start = time.perf_counter()
        result, error, timed_out = attempt(item, cap)
        raw = stated = time.perf_counter() - start
    else:
        (result, error, timed_out), raw, stated = meter.measure(attempt, item, cap)
    if error is None:
        error = check(item, result, reference)
    if error is not None:
        print(f"# FAILED item {item.index} ({item.cell.name}): {error}", file=sys.stderr)
    return Outcome(stated, raw, error, timed_out)


def tail(times: list[float]) -> tuple[int, float]:
    """The highest integer percentile with at least TAIL_BEYOND samples
    beyond it (nearest rank), and its value; the maximum if too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100, ordered[-1]
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = max(1, -(-pct * n // 100))
    return pct, ordered[rank - 1]


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median wall time, stated and raw, from spawning a fresh interpreter to
    the point where it has imported ordfair and built the first instance."""
    stated, raw = [], []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), str(BENCH), workload, str(seed)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        ready, factor = map(float, done.stdout.split())
        raw.append(ready - start)
        stated.append(raw[-1] * factor)
    return statistics.median(stated), statistics.median(raw)


def time_metrics(times: list[float], ok: int, suffix: str = "") -> dict:
    pct, tail_s = tail(times)
    return {
        f"solves_per_s{suffix}": (ok / sum(times) if sum(times) > 0 else 0.0, "1/s"),
        f"solve_p50_ms{suffix}": (statistics.median(times) * 1000, "ms"),
        f"solve_tail_ms{suffix}": (tail_s * 1000, "ms"),
    }


def timed_run(workload, seed, seconds, reference):
    import speed
    import workloads

    meter = speed.Speedometer()
    setup_s, setup_raw = setup_seconds(workload, seed)
    outcomes = [
        solve_one(workloads.build_item(workload, seed, index), reference, meter)
        for index in range(workloads.WORKLOADS[workload].item_count(seconds))
    ]
    ok = sum(1 for o in outcomes if o.error is None)
    pct, _ = tail([o.seconds for o in outcomes])
    raw = time_metrics([o.raw_seconds for o in outcomes], ok, "_raw")
    raw["setup_s_raw"] = (setup_raw, "s")
    print(f"# solve_tail_ms is p{pct} over {len(outcomes)} solves")
    print("# raw wall times: " + " ".join(f"{k}={v:.6g}" for k, (v, _) in raw.items()))
    metrics = {"setup_s": (setup_s, "s")}
    metrics.update(time_metrics([o.seconds for o in outcomes], ok))
    metrics["ok_frac"] = (ok / len(outcomes), "frac")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return outcomes, metrics


def traced_run(workload, seed, seconds, reference):
    import spans
    import workloads

    spec = workloads.WORKLOADS[workload]
    items = [workloads.build_item(workload, seed, i) for i in range(spec.item_count(seconds / 2))]
    tracer = spans.Tracer()
    tracer.install()
    plain, traced = [], []
    for pos, item in enumerate(items):
        # Each item is solved untraced and traced, in alternating order, so
        # warm-up and drift fall on both sides of the overhead equally.
        for use_trace in (pos % 2 == 1, pos % 2 == 0):
            if use_trace:
                with tracer.active(pos):
                    traced.append(solve_one(item, reference))
            else:
                plain.append(solve_one(item, reference))

    metrics = tracer.summary()
    plain_s = sum(o.seconds for o in plain)
    traced_s = sum(o.seconds for o in traced)
    overhead = traced_s / plain_s - 1
    missing = [
        layer for layer in spans.expected_layers({c.algorithm for c in spec.cells})
        if metrics[f"{layer}.calls"][0] == 0
    ]
    if missing:
        raise spans.CoverageError(f"{workload}: no calls recorded in {', '.join(missing)}")
    self_total = sum(metrics[f"{layer}.self_s"][0] for layer in spans.LAYER_NAMES)
    if abs(self_total - plain_s) > abs(traced_s - plain_s) + 0.01 * plain_s:
        raise spans.CoverageError(
            f"layer self times sum to {self_total:.4f} s, untraced solves took "
            f"{plain_s:.4f} s and traced ones {traced_s:.4f} s"
        )

    by_cell: dict[str, list[float]] = {}
    for item, outcome in zip(items, plain):
        by_cell.setdefault(item.cell.name, []).append(outcome.seconds)
    # Every workload reports every cell; cells it does not solve read 0.
    for cell in (c.name for w in workloads.WORKLOADS.values() for c in w.cells):
        times = by_cell.get(cell, [])
        metrics[f"cell.{cell}.p50_ms"] = (statistics.median(times) * 1000 if times else 0.0, "ms")
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return plain + traced, metrics


def run_metadata() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.blake2b(digest_size=8)
    for path in sorted((SRC / "ordfair").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ordfair" / "__init__.py").is_file():
        print(f"bench: no ordfair sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ordfair
    import workloads

    if Path(ordfair.__file__).resolve().parent != SRC / "ordfair":
        print(f"bench: imported ordfair from {ordfair.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    reference = json.loads(REFERENCE.read_text())["workloads"][args.workload]

    meta = run_metadata()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# start " + json.dumps(meta))
    signal.signal(signal.SIGALRM, _alarm)
    run = traced_run if args.trace else timed_run
    outcomes, metrics = run(args.workload, args.seed, args.seconds, reference)
    meta["loadavg"] = list(os.getloadavg())
    print("# end " + json.dumps(meta))

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not any(o.error and not o.timed_out for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.error),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
