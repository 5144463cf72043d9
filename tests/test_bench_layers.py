"""The benchmark's traced run (bench/spans.py) wraps each layer by rebinding
the module-level names the layers call one another through.  A call that
bypasses those names, say through a table of function objects built at
import time, records nothing, and the traced run fails with a
CoverageError.  This runs the same check on a small solve of each
algorithm, each against its own expected layers: a workload solves one
algorithm only (solve-topn: a2), so a layer that only another algorithm's
solve enters does not cover it."""

from pathlib import Path

import ordfair

from helpers import EX51, I_A, I_B

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_expected_layer_records_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    for solve_id, (inst, algorithm) in enumerate(((I_A, "a1"), (I_B, "a2"), (EX51, "a3"))):
        tracer = spans.Tracer()
        tracer.install()
        with tracer.active(solve_id):
            assert ordfair.solve_complete(inst, algorithm).certified
        summary = tracer.summary()
        for layer in spans.expected_layers((algorithm,)):
            assert summary[f"{layer}.calls"][0] > 0, (algorithm, layer)
