"""The benchmark's traced run (bench/spans.py) wraps each layer by rebinding
the module-level names the layers call one another through.  A call that
bypasses those names, say through a table of function objects built at
import time, records nothing, and the traced run fails with a
CoverageError.  This runs the same check on three small solves."""

from pathlib import Path

import ordfair

from helpers import EX51, I_A, I_B

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_expected_layer_records_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    tracer = spans.Tracer()
    tracer.install()
    for solve_id, (inst, algorithm) in enumerate(((I_A, "a1"), (I_B, "a2"), (EX51, "a3"))):
        with tracer.active(solve_id):
            assert ordfair.solve_complete(inst, algorithm).certified
    summary = tracer.summary()
    for layer in spans.expected_layers(("a1", "a2", "a3")):
        assert summary[f"{layer}.calls"][0] > 0, layer
