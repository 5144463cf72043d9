#!/usr/bin/env python3
"""Record the reference thresholds that the benchmark checks solves against.

    python3 bench/record_reference.py

Solves the base (unrelabelled) instances of each workload's first items,
enough for a 60-second run, and writes one digest of each solve's
thresholds to ``bench/reference.json``.  Exact maximin shares are unique,
so a correct change to the program never changes them: run this only when
the workloads themselves change, at a commit whose thresholds are trusted.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, SRC, _thresholds_digest

COVERED_SECONDS = 60


def main() -> int:
    sys.path.insert(0, str(SRC))
    import ordfair
    import workloads

    out = {}
    for name, spec in workloads.WORKLOADS.items():
        digests = []
        for index in range(spec.item_count(COVERED_SECONDS)):
            cell = spec.cells[index % len(spec.cells)]
            inst = workloads.base_instance(name, cell, index // len(spec.cells))
            result = ordfair.solve_complete(inst, cell.algorithm)
            if not result.certified:
                raise SystemExit(f"{name} item {index} is not certified")
            digests.append(_thresholds_digest(result.thresholds))
        out[name] = digests
        print(f"{name}: {len(digests)} items", flush=True)
    REFERENCE.write_text(json.dumps({"covered_seconds": COVERED_SECONDS, "workloads": out}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
