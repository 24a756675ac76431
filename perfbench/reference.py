"""Regenerate ``reference.json``: the benchmark's correctness baseline.

For every workload, each default-seed cell (and the bare-core cells
``soc-scale`` traces beside its SoC cells) is simulated once with
``check=True``; the file keeps the digest of each record's canonical
JSON, the sim metrics of workloads without seeded cells, and the
hierarchy counts of one traced round.  Regenerate only after a
deliberate timing-model change, and say so in the change.
"""

from __future__ import annotations

import json
import os

from harness import OUT_DIR, REFERENCE, checked_records, measure
from tracing import HIERARCHY_COUNTS, Tracer, layer_metrics
from workloads import WORKLOADS, cell_id, digest, sim_metrics

#: Seed used for the seeded cells while regenerating (their digests
#: are not kept; the traced round needs expected digests for them).
SEED = 1


def update() -> None:
    workloads = {}
    for name, cls in WORKLOADS.items():
        bench = cls(SEED, False, os.path.join(OUT_DIR, f"reference-{name}"))
        cells = bench.cells() + bench.extra_cells()
        records = checked_records(cells)
        digests = {i: digest(r) for i, r in records.items()}
        entry = {"digests": {cell_id(w, s): digests[cell_id(w, s)]
                             for w, s in cells if w.seed is None}}
        if all(w.seed is None for w, _ in bench.cells()):
            entry["sim"] = sim_metrics(
                {cell_id(w, s): records[cell_id(w, s)]
                 for w, s in bench.cells()},
                bench.paper_n, bench.paper_backend)
        try:
            bench.setup()
            tracer = Tracer()
            with tracer:
                phase = measure(bench, digests, rounds=1,
                                tracer=tracer)
        finally:
            bench.close()
        if phase.failed:
            raise RuntimeError(f"{name}: a traced op failed")
        layers = layer_metrics(tracer, phase.attempted, 1)
        entry["layers"] = {k: layers[k] for k in HIERARCHY_COUNTS}
        workloads[name] = entry
        print(f"{name}: {len(entry['digests'])} digests")
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump({"workloads": workloads}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
