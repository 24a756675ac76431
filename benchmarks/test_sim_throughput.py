"""Simulator throughput benchmark: simulated instructions per second.

Measures how fast the execution core retires *dynamic* instructions for
all six Table-I kernels (both variants), and writes ``BENCH_sim.json``
at the repo root so every PR leaves a throughput trajectory.

Methodology: per (kernel, variant) cell the run is repeated
:data:`REPS` times on freshly built instances and the best (minimum)
wall-clock is kept — simulation is deterministic, so the minimum is the
least-noise estimate of the core's real rate.  The committed
``benchmarks/BASELINE_sim.json`` holds the same measurement taken on
the pre-micro-op interpreter (same host, same methodology); the report
includes the speedup against it.  Numbers are host-dependent — the
assertions here only guard sanity, not absolute rates (the CI
benchmarks job is non-blocking either way).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from _bench import BENCH_PATH, merge_sections
from repro.kernels.registry import KERNELS

#: Problem size per cell: large enough to be steady-state dominated.
N = 2048
#: Repetitions per cell (best-of).
REPS = 3

BASELINE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "BASELINE_sim.json")


def _build(kernel_def, variant: str):
    if variant == "baseline":
        return kernel_def.build_baseline(N)
    return kernel_def.build_copift(N, block=kernel_def.default_block)


def measure() -> dict:
    """Best-of-REPS instructions-per-second for every kernel."""
    # Warm the interpreter (CPython 3.11+ specializes bytecode on the
    # first executions) so cell 1 is not measured colder than cell 12.
    next(iter(KERNELS.values())).build_copift(512, block=64) \
        .run(check=False)

    kernels = {}
    total_instr = 0
    total_time = 0.0
    for name, kernel_def in KERNELS.items():
        instrs = 0
        elapsed = 0.0
        for variant in ("baseline", "copift"):
            best = None
            issued = 0
            for _ in range(REPS):
                instance = _build(kernel_def, variant)
                t0 = time.perf_counter()
                result, _ = instance.run(check=False)
                dt = time.perf_counter() - t0
                issued = result.counters.total_issued
                if best is None or dt < best:
                    best = dt
            instrs += issued
            elapsed += best
        kernels[name] = {
            "instructions": instrs,
            "seconds": round(elapsed, 4),
            "instr_per_sec": round(instrs / elapsed, 1),
        }
        total_instr += instrs
        total_time += elapsed
    return {
        "n": N,
        "reps": REPS,
        "kernels": kernels,
        "total": {
            "instructions": total_instr,
            "seconds": round(total_time, 4),
            "instr_per_sec": round(total_instr / total_time, 1),
        },
    }


@pytest.fixture(scope="module")
def bench() -> dict:
    payload = measure()
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH) as handle:
            baseline = json.load(handle)
        payload["baseline"] = baseline
        payload["speedup_vs_baseline"] = round(
            payload["total"]["instr_per_sec"]
            / baseline["total"]["instr_per_sec"], 3)
    # The other benchmark modules own the file's other sections.
    merge_sections(payload)
    return payload


class TestSimThroughput:
    def test_all_kernels_measured(self, bench):
        assert sorted(bench["kernels"]) == sorted(KERNELS)

    def test_rates_positive(self, bench):
        for name, row in bench["kernels"].items():
            assert row["instr_per_sec"] > 0, name
            assert row["instructions"] > 0, name

    def test_bench_file_written(self, bench):
        with open(BENCH_PATH) as handle:
            on_disk = json.load(handle)
        assert on_disk["total"] == bench["total"]

    def test_deterministic_instruction_counts(self, bench):
        """Same cells, same dynamic instruction counts, every time."""
        for name, kernel_def in KERNELS.items():
            result, _ = _build(kernel_def, "copift").run(check=False)
            again, _ = _build(kernel_def, "copift").run(check=False)
            assert result.counters.total_issued \
                == again.counters.total_issued, name


if __name__ == "__main__":
    payload = measure()
    print(json.dumps(payload, indent=1, sort_keys=True))
