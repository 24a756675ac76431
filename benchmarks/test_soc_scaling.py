"""SoC-scaling regression benchmarks.

Asserts the headline property of the SoC layer: aggregate throughput
keeps growing past a single cluster even for the DMA-bound vector
kernels.  At 4x4 the four clusters demand twice the shared L2 link's
bandwidth, so those kernels *must* still clear >=2x over 1x4 (the link
serves two clusters' worth of beats per cycle) while the compute-bound
Monte Carlo kernels approach the ideal 4x.

Like ``test_sim_throughput.py`` the measured cells are written into
``BENCH_sim.json`` at the repo root (merged under a ``soc_scaling``
key, preserving the throughput section), so every PR leaves a scaling
trajectory next to the simulator-speed one.
"""

from __future__ import annotations

import json

import pytest

from _bench import BENCH_PATH, merge_sections
from repro.kernels.common import MAIN_REGION
from repro.kernels.registry import kernel
from repro.soc import partition_soc_kernel

#: Problem size for the scaling measurements (total, split over all
#: cores of the SoC).
SCALE_N = 4096

#: DMA-bandwidth-bound kernels (inputs staged from L2 through the
#: shared link) and compute-bound ones.
VECTOR_KERNELS = ("expf", "logf")
MC_KERNELS = ("pi_lcg", "poly_xoshiro128p")



def _cycles(name: str, variant: str, clusters: int, cores: int) -> int:
    workload = partition_soc_kernel(kernel(name), SCALE_N, clusters,
                                    cores, variant=variant)
    return workload.run(check=False).region(MAIN_REGION).cycles


def _speedup(name: str, variant: str) -> float:
    """Aggregate-throughput ratio of 4x4 over 1x4 (same total n, so
    the cycle ratio IS the throughput ratio)."""
    return _cycles(name, variant, 1, 4) / _cycles(name, variant, 4, 4)


@pytest.fixture(scope="module")
def bench() -> dict:
    cells = {}
    for name in (*VECTOR_KERNELS, *MC_KERNELS):
        for variant in ("baseline", "copift"):
            one = _cycles(name, variant, 1, 4)
            four = _cycles(name, variant, 4, 4)
            cells[f"{name}/{variant}"] = {
                "cycles_1x4": one,
                "cycles_4x4": four,
                "speedup_4x4": round(one / four, 3),
            }
    payload = {"n": SCALE_N, "cells": cells}
    merge_sections({"soc_scaling": payload})
    return payload


@pytest.mark.parametrize("name", VECTOR_KERNELS)
@pytest.mark.parametrize("variant", ("baseline", "copift"))
def test_bandwidth_bound_4x4_speedup(bench, name, variant):
    """DMA-bound vector kernels: >=2x aggregate throughput at 4x4
    (the shared link serves 2 clusters' worth of beats/cycle)."""
    speedup = bench["cells"][f"{name}/{variant}"]["speedup_4x4"]
    assert speedup >= 2.0, (name, variant, speedup)


@pytest.mark.parametrize("name", MC_KERNELS)
def test_compute_bound_4x4_speedup(bench, name):
    """Compute-bound kernels barely notice the link: >=3x at 4x4."""
    for variant in ("baseline", "copift"):
        speedup = bench["cells"][f"{name}/{variant}"]["speedup_4x4"]
        assert speedup >= 3.0, (name, variant, speedup)


def test_scaling_is_monotone_in_clusters():
    results = {
        clusters: _cycles("expf", "copift", clusters, 4)
        for clusters in (1, 2, 4)
    }
    assert results[1] > results[2] > results[4]


def test_cells_written_to_bench_file(bench):
    with open(BENCH_PATH) as handle:
        on_disk = json.load(handle)
    assert on_disk["soc_scaling"]["cells"] == bench["cells"]
    # The simulator-throughput section survives the merge.
    assert "total" in on_disk or "kernels" in on_disk


# ---------------------------------------------------------------------------
# staged-vs-drain overlap (simulated output write-back)
# ---------------------------------------------------------------------------

def _drain_cells(clusters: int = 2, cores: int = 4) -> dict:
    """Write-back cost of the DMA-bound kernels on one SoC shape.

    ``overlap`` is the fraction of the drain's serial beat time hidden
    behind other work: 1.0 means write-back was free (fully overlapped
    with peers' compute / staging), 0.0 means every drain beat
    extended the makespan.
    """
    cells = {}
    for name in VECTOR_KERNELS:
        for variant in ("baseline", "copift"):
            off = partition_soc_kernel(
                kernel(name), SCALE_N, clusters, cores,
                variant=variant).run(check=False)
            on = partition_soc_kernel(
                kernel(name), SCALE_N, clusters, cores,
                variant=variant, writeback=True).run(check=False)
            drain_beats = on.dma_bytes_written // 8
            added = on.cycles - off.cycles
            cells[f"{name}/{variant}"] = {
                "cycles_off": off.cycles,
                "cycles_writeback": on.cycles,
                "drained_bytes": on.dma_bytes_written,
                "added_cycles": added,
                "overlap": round(1.0 - added / drain_beats, 3),
            }
    return cells


@pytest.fixture(scope="module")
def drain_bench() -> dict:
    payload = {"n": SCALE_N, "shape": "2x4",
               "cells": _drain_cells(2, 4)}
    merge_sections({"writeback_drain": payload})
    return payload


@pytest.mark.parametrize("name", VECTOR_KERNELS)
def test_drain_bytes_fully_simulated(drain_bench, name):
    """Every output byte of the DMA-bound kernels moves through the
    engine in write-back mode (one FP64 per element)."""
    for variant in ("baseline", "copift"):
        cell = drain_bench["cells"][f"{name}/{variant}"]
        assert cell["drained_bytes"] == SCALE_N * 8, (name, variant)


@pytest.mark.parametrize("name", VECTOR_KERNELS)
def test_drain_partially_overlaps(drain_bench, name):
    """Chunked drains pipeline through the engine and overlap peers'
    work: the makespan grows by less than the drain's serial beat
    time (overlap > 0), but not for free (some cycles added)."""
    for variant in ("baseline", "copift"):
        cell = drain_bench["cells"][f"{name}/{variant}"]
        assert cell["added_cycles"] > 0, (name, variant)
        assert cell["overlap"] > 0.0, (name, variant, cell)


def test_drain_section_written_to_bench_file(drain_bench):
    with open(BENCH_PATH) as handle:
        on_disk = json.load(handle)
    assert on_disk["writeback_drain"]["cells"] == drain_bench["cells"]
    # The other sections survive the merge.
    assert "soc_scaling" in on_disk
