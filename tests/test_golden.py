"""Golden-value regression tests: exact cycles/counters/energy.

The micro-op execution core promises *bit-identical* measurements to
the original interpreter: every cycle count, activity counter and
energy figure for all six kernels — baseline and COPIFT, on a bare
``Machine``, on 1/2/4/8-core clusters and on 1x4/2x4/4x4 SoCs — is
locked to values recorded in ``tests/golden/golden_n512.json``.  Any
timing drift (accidental or from a future refactor) fails these tests
with the exact field that moved.

Regenerate after an *intentional* model change with::

    PYTHONPATH=src python tests/test_golden.py --regen
"""

from __future__ import annotations

import json
import os
import sys

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_PATH = os.path.join(GOLDEN_DIR, "golden_n512.json")

#: Problem size: large enough to exercise steady state, multiple of
#: 8 cores x the minimum COPIFT chunk.
N = 512
CORES = (1, 2, 4, 8)
SOC_SHAPES = ((1, 4), (2, 4), (4, 4))
#: Smaller sweeps for the write-back-mode sections (the default-mode
#: sections above must stay byte-identical to their pre-write-back
#: values; these lock the new simulated-drain timing separately).
WB_CORES = (2, 4)
WB_SOC_SHAPES = ((1, 4), (2, 4))


def collect() -> dict:
    """Measure everything the golden file locks in."""
    from repro.energy import EnergyModel
    from repro.eval import clusterscale, socscale
    from repro.eval.clusterscale import clusterscale_payload
    from repro.eval.socscale import socscale_payload
    from repro.kernels.common import MAIN_REGION
    from repro.kernels.registry import KERNELS

    machine_rows = {}
    model = EnergyModel()
    for name, kernel_def in KERNELS.items():
        for variant in ("baseline", "copift"):
            if variant == "baseline":
                instance = kernel_def.build_baseline(N)
            else:
                instance = kernel_def.build_copift(
                    N, block=kernel_def.default_block)
            result, _ = instance.run(check=True)
            region = result.region(MAIN_REGION)
            power = model.report(
                region.counters, region.cycles,
                dma_active=instance.dma_active,
                dma_bytes=instance.dma_bytes,
            )
            machine_rows[f"{name}/{variant}"] = {
                "cycles": result.cycles,
                "region_cycles": region.cycles,
                "ipc": region.ipc,
                "counters": dict(vars(result.counters)),
                "region_counters": dict(vars(region.counters)),
                "power_mw": power.power_mw,
                "energy_pj": power.total_energy_pj,
            }

    cluster = clusterscale_payload(
        clusterscale.generate(n=N, cores=CORES))
    soc = socscale_payload(socscale.generate(n=N, shapes=SOC_SHAPES))
    cluster_wb = clusterscale_payload(
        clusterscale.generate(n=N, cores=WB_CORES, writeback=True))
    soc_wb = socscale_payload(
        socscale.generate(n=N, shapes=WB_SOC_SHAPES, writeback=True))
    return {"n": N, "cores": list(CORES),
            "machine": machine_rows, "clusterscale": cluster,
            "socscale": soc, "clusterscale_writeback": cluster_wb,
            "socscale_writeback": soc_wb}


@pytest.fixture(scope="module")
def golden() -> dict:
    if not os.path.exists(GOLDEN_PATH):
        pytest.fail(f"missing golden file {GOLDEN_PATH}; regenerate "
                    f"with: python tests/test_golden.py --regen")
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def current() -> dict:
    # Round-trip through JSON so numeric types compare like-for-like
    # (tuples become lists, ints stay ints, floats stay bit-exact).
    return json.loads(json.dumps(collect()))


class TestGoldenMachine:
    """Single-core Machine runs: cycles, counters, energy."""

    def test_same_kernel_set(self, golden, current):
        assert sorted(current["machine"]) == sorted(golden["machine"])

    @pytest.mark.parametrize("field", [
        "cycles", "region_cycles", "ipc", "power_mw", "energy_pj",
    ])
    def test_scalars_bit_identical(self, golden, current, field):
        for key, row in golden["machine"].items():
            assert current["machine"][key][field] == row[field], key

    def test_counters_bit_identical(self, golden, current):
        for key, row in golden["machine"].items():
            got = current["machine"][key]
            assert got["counters"] == row["counters"], key
            assert got["region_counters"] == row["region_counters"], key


class TestGoldenCluster:
    """1/2/4/8-core cluster sweeps: full clusterscale payload."""

    def test_payload_bit_identical(self, golden, current):
        assert current["clusterscale"] == golden["clusterscale"]


class TestGoldenWriteback:
    """Write-back-mode sweeps: simulated output drain locked bit-exact.

    The *default-mode* sections above are the pre-write-back goldens —
    their passing is what proves ``writeback=off`` stayed
    cycle-identical through the unified-traffic-engine refactor.
    These sections lock the new drain timing and assert the drained
    bytes actually show up in the traffic stats.
    """

    def test_cluster_payload_bit_identical(self, golden, current):
        assert current["clusterscale_writeback"] \
            == golden["clusterscale_writeback"]

    def test_soc_payload_bit_identical(self, golden, current):
        assert current["socscale_writeback"] \
            == golden["socscale_writeback"]

    def test_drained_bytes_appear(self, golden):
        """Vector kernels drain one FP64 per element; the engine's
        per-direction split must account every staged and drained
        byte."""
        for row in golden["clusterscale_writeback"]["rows"]:
            for p in row["points"]:
                if row["kernel"] in ("expf", "logf"):
                    assert p["dma_bytes_written"] \
                        == golden["clusterscale_writeback"]["n"] * 8, \
                        row["kernel"]
                else:
                    assert p["dma_bytes_written"] == 0, row["kernel"]
                assert p["dma_bytes"] \
                    == p["dma_bytes_read"] + p["dma_bytes_written"]

    def test_drain_traffic_reaches_l2(self, golden):
        """In the SoC, drained bytes are L2 writes."""
        for row in golden["socscale_writeback"]["rows"]:
            for p in row["points"]:
                assert p["l2_bytes"] \
                    == p["dma_bytes_read"] + p["dma_bytes_written"], \
                    row["kernel"]


class TestGoldenSoc:
    """1x4/2x4/4x4 SoC sweeps: full socscale payload."""

    def test_payload_bit_identical(self, golden, current):
        assert current["socscale"] == golden["socscale"]

    def test_soc_1x4_matches_4core_cluster(self, golden):
        """The golden values themselves must encode the layering
        invariant: a 1-cluster SoC's cycles equal the standalone
        4-core cluster's."""
        cluster_rows = {(r["kernel"], r["variant"]): r
                        for r in golden["clusterscale"]["rows"]}
        for row in golden["socscale"]["rows"]:
            soc_point = row["points"][0]
            assert [soc_point["clusters"], soc_point["cores"]] == [1, 4]
            cluster_points = {
                p["cores"]: p
                for p in cluster_rows[(row["kernel"],
                                       row["variant"])]["points"]}
            assert soc_point["cycles"] \
                == cluster_points[4]["cycles"], row["kernel"]


def _regen() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    data = collect()
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
        sys.exit(2)
