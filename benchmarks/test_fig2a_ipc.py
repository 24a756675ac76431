"""Figure 2a benchmark: steady-state IPC, baseline vs COPIFT.

Shape assertions against the paper:

* baseline IPCs land within ±0.08 of the paper's bars (they are all
  below 1.0 — single issue);
* every COPIFT variant exceeds 1.0 — sustained dual-issue;
* the geomean IPC gain is in the paper's neighbourhood (1.62x);
* IPC correlates with the I'-derived expectation (the dashed line).
"""

import pytest

from conftest import kernel_row
from repro.api import CoreBackend, Workload
from repro.eval import KernelMeasurement
from repro.kernels.registry import KERNELS

#: Paper Fig. 2a bar values (baseline, COPIFT).
PAPER_IPC = {
    "pi_xoshiro128p": (0.96, 1.24),
    "poly_xoshiro128p": (0.96, 1.36),
    "pi_lcg": (0.86, 1.50),
    "poly_lcg": (0.89, 1.75),
    "logf": (0.92, 1.48),
    "expf": (0.92, 1.63),
}


def test_measure_one_kernel(benchmark):
    """Times one paired measurement (the unit of Fig. 2 work)."""
    def measure():
        backend = CoreBackend()
        return KernelMeasurement.from_records(
            backend.run(Workload("expf", "baseline", n=1024), check=True),
            backend.run(Workload("expf", "copift", n=1024), check=True))

    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert result.copift.ipc > 1.0


@pytest.mark.parametrize("name", list(KERNELS))
def test_baseline_ipc_matches_paper(fig2_data, name):
    row = kernel_row(fig2_data, name)
    paper_base, _ = PAPER_IPC[name]
    assert row.measurement.baseline.ipc == pytest.approx(
        paper_base, abs=0.08)


@pytest.mark.parametrize("name", list(KERNELS))
def test_baseline_is_single_issue(fig2_data, name):
    assert kernel_row(fig2_data, name).measurement.baseline.ipc < 1.0


@pytest.mark.parametrize("name", list(KERNELS))
def test_copift_sustains_dual_issue(fig2_data, name):
    assert kernel_row(fig2_data, name).measurement.copift.ipc > 1.15


@pytest.mark.parametrize("name", list(KERNELS))
def test_copift_ipc_tracks_paper(fig2_data, name):
    row = kernel_row(fig2_data, name)
    _, paper_copift = PAPER_IPC[name]
    assert row.measurement.copift.ipc == pytest.approx(
        paper_copift, abs=0.55)


def test_geomean_ipc_gain(fig2_data):
    """Paper: 1.62x geomean IPC improvement."""
    assert 1.35 <= fig2_data.geomean_ipc_gain <= 1.80


def test_peak_ipc(fig2_data):
    """Paper: peak IPC 1.75; ours must demonstrably dual-issue."""
    assert fig2_data.peak_ipc >= 1.45


def test_ipc_correlates_with_expectation(fig2_data):
    """Measured COPIFT IPC never exceeds the I' expectation by much,
    and reaches a large fraction of it (the paper's dashed lines)."""
    for row in fig2_data.rows:
        measured = row.measurement.copift.ipc
        assert measured <= row.expected_ipc * 1.10, row.name
        assert measured >= row.expected_ipc * 0.60, row.name


def test_xoshiro_gains_smallest(fig2_data):
    """The most imbalanced kernel gains least (Eq. 3's prediction)."""
    gains = {row.name: row.measurement.ipc_gain
             for row in fig2_data.rows}
    assert gains["pi_xoshiro128p"] == min(gains.values())


def test_fig2a_all_shape_checks(benchmark, fig2_data):
    """Aggregate: regenerates and validates every Fig. 2a claim (the
    granular tests above give per-claim failures in non-benchmark
    runs)."""
    def check_all():
        for name in KERNELS:
            test_baseline_ipc_matches_paper(fig2_data, name)
            test_baseline_is_single_issue(fig2_data, name)
            test_copift_sustains_dual_issue(fig2_data, name)
            test_copift_ipc_tracks_paper(fig2_data, name)
        test_geomean_ipc_gain(fig2_data)
        test_peak_ipc(fig2_data)
        test_ipc_correlates_with_expectation(fig2_data)
        test_xoshiro_gains_smallest(fig2_data)
        return fig2_data.geomean_ipc_gain

    gain = benchmark.pedantic(check_all, rounds=1, iterations=1)
    benchmark.extra_info["geomean_ipc_gain"] = gain
