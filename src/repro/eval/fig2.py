"""Figure 2 regeneration: IPC, power, speedup and energy improvement.

Produces the three panels of the paper's Figure 2 for all six kernels
(in the paper's x-axis order) together with the expectation lines:
panel (a) compares steady-state IPC against the I′-derived expectation,
panel (b) compares average power, panel (c) speedup against S′ and the
energy improvement.  All measurements flow through one
:class:`~repro.api.Sweep` of every kernel pair on the ``core`` backend.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api import (
    ArtifactRequest,
    ArtifactResult,
    CoreBackend,
    RunRecord,
    Sweep,
    Workload,
    artifact,
)
from ..energy import EnergyModel, PowerReport
from ..kernels.registry import KERNELS
from ..sim import CoreConfig
from . import table1


@dataclass(frozen=True)
class VariantMeasurement:
    """One variant's steady-state numbers (view over a RunRecord)."""

    variant: str
    cycles: int
    int_instructions: int
    fp_instructions: int
    ipc: float
    power: PowerReport

    @property
    def power_mw(self) -> float:
        return self.power.power_mw

    @property
    def energy_pj(self) -> float:
        return self.power.total_energy_pj

    @classmethod
    def from_record(cls, record: RunRecord) -> "VariantMeasurement":
        return cls(
            variant=record.variant,
            cycles=record.cycles,
            int_instructions=record.int_instructions,
            fp_instructions=record.fp_instructions,
            ipc=record.ipc,
            power=record.power,
        )


@dataclass(frozen=True)
class KernelMeasurement:
    """Paired baseline/COPIFT measurement of one kernel."""

    name: str
    n: int
    block: int
    baseline: VariantMeasurement
    copift: VariantMeasurement

    @property
    def speedup(self) -> float:
        return self.baseline.cycles / self.copift.cycles

    @property
    def ipc_gain(self) -> float:
        return self.copift.ipc / self.baseline.ipc

    @property
    def power_increase(self) -> float:
        return self.copift.power_mw / self.baseline.power_mw

    @property
    def energy_improvement(self) -> float:
        return self.baseline.energy_pj / self.copift.energy_pj

    @classmethod
    def from_records(cls, baseline: RunRecord,
                     copift: RunRecord) -> "KernelMeasurement":
        if baseline.kernel != copift.kernel:
            raise ValueError(
                f"mismatched record pair: baseline is "
                f"{baseline.kernel!r}, copift is {copift.kernel!r}"
            )
        if (baseline.variant, copift.variant) != ("baseline",
                                                  "copift"):
            raise ValueError(
                f"record pair passed out of order: got "
                f"({baseline.variant!r}, {copift.variant!r}), "
                f"expected ('baseline', 'copift')"
            )
        return cls(
            name=baseline.kernel, n=baseline.n,
            block=copift.block or 0,
            baseline=VariantMeasurement.from_record(baseline),
            copift=VariantMeasurement.from_record(copift),
        )


def geomean(values: list[float]) -> float:
    if not values:
        raise ValueError("geomean of empty sequence")
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


@dataclass(frozen=True)
class Fig2Row:
    """One kernel's Figure-2 data point (all three panels)."""

    name: str
    measurement: KernelMeasurement
    #: Dashed expectation lines: IPC from I′ (panel a), speedup S′ (c).
    expected_ipc: float
    expected_speedup: float
    #: Paper's values for side-by-side reporting.
    paper_ipc: tuple[float, float]
    paper_power_mw: tuple[float, float]
    paper_speedup: float
    paper_energy_improvement: float


@dataclass(frozen=True)
class Fig2Data:
    rows: list[Fig2Row]

    @property
    def geomean_ipc_gain(self) -> float:
        return geomean([r.measurement.ipc_gain for r in self.rows])

    @property
    def geomean_speedup(self) -> float:
        return geomean([r.measurement.speedup for r in self.rows])

    @property
    def geomean_power_increase(self) -> float:
        return geomean([r.measurement.power_increase for r in self.rows])

    @property
    def geomean_energy_improvement(self) -> float:
        return geomean(
            [r.measurement.energy_improvement for r in self.rows]
        )

    @property
    def peak_ipc(self) -> float:
        return max(r.measurement.copift.ipc for r in self.rows)

    @property
    def peak_speedup(self) -> float:
        return max(r.measurement.speedup for r in self.rows)


def generate(n: int = 4096, config: CoreConfig | None = None,
             energy_model: EnergyModel | None = None,
             check: bool = False,
             batch: int | str | None = None) -> Fig2Data:
    """Measure all kernels and assemble the Figure-2 dataset.

    ``batch`` is forwarded to :class:`Sweep` — lockstep vectorized
    execution of the 12 bare-core cells, byte-identical records.
    """
    backend = CoreBackend(config=config, energy_model=energy_model)
    workloads = [Workload(name, variant, n=n)
                 for name in KERNELS
                 for variant in ("baseline", "copift")]
    records = Sweep(workloads, backends=(backend,),
                    batch=batch).run(check=check)
    pairs = {w.kernel: records[i:i + 2]
             for i, w in enumerate(workloads)
             if w.variant == "baseline"}
    # The Table-I models need mixes at (converged) n <= MAX_MEASURE_N;
    # when the sweep already ran at such an n, derive them from the
    # same records instead of re-simulating all 12 cells.
    model_n = min(n, table1.MAX_MEASURE_N)
    models = {
        kernel_def.name:
            table1.model_from_records(kernel_def,
                                      *pairs[kernel_def.name], n)
            if model_n == n
            else table1.measured_model(kernel_def, n=model_n,
                                       config=config)
        for kernel_def in KERNELS.values()
    }
    rows = []
    for kernel_def in KERNELS.values():
        baseline, copift = pairs[kernel_def.name]
        measurement = KernelMeasurement.from_records(baseline, copift)
        model = models[kernel_def.name]
        # Expected IPC (dashed line in Fig. 2a) = baseline IPC x I'.
        expected_ipc = measurement.baseline.ipc * model.i_prime
        rows.append(Fig2Row(
            name=kernel_def.name,
            measurement=measurement,
            expected_ipc=expected_ipc,
            expected_speedup=model.s_prime,
            paper_ipc=kernel_def.paper_ipc,
            paper_power_mw=kernel_def.paper_power_mw,
            paper_speedup=kernel_def.paper_speedup,
            paper_energy_improvement=kernel_def.paper_energy_improvement,
        ))
    return Fig2Data(rows)


def render(data: Fig2Data) -> str:
    lines = []
    lines.append("Figure 2a: steady-state IPC (measured | paper)")
    header = (f"{'Kernel':<18} {'base':>12} {'COPIFT':>12} "
              f"{'gain':>12} {'expected':>9}")
    lines += [header, "-" * len(header)]
    for r in data.rows:
        m = r.measurement
        lines.append(
            f"{r.name:<18} "
            f"{m.baseline.ipc:.2f}|{r.paper_ipc[0]:.2f}"
            f"{'':>2} "
            f"{m.copift.ipc:.2f}|{r.paper_ipc[1]:.2f}"
            f"{'':>2} "
            f"{m.ipc_gain:.2f}x|{r.paper_ipc[1] / r.paper_ipc[0]:.2f}x "
            f"{r.expected_ipc:>8.2f}"
        )
    lines.append(f"geomean IPC gain: {data.geomean_ipc_gain:.2f}x "
                 f"(paper: 1.62x); peak IPC {data.peak_ipc:.2f} "
                 f"(paper: 1.75)")
    lines.append("")

    lines.append("Figure 2b: power [mW] (measured | paper)")
    header = f"{'Kernel':<18} {'base':>14} {'COPIFT':>14} {'ratio':>14}"
    lines += [header, "-" * len(header)]
    for r in data.rows:
        m = r.measurement
        lines.append(
            f"{r.name:<18} "
            f"{m.baseline.power_mw:5.1f}|{r.paper_power_mw[0]:5.1f}   "
            f"{m.copift.power_mw:5.1f}|{r.paper_power_mw[1]:5.1f}   "
            f"{m.power_increase:.2f}x|"
            f"{r.paper_power_mw[1] / r.paper_power_mw[0]:.2f}x"
        )
    lines.append(
        f"geomean power increase: {data.geomean_power_increase:.2f}x "
        f"(paper: 1.07x)"
    )
    lines.append("")

    lines.append("Figure 2c: speedup / energy improvement "
                 "(measured | paper)")
    header = (f"{'Kernel':<18} {'speedup':>14} {'expected S_':>11} "
              f"{'energy impr.':>14}")
    lines += [header, "-" * len(header)]
    for r in data.rows:
        m = r.measurement
        lines.append(
            f"{r.name:<18} "
            f"{m.speedup:5.2f}|{r.paper_speedup:5.2f}   "
            f"{r.expected_speedup:>10.2f} "
            f"{m.energy_improvement:8.2f}|"
            f"{r.paper_energy_improvement:.2f}"
        )
    lines.append(
        f"geomean speedup: {data.geomean_speedup:.2f}x (paper: 1.47x); "
        f"geomean energy improvement: "
        f"{data.geomean_energy_improvement:.2f}x (paper: 1.37x)"
    )
    return "\n".join(lines)


def fig2_payload(data: Fig2Data) -> dict:
    rows = []
    for r in data.rows:
        m = r.measurement
        rows.append({
            "kernel": r.name,
            "baseline": {"ipc": m.baseline.ipc,
                         "cycles": m.baseline.cycles,
                         "power_mw": m.baseline.power_mw},
            "copift": {"ipc": m.copift.ipc,
                       "cycles": m.copift.cycles,
                       "power_mw": m.copift.power_mw},
            "speedup": m.speedup,
            "ipc_gain": m.ipc_gain,
            "power_increase": m.power_increase,
            "energy_improvement": m.energy_improvement,
            "expected_ipc": r.expected_ipc,
            "expected_speedup": r.expected_speedup,
            "paper": {"ipc": list(r.paper_ipc),
                      "power_mw": list(r.paper_power_mw),
                      "speedup": r.paper_speedup,
                      "energy_improvement": r.paper_energy_improvement},
        })
    return {
        "rows": rows,
        "geomean_speedup": data.geomean_speedup,
        "geomean_ipc_gain": data.geomean_ipc_gain,
        "geomean_power_increase": data.geomean_power_increase,
        "geomean_energy_improvement": data.geomean_energy_improvement,
    }


def observe_fig2(request: ArtifactRequest) -> tuple:
    """Representative cell for ``--trace``/``--profile``: expf/copift
    at the figure's problem size on a bare core."""
    return (Workload("expf", "copift", n=request.effective_n(4096)),
            CoreBackend())


@artifact("fig2", aliases=("fig2a", "fig2b", "fig2c"), order=20,
          batched=True,
          help="Figure 2 IPC / power / speedup / energy, all kernels",
          observe=observe_fig2)
def fig2_artifact(request: ArtifactRequest) -> ArtifactResult:
    data = generate(n=request.effective_n(4096), batch=request.batch)
    return ArtifactResult("fig2", render(data), fig2_payload(data))
