"""Multi-core cluster simulation: N Machines over shared resources.

A :class:`ClusterMachine` composes N :class:`~repro.sim.machine.Machine`
cores with the shared-resource timing models of this package:

* every core's loads/stores/SSR streams arbitrate through one
  :class:`~repro.cluster.tcdm.BankedTcdm` (bank-conflict stalls),
* ``dma.start``/``dma.wait`` program one shared
  :class:`~repro.mem.TransferEngine` (the cluster DMA),
* ``cluster.barrier`` parks a core until every active core arrives.

Execution is event-driven: the driver repeatedly steps the core whose
integer issue timeline is furthest behind, so cores advance roughly in
lock-step simulated time and shared-resource claims line up with the
cycles they model.  Functional state is per-core — each core binds its
own program over its own (or an explicitly shared) memory image — which
keeps correctness independent of the stepping interleave; only *timing*
couples the cores.  With a single core and no DMA/barrier instructions
the composition is cycle-identical to a bare ``Machine`` run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.program import Program
from ..mem import TransferEngine
from ..sim.config import CoreConfig
from ..sim.counters import Counters, RegionMeasurement, RunResult
from ..sim.machine import Machine, SimulationError
from ..sim.memory import Memory
from .config import ClusterConfig
from .tcdm import BankedTcdm


def _sum_counters(parts: list[Counters]) -> Counters:
    total = Counters()
    for part in parts:
        for name, value in vars(part).items():
            setattr(total, name, getattr(total, name) + value)
    return total


@dataclass
class ClusterRunResult:
    """Aggregate measurements of one cluster simulation.

    Attributes:
        cycles: Cluster makespan — the slowest core's elapsed cycles.
        core_results: Per-core :class:`RunResult`, in core order.
        counters: Field-wise sum of the per-core counters.
        tcdm_accesses: Banked-TCDM grants over the whole run.
        tcdm_conflict_cycles: Total bank-conflict stall cycles.
        tcdm_bank_conflicts: Per-bank conflict cycles.
        dma_bytes: Bytes moved by the shared DMA engine.
        dma_bytes_read: Bytes staged into the TCDM (READ direction).
        dma_bytes_written: Bytes drained out of the TCDM (WRITE
            direction; non-zero only in write-back simulation mode).
        dma_busy_cycles: Cycles the DMA engine was occupied.
        barrier_count: Barrier episodes completed by the cluster.
    """

    cycles: int
    core_results: list[RunResult]
    counters: Counters
    tcdm_accesses: int = 0
    tcdm_conflict_cycles: int = 0
    tcdm_bank_conflicts: list[int] = field(default_factory=list)
    dma_bytes: int = 0
    dma_bytes_read: int = 0
    dma_bytes_written: int = 0
    dma_busy_cycles: int = 0
    barrier_count: int = 0

    @property
    def n_cores(self) -> int:
        return len(self.core_results)

    def region(self, name: str) -> RegionMeasurement:
        """Cluster-level view of a marked region.

        Cycles are the *makespan* (max over cores — cores enter a
        region together modulo skew); counters are summed.
        """
        parts = [r.regions[name] for r in self.core_results
                 if name in r.regions]
        if not parts:
            raise KeyError(f"no region {name!r} on any core")
        return RegionMeasurement(
            name,
            max(p.cycles for p in parts),
            _sum_counters([p.counters for p in parts]),
        )


class ClusterMachine:
    """N cores, one banked TCDM, one DMA engine, one barrier tree."""

    def __init__(self, config: ClusterConfig | None = None,
                 core_config: CoreConfig | None = None,
                 dma: TransferEngine | None = None) -> None:
        self.config = config or ClusterConfig()
        self.core_config = core_config or CoreConfig()
        self.tcdm = BankedTcdm(
            n_banks=self.config.tcdm_banks,
            bank_stagger_words=self.config.bank_stagger_words,
            enabled=self.config.model_bank_conflicts,
        )
        # An enclosing SoC passes its own per-cluster DMA channel (same
        # engine model, beats arbitrated by the shared interconnect).
        self.dma = dma if dma is not None else TransferEngine(
            bandwidth=self.config.dma_bandwidth,
            setup_latency=self.config.dma_setup_latency,
            tcdm_size=self.config.tcdm_size,
        )
        if self.config.writeback:
            # Write-back simulation: every DMA beat claims its TCDM
            # bank-cycles, so transfer traffic (staging reads and
            # output drains) contends with core accesses.
            self.dma.attach_tcdm(self.tcdm)
        self.cores: list[Machine] = []
        self._programs: list[Program] = []
        self.barrier_count = 0
        #: Index within an enclosing SocMachine (0 standalone).
        self.cluster_id = 0
        self._active: list[Machine] = []
        self._finished: list[Machine] = []
        self._bound = False
        #: Structured-event sink (repro.obs.ObsSink); None when off.
        self.obs = None
        #: Scope this cluster emits under (``soc/cluster{c}`` inside a
        #: SoC, ``cluster0`` standalone).
        self.obs_scope = "cluster0"

    # ------------------------------------------------------------------
    def add_core(self, program: Program, memory: Memory) -> Machine:
        """Register one core running *program* over *memory*.

        Cores may share a ``Memory`` instance (cluster-shared data,
        atomics) or carry private images (partitioned chunks); the
        cluster does not care.  When sharing, set
        ``bank_stagger_words=0`` in the :class:`ClusterConfig` — the
        stagger models private-chunk placement and would otherwise map
        one shared word to different banks per core (see
        :meth:`BankedTcdm.bank_of`).
        """
        if len(self.cores) >= self.config.n_cores:
            raise ValueError(
                f"cluster is configured for {self.config.n_cores} cores"
            )
        machine = Machine(config=self.core_config, memory=memory)
        machine.core_id = len(self.cores)
        machine.tcdm = self.tcdm
        machine.dma = self.dma
        machine.cluster = self
        if self.obs is not None:
            machine.attach_obs(
                self.obs, f"{self.obs_scope}/core{machine.core_id}")
        self.cores.append(machine)
        self._programs.append(program)
        return machine

    # ------------------------------------------------------------------
    def attach_obs(self, sink, scope: str = "cluster0") -> None:
        """Observe the whole cluster: cores, TCDM banks, DMA, barriers.

        Cores added later inherit the sink (an enclosing SoC attaches
        before the workload populates the cluster).  Pass ``None`` to
        detach.
        """
        self.obs = sink
        self.obs_scope = scope
        self.tcdm.obs = sink
        self.tcdm.obs_scope = scope
        self.dma.attach_obs(sink, scope)
        for machine in self.cores:
            machine.attach_obs(sink, f"{scope}/core{machine.core_id}")

    # ------------------------------------------------------------------
    def _release_barrier(self, waiting: list[Machine],
                         finished: list[Machine]) -> None:
        if finished:
            names = [m.core_id for m in waiting]
            raise SimulationError(
                f"barrier mismatch: cores {names} wait at a barrier "
                f"that cores {[m.core_id for m in finished]} exited "
                f"the program without reaching"
            )
        scheds = [m.sched for m in waiting]
        release = max(s.barrier_arrival for s in scheds) \
            + self.config.barrier_latency
        obs = self.obs
        if obs is not None:
            first = min(s.barrier_arrival for s in scheds)
            obs.emit(self.obs_scope, "barrier", "barrier", first,
                     release - first, "barrier",
                     {"cores": len(waiting),
                      "episode": self.barrier_count})
        for s in scheds:
            s.counters.stall_barrier += release - s.barrier_arrival
            s.int_time = release
            s.fp_time = max(s.fp_time, release)
            s.barrier_wait = False
        self.barrier_count += 1

    def bind(self, max_steps: int = 200_000_000) -> None:
        """Prepare every core for stepwise execution (see :meth:`step`)."""
        if not self.cores:
            raise ValueError("cluster has no cores; call add_core first")
        for machine, program in zip(self.cores, self._programs):
            # Cores sharing one Program object share its decode: the
            # DecodedProgram cache rides on the Program itself.
            machine.bind(program, max_steps)
        self._active = [m for m in self.cores]
        self._finished = []
        self._bound = True

    @property
    def finished(self) -> bool:
        return self._bound and not self._active

    @property
    def laggard_time(self) -> int:
        """Issue time of the core furthest behind (the cluster's clock).

        Barrier-parked cores keep their arrival-time clock, so a fully
        parked cluster reports the time its pending release resolves
        around — which is what an enclosing SoC driver should order on.
        """
        if not self._active:
            return max((m.sched.int_time for m in self.cores), default=0)
        return min(m.sched.int_time for m in self._active)

    def step(self) -> bool:
        """Advance the cluster by one dynamic instruction (or one
        barrier release) on the laggard core.

        Returns False once every core has finished.
        """
        active = self._active
        if not active:
            return False
        runnable = [m for m in active if not m.sched.barrier_wait]
        if not runnable:
            self._release_barrier(active, self._finished)
            return True
        # Step the core furthest behind on its issue timeline so
        # shared-resource claims happen in (approximate) cycle
        # order.  Ties break by core id: deterministic.
        machine = min(runnable,
                      key=lambda m: (m.sched.int_time, m.core_id))
        if not machine.sched.step():
            active.remove(machine)
            self._finished.append(machine)
        return bool(active)

    def result(self) -> ClusterRunResult:
        """Aggregate measurements of everything executed so far."""
        results = [m.result() for m in self.cores]
        return ClusterRunResult(
            cycles=max(r.cycles for r in results),
            core_results=results,
            counters=_sum_counters([r.counters for r in results]),
            tcdm_accesses=self.tcdm.total_accesses,
            tcdm_conflict_cycles=self.tcdm.total_conflict_cycles,
            tcdm_bank_conflicts=[s.stall_cycles
                                 for s in self.tcdm.stats],
            dma_bytes=self.dma.bytes_moved,
            dma_bytes_read=self.dma.bytes_read,
            dma_bytes_written=self.dma.bytes_written,
            dma_busy_cycles=self.dma.busy_cycles,
            barrier_count=self.barrier_count,
        )

    def run(self, max_steps: int = 200_000_000) -> ClusterRunResult:
        """Run every core to completion and aggregate measurements."""
        self.bind(max_steps)
        while self.step():
            pass
        return self.result()
