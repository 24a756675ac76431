"""SoC-level configuration: clusters, L2 interconnect, L2 capacity.

Defaults model the next level of the Snitch hierarchy: several compute
clusters hanging off one shared L2 behind a bandwidth-limited
interconnect.  The link serves fewer beats per cycle than the clusters
can collectively demand (2 beats/cycle against one beat per cluster per
cycle), so DMA-bound kernels start contending at 3+ clusters — the
regime the ``socscale`` artifact sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster.config import ClusterConfig


@dataclass
class SocConfig:
    """Tunable SoC parameters.

    Attributes:
        n_clusters: Number of compute clusters sharing the L2.
        link_beats_per_cycle: Aggregate L2-link capacity in DMA beats
            (one beat = one cluster-DMA bandwidth quantum, i.e.
            ``ClusterConfig.dma_bandwidth`` bytes) granted per cycle
            across all clusters.
        max_beats_per_cluster: Beats a single cluster may claim in any
            one cycle — the round-robin fairness cap.  The default of 1
            gives every cluster the same uncontended beat rate as the
            standalone cluster's :class:`~repro.mem.TransferEngine`,
            which is what keeps a 1-cluster SoC cycle-identical to a
            bare :class:`~repro.cluster.machine.ClusterMachine`.
        l2_size: Shared L2 capacity in bytes; staged workloads must fit.
        l2_latency: Extra cycles added to every transfer for the L2
            access itself (row activation + interconnect traversal
            beyond the per-cluster DMA setup).  Default 0: the
            single-cluster default SoC stays cycle-identical to the
            bare cluster; raise it to study L2-latency sensitivity.
        model_contention: Ablation switch for the interconnect
            arbiter.  False grants every beat immediately (ideal
            crossbar), isolating the bandwidth-sharing effect.
        cluster: Per-cluster configuration (every cluster is
            identical).
    """

    n_clusters: int = 2
    link_beats_per_cycle: int = 2
    max_beats_per_cluster: int = 1
    l2_size: int = 1 << 22
    l2_latency: int = 0
    model_contention: bool = True
    cluster: ClusterConfig = field(default_factory=ClusterConfig)

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ValueError(
                f"n_clusters must be >= 1, got {self.n_clusters}"
            )
        if self.link_beats_per_cycle < 1:
            raise ValueError(
                f"link_beats_per_cycle must be >= 1, got "
                f"{self.link_beats_per_cycle}"
            )
        if self.max_beats_per_cluster < 1:
            raise ValueError(
                f"max_beats_per_cluster must be >= 1, got "
                f"{self.max_beats_per_cluster}"
            )
        if self.l2_latency < 0:
            raise ValueError(
                f"l2_latency must be >= 0, got {self.l2_latency}"
            )
