"""Multi-cluster SoC simulation layer.

Composes C :class:`~repro.cluster.machine.ClusterMachine` clusters into
an SoC sharing one L2 behind a bandwidth-limited interconnect:

* :class:`SocInterconnect` — cycle-by-cycle beat arbitration between
  the per-cluster DMA channels and the shared L2 link (round-robin
  fairness cap, per-link stats sharing the TCDM arbiter's
  :class:`~repro.mem.StreamStats` shape).
* :class:`L2Memory` — the shared staging store: bump allocator,
  capacity enforcement, read/write traffic accounting.
* :class:`SocDmaChannel` — the SoC configuration of the unified
  :class:`~repro.mem.TransferEngine`: beats granted by the
  interconnect instead of landing one per cycle, L2 endpoints tallied
  on the shared store.
* :class:`SocMachine` — event-driven C-cluster driver stepping the
  laggard cluster first from a heap keyed ``(laggard_time,
  cluster_id)``, exactly as a cluster steps its cores from one keyed
  ``(int_time, core_id)``.
* :func:`partition_soc_kernel` — static chunking of the six registered
  kernels across clusters, then cores (globally unique seeds,
  L2-sourced DMA staging).

A 1-cluster SoC with the default (uncontended) interconnect is
cycle-identical to the equivalent bare ``ClusterMachine``.
"""

from .config import SocConfig
from .interconnect import SocInterconnect
from .l2 import L2Memory
from .machine import SocDmaChannel, SocMachine, SocRunResult
from .partition import SocWorkload, partition_soc_kernel, soc_config_for

__all__ = [
    "L2Memory",
    "SocConfig",
    "SocDmaChannel",
    "SocInterconnect",
    "SocMachine",
    "SocRunResult",
    "SocWorkload",
    "partition_soc_kernel",
    "soc_config_for",
]
