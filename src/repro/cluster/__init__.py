"""Multi-core cluster simulation layer.

Composes N :class:`~repro.sim.machine.Machine` cores into a Snitch-style
compute cluster:

* :class:`BankedTcdm` — word-interleaved bank arbitration (conflict
  stalls) layered over the flat functional memory.
* one shared :class:`~repro.mem.TransferEngine` per cluster — the
  L2<->TCDM tile DMA; drives double-buffered input staging and (in
  write-back mode) output drains.
* :class:`ClusterMachine` — event-driven N-core driver with hardware
  barriers (``cluster.barrier``) and cluster atomics (``amoadd.w``).
* :func:`partition_kernel` — static chunking of the six registered
  kernels into per-core workloads (DMA-staged inputs, optional
  write-back drain epilogues).
"""

from .config import ClusterConfig
from .machine import ClusterMachine, ClusterRunResult
from .partition import (
    ClusterWorkload,
    choose_block,
    drain_outputs_via_dma,
    output_region,
    partition_kernel,
    stage_inputs_via_dma,
)
from .tcdm import BankedTcdm

__all__ = [
    "BankedTcdm",
    "ClusterConfig",
    "ClusterMachine",
    "ClusterRunResult",
    "ClusterWorkload",
    "choose_block",
    "drain_outputs_via_dma",
    "output_region",
    "partition_kernel",
    "stage_inputs_via_dma",
]
