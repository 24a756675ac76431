"""Unified memory-traffic subsystem.

One transfer model for every level of the hierarchy:

* :class:`TransferEngine` — the bandwidth/latency/beat engine: a
  standalone cluster's DMA as is, and the SoC's
  :class:`~repro.soc.machine.SocDmaChannel` as a thin configuration
  (beat arbitration and endpoint accounting are pluggable hooks).
* :class:`Direction` / :class:`Transfer` — per-stream READ (input
  staging) vs WRITE (output write-back) classification and the queued
  transfer record.
* :class:`StreamStats` — the one grants/transfers/stalls shape every
  arbiter keeps per stream: TCDM banks, SoC links, QoS classes and
  the engine's directions.
"""

from .engine import (
    DMA_REQUESTOR,
    L2_WINDOW_BASE,
    Direction,
    Transfer,
    TransferEngine,
)
from .stats import StreamStats

__all__ = [
    "DMA_REQUESTOR",
    "Direction",
    "L2_WINDOW_BASE",
    "StreamStats",
    "Transfer",
    "TransferEngine",
]
