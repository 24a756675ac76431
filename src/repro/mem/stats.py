"""Shared arbitration statistics: one shape for banks, links, streams.

Every arbitrated resource in the hierarchy counts the same three
things: how many grants it issued (bank accesses, link beats), how many
transfer descriptors it served, and how many cycles arbitration added
versus the requester's own uncontended schedule.  The banked TCDM, the
SoC interconnect, the QoS arbiter and the transfer engine all keep
their per-stream tallies in one :class:`StreamStats` dataclass.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class StreamStats:
    """Activity of one arbitrated stream (a bank, a link, a direction).

    Attributes:
        grants: Units granted — bank accesses for the TCDM arbiter,
            data beats for the L2 link and the transfer engine.
        transfers: Transfer descriptors served (banks leave this 0;
            their "descriptor" is the individual access).
        stall_cycles: Cycles arbitration added versus the requester's
            uncontended schedule.
    """

    grants: int = 0
    transfers: int = 0
    stall_cycles: int = 0
