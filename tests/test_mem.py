"""Unified memory-traffic engine tests.

Covers the shared :class:`~repro.mem.StreamStats` shape every arbiter
fills, the :class:`~repro.mem.TransferEngine` timing model the cluster
runs bare and the SoC channel configures, its zero-byte / misaligned
edge-case
errors, the write-back bank-claim path, and the shared
:class:`~repro.soc.L2Memory` allocator's exhaustion behaviour.
"""

import numpy as np
import pytest

from repro.cluster import BankedTcdm, ClusterMachine
from repro.mem import (
    DMA_REQUESTOR,
    Direction,
    L2_WINDOW_BASE,
    StreamStats,
    TransferEngine,
)
from repro.sim.memory import MemoryError_
from repro.soc import L2Memory, SocInterconnect
from repro.soc.machine import SocDmaChannel

L2 = L2_WINDOW_BASE


class TestStreamStatsUnification:
    """Banks, links and QoS classes all count in one dataclass."""

    def test_bank_and_link_stats_share_the_shape(self):
        tcdm = BankedTcdm(n_banks=4)
        link = SocInterconnect(n_clusters=2)
        for stats in tcdm.stats + link.stats:
            assert type(stats) is StreamStats
        assert vars(tcdm.stats[0]) == vars(link.stats[0]) \
            == {"grants": 0, "transfers": 0, "stall_cycles": 0}

    def test_arbiters_fill_the_shared_fields(self):
        tcdm = BankedTcdm(n_banks=4, bank_stagger_words=0)
        tcdm.access(0, 0, 4, 0)
        tcdm.access(1, 0, 4, 0)          # same bank, same cycle
        assert tcdm.stats[0].grants == 2
        assert tcdm.stats[0].stall_cycles == 1
        assert tcdm.total_conflict_cycles == 1
        link = SocInterconnect(n_clusters=1)
        link.transfer(0, 4, 0)
        assert link.stats[0].grants == 4
        assert link.stats[0].transfers == 1


class TestTransferEngineTiming:
    """The base engine is the cluster DMA model."""

    def test_bandwidth_latency_completion(self):
        engine = TransferEngine(bandwidth=8, setup_latency=16)
        done = engine.start(0, 0x1000, L2, 64, now=100)
        assert done == 100 + 16 + 8

    def test_program_order_service(self):
        engine = TransferEngine(bandwidth=8, setup_latency=16)
        first = engine.start(0, 0x1000, L2, 64, now=0)
        second = engine.start(1, 0x2000, L2 + 0x1000, 64, now=0)
        assert second == first + 16 + 8
        assert engine.core_drain_time(0) == first
        assert engine.core_drain_time(1) == second
        assert engine.drain_time == second

    def test_cluster_dma_is_a_thin_configuration(self):
        dma = ClusterMachine().dma
        assert type(dma) is TransferEngine
        assert (dma.bandwidth, dma.setup_latency) == (8, 16)
        # No timing logic of its own: the channel uses the engine's.
        assert issubclass(SocDmaChannel, TransferEngine)
        assert "start" not in SocDmaChannel.__dict__

    def test_direction_classification(self):
        engine = TransferEngine()
        engine.start(0, 0x1000, L2, 64, now=0)        # stage in
        engine.start(0, L2 + 0x100, 0x1000, 32, now=0)  # drain out
        assert [t.direction for t in engine.transfers] \
            == [Direction.READ, Direction.WRITE]
        assert engine.bytes_read == 64
        assert engine.bytes_written == 32
        assert engine.bytes_moved == 96
        assert engine.stream_stats[Direction.READ].transfers == 1
        assert engine.stream_stats[Direction.WRITE].transfers == 1
        assert engine.stream_stats[Direction.READ].grants == 8
        assert engine.stream_stats[Direction.WRITE].grants == 4

    def test_soc_channel_uncontended_matches_cluster_engine(self):
        plain = TransferEngine(bandwidth=8, setup_latency=16)
        channel = SocDmaChannel(
            cluster_id=0, interconnect=SocInterconnect(n_clusters=1),
            bandwidth=8, setup_latency=16)
        for core, nbytes in ((0, 64), (1, 128), (0, 8)):
            assert plain.start(core, 0x1000, L2, nbytes, now=0) \
                == channel.start(core, 0x1000, L2, nbytes, now=0)


class TestTransferEngineEdgeCases:
    """Zero-byte and misaligned transfers fail with one-line errors."""

    def test_negative_length_rejected(self):
        with pytest.raises(MemoryError_, match="negative DMA length"):
            TransferEngine().start(0, 0x1000, L2, -8, now=0)

    def test_zero_byte_rejected(self):
        with pytest.raises(MemoryError_,
                           match="zero-length DMA transfer"):
            TransferEngine().start(0, 0x1000, L2, 0, now=0)

    @pytest.mark.parametrize("dst,src,nbytes", [
        (0x1001, L2, 64),       # misaligned destination
        (0x1000, L2 + 2, 64),   # misaligned source
        (0x1000, L2, 63),       # length not a word multiple
    ])
    def test_misaligned_rejected(self, dst, src, nbytes):
        with pytest.raises(MemoryError_,
                           match="misaligned DMA transfer"):
            TransferEngine().start(0, dst, src, nbytes, now=0)

    def test_error_is_one_actionable_line(self):
        with pytest.raises(MemoryError_) as excinfo:
            TransferEngine().start(0, 0x1000, L2, 0, now=0)
        message = str(excinfo.value)
        assert "\n" not in message
        assert "drop the dma.start" in message

    def test_tcdm_capacity_still_enforced(self):
        engine = TransferEngine(tcdm_size=0x1000)
        with pytest.raises(MemoryError_, match="overruns"):
            engine.start(0, 0x0F00, L2, 0x200, now=0)
        engine.start(0, 0x0E00, L2, 0x100, now=0)  # fits


class TestWritebackBankClaims:
    """With a TCDM attached, every beat contends for bank-cycles."""

    def test_beats_claim_banks(self):
        tcdm = BankedTcdm(n_banks=4, bank_stagger_words=0)
        engine = TransferEngine(bandwidth=8, setup_latency=16)
        engine.attach_tcdm(tcdm)
        engine.start(0, 0x0, L2, 64, now=0)
        # 8 beats x 2 words each.
        assert tcdm.total_accesses == 16

    def test_dma_conflicts_with_issuing_core(self):
        """The DMA port is its own requestor: its claims block even
        the owning core's accesses to the same bank-cycles."""
        tcdm = BankedTcdm(n_banks=4, bank_stagger_words=0)
        engine = TransferEngine(bandwidth=8, setup_latency=0)
        engine.attach_tcdm(tcdm)
        done = engine.start(0, 0x0, L2, 8, now=0)
        grant = tcdm.access(0, 0x0, 4, done)   # the beat's bank-cycle
        assert grant == done + 1

    def test_core_traffic_delays_beats(self):
        tcdm = BankedTcdm(n_banks=4, bank_stagger_words=0)
        # A core hammers bank 0 over the beat window.
        for cycle in range(1, 40):
            tcdm.access(3, 0x0, 4, cycle)
        contended = TransferEngine(bandwidth=8, setup_latency=16)
        contended.attach_tcdm(tcdm)
        done = contended.start(0, 0x0, L2, 64, now=0)
        free = TransferEngine(bandwidth=8, setup_latency=16)
        assert done > free.start(0, 0x0, L2, 64, now=0)

    def test_requestor_distinct_from_every_core(self):
        assert DMA_REQUESTOR < 0

    def test_unattached_engine_never_touches_banks(self):
        tcdm = BankedTcdm(n_banks=4, bank_stagger_words=0)
        engine = TransferEngine()
        engine.start(0, 0x0, L2, 64, now=0)
        assert tcdm.total_accesses == 0
        assert not engine.tcdm_attached


class TestPluggableArbiter:
    """Edge cases of the ``TransferEngine.arbiter`` hook."""

    def test_multi_beat_per_cycle_grants_are_legal(self):
        # A wide link lands several beats per cycle, so done <
        # first + nbeats is a legitimate grant the engine must accept.
        link = SocInterconnect(n_clusters=1, link_beats_per_cycle=4,
                               max_beats_per_cluster=4)
        engine = TransferEngine(bandwidth=8, setup_latency=16,
                                arbiter=link.transfer)
        done = engine.start(0, 0x1000, L2, 64, now=0)
        assert done == 16 + 2          # 8 beats, 4 per cycle
        assert engine.stream_stats[Direction.READ].stall_cycles == 0

    def test_zero_beat_style_grant_rejected_one_line(self):
        # The engine never requests zero beats (zero-length transfers
        # are rejected up front), so an arbiter answering with its
        # zero-beat fast path — done == start — for a real transfer is
        # broken and must fail loudly, not corrupt the schedule.
        engine = TransferEngine(bandwidth=8, setup_latency=16,
                                arbiter=lambda sid, nbeats, start: start)
        with pytest.raises(MemoryError_) as excinfo:
            engine.start(0, 0x1000, L2, 64, now=0)
        message = str(excinfo.value)
        assert "\n" not in message
        assert "done must be > 16" in message

    def test_time_travelling_grant_rejected(self):
        engine = TransferEngine(
            bandwidth=8, setup_latency=16,
            arbiter=lambda sid, nbeats, start: start - 5)
        with pytest.raises(MemoryError_, match="arbiter granted"):
            engine.start(0, 0x1000, L2, 64, now=0)

    def test_zero_length_rejected_before_the_arbiter_runs(self):
        calls = []

        def spy(sid, nbeats, start):
            calls.append(nbeats)
            return start + nbeats

        engine = TransferEngine(arbiter=spy)
        with pytest.raises(MemoryError_, match="zero-length"):
            engine.start(0, 0x1000, L2, 0, now=0)
        assert calls == []

    def test_never_granting_arbiter_raises_not_hangs(self):
        # A zero-weight QoS class owns no beat slots; the starvation
        # guard must surface that as a one-line error instead of
        # scanning the claim table forever.
        from repro.traffic import QosArbiter, TrafficError
        arbiter = QosArbiter(weights=(1, 0), max_wait=500)
        arbiter.bind(0, 1)
        engine = TransferEngine(bandwidth=8, setup_latency=16,
                                arbiter=arbiter.transfer)
        with pytest.raises(TrafficError) as excinfo:
            engine.start(0, 0x1000, L2, 64, now=0)
        message = str(excinfo.value)
        assert "\n" not in message
        assert "QoS starvation" in message

    def test_arbiter_stall_feeds_stream_stats(self):
        stretch = 7

        def slow(sid, nbeats, start):
            return start + nbeats + stretch

        engine = TransferEngine(bandwidth=8, setup_latency=16,
                                arbiter=slow)
        done = engine.start(0, 0x1000, L2, 64, now=0)
        assert done == 16 + 8 + stretch
        assert engine.stream_stats[Direction.READ].stall_cycles \
            == stretch

    def test_arbiter_composes_with_attached_tcdm(self):
        # With both hooks active the transfer completes when the later
        # of the two resources is done: the link grant or the last
        # beat's bank-cycle.
        tcdm = BankedTcdm(n_banks=4, bank_stagger_words=0)
        for cycle in range(1, 80):       # hammer bank 0
            tcdm.access(3, 0x0, 4, cycle)
        link = SocInterconnect(n_clusters=1)
        engine = TransferEngine(bandwidth=8, setup_latency=16,
                                arbiter=link.transfer)
        engine.attach_tcdm(tcdm)
        done = engine.start(0, 0x0, L2, 64, now=0)
        link_only = SocInterconnect(n_clusters=1)
        free = TransferEngine(bandwidth=8, setup_latency=16,
                              arbiter=link_only.transfer)
        assert done > free.start(0, 0x0, L2, 64, now=0)
        assert link.stats[0].grants == 8  # the link still granted all


class TestL2MemoryExhaustion:
    """The shared-L2 bump allocator fails loudly when it fills up."""

    def test_alloc_past_capacity_rejected(self):
        l2 = L2Memory(size=256)
        l2.alloc("a", 200)
        with pytest.raises(MemoryError_) as excinfo:
            l2.alloc("b", 100)
        message = str(excinfo.value)
        assert "does not fit" in message and "'b'" in message
        assert "\n" not in message

    def test_exhausted_exactly_at_capacity(self):
        l2 = L2Memory(size=256)
        l2.alloc("a", 256)
        assert l2.used == 256
        with pytest.raises(MemoryError_, match="does not fit"):
            l2.alloc("b", 8)

    def test_alignment_padding_counts_against_capacity(self):
        l2 = L2Memory(size=32)
        l2.alloc("a", 4)          # next alloc aligns up to 8
        addr = l2.alloc("b", 24)
        assert addr == 8
        with pytest.raises(MemoryError_, match="does not fit"):
            l2.alloc("c", 8)

    def test_duplicate_region_rejected(self):
        l2 = L2Memory(size=256)
        l2.alloc("a", 8)
        with pytest.raises(ValueError, match="already allocated"):
            l2.alloc("a", 8)

    def test_stage_respects_capacity(self):
        l2 = L2Memory(size=64)
        with pytest.raises(MemoryError_, match="does not fit"):
            l2.stage("big", np.zeros(32, dtype=np.float64))
