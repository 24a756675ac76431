"""Banked-TCDM timing model: word-interleaved banks with arbitration.

Layered *over* :class:`repro.sim.memory.Memory` — functional state stays
a flat bytearray; this module only decides **when** an access is granted.
The TCDM is split into ``n_banks`` word-interleaved banks (word ``w``
lives in bank ``w % n_banks``); each bank grants one request per cycle.
A request claims every bank its footprint touches (a 64-bit access spans
two adjacent banks) and is delayed until the first cycle all of them are
free, which is the modelled bank-conflict stall.

Arbitration granularity follows the core model's structure:

* a core never conflicts with *itself* — the in-order core issues at
  most one LSU/SSR request per engine per cycle, and its private request
  port is already serialized, so same-core claims share the cycle.  This
  also keeps a 1-core cluster cycle-identical to a bare ``Machine``;
* cross-core claims are first-come-first-served in *simulation* order.
  The cluster driver steps the earliest-in-time core first, so claim
  order tracks cycle order closely (exact for lock-step cores); an
  ``frep`` burst may claim a span of future cycles ahead of its peers,
  which makes the arbitration approximate but deterministic.
"""

from __future__ import annotations

from ..mem import StreamStats


class BankedTcdm:
    """Per-cycle bank arbiter shared by every core of a cluster."""

    def __init__(self, n_banks: int = 32, bank_stagger_words: int = 2,
                 enabled: bool = True) -> None:
        self.n_banks = n_banks
        self.bank_stagger_words = bank_stagger_words
        self.enabled = enabled
        #: Per-bank accesses granted (``grants``) and conflict cycles
        #: (``stall_cycles``).
        self.stats = [StreamStats() for _ in range(n_banks)]
        #: claims[bank][cycle] -> core_id granted that bank-cycle.
        self._claims: list[dict[int, int]] = [
            {} for _ in range(n_banks)
        ]
        self._claim_count = 0
        #: Structured-event sink (repro.obs.ObsSink); None when off.
        self.obs = None
        #: Scope bank events are emitted under (the owning cluster).
        self.obs_scope = "cluster0"

    # ------------------------------------------------------------------
    def bank_of(self, core_id: int, addr: int) -> int:
        """Bank serving byte *addr* as seen by *core_id*.

        The per-core stagger models firmware placing each core's
        *private* chunk at a different bank-aligned offset; it shifts
        the core's whole address space by ``core_id * stagger`` words.
        That is the right model when every core carries its own memory
        image (the partitioned workloads), but it makes one shared
        physical word map to *different* banks per core — so for
        workloads where cores share a memory image (atomics on a
        common counter), configure ``bank_stagger_words=0`` to get a
        physical bank mapping and model contention on shared words.
        """
        word = (addr >> 2) + core_id * self.bank_stagger_words
        return word % self.n_banks

    def _banks_touched(self, core_id: int, addr: int,
                       nbytes: int) -> range:
        first = (addr >> 2) + core_id * self.bank_stagger_words
        last = ((addr + nbytes - 1) >> 2) + \
            core_id * self.bank_stagger_words
        return range(first, last + 1)

    # ------------------------------------------------------------------
    def access(self, core_id: int, addr: int, nbytes: int,
               cycle: int, requestor: int | None = None) -> int:
        """Arbitrate one access; returns the grant cycle (>= *cycle*).

        Claims every touched bank at the grant cycle.  Banks already
        claimed by the same *requestor* at a cycle do not block (the
        requestor's own port is serialized upstream); the requestor
        defaults to *core_id* — the common case of a core's LSU/SSR
        port.  The DMA engine passes its own requestor id
        (:data:`~repro.mem.DMA_REQUESTOR`) while keeping *core_id* for
        the bank mapping, so its beats conflict with every core's
        accesses, including the issuing core's.
        """
        if not self.enabled:
            return cycle
        if requestor is None:
            requestor = core_id
        words = self._banks_touched(core_id, addr, nbytes)
        n = self.n_banks
        claims = self._claims
        grant = cycle
        while True:
            for w in words:
                owner = claims[w % n].get(grant)
                if owner is not None and owner != requestor:
                    grant += 1
                    break
            else:
                break
        delay = grant - cycle
        obs = self.obs
        if obs is not None:
            obs.emit(self.obs_scope, f"bank{words[0] % n}",
                     "conflict" if delay else "grant", grant, 1,
                     "tcdm", {"core": core_id, "stall": delay})
        for w in words:
            bank = w % n
            claims[bank][grant] = requestor
            self._claim_count += 1
            stats = self.stats[bank]
            stats.grants += 1
            stats.stall_cycles += delay
            delay = 0  # attribute the stall to the first touched bank
        if self._claim_count > (1 << 20):
            self._prune(grant)
        return grant

    def _prune(self, now: int, horizon: int = 1 << 16) -> None:
        """Drop claims far in the past to bound memory."""
        floor = now - horizon
        total = 0
        for bank in self._claims:
            stale = [t for t in bank if t < floor]
            for t in stale:
                del bank[t]
            total += len(bank)
        self._claim_count = total

    # ------------------------------------------------------------------
    @property
    def total_accesses(self) -> int:
        return sum(s.grants for s in self.stats)

    @property
    def total_conflict_cycles(self) -> int:
        return sum(s.stall_cycles for s in self.stats)

    def conflict_rate(self) -> float:
        """Conflict cycles per access (0.0 when idle)."""
        accesses = self.total_accesses
        if accesses == 0:
            return 0.0
        return self.total_conflict_cycles / accesses
