"""The benchmark's workloads: cell sets, set-up and timed ops.

A *cell* is one (Workload, backend) pair the simulator runs; an *op*
is one timed call a user of the library would make.  Each workload
yields its ops in *rounds*: a round holds every op of the workload
once, so metrics over whole rounds keep the same op mix on every run.
Only ``batch-sweep`` (its seed set) and ``cache-replay`` (its read and
write order) take inputs from the benchmark seed; the cluster and SoC
backends reject explicit kernel seeds, so the other cells always use
the kernels' default seeds.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import math
import os
import random
import shutil
from dataclasses import dataclass
from typing import Callable

from repro.api import VARIANTS, Sweep, Workload, parse_backend
from repro.kernels.registry import KERNELS
from repro.serve.store import RunStore, cache_key

#: The paper's published figures (DAC 2025, Table I / Fig. 2) beside
#: which the matching simulated metrics are printed.
PAPER_FIGURES = {
    "copift_speedup_geomean": 1.47,
    "copift_ipc_peak": 1.75,
    "copift_energy_gain_geomean": 1.37,
}


def cell_id(workload: Workload, backend: str) -> str:
    seed = "" if workload.seed is None else f"/seed{workload.seed}"
    return (f"{workload.kernel}/{workload.variant}/n{workload.n}"
            f"/{backend}{seed}")


def digest(record) -> str:
    """SHA-256 of the record's canonical JSON."""
    blob = json.dumps(record.to_json(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def paper_cells(n: int) -> list[Workload]:
    """The Table I grid: six kernels x {baseline, copift}."""
    return [Workload(k, v, n=n) for k in KERNELS for v in VARIANTS]


def sim_metrics(records: dict[str, object], paper_n: int,
                paper_backend: str) -> dict[str, float]:
    """Simulated end-to-end metrics of one workload's cell set.

    IPC is per core, as the paper reports it.
    """
    gains, speedups, ipcs = [], [], []
    for kernel in KERNELS:
        base = records[cell_id(Workload(kernel, "baseline", n=paper_n),
                               paper_backend)]
        cop = records[cell_id(Workload(kernel, "copift", n=paper_n),
                              paper_backend)]
        speedups.append(base.cycles / cop.cycles)
        gains.append(base.energy_pj / cop.energy_pj)
        ipcs.append(cop.ipc / _cores(cop))
    return {
        "sim_cycles": sum(r.cycles for r in records.values()),
        "copift_speedup_geomean": _geomean(speedups),
        "copift_ipc_peak": max(ipcs),
        "copift_energy_gain_geomean": _geomean(gains),
    }


def _cores(record) -> int:
    if record.soc is not None:
        return record.soc.clusters * record.soc.cores_per_cluster
    return record.cluster.cores if record.cluster is not None else 1


def _geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class Op:
    """One timed call; ``run`` returns the records of ``ids``."""

    run: Callable[[], list]
    ids: list[str]
    kind: str = "run"

    @property
    def key(self) -> tuple:
        """What repeats of the same op share."""
        return (self.kind, *self.ids)


class Bench:
    """Base of the four workloads.

    Args:
        seed: Benchmark seed (inputs of ``batch-sweep`` and
            ``cache-replay`` only).
        small: Tiny sizes, for the harness smoke check.
        scratch: Directory the workload may write to.
    """

    name = ""
    paper_backend = "core"

    def __init__(self, seed: int, small: bool, scratch: str) -> None:
        self.seed = seed
        self.small = small
        self.scratch = scratch

    @property
    def paper_n(self) -> int:
        raise NotImplementedError

    def cells(self) -> list[tuple[Workload, str]]:
        """The distinct cells one round covers, in round order."""
        raise NotImplementedError

    def setup(self) -> None:
        """Set-up repeated before timing (warm-up, store fill)."""

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError

    def extra_cells(self) -> list[tuple[Workload, str]]:
        """Cells of :meth:`extra_ops`."""
        return []

    def extra_ops(self) -> list[Op]:
        """Untimed ops the traced run adds (a per-layer baseline)."""
        return []

    def plan(self, rounds: int = 2) -> list:
        """What the seed controls: the op keys of each round, in order."""
        return [[op.key for op in self.round(r)] for r in range(rounds)]

    def cell_records(self) -> dict:
        """Records of the cell set made during set-up, by cell id."""
        return {}

    def check_outputs(self, expected: dict) -> list[str]:
        """Problems with outputs the ops leave beside their records."""
        return []

    def close(self) -> None:
        """Remove what set-up wrote."""


class _CellBench(Bench):
    """One op per cell, through the backend's ``run``."""

    spec = ""
    n_full = 0
    n_small = 0

    @property
    def paper_n(self) -> int:
        return self.n_small if self.small else self.n_full

    def cells(self) -> list[tuple[Workload, str]]:
        return [(w, self.spec) for w in paper_cells(self.paper_n)]

    def setup(self) -> None:
        self.backend = parse_backend(self.spec)
        self.backend.run(Workload("expf", "baseline", n=self.warm_n))

    def round(self, index: int) -> list[Op]:
        return [Op(lambda w=w: [self.backend.run(w)],
                   [cell_id(w, self.spec)])
                for w, _ in self.cells()]


class CorePaper(_CellBench):
    name = "core-paper"
    spec = "core"
    n_full = 2048
    n_small = 256
    warm_n = 256


class SocScale(_CellBench):
    name = "soc-scale"
    spec = "soc:4x4+wb"
    paper_backend = spec
    n_full = 4096
    n_small = 512
    warm_n = 512

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.small:
            self.spec = self.paper_backend = "soc:2x2+wb"

    def extra_cells(self) -> list[tuple[Workload, str]]:
        return [(w, "core") for w, _ in self.cells()]

    def extra_ops(self) -> list[Op]:
        """The same cells on a bare core: the ``soc.overhead_x`` base."""
        core = parse_backend("core")
        return [Op(lambda w=w: [core.run(w)], [cell_id(w, "core")])
                for w, _ in self.extra_cells()]


class BatchSweep(Bench):
    """One ``Sweep(batch="auto")`` pass per op.

    The pass mixes three uses of the batch engine: two 32-seed
    baseline cohorts that vectorize, a 16-seed COPIFT cohort that
    demotes to the scalar engine at FREP, and the twelve paper cells,
    which are cohorts of one.
    """

    name = "batch-sweep"

    @property
    def paper_n(self) -> int:
        return 256 if self.small else 1024

    def _seeds(self) -> list[int]:
        return random.Random(self.seed).sample(range(1, 1 << 20), 80)

    def workloads(self) -> list[Workload]:
        lanes = (4, 4, 2) if self.small else (32, 32, 16)
        seeds = iter(self._seeds())
        n = self.paper_n
        cohorts = (("pi_xoshiro128p", "baseline"),
                   ("poly_lcg", "baseline"),
                   ("pi_xoshiro128p", "copift"))
        out = [Workload(kernel, variant, n=n, seed=next(seeds))
               for (kernel, variant), count in zip(cohorts, lanes)
               for _ in range(count)]
        return out + paper_cells(n)

    def cells(self) -> list[tuple[Workload, str]]:
        return [(w, "core") for w in self.workloads()]

    def setup(self) -> None:
        warm = [Workload("poly_lcg", "baseline", n=64, seed=s)
                for s in (1, 2)]
        Sweep(warm, ("core",), batch="auto").run(cache=False)

    def round(self, index: int) -> list[Op]:
        workloads = self.workloads()
        return [Op(lambda: Sweep(workloads, ("core",),
                                 batch="auto").run(cache=False),
                   [cell_id(w, "core") for w in workloads])]


class CacheReplay(Bench):
    """A cold pass and a warm pass over stored cells, no simulation.

    Set-up fills a store with the paper grid on ``core``,
    ``cluster:4`` and ``soc:2x2+wb`` (one record shape each) and keeps
    the records.  Each round then replays, on a store emptied of its
    entries, the cold-then-warm session of the CI ``serve`` job
    (``fig2`` run twice on one cache dir) and of
    ``examples/serve_client.py`` (one request twice): every cell is
    written once by a cold op and read once by a warm op.  A cold op
    is ``Sweep.run``'s miss path without the simulation: the cache
    key, a lookup that misses and a ``save`` of the already-simulated
    record.  A warm op is a single-cell
    ``Sweep.run(cache=store)`` that hits.  The seed draws how the two
    passes interleave, each cell's write before its read; the mix is
    one read per write for every seed.  A cold lookup that hits or a
    warm one that misses fails the op.
    """

    name = "cache-replay"
    SPECS = ("core", "cluster:4", "soc:2x2+wb")

    @property
    def paper_n(self) -> int:
        return 256 if self.small else 512

    def cells(self) -> list[tuple[Workload, str]]:
        return [(w, spec) for spec in self.SPECS
                for w in paper_cells(self.paper_n)]

    def setup(self) -> None:
        self.close()
        os.makedirs(self.scratch, exist_ok=True)
        filled = RunStore(os.path.join(self.scratch, "filled"))
        self.replay = RunStore(os.path.join(self.scratch, "replay"))
        self.backends = {spec: parse_backend(spec) for spec in self.SPECS}
        self.records = []
        for spec in self.SPECS:
            workloads = paper_cells(self.paper_n)
            self.records += Sweep(workloads, (spec,)).run(cache=filled)
            self._read(filled, workloads[0], spec)   # warm-up: one hit

    def _schedule(self, index: int) -> list[tuple[str, int]]:
        """Round *index*: every cell written once, then read once; the
        interleaving is drawn from the seed."""
        ops = [i for i in range(len(self.cells())) for _ in range(2)]
        random.Random(f"{self.seed}/{index}").shuffle(ops)
        seen: set[int] = set()
        schedule = []
        for i in ops:
            schedule.append(("read" if i in seen else "write", i))
            seen.add(i)
        return schedule

    def cell_records(self) -> dict:
        return {cell_id(w, spec): record
                for (w, spec), record in zip(self.cells(), self.records)}

    def _read(self, store: RunStore, workload: Workload, spec: str) -> list:
        hits = store.stats.hits
        records = Sweep([workload], (spec,)).run(cache=store)
        if store.stats.hits != hits + 1:
            raise RuntimeError(
                f"warm lookup of {cell_id(workload, spec)} missed")
        return records

    def _write(self, store: RunStore, workload: Workload, spec: str,
               index: int) -> list:
        backend = self.backends[spec]
        key = cache_key(workload, backend, fingerprint=store.fingerprint)
        if store.lookup(workload, backend, key=key) is not None:
            raise RuntimeError(
                f"cold lookup of {cell_id(workload, spec)} hit")
        record = self.records[index]
        store.save(workload, backend, record, key=key)
        return [record]

    def round(self, index: int) -> list[Op]:
        """Round *index*'s ops; the entries of the previous round are
        removed first (outside any op).

        One store serves every round: making and removing a store
        directory per round made file creation slower and slower over
        consecutive runs on ext4.
        """
        store = self.replay
        for path in glob.glob(os.path.join(store.generation_dir, "*")):
            os.remove(path)
        cells = self.cells()
        ops = []
        for kind, i in self._schedule(index):
            w, spec = cells[i]
            if kind == "read":
                run = functools.partial(self._read, store, w, spec)
            else:
                run = functools.partial(self._write, store, w, spec, i)
            ops.append(Op(run, [cell_id(w, spec)], kind))
        return ops

    def plan(self, rounds: int = 2) -> list:
        return [[(kind, cell_id(*self.cells()[i]))
                 for kind, i in self._schedule(r)] for r in range(rounds)]

    def check_outputs(self, expected: dict) -> list[str]:
        """After the last round the store must hold every cell, each
        as the saved record."""
        store = RunStore(self.replay.root)
        for w, spec in self.cells():
            record = store.lookup(w, self.backends[spec])
            if record is None or digest(record) != expected[cell_id(w, spec)]:
                return [f"the replay store holds no or another record "
                        f"for {cell_id(w, spec)}"]
        return []

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


WORKLOADS = {cls.name: cls
             for cls in (CorePaper, SocScale, BatchSweep, CacheReplay)}
