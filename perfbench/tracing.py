"""Layer spans recorded from outside the simulator.

:class:`Tracer` wraps the public entry points of each simulator layer
(module functions and methods, looked up by name) for the duration of
a traced phase and restores them afterwards; nothing under ``src/``
changes.  Every wrapped call becomes one span ``(op, id, parent,
layer, name, start_ns, end_ns)`` kept in memory; spans of one
benchmark op share the op id, and a layer's self time is its span
minus the spans nested directly inside it.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

#: ``(module, attribute path, layer)`` of every wrapped entry point.
#: One function bound under several module names (``partition_kernel``,
#: ``record_from_result``) is listed once per binding the callers use.
ENTRY_POINTS = (
    ("repro.api.sweep", "Sweep.run", "api"),
    ("repro.api.backend", "CoreBackend.run", "api"),
    ("repro.api.backend", "SocBackend.run", "api"),
    ("repro.api.backend", "record_from_result", "api"),
    ("repro.api.batchrun", "record_from_result", "api"),
    ("repro.api.record", "RunRecord.to_json", "api"),
    ("repro.api.backend", "partition_kernel", "cluster"),
    ("repro.soc.partition", "partition_kernel", "cluster"),
    ("repro.api.backend", "partition_soc_kernel", "soc"),
    ("repro.soc.partition", "SocWorkload.run", "soc"),
    ("repro.sim.machine", "Machine.run", "core"),
    ("repro.sim.decode", "DecodedProgram.__init__", "decode"),
    ("repro.sim.batch", "BatchEngine.__init__", "batch"),
    ("repro.sim.batch", "BatchEngine.run", "batch"),
    ("repro.serve.store", "cache_key", "store"),
    ("repro.serve.store", "RunStore.lookup", "store"),
    ("repro.serve.store", "RunStore.save", "store"),
)

#: Simulated hierarchy counts, summed over the SoC runs a traced round
#: performs.  They depend on the timing model only.
HIERARCHY_COUNTS = (
    "cluster.tcdm_conflict_cycles", "cluster.barriers",
    "soc.link_beats", "soc.link_stall_cycles", "soc.l2_bytes",
    "mem.dma_bytes_read", "mem.dma_bytes_written",
    "mem.dma_busy_cycles",
)


def _count_hierarchy(counts: Counter, result) -> None:
    """Add one SocRunResult's counts."""
    counts["cluster.tcdm_conflict_cycles"] += sum(
        c.tcdm_conflict_cycles for c in result.cluster_results)
    counts["cluster.barriers"] += result.barrier_count
    counts["soc.link_beats"] += sum(result.link_beats)
    counts["soc.link_stall_cycles"] += sum(result.link_stall_cycles)
    counts["soc.l2_bytes"] += result.l2_bytes_read + result.l2_bytes_written
    counts["mem.dma_bytes_read"] += result.dma_bytes_read
    counts["mem.dma_bytes_written"] += result.dma_bytes_written
    counts["mem.dma_busy_cycles"] += result.dma_busy_cycles
    counts["soc.instr"] += result.counters.total_issued


class Tracer:
    """In-memory span recorder over the simulator's layer entry points.

    Use as a context manager around the traced ops and bracket each op
    with :meth:`begin_op` and :meth:`end_op`.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: Program lists of every BatchEngine run, for cohort counting
        #: after the traced phase (outside any span).
        self.batch_programs: list[list] = []
        self._stack: list[int] = []
        #: Id of the op being timed; None between ops, when wrapped
        #: calls (the harness's own digest checks) record no span.
        self._op: int | None = None
        self._restore: list = []

    def begin_op(self, op: int) -> None:
        self._op = op

    def end_op(self) -> None:
        self._op = None

    # -- installing wrappers -------------------------------------------
    def __enter__(self) -> "Tracer":
        wrapped: dict[int, object] = {}
        for module_name, path, layer in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr]
            if id(original) not in wrapped:
                wrapped[id(original)] = self._wrap(
                    original, layer, f"{layer}.{path}")
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapped[id(original)])
        # build_baseline/build_copift are fields of frozen KernelDef
        # entries, so the registry entries themselves are swapped.
        from repro.kernels.registry import KERNELS
        for name, kdef in list(KERNELS.items()):
            self._restore.append((KERNELS, name, kdef))
            KERNELS[name] = dataclasses.replace(
                kdef,
                build_baseline=self._wrap(kdef.build_baseline, "kernels",
                                          "kernels.build_baseline"),
                build_copift=self._wrap(kdef.build_copift, "kernels",
                                        "kernels.build_copift"))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, layer: str, name: str):
        capture = self._captures().get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span = [self._op, len(spans), stack[-1] if stack else -1,
                    layer, name, clock(), 0]
            spans.append(span)
            stack.append(span[1])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[6] = clock()
                stack.pop()
            if capture is not None:
                capture(args, result)
            return result

        return wrapper

    # -- per-layer counts, taken from the wrapped calls' results -------
    def _captures(self) -> dict:
        """Span name -> hook run on ``(args, result)`` after the call."""
        counts = self.counts
        return {
            "core.Machine.run": lambda args, result: counts.update(
                {"core.instr": result.counters.total_issued}),
            "decode.DecodedProgram.__init__": lambda args, result:
                counts.update({"decode.ops": len(args[0].ops)}),
            "soc.SocWorkload.run": lambda args, result:
                _count_hierarchy(counts, result),
            "batch.BatchEngine.run": self._count_batch,
            "store.RunStore.lookup": lambda args, result: counts.update(
                {"store.lookups": 1, "store.hits": result is not None}),
        }

    def _count_batch(self, args, result) -> None:
        engine = args[0]
        self.counts["batch.lanes"] += len(engine.instances)
        self.counts["batch.demoted_lanes"] += sum(engine.demoted)
        self.counts["batch.instr"] += sum(
            r.counters.total_issued for r in engine.results
            if r is not None)
        self.batch_programs.append(
            [instance.program for instance in engine.instances])

    # -- reduction ------------------------------------------------------
    def self_ns(self) -> dict[str, int]:
        """Summed self time per span name, in nanoseconds."""
        child: dict[int, int] = defaultdict(int)
        for _, _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, int] = defaultdict(int)
        for _, sid, _, _, name, start, end in self.spans:
            out[name] += end - start - child[sid]
        return out

    def calls(self) -> Counter:
        return Counter(span[4] for span in self.spans)

    def cohorts(self) -> int:
        from repro.sim.batch import program_signature
        return sum(len({program_signature(p) for p in programs})
                   for programs in self.batch_programs)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["op", "id", "parent", "layer", "name",
                                  "start_ns", "end_ns"],
                       "spans": self.spans}, handle)


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(tracer: Tracer, ops: int, rounds: int,
                  ref: Tracer | None = None) -> dict[str, float]:
    """Per-layer metrics of one traced phase.

    Times are self times: ``*_ms`` per op, ``*_us`` per call and
    ``*.ns_per_instr`` per simulated instruction of that layer; counts
    are per round.  *ref* is an extra traced phase of bare-core runs
    that supplies ``core.ns_per_instr`` when the ops themselves run no
    bare core (the ``soc.overhead_x`` base).
    """
    ns = tracer.self_ns()
    calls = tracer.calls()
    counts = tracer.counts

    def ms(*names: str) -> float:
        return _per(sum(ns[n] for n in names) / 1e6, ops)

    def us_per_call(name: str) -> float:
        return _per(ns[name] / 1e3, calls[name])

    batch = ("batch.BatchEngine.__init__", "batch.BatchEngine.run")
    kernels = ("kernels.build_baseline", "kernels.build_copift")
    core_src = tracer if counts["core.instr"] or ref is None else ref
    core_ns = _per(core_src.self_ns()["core.Machine.run"],
                   core_src.counts["core.instr"])
    soc_ns = _per(ns["soc.SocWorkload.run"], counts["soc.instr"])
    cohorts = tracer.cohorts()
    metrics = {
        "kernels.build_ms": ms(*kernels),
        "decode.ms": ms("decode.DecodedProgram.__init__"),
        "decode.ops": _per(counts["decode.ops"], ops),
        "core.run_ms": ms("core.Machine.run"),
        "core.ns_per_instr": core_ns,
        "cluster.partition_ms": ms("cluster.partition_kernel"),
        "soc.partition_ms": ms("soc.partition_soc_kernel"),
        "soc.run_ms": ms("soc.SocWorkload.run"),
        "soc.ns_per_instr": soc_ns,
        "soc.overhead_x": _per(soc_ns, core_ns),
        "batch.run_ms": ms(*batch),
        "batch.ns_per_instr": _per(sum(ns[n] for n in batch),
                                   counts["batch.instr"]),
        "batch.cohorts": _per(cohorts, rounds),
        "batch.lanes_per_cohort": _per(counts["batch.lanes"], cohorts),
        "batch.demoted_lanes": _per(counts["batch.demoted_lanes"], rounds),
        "batch.vector_share": _per(
            counts["batch.lanes"] - counts["batch.demoted_lanes"],
            counts["batch.lanes"]),
        "api.sweep_self_ms": ms("api.Sweep.run"),
        "api.record_ms": ms("api.record_from_result",
                            "api.RunRecord.to_json"),
        "store.key_us": us_per_call("store.cache_key"),
        "store.lookup_us": us_per_call("store.RunStore.lookup"),
        "store.save_us": us_per_call("store.RunStore.save"),
    }
    for name in HIERARCHY_COUNTS:
        metrics[name] = _per(counts[name], rounds)
    return metrics
