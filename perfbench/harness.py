"""Benchmark harness: set-up, timed rounds, checks and the result line.

One process, one closed-loop client, ``jobs=1``, no process pool:
each op starts when the previous one has returned.  Ops run in whole
rounds (see :mod:`workloads`), at least ``MIN_ROUNDS`` of them, until
at least ``--seconds`` have passed, so every run keeps the same op mix
and ``soc-scale``, whose round takes 13-20 s on a shared 2-vCPU VM,
always runs two.  Every record an op returns is checked against its
expected digest.

End-to-end metrics come from an untraced run.  Rates and op-time
percentiles use the time of every op of the whole rounds; ``sim_ips``
counts main-region instructions, on ``cache-replay`` those of the
records the ops return.  ``--trace 1`` alternates untraced and traced
rounds and reports per-layer metrics from the spans of the traced ones.

Host speed (see :mod:`hostspeed`): every end-to-end op time is scaled
by the host-speed samples taken around it while the ops ran, and the
time of a sample that interrupted an op is left out of the op's.
Set-up times are scaled by probes taken around set-up, the import
time by probes the importing interpreter takes.  Raw values are
in the report and the detail file; per-layer times are raw.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.api import parse_backend, timing_fingerprint
from repro.sim import Counters

from hostspeed import (REFERENCE_PROBE_S, Sampler, host_scale,
                       probe_burst)
from tracing import HIERARCHY_COUNTS, Tracer, layer_metrics
from workloads import PAPER_FIGURES, WORKLOADS, cell_id, digest, sim_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

#: Set-up runs this many times per process; ``setup_s`` takes the median.
SETUP_REPEATS = 3
#: Whole rounds a timed run makes at least.
MIN_ROUNDS = 2

#: Probes taken before set-up and after each set-up repeat.
SETUP_PROBES = 8

END_TO_END = {
    "setup_s": "s",
    "sim_ips": "instr/s",
    "cells_per_s": "cells/s",
    "op_ms.p50": "ms",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "copift_speedup_geomean": "x",
    "copift_ipc_peak": "instr/cycle",
    "copift_energy_gain_geomean": "x",
}

PER_LAYER = {
    "kernels.build_ms": "ms",
    "decode.ms": "ms",
    "decode.ops": "count",
    "core.run_ms": "ms",
    "core.ns_per_instr": "ns/instr",
    "core.stall_cycles": "cycles",
    "cluster.partition_ms": "ms",
    "soc.partition_ms": "ms",
    "soc.run_ms": "ms",
    "soc.ns_per_instr": "ns/instr",
    "soc.overhead_x": "x",
    "cluster.tcdm_conflict_cycles": "cycles",
    "cluster.barriers": "count",
    "soc.link_beats": "count",
    "soc.link_stall_cycles": "cycles",
    "soc.l2_bytes": "bytes",
    "mem.dma_bytes_read": "bytes",
    "mem.dma_bytes_written": "bytes",
    "mem.dma_busy_cycles": "cycles",
    "batch.run_ms": "ms",
    "batch.ns_per_instr": "ns/instr",
    "batch.cohorts": "count",
    "batch.lanes_per_cohort": "count",
    "batch.demoted_lanes": "count",
    "batch.vector_share": "ratio",
    "api.sweep_self_ms": "ms",
    "api.record_ms": "ms",
    "store.key_us": "us",
    "store.lookup_us": "us",
    "store.save_us": "us",
    "store.hit_ratio": "ratio",
    "store.fingerprint_ms": "ms",
    "trace.overhead": "x",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (stale reference, ...)."""


class Sample(NamedTuple):
    """One passed op."""

    #: Host time of the op, less that of the samples that interrupted it.
    seconds: float
    cells: int
    instructions: int
    start: float
    end: float


@dataclass
class Phase:
    """Outcome of a run of whole rounds."""

    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    ops: list[Sample] = field(default_factory=list)
    #: Cell id -> first record seen.
    records: dict = field(default_factory=dict)
    #: Host-speed samples taken while the ops ran, if any were.
    sampler: Sampler | None = None

    @property
    def durations(self) -> list[float]:
        return [sample.seconds for sample in self.ops]


def run_op(op, phase: Phase, expected: dict, tracer=None) -> None:
    """Time one op and check each record against its expected digest.

    An op that raises or returns a record whose digest differs from
    the expected one counts as failed and adds no time.
    """
    phase.attempted += 1
    if tracer is not None:
        tracer.begin_op(phase.attempted - 1)
    sampled = phase.sampler.spent if phase.sampler else 0.0
    start = time.perf_counter()
    try:
        records = op.run()
    except Exception:
        phase.failed += 1
        traceback.print_exc(limit=4, file=sys.stderr)
        return
    finally:
        if tracer is not None:
            tracer.end_op()
    end = time.perf_counter()
    if phase.sampler:
        sampled = phase.sampler.spent - sampled
    digests = [digest(r) for r in records]
    if [expected.get(i) for i in op.ids] != digests:
        phase.failed += 1
        print(f"perfbench: digest mismatch in op over {op.ids[0]}",
              file=sys.stderr)
        return
    phase.ops.append(Sample(end - start - sampled, len(records),
                            sum(r.instructions for r in records),
                            start, end))
    for i, record in zip(op.ids, records):
        phase.records.setdefault(i, record)


def run_round(bench, phase: Phase, expected: dict, tracer=None) -> None:
    for op in bench.round(phase.rounds):
        run_op(op, phase, expected, tracer)
    phase.rounds += 1


def measure(bench, expected: dict, seconds: float | None = None,
            rounds: int | None = None, tracer=None) -> Phase:
    """Run whole rounds of *bench*: *rounds* of them, or at least
    ``MIN_ROUNDS`` until at least *seconds* have passed, sampling the
    host's speed all along."""
    phase = Phase()
    start = time.perf_counter()
    with Sampler() as phase.sampler:
        while True:
            run_round(bench, phase, expected, tracer)
            if rounds is not None:
                if phase.rounds >= rounds:
                    return phase
            elif (phase.rounds >= MIN_ROUNDS
                  and time.perf_counter() - start >= seconds):
                return phase


def quantile(values: list, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100,
                                method="inclusive")[round(q * 100) - 1]


# ----------------------------------------------------------------------
# expectations
# ----------------------------------------------------------------------
def load_reference() -> dict:
    try:
        with open(REFERENCE, encoding="utf-8") as handle:
            return json.load(handle)["workloads"]
    except FileNotFoundError:
        return {}


def checked_records(cells) -> dict:
    """Run *cells* once with ``check=True``; records by cell id."""
    backends = {}
    out = {}
    for workload, spec in cells:
        backend = backends.setdefault(spec, parse_backend(spec))
        out[cell_id(workload, spec)] = backend.run(workload, check=True)
    return out


def expectations(bench, reference: dict, problems: list):
    """Expected digests, sim metrics and hierarchy counts of *bench*.

    Cells with the kernels' default seeds have committed reference
    digests.  When any cell has none (seeded cells, or the smoke
    sizes), the whole cell set is run once with ``check=True``, outside
    the timed region, and the verified records supply the missing
    digests and the expected sim metrics.
    """
    cells = bench.cells() + bench.extra_cells()
    entry = {} if bench.small else reference.get(bench.name, {})
    digests = dict(entry.get("digests", {}))
    if not bench.small:
        stale = [cell_id(w, s) for w, s in cells
                 if w.seed is None and cell_id(w, s) not in digests]
        if stale:
            raise BenchError(
                f"reference.json has no digest for {stale[0]}; "
                f"regenerate it with --update-reference")
    sim = entry.get("sim")
    if len(digests) < len(cells):
        records = checked_records(cells)
        for i, record in records.items():
            d = digest(record)
            if digests.setdefault(i, d) != d:
                problems.append(f"checked {i} differs from reference")
        sim = sim_metrics({cell_id(w, s): records[cell_id(w, s)]
                           for w, s in bench.cells()},
                          bench.paper_n, bench.paper_backend)
    return digests, sim, entry.get("layers")


# ----------------------------------------------------------------------
# host facts
# ----------------------------------------------------------------------
def revision() -> str | None:
    """Commit of the checkout, when it is a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]),
                      encoding="utf-8") as handle:
                head = handle.read().strip()
    except OSError:
        return None
    return head


def source_digest() -> str:
    """SHA-256 over the simulator's sources (names a non-git tree)."""
    sha = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                sha.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    sha.update(handle.read())
    return sha.hexdigest()


def host() -> dict:
    return {"python": platform.python_version(),
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "revision": revision(),
            "source_sha256": source_digest()}


# ----------------------------------------------------------------------
# one benchmark run
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool,
        import_s: tuple[float, float] = (0.0, 0.0),
        small: bool = False) -> dict:
    """One benchmark run; returns the result line's object.

    *import_s* is the import part of set-up, raw and scaled (see
    ``run.import_seconds``).

    The printed report and a detail file under ``.bench_build`` carry
    what the result line has no room for: quartiles, sample counts,
    host facts, the probe (calibration) times and the raw metrics.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    setup_probes = probe_burst(SETUP_PROBES)
    start = time.perf_counter()
    timing_fingerprint()
    fingerprint_s = time.perf_counter() - start
    bench = WORKLOADS[workload](
        seed, small, os.path.join(OUT_DIR, f"{tag}-{os.getpid()}"))
    problems: list[str] = []
    try:
        repeats = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            bench.setup()
            repeats.append(time.perf_counter() - start)
            setup_probes += probe_burst(SETUP_PROBES)
        in_process_s = fingerprint_s + statistics.median(repeats)
        expected, sim_expected, layers_expected = expectations(
            bench, load_reference(), problems)
        if trace:
            phase, values = _traced(bench, seconds, expected,
                                    layers_expected, problems, tag)
        else:
            phase = measure(bench, expected, seconds=seconds)
        cell_set = _cell_set(bench, phase)
        problems += bench.check_outputs(expected)
    finally:
        bench.close()
    sim = {}
    if None in cell_set.values():
        problems.append("no passed op for some cells")
    else:
        sim = sim_metrics(cell_set, bench.paper_n, bench.paper_backend)
        if sim != sim_expected:
            problems.append(f"sim metrics {sim} != {sim_expected}")
    if trace:
        values["store.fingerprint_ms"] = fingerprint_s * 1e3
        values["core.stall_cycles"] = sum(
            r.counters[f] for r in cell_set.values() if r is not None
            for f in Counters.stall_fields())
        units = PER_LAYER
    else:
        raw = _end_to_end(phase, import_s[0] + in_process_s,
                          phase.durations, sim)
        values = _end_to_end(
            phase, import_s[1] + in_process_s * host_scale(setup_probes),
            _scaled_durations(phase), sim)
        units = END_TO_END
    missing = [name for name in units if name not in values]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    result = {
        "correct": not problems and phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "host": host(),
        "probe_ms": {"setup": _spread([p * 1e3 for p in setup_probes]),
                     "ops": _spread([p * 1e3 for p in
                                     _samples(phase)]),
                     "reference": REFERENCE_PROBE_S * 1e3},
        "setup": {"import_s": import_s[0],
                  "import_scaled_s": import_s[1],
                  "fingerprint_s": fingerprint_s,
                  "repeats_s": repeats},
        "rounds": phase.rounds,
        "op_ms": _spread([d * 1e3 for d in phase.durations]),
        "problems": problems,
        "raw_metrics": None if trace else raw,
        "result": result,
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1)
    _report(detail)
    return result


def _cell_set(bench, phase: Phase) -> dict:
    """Record of each cell of one round (None if no op passed)."""
    records = {**bench.cell_records(), **phase.records}
    return {cell_id(w, s): records.get(cell_id(w, s))
            for w, s in bench.cells()}


def _spread(values: list) -> dict:
    if not values:
        return {"n": 0}
    return {"n": len(values), "q1": quantile(values, 0.25),
            "median": statistics.median(values),
            "q3": quantile(values, 0.75), "p90": quantile(values, 0.9)}


def _samples(phase: Phase) -> list[float]:
    return phase.sampler.times if phase.sampler else []


def _scaled_durations(phase: Phase) -> list[float]:
    """Op times as on the reference host (see :mod:`hostspeed`)."""
    if not _samples(phase):
        return phase.durations
    return [sample.seconds * REFERENCE_PROBE_S
            / phase.sampler.near(sample.start, sample.end)
            for sample in phase.ops]


def _end_to_end(phase: Phase, setup_s: float, durations: list[float],
                sim: dict) -> dict:
    """End-to-end metrics from the set-up time and the op times."""
    if not phase.ops:
        return {"setup_s": setup_s}
    busy = sum(durations)
    ms = [d * 1e3 for d in durations]
    return {
        "setup_s": setup_s,
        "sim_ips": sum(sample.instructions for sample in phase.ops) / busy,
        "cells_per_s": sum(sample.cells for sample in phase.ops) / busy,
        "op_ms.p50": quantile(ms, 0.5),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **sim,
    }


def _traced(bench, seconds, expected, layers_expected, problems, tag):
    """Alternate untraced and traced rounds; per-layer metrics.

    Alternating keeps host drift out of ``trace.overhead``, the ratio
    of the traced to the untraced median op time.  Traced records are
    byte-identical to untraced ones because :func:`run_op` checks the
    records of both against the same expected digests.
    """
    untraced, traced = Phase(), Phase()
    tracer = Tracer()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        run_round(bench, untraced, expected)
        with tracer:
            run_round(bench, traced, expected, tracer)
    ref, extra = None, Phase()
    if bench.extra_ops():
        ref = Tracer()
        with ref:
            for op in bench.extra_ops():
                run_op(op, extra, expected, ref)
    tracer.write(os.path.join(OUT_DIR, f"{tag}-spans.json"))
    metrics = layer_metrics(tracer, traced.attempted, traced.rounds, ref)
    if layers_expected is not None:
        counts = {k: metrics[k] for k in HIERARCHY_COUNTS}
        if counts != layers_expected:
            problems.append(f"layer counts {counts} != {layers_expected}")
    lookups = tracer.counts["store.lookups"]
    metrics["store.hit_ratio"] = (tracer.counts["store.hits"] / lookups
                                  if lookups else 0.0)
    if traced.durations and untraced.durations:
        metrics["trace.overhead"] = (statistics.median(traced.durations)
                                     / statistics.median(untraced.durations))
    for part in (untraced, extra):
        traced.attempted += part.attempted
        traced.failed += part.failed
    return traced, metrics


def _report(detail: dict) -> None:
    result = detail["result"]
    h = detail["host"]
    print(f"perfbench {detail['workload']} seed={detail['seed']} "
          f"trace={int(detail['trace'])}: Python {h['python']}, "
          f"{h['cpus']} CPUs, {h['platform']}, revision "
          f"{h['revision'] or 'unknown'} (src {h['source_sha256'][:12]})")
    probes = detail["probe_ms"]
    print(f"  calibration probe median: set-up "
          f"{probes['setup']['median']:.3f} ms, ops "
          f"{probes['ops'].get('median', float('nan')):.3f} ms "
          f"(n={probes['ops']['n']}); host times scaled to a "
          f"{probes['reference']:g} ms probe show the raw value in "
          f"brackets")
    raw = detail["raw_metrics"] or {}
    for name, metric in result["metrics"].items():
        line = f"  {name:<30} {metric['value']:>16.6g} {metric['unit']}"
        if raw.get(name, metric["value"]) != metric["value"]:
            line += f"   [{raw[name]:.6g}]"
        paper = PAPER_FIGURES.get(name)
        if paper is not None:
            gap = (metric["value"] / paper - 1) * 100
            line += f"   paper {paper:g}, gap {gap:+.1f}%"
        print(line)
    if any(name in result["metrics"] for name in PAPER_FIGURES):
        print("  (paper figures from the published RTL measurements; "
              "this simulator's timing model is otherwise unvalidated "
              "against RTL)")
    spread = detail["op_ms"]
    if spread["n"]:
        print(f"  ops: {result['attempted']} attempted, "
              f"{result['failed']} failed, {detail['rounds']} rounds; "
              f"raw op_ms q1/median/q3/p90 {spread['q1']:.4g}/"
              f"{spread['median']:.4g}/{spread['q3']:.4g}/"
              f"{spread['p90']:.4g} (n={spread['n']})")
    for problem in detail["problems"]:
        print(f"  PROBLEM: {problem}")
