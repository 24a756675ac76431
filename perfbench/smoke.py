"""Smoke check of the harness itself, at tiny sizes (about a minute).

Checks that every metric ``BENCHMARK.json`` names is emitted with its
unit in both modes, that the digest check fails an op whose record was
tampered with, that a ``cache-replay`` read which misses (or a write
whose lookup hits) fails, and that the seed changes only the inputs of
``batch-sweep`` (its seed set) and ``cache-replay`` (its op order).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
from collections import Counter

import harness
from repro.api import Workload, parse_backend
from workloads import WORKLOADS, Op, cell_id, digest


def _check(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"perfbench smoke: FAILED {what}")


def _declared(kind: str) -> dict:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def check_metrics() -> None:
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        declared = _declared(kind)
        for name in WORKLOADS:
            with contextlib.redirect_stdout(io.StringIO()):
                result = harness.run(name, 1, 0.2, trace, small=True)
            _check(result["correct"], (name, trace, result))
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            _check(emitted == declared, (name, kind, emitted, declared))


def check_tamper() -> None:
    workload = Workload("pi_lcg", "baseline", n=64)
    record = parse_backend("core").run(workload)
    ids = [cell_id(workload, "core")]
    expected = {ids[0]: digest(record)}
    phase = harness.Phase()
    harness.run_op(Op(lambda: [record], ids), phase, expected)
    _check(phase.failed == 0, "an intact record failed the digest check")
    tampered = dataclasses.replace(record, cycles=record.cycles + 1)
    with contextlib.redirect_stderr(io.StringIO()):
        harness.run_op(Op(lambda: [tampered], ids), phase, expected)
    _check(phase.failed == 1, "a tampered record passed the digest check")


def check_cache_lookups() -> None:
    bench = WORKLOADS["cache-replay"](
        1, True, os.path.join(harness.OUT_DIR, "smoke-cache"))
    try:
        bench.setup()
        ops = bench.round(0)
        expected = {i: digest(r) for i, r in bench.cell_records().items()}
        writes = [op for op in ops if op.kind == "write"]

        def read(write):
            return next(op for op in ops
                        if op.kind == "read" and op.ids == write.ids)

        phase = harness.Phase()
        with contextlib.redirect_stderr(io.StringIO()):
            # A miss simulates and saves the cell, so the second cell
            # checks the write path.
            harness.run_op(read(writes[0]), phase, expected)
            _check(phase.failed == 1, "a read that missed passed")
            harness.run_op(writes[1], phase, expected)
            harness.run_op(read(writes[1]), phase, expected)
            _check(phase.failed == 1, "a cold write then warm read failed")
            harness.run_op(writes[1], phase, expected)
            _check(phase.failed == 2, "a write whose lookup hit passed")
    finally:
        bench.close()


def check_seeds() -> None:
    scratch = os.path.join(harness.OUT_DIR, "smoke-seeds")
    for name, cls in WORKLOADS.items():
        one, two = (cls(seed, True, scratch) for seed in (1, 2))
        if name in ("core-paper", "soc-scale"):
            _check(one.plan() == two.plan(), f"{name} depends on the seed")
            continue
        _check(one.plan() != two.plan(), f"{name} ignores the seed")
        if name == "batch-sweep":
            fixed = [{i for i in key[1:] if "/seed" not in i}
                     for key in (one.plan()[0][0], two.plan()[0][0])]
            _check(fixed[0] == fixed[1] and fixed[0],
                   f"{name}: the seed changed default-seed cells")
        else:
            _check(one.cells() == two.cells(),
                   f"{name}: the seed changed the stored cells")
            kinds = [Counter(kind for kind, _ in plan[0])
                     for plan in (one.plan(), two.plan())]
            _check(kinds[0] == kinds[1],
                   f"{name}: the seed changed the read/write ratio")


def main() -> int:
    check_tamper()
    check_cache_lookups()
    check_seeds()
    check_metrics()
    print("perfbench smoke: ok")
    return 0
