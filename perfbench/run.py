"""The repo benchmark: one command, four workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload core-paper --seed 1 --seconds 16 --trace 0

Workloads (``BENCHMARK.json`` says why each one exists): ``core-paper``,
``soc-scale``, ``batch-sweep``, ``cache-replay``.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer ones; the last line
of standard output is the result as one JSON object.  Every run also
writes a detail file (quartiles, sample counts, host, revision,
calibration) and, when traced, its spans under ``.bench_build/perfbench``.

Two maintenance modes:

* ``--smoke`` checks the harness itself at tiny sizes in under a
  minute;
* ``--update-reference`` re-simulates every default-seed cell with
  ``check=True`` and rewrites ``perfbench/reference.json`` (digests,
  sim metrics, hierarchy counts); needed only after a deliberate
  timing-model change.

The simulator is imported from ``src/`` next to this directory; there
is nothing to build.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOAD_NAMES = ("core-paper", "soc-scale", "batch-sweep", "cache-replay")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Time the simulator end to end and per layer.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--smoke", action="store_true",
                      help="check the harness at tiny sizes")
    mode.add_argument("--update-reference", action="store_true",
                      help="rewrite perfbench/reference.json")
    args = parser.parse_args(argv)
    if not (args.smoke or args.update_reference or args.workload):
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_seconds(src: str, repeats: int = 3) -> tuple[float, float]:
    """Median time a fresh interpreter takes to import the harness and,
    through it, the simulator (the import part of ``setup_s``): raw,
    and scaled by host-speed probes it takes just before and after."""
    here = os.path.dirname(os.path.abspath(__file__))
    code = (f"import sys, time; sys.path[:0] = [{here!r}, {src!r}]; "
            f"import hostspeed; probes = hostspeed.probe_burst(3); "
            f"start = time.perf_counter(); import harness; "
            f"seconds = time.perf_counter() - start; "
            f"probes += hostspeed.probe_burst(3); "
            f"print(seconds, seconds * hostspeed.host_scale(probes))")
    runs = [subprocess.run([sys.executable, "-c", code],
                           capture_output=True, text=True,
                           check=True).stdout.split()
            for _ in range(repeats)]
    return tuple(statistics.median(float(run[i]) for run in runs)
                 for i in (0, 1))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources at {src}/repro; run from "
              f"a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import harness
    if args.smoke:
        import smoke
        return smoke.main()
    if args.update_reference:
        import reference
        reference.update()
        return 0
    try:
        result = harness.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), import_s=import_seconds(src))
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
