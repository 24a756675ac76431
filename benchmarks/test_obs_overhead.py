"""Observability overhead benchmark: the disabled sink must be free.

Every emission site in the timing models is guarded by a single
``if obs is not None`` branch, so a run without a sink attached must
cost the same as one that never heard of observability.  This
benchmark measures three interleaved variants of the same kernel cell
(fresh instances each rep, best-of like ``test_sim_throughput``):

* ``default`` — ``KernelInstance.run(check=False)``, the path every
  artifact takes with observability off;
* ``knob_off`` — the same run through the explicit ``obs=None`` knob
  (exercises the plumbed-but-disabled path);
* ``enabled`` — a live :class:`repro.obs.ObsSink` collecting every
  event (informational; tracing is allowed to cost real time).

The guard asserts the knob-off path is within :data:`MAX_DISABLED_RATIO`
of the default path (one retry absorbs host noise).  Results merge
into ``BENCH_sim.json`` under an ``obs_overhead`` section so every PR
leaves an overhead trajectory next to the throughput numbers.
"""

from __future__ import annotations

import time

from _bench import merge_sections
from repro.kernels.registry import kernel
from repro.obs import ObsSink

#: Problem size per rep: steady-state dominated, CI-friendly.
N = 2048
#: Repetitions per variant (best-of).
REPS = 3
#: Disabled-path budget: the obs=None knob may cost at most 2% over
#: the default path (the tentpole's "low-overhead" contract).
MAX_DISABLED_RATIO = 1.02



def _time_run(obs=None) -> float:
    instance = kernel("expf").build_copift(N)
    t0 = time.perf_counter()
    instance.run(check=False, obs=obs)
    return time.perf_counter() - t0


def measure() -> dict:
    """Interleaved best-of timings of the three variants.

    Interleaving (default, knob-off, enabled within each rep) spreads
    host-frequency drift evenly over the variants instead of letting
    it land on whichever ran last.
    """
    # Warm the interpreter so rep 1 is not measured colder.
    kernel("expf").build_copift(512, block=64).run(check=False)

    best = {"default": None, "knob_off": None, "enabled": None}
    events = 0
    for _ in range(REPS):
        for variant in best:
            if variant == "enabled":
                sink = ObsSink()
                dt = _time_run(obs=sink)
                events = len(sink)
            else:
                dt = _time_run(obs=None)
            if best[variant] is None or dt < best[variant]:
                best[variant] = dt
    return {
        "n": N,
        "reps": REPS,
        "kernel": "expf/copift",
        "seconds": {k: round(v, 4) for k, v in best.items()},
        "events_enabled": events,
        "disabled_ratio": round(best["knob_off"] / best["default"], 4),
        "enabled_ratio": round(best["enabled"] / best["default"], 4),
    }


class TestObsOverhead:
    def test_disabled_sink_is_free(self):
        payload = measure()
        # Up to two retries, keeping the best observed ratio: scheduler
        # hiccups on a loaded CI host must not fail the guard (the
        # contract is that the disabled path *can* run at parity); a
        # real regression reproduces across every attempt.
        for _ in range(2):
            if payload["disabled_ratio"] <= MAX_DISABLED_RATIO:
                break
            retry = measure()
            if retry["disabled_ratio"] < payload["disabled_ratio"]:
                payload = retry
        assert payload["disabled_ratio"] <= MAX_DISABLED_RATIO, payload

        assert payload["events_enabled"] > 0
        merge_sections({"obs_overhead": payload})
