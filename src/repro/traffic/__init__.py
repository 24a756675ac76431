"""Open-loop streaming traffic: arrivals, dispatch, QoS, percentiles.

The layer that turns the closed-batch simulator into a serving-
capacity model.  A scenario flows through four stages:

1. **arrival** (:mod:`repro.traffic.arrival`) — a deterministic,
   seeded open-loop request stream: merged per-class Poisson
   processes, or a replayed trace file.  Each request carries a
   :class:`PriorityClass` (kernel workload + dispatch priority + QoS
   weight).
2. **profile** (:mod:`repro.traffic.model`) — each class is simulated
   *once*, uncontended, on a cluster of the scenario's shape,
   capturing its service time and its DMA transfer schedule.
3. **dispatch** (:mod:`repro.traffic.dispatch`) — a discrete-event
   queueing simulation places requests onto free clusters (FIFO or
   priority order) and replays each request's profiled DMA schedule
   through a real :class:`~repro.mem.TransferEngine` per cluster.
4. **QoS arbitration** (:mod:`repro.traffic.qos`) — the engines share
   one :class:`QosArbiter` through the ``TransferEngine.arbiter``
   hook: a windowed weighted-TDM claim table, so high-weight classes'
   beats win interconnect grants under contention and the slip feeds
   straight back into per-request service time.

:mod:`repro.traffic.scenario` ties the stages together and reduces a
run to per-class latency histograms (exact p50/p95/p99), sustained
throughput, a schema-v5 :class:`~repro.api.RunRecord` and a
:class:`~repro.obs.MetricsRegistry` view.  The ``streamscale``
artifact (``python -m repro.eval streamscale``) sweeps offered load
over this machinery.
"""

from .arrival import (
    Lcg64,
    PriorityClass,
    Request,
    TrafficError,
    load_trace,
    poisson_arrivals,
)
from .dispatch import POLICIES, CompletedRequest, Dispatcher
from .model import RequestProfile, build_profile, replay_engine
from .qos import QosArbiter
from .scenario import (
    POLICY_CHOICES,
    ClassResult,
    TrafficResult,
    TrafficScenario,
    build_profiles,
    default_scenario,
    parse_policy,
    simulate,
    stream_record,
    traffic_registry,
)

__all__ = [
    "POLICIES",
    "POLICY_CHOICES",
    "ClassResult",
    "CompletedRequest",
    "Dispatcher",
    "Lcg64",
    "PriorityClass",
    "QosArbiter",
    "Request",
    "RequestProfile",
    "TrafficError",
    "TrafficResult",
    "TrafficScenario",
    "build_profile",
    "build_profiles",
    "default_scenario",
    "load_trace",
    "parse_policy",
    "poisson_arrivals",
    "replay_engine",
    "simulate",
    "stream_record",
    "traffic_registry",
]
