"""Streaming-traffic layer tests: arrivals, QoS, dispatch, scenarios.

Covers the deterministic arrival sampler and trace parser, the
windowed weighted-TDM :class:`~repro.traffic.QosArbiter`, the
discrete-event :class:`~repro.traffic.Dispatcher`, and the scenario
layer end to end — including the headline claim (QoS keeps the
latency-critical class's p99 low under saturating load) and the
``streamscale`` artifact's bit-identical ``--jobs`` sharding.
"""

import json

import pytest

from repro.api import RunRecord
from repro.eval.streamscale import (
    generate,
    parse_duration,
    parse_loads,
    parse_policy_flag,
)
from repro.traffic import (
    POLICY_CHOICES,
    Dispatcher,
    Lcg64,
    PriorityClass,
    QosArbiter,
    Request,
    TrafficError,
    TrafficScenario,
    build_profiles,
    default_scenario,
    load_trace,
    parse_policy,
    poisson_arrivals,
    simulate,
    stream_record,
    traffic_registry,
)


def _classes():
    return (
        PriorityClass(name="hi", weight=3, priority=1, kernel="expf",
                      variant="copift", n=256, share=0.5),
        PriorityClass(name="lo", weight=1, priority=0, kernel="logf",
                      variant="baseline", n=256, share=0.5),
    )


def _fake_profile(cycles, transfers=()):
    """A hand-built profile: no cluster simulation needed."""
    from repro.traffic import RequestProfile
    return RequestProfile(
        name="fake", kernel="expf", variant="copift", n=64, cores=1,
        cycles=cycles, dma_bytes=sum(t[4] for t in transfers),
        transfers=tuple(transfers), bandwidth=8, setup_latency=16,
        dynamic_energy_pj=1.0, constant_pj_per_cycle=0.1,
    )


@pytest.fixture(scope="module")
def profiles():
    """Real per-class profiles, built once for the whole module."""
    return build_profiles(default_scenario())


class TestLcg64:
    def test_pure_function_of_seed(self):
        a = [Lcg64(7).next_u64() for _ in range(5)]
        b = [Lcg64(7).next_u64() for _ in range(5)]
        assert a == b
        assert a != [Lcg64(8).next_u64() for _ in range(5)]

    def test_uniform_stays_in_the_open_interval(self):
        rng = Lcg64(1)
        for _ in range(1000):
            u = rng.uniform()
            assert 0.0 < u < 1.0


class TestPriorityClass:
    def test_negative_weight_rejected(self):
        with pytest.raises(TrafficError, match="weight"):
            PriorityClass(name="x", weight=-1, priority=0,
                          kernel="expf", variant="copift", n=64,
                          share=1.0)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(TrafficError, match="unknown kernel"):
            PriorityClass(name="x", weight=1, priority=0,
                          kernel="nope", variant="copift", n=64,
                          share=1.0)

    def test_share_bounds(self):
        for share in (0.0, 1.5):
            with pytest.raises(TrafficError, match="share"):
                PriorityClass(name="x", weight=1, priority=0,
                              kernel="expf", variant="copift", n=64,
                              share=share)


class TestPoissonArrivals:
    def test_deterministic(self):
        classes = _classes()
        a = poisson_arrivals(classes, 0.01, 10_000, seed=3)
        b = poisson_arrivals(classes, 0.01, 10_000, seed=3)
        assert a == b
        assert a != poisson_arrivals(classes, 0.01, 10_000, seed=4)

    def test_stream_shape(self):
        requests = poisson_arrivals(_classes(), 0.01, 20_000, seed=1)
        assert [r.rid for r in requests] == list(range(len(requests)))
        arrivals = [r.arrival for r in requests]
        assert arrivals == sorted(arrivals)
        assert all(1 <= a <= 20_000 for a in arrivals)
        # Both classes contribute (equal shares, plenty of window).
        assert {r.cls for r in requests} == {0, 1}

    def test_rate_scales_the_stream(self):
        slow = poisson_arrivals(_classes(), 0.005, 50_000, seed=1)
        fast = poisson_arrivals(_classes(), 0.02, 50_000, seed=1)
        assert 2 * len(slow) < len(fast)

    def test_priority_breaks_same_cycle_ties(self):
        # Force many same-cycle arrivals: a huge rate over a short
        # window.  Whenever both classes land on one cycle, the
        # higher-priority class must sort first.
        requests = poisson_arrivals(_classes(), 4.0, 50, seed=2)
        by_cycle = {}
        for r in requests:
            by_cycle.setdefault(r.arrival, []).append(r.cls)
        ties = [v for v in by_cycle.values() if len(set(v)) > 1]
        assert ties, "expected same-cycle cross-class arrivals"
        for classes_at_tie in ties:
            assert classes_at_tie == sorted(classes_at_tie)

    def test_rejects_bad_knobs(self):
        with pytest.raises(TrafficError, match="rate"):
            poisson_arrivals(_classes(), 0.0, 100, seed=1)
        with pytest.raises(TrafficError, match="duration"):
            poisson_arrivals(_classes(), 0.1, 0, seed=1)


class TestLoadTrace:
    def test_parses_comments_commas_and_reorders(self, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text(
            "# adversarial burst\n"
            "30 lo\n"
            "10,hi   # comma separator\n"
            "\n"
            "10 lo\n")
        requests = load_trace(str(trace), _classes())
        assert [(r.arrival, r.cls) for r in requests] \
            == [(10, 0), (10, 1), (30, 1)]   # hi sorts first at 10
        assert [r.rid for r in requests] == [0, 1, 2]

    @pytest.mark.parametrize("line,fragment", [
        ("banana", "expected '<cycle> <class>'"),
        ("x hi", "must be an integer"),
        ("0 hi", "must be >= 1"),
        ("5 nope", "unknown class"),
    ])
    def test_errors_carry_file_and_line(self, tmp_path, line,
                                        fragment):
        trace = tmp_path / "bad.txt"
        trace.write_text("1 hi\n" + line + "\n")
        with pytest.raises(TrafficError) as excinfo:
            load_trace(str(trace), _classes())
        message = str(excinfo.value)
        assert fragment in message
        assert f"{trace}:2" in message

    def test_empty_trace_rejected(self, tmp_path):
        trace = tmp_path / "empty.txt"
        trace.write_text("# nothing here\n")
        with pytest.raises(TrafficError, match="no requests"):
            load_trace(str(trace), _classes())

    def test_missing_file_is_one_line(self, tmp_path):
        with pytest.raises(TrafficError) as excinfo:
            load_trace(str(tmp_path / "nope.txt"), _classes())
        assert "\n" not in str(excinfo.value)


class TestQosArbiter:
    def test_validation(self):
        with pytest.raises(TrafficError, match="link_cap"):
            QosArbiter(link_cap=0)
        with pytest.raises(TrafficError, match="empty"):
            QosArbiter(weights=())
        with pytest.raises(TrafficError, match=">= 0"):
            QosArbiter(weights=(1, -1))
        with pytest.raises(TrafficError, match="positive"):
            QosArbiter(weights=(0, 0))
        with pytest.raises(TrafficError, match="n_classes"):
            QosArbiter(n_classes=0)

    def test_zero_beats_is_a_noop_grant(self):
        arbiter = QosArbiter(weights=(1,))
        assert arbiter.transfer(0, 0, 100) == 100
        assert arbiter.stats[0].grants == 0
        assert arbiter.stats[0].transfers == 1

    def test_fcfs_mode_serializes_under_the_cap(self):
        arbiter = QosArbiter(link_cap=1, n_classes=2)
        arbiter.bind(1, 1)
        first = arbiter.transfer(0, 4, 0)
        second = arbiter.transfer(1, 4, 0)
        assert first == 4                  # beats at cycles 1..4
        assert second == 8                 # queued behind stream 0
        assert arbiter.stats[0].stall_cycles == 0
        assert arbiter.stats[1].stall_cycles == 4

    def test_weighted_contention_favours_the_heavy_class(self):
        arbiter = QosArbiter(weights=(3, 1))
        arbiter.bind(0, 0)
        arbiter.bind(1, 1)
        heavy = arbiter.transfer(0, 12, 0)
        light = arbiter.transfer(1, 12, 0)
        # Window = 4 cycles, quotas 3:1 -> the heavy class drains
        # ~3 beats per window, the light one 1 per window.
        assert heavy < light
        assert light >= 12 * 4 - 4         # ~1 beat per 4-cycle window
        assert arbiter.total_beats == 24
        assert arbiter.stall_rate() > 0.0

    def test_reservation_is_not_work_conserving(self):
        # An idle peer's slots go unused: a weight-1 class alone on a
        # (3, 1) arbiter still only gets 1 beat per 4-cycle window.
        arbiter = QosArbiter(weights=(3, 1))
        arbiter.bind(0, 1)
        done = arbiter.transfer(0, 8, 0)
        assert done >= 8 * 4 - 4

    def test_zero_weight_class_starves_with_one_line_error(self):
        arbiter = QosArbiter(weights=(1, 0), max_wait=200)
        arbiter.bind(0, 1)
        with pytest.raises(TrafficError) as excinfo:
            arbiter.transfer(0, 1, 0)
        message = str(excinfo.value)
        assert "QoS starvation" in message
        assert "\n" not in message

    def test_bind_range_checked(self):
        arbiter = QosArbiter(weights=(1, 1))
        with pytest.raises(TrafficError, match="out of range"):
            arbiter.bind(0, 2)
        assert arbiter.class_of(99) == 0   # unbound default

    def test_prune_keeps_grants_consistent(self):
        arbiter = QosArbiter(weights=(1,))
        done = arbiter.transfer(0, 64, 0)
        arbiter._prune(done + (1 << 17))
        assert arbiter._claims == {}
        # Future grants still serialize correctly after pruning.
        later = arbiter.transfer(0, 4, done + (1 << 17))
        assert later > done + (1 << 17)


class TestDispatcher:
    def test_validation(self):
        classes = _classes()
        profiles = (_fake_profile(100), _fake_profile(200))
        with pytest.raises(TrafficError, match="policy"):
            Dispatcher(classes, profiles, 1, policy="lifo")
        with pytest.raises(TrafficError, match="profile"):
            Dispatcher(classes, profiles[:1], 1)
        with pytest.raises(TrafficError, match="n_clusters"):
            Dispatcher(classes, profiles, 0)

    def test_fifo_single_cluster_serializes(self):
        classes = _classes()
        profiles = (_fake_profile(100), _fake_profile(100))
        dispatcher = Dispatcher(classes, profiles, 1, policy="fifo")
        served = dispatcher.run([Request(0, 10, 0),
                                 Request(1, 20, 1)])
        assert [c.rid for c in served] == [0, 1]
        first, second = served
        assert (first.start, first.finish) == (10, 110)
        assert second.start == 110         # waited for the cluster
        assert second.queue_cycles == 90
        assert second.service_cycles == 100
        assert second.total_cycles == 190
        assert dispatcher.peak_queue_depth == 1
        assert dispatcher.cluster_busy == [200]

    def test_priority_jumps_the_queue(self):
        classes = _classes()
        profiles = (_fake_profile(100), _fake_profile(100))
        # lo arrives first; while the cluster is busy, one of each
        # queues up.  Under "priority" the hi request dispatches
        # first despite arriving later.
        stream = [Request(0, 1, 1), Request(1, 2, 1),
                  Request(2, 3, 0)]
        fifo = Dispatcher(classes, profiles, 1, policy="fifo")
        assert [c.rid for c in fifo.run(list(stream))] == [0, 1, 2]
        prio = Dispatcher(classes, profiles, 1, policy="priority")
        assert [c.rid for c in prio.run(list(stream))] == [0, 2, 1]

    def test_freed_cluster_accepts_same_cycle_arrival(self):
        classes = _classes()
        profiles = (_fake_profile(100), _fake_profile(100))
        dispatcher = Dispatcher(classes, profiles, 1)
        served = dispatcher.run([Request(0, 1, 0),
                                 Request(1, 101, 0)])
        # Completion at 101 frees the cluster before the arrival at
        # 101 is considered: zero queueing.
        assert served[1].start == 101
        assert served[1].queue_cycles == 0

    def test_two_clusters_lowest_id_first(self):
        classes = _classes()
        profiles = (_fake_profile(100), _fake_profile(100))
        dispatcher = Dispatcher(classes, profiles, 2)
        served = dispatcher.run([Request(0, 1, 0), Request(1, 1, 0)])
        assert [c.cluster for c in served] == [0, 1]
        assert all(c.queue_cycles == 0 for c in served)

    def test_engine_replay_stretches_service(self):
        from repro.traffic import replay_engine
        classes = _classes()
        # One transfer: 64 bytes = 8 beats issued at relative cycle 0,
        # uncontended done at 16 + 8 = 24.
        transfer = (0, 0, 0x1000, 1 << 19, 64, 24)
        profiles = (_fake_profile(100, [transfer]),
                    _fake_profile(100, [transfer]))
        arbiter = QosArbiter(weights=(1, 1))
        engines = [replay_engine(profiles[0], 0, arbiter.transfer)]
        dispatcher = Dispatcher(classes, profiles, 1,
                                engines=engines, qos=arbiter)
        served = dispatcher.run([Request(0, 1, 0)])
        # Alone, class 0 only gets 1 beat per 2-cycle window: the
        # grant slips past the profiled done and stretches service.
        assert served[0].service_cycles > 100


class TestScenario:
    def test_policy_parsing(self):
        assert parse_policy("fifo") == ("fifo", False)
        assert parse_policy("priority+qos") == ("priority", True)
        with pytest.raises(TrafficError, match="unknown policy"):
            parse_policy("round-robin")
        assert set(POLICY_CHOICES) \
            == {"fifo", "priority", "fifo+qos", "priority+qos"}

    def test_scenario_validation(self):
        classes = _classes()
        with pytest.raises(TrafficError, match="sum to 1"):
            TrafficScenario(classes=(classes[0],))
        with pytest.raises(TrafficError, match="duplicate"):
            bad = tuple(
                PriorityClass(name="x", weight=1, priority=0,
                              kernel="expf", variant="copift", n=64,
                              share=0.5)
                for _ in range(2))
            TrafficScenario(classes=bad)
        scenario = default_scenario()
        assert scenario.backend_spec == "traffic:2x4"


class TestSimulateEndToEnd:
    RATE_FRACTION = 1.1        # past the knee
    DURATION = 40_000

    def _rate(self, scenario, profiles):
        capacity = scenario.clusters / sum(
            cls.share * p.cycles
            for cls, p in zip(scenario.classes, profiles))
        return self.RATE_FRACTION * capacity

    def test_qos_separates_the_tails(self, profiles):
        scenario = default_scenario(policy="priority+qos")
        rate = self._rate(scenario, profiles)
        result = simulate(scenario, profiles, rate, self.DURATION,
                          seed=1)
        hi, lo = (c.stats() for c in result.classes)
        assert result.completed == result.requests
        assert hi.p99 < lo.p99 / 2
        assert hi.p99 < lo.p50
        assert result.classes[0].qos_beats > 0

    def test_qos_beats_fifo_for_the_critical_class(self, profiles):
        rate = self._rate(default_scenario(), profiles)
        fifo = simulate(default_scenario(policy="fifo"), profiles,
                        rate, self.DURATION, seed=1)
        qos = simulate(default_scenario(policy="priority+qos"),
                       profiles, rate, self.DURATION, seed=1)
        assert qos.classes[0].stats().p99 \
            < fifo.classes[0].stats().p99

    def test_merge_pools_replications(self, profiles):
        scenario = default_scenario()
        rate = self._rate(scenario, profiles)
        one = simulate(scenario, profiles, rate, self.DURATION, seed=1)
        two = simulate(scenario, profiles, rate, self.DURATION, seed=2)
        solo_requests = one.requests
        one.merge(two)
        assert one.requests == solo_requests + two.requests
        assert one.completed == one.requests
        assert one.classes[0].latency.count \
            == one.classes[0].completed
        assert one.throughput > 0

    def test_merge_rejects_mismatched_runs(self, profiles):
        scenario = default_scenario()
        a = simulate(scenario, profiles, 0.0005, 10_000, seed=1)
        b = simulate(scenario, profiles, 0.0006, 10_000, seed=1)
        with pytest.raises(TrafficError, match="different scenarios"):
            a.merge(b)

    def test_stream_record_round_trips(self, profiles):
        scenario = default_scenario()
        rate = self._rate(scenario, profiles)
        result = simulate(scenario, profiles, rate, 20_000, seed=1)
        record = stream_record(scenario, profiles, result, seed=1)
        assert record.backend == "traffic:2x4"
        assert record.stream is not None
        assert record.stream.policy == "priority+qos"
        blob = json.loads(json.dumps(record.to_json()))
        again = RunRecord.from_json(blob)
        assert again.to_json() == record.to_json()
        assert again.stream.classes[0].name == "hi"
        assert again.power.dynamic_energy_pj \
            == record.power.dynamic_energy_pj

    def test_registry_flattens_latency_histograms(self, profiles):
        scenario = default_scenario()
        rate = self._rate(scenario, profiles)
        result = simulate(scenario, profiles, rate, 20_000, seed=1)
        metrics = traffic_registry(scenario).collect(result)
        assert metrics["traffic.requests"] == result.requests
        assert metrics["traffic.hi.latency.count"] \
            == result.classes[0].completed
        assert metrics["traffic.hi.latency.p99"] \
            == result.classes[0].latency.p99
        assert "traffic.lo.qos_stall_cycles" in metrics


class TestStreamscaleArtifact:
    def test_jobs_sharding_is_bit_identical(self):
        kwargs = dict(loads=(0.5, 1.1), duration=15_000,
                      seeds=(1, 2))
        solo = generate(jobs=1, **kwargs)
        sharded = generate(jobs=2, **kwargs)
        assert json.dumps(solo, sort_keys=True) \
            == json.dumps(sharded, sort_keys=True)

    def test_trace_file_mode(self, tmp_path):
        trace = tmp_path / "trace.txt"
        trace.write_text("".join(
            f"{cycle} {'hi' if cycle % 3 else 'lo'}\n"
            for cycle in range(100, 3000, 100)))
        payload = generate(trace_file=str(trace))
        assert len(payload["points"]) == 1
        point = payload["points"][0]
        assert point["load"] == "trace"
        assert point["requests"] == 29
        assert payload["seeds"] == []

    def test_flag_parsers_reject_garbage(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_loads("0.5,banana")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_loads("-1")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_duration("soon")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_duration("0")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_policy_flag("round-robin")
        assert parse_loads("0.3, 0.7") == (0.3, 0.7)
        assert parse_duration("5000") == 5000
        assert parse_policy_flag("fifo+qos") == "fifo+qos"
