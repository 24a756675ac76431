"""Unified experiment API tests: workload specs, backend parsing,
RunRecord schema round-trips, sweep determinism and golden agreement."""

import json
import os

import pytest

from repro.api import (
    SCHEMA_VERSION,
    ClusterBackend,
    CoreBackend,
    RunRecord,
    SocBackend,
    Sweep,
    Workload,
    backend_spec_forms,
    pair,
    parse_backend,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "golden_n512.json")


class TestWorkload:
    def test_defaults(self):
        w = Workload("expf")
        assert w.variant == "baseline"
        assert w.effective_block is None

    def test_copift_block_defaults_to_kernel(self):
        w = Workload("expf", "copift")
        assert w.effective_block == w.kernel_def.default_block

    def test_explicit_block(self):
        assert Workload("expf", "copift", block=32).effective_block == 32

    def test_build_is_lazy_and_correct(self):
        w = Workload("pi_lcg", "copift", n=256, block=32)
        instance = w.build()
        assert instance.name == "pi_lcg"
        assert instance.variant == "copift"
        assert instance.n == 256
        assert instance.block == 32

    def test_seed_flows_to_builder(self):
        base = Workload("pi_lcg", n=256).build()
        seeded = Workload("pi_lcg", n=256, seed=12345).build()
        # The seed lands either in the program (PRNG init immediates)
        # or in the memory image (pre-generated inputs).
        assert repr(base.program.instructions) \
            != repr(seeded.program.instructions) \
            or base.memory.data != seeded.memory.data

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            Workload("fft")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            Workload("expf", "simd")

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError, match="problem size"):
            Workload("expf", n=0)
        with pytest.raises(ValueError, match="block"):
            Workload("expf", "copift", block=0)

    def test_pair_helper(self):
        base, cop = pair("logf", n=512, block=32)
        assert base.variant == "baseline" and cop.variant == "copift"
        assert cop.block == 32

    def test_with_revalidates(self):
        w = Workload("expf")
        assert w.with_(n=128).n == 128
        with pytest.raises(ValueError):
            w.with_(variant="bogus")


class TestBackendParsing:
    def test_core(self):
        backend = parse_backend("core")
        assert isinstance(backend, CoreBackend)
        assert backend.spec == "core"

    def test_cluster_with_count(self):
        backend = parse_backend("cluster:4")
        assert isinstance(backend, ClusterBackend)
        assert backend.cores == 4
        assert backend.spec == "cluster:4"

    def test_cluster_default_size(self):
        assert parse_backend("cluster").cores == 8

    def test_whitespace_tolerated(self):
        assert parse_backend(" core ").spec == "core"

    def test_soc_with_shape(self):
        backend = parse_backend("soc:2x4")
        assert isinstance(backend, SocBackend)
        assert backend.clusters == 2 and backend.cores == 4
        assert backend.spec == "soc:2x4"

    def test_soc_default_shape(self):
        backend = parse_backend("soc")
        assert backend.clusters >= 1 and backend.cores >= 1
        # Both default construction paths must build the same machine.
        assert backend.spec == SocBackend().spec

    def test_soc_spec_honours_cluster_config(self):
        from repro.cluster import ClusterConfig

        config = ClusterConfig(tcdm_banks=16)
        backend = parse_backend("soc:2x4", cluster_config=config)
        assert backend.config.cluster.tcdm_banks == 16
        assert parse_backend("soc", cluster_config=config)\
            .config.cluster.tcdm_banks == 16

    @pytest.mark.parametrize("spec", [
        "gpu", "core:2", "cluster:x", "cluster:", "cluster:0",
        "cluster:-1", "", "soc:", "soc:2", "soc:x2", "soc:2x",
        "soc:0x4", "soc:2x0", "soc:2x4x8",
    ])
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_backend(spec)

    def test_unknown_spec_error_enumerates_all_forms(self):
        """The error must list every accepted spec form, and that
        listing must come from the same table parse_backend dispatches
        on (so it cannot fall out of sync with the registered
        backends)."""
        with pytest.raises(ValueError) as excinfo:
            parse_backend("tpu")
        message = str(excinfo.value)
        forms = backend_spec_forms()
        assert forms == ("core", "cluster[:N][+wb]", "soc:CxM[+wb]")
        for form in forms:
            assert repr(form) in message
        # Every advertised form actually parses (a representative of
        # each), so the listing is live, not documentation.
        for example in ("core", "cluster", "cluster:2", "soc",
                        "soc:2x2", "cluster:2+wb", "soc:2x2+wb"):
            assert parse_backend(example) is not None

    def test_non_string_rejected(self):
        with pytest.raises(ValueError, match="must be a string"):
            parse_backend(4)

    def test_cluster_backend_validates_cores(self):
        with pytest.raises(ValueError, match="cores must be >= 1"):
            ClusterBackend(cores=0)

    def test_soc_backend_validates_shape(self):
        with pytest.raises(ValueError, match="clusters must be >= 1"):
            SocBackend(clusters=0)
        with pytest.raises(ValueError, match="cores must be >= 1"):
            SocBackend(cores=0)

    def test_cluster_rejects_explicit_seed(self):
        with pytest.raises(ValueError, match="per-core seeds"):
            ClusterBackend(cores=2).run(
                Workload("pi_lcg", n=256, seed=1))

    def test_soc_rejects_explicit_seed(self):
        with pytest.raises(ValueError, match="per-core seeds"):
            SocBackend(clusters=2, cores=2).run(
                Workload("pi_lcg", n=256, seed=1))


class TestRunRecordSchema:
    @pytest.fixture(scope="class")
    def core_record(self):
        return CoreBackend().run(Workload("pi_lcg", "copift", n=256,
                                          block=32))

    @pytest.fixture(scope="class")
    def cluster_record(self):
        return ClusterBackend(cores=2).run(Workload("pi_lcg", n=512))

    @pytest.fixture(scope="class")
    def soc_record(self):
        return SocBackend(clusters=2, cores=2).run(
            Workload("expf", "copift", n=512))

    def test_core_record_shape(self, core_record):
        r = core_record
        assert r.backend == "core"
        assert r.cluster is None
        assert r.cycles > 0 and r.total_cycles >= r.cycles
        assert r.instructions == \
            r.int_instructions + r.fp_instructions
        assert r.ipc == pytest.approx(r.instructions / r.cycles)
        assert r.power_mw > 0 and r.energy_pj > 0

    def test_cluster_record_shape(self, cluster_record):
        r = cluster_record
        assert r.backend == "cluster:2"
        assert r.cluster is not None
        assert r.cluster.cores == 2
        assert len(r.cluster.core_cycles) == 2
        assert r.cluster.barrier_count >= 1

    def test_json_round_trip_core(self, core_record):
        data = json.loads(json.dumps(core_record.to_json()))
        assert data["schema"] == SCHEMA_VERSION
        rebuilt = RunRecord.from_json(data)
        assert rebuilt == core_record

    def test_json_round_trip_cluster(self, cluster_record):
        data = json.loads(json.dumps(cluster_record.to_json()))
        rebuilt = RunRecord.from_json(data)
        assert rebuilt == cluster_record

    def test_soc_record_shape(self, soc_record):
        r = soc_record
        assert r.backend == "soc:2x2"
        assert r.cluster is None
        assert r.soc is not None
        assert r.soc.clusters == 2
        assert r.soc.cores_per_cluster == 2
        assert len(r.soc.cluster_cycles) == 2
        assert len(r.soc.link_beats) == 2
        assert r.soc.l2_bytes_read == 512 * 8
        assert r.soc.barrier_count >= 2
        assert r.power_mw > 0

    def test_json_round_trip_soc(self, soc_record):
        data = json.loads(json.dumps(soc_record.to_json()))
        assert data["schema"] == SCHEMA_VERSION
        assert data["soc_detail"]["clusters"] == 2
        rebuilt = RunRecord.from_json(data)
        assert rebuilt == soc_record

    def test_schema_mismatch_rejected(self, core_record):
        stale = dict(core_record.to_json(), schema=SCHEMA_VERSION + 1)
        with pytest.raises(ValueError, match="schema mismatch"):
            RunRecord.from_json(stale)

    def test_v1_payload_gets_actionable_error(self, core_record):
        """A v1 payload must fail with one line naming the version
        found, the version expected, and the missing soc_detail."""
        v1 = dict(core_record.to_json(), schema=1)
        v1.pop("soc_detail")
        with pytest.raises(ValueError) as excinfo:
            RunRecord.from_json(v1)
        message = str(excinfo.value)
        assert "\n" not in message
        assert "1" in message and str(SCHEMA_VERSION) in message
        assert "soc_detail" in message
        assert "re-run" in message

    def test_payload_is_json_primitive_only(self, cluster_record):
        # Must survive a strict dump with no default= hook.
        json.dumps(cluster_record.to_json(), allow_nan=False)

    def test_v2_payload_gets_actionable_error(self, core_record):
        """A v2 payload must fail with one line naming the missing
        per-direction traffic fields (the v2 -> v3 migration note)."""
        v2 = dict(core_record.to_json(), schema=2)
        with pytest.raises(ValueError) as excinfo:
            RunRecord.from_json(v2)
        message = str(excinfo.value)
        assert "\n" not in message
        assert "2" in message and str(SCHEMA_VERSION) in message
        assert "dma_bytes_read" in message and "writeback" in message
        assert "re-run" in message


class TestWritebackBackends:
    """The +wb spec suffix and write-back record detail."""

    def test_parse_writeback_specs(self):
        cluster = parse_backend("cluster:2+wb")
        assert isinstance(cluster, ClusterBackend)
        assert cluster.writeback and cluster.cores == 2
        assert cluster.spec == "cluster:2+wb"
        soc = parse_backend("soc:2x2+wb")
        assert isinstance(soc, SocBackend)
        assert soc.writeback
        assert soc.spec == "soc:2x2+wb"
        # Round trip: parse(spec).spec is the fixed point.
        for spec in ("cluster:4+wb", "soc:2x4+wb", "cluster:4",
                     "soc:2x4"):
            assert parse_backend(spec).spec == spec

    def test_writeback_cluster_record(self):
        record = ClusterBackend(cores=2, writeback=True).run(
            Workload("expf", "copift", n=512))
        detail = record.cluster
        assert record.backend == "cluster:2+wb"
        assert detail.writeback
        assert detail.dma_bytes_written == 512 * 8
        assert detail.dma_bytes \
            == detail.dma_bytes_read + detail.dma_bytes_written
        # Simulated-beat energy accounting: the priced DMA bytes are
        # the engine's measured traffic (staging + drain).
        assert record.power.breakdown_pj["dma"] > 0
        rebuilt = RunRecord.from_json(
            json.loads(json.dumps(record.to_json())))
        assert rebuilt == record

    def test_writeback_soc_record(self):
        record = SocBackend(clusters=2, cores=2, writeback=True).run(
            Workload("expf", "copift", n=512))
        detail = record.soc
        assert record.backend == "soc:2x2+wb"
        assert detail.writeback
        assert detail.dma_bytes_written == 512 * 8
        assert detail.l2_bytes_written == 512 * 8
        rebuilt = RunRecord.from_json(
            json.loads(json.dumps(record.to_json())))
        assert rebuilt == record

    def test_writeback_energy_exceeds_off_mode_constant_rate(self):
        """Write-back stretches the run and adds simulated traffic;
        total energy must grow versus the off-mode run."""
        on = ClusterBackend(cores=2, writeback=True).run(
            Workload("logf", "copift", n=512))
        off = ClusterBackend(cores=2).run(
            Workload("logf", "copift", n=512))
        assert on.total_cycles > off.total_cycles
        assert on.cluster.dma_bytes > off.cluster.dma_bytes


class TestSweep:
    def _sweep(self):
        workloads = [Workload(k, v, n=256)
                     for k in ("pi_lcg", "poly_lcg")
                     for v in ("baseline", "copift")]
        return Sweep(workloads, backends=("core", "cluster:2"))

    def test_cells_cross_product_order(self):
        sweep = self._sweep()
        cells = sweep.cells()
        assert len(cells) == 8
        # Workload-major, backend-minor.
        assert cells[0][1].spec == "core"
        assert cells[1][1].spec == "cluster:2"
        assert cells[0][0] == cells[1][0]

    def test_string_backends_resolved(self):
        assert [b.spec for b in self._sweep().backends] \
            == ["core", "cluster:2"]

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="at least one workload"):
            Sweep([], backends=("core",))
        with pytest.raises(ValueError, match="at least one backend"):
            Sweep([Workload("expf")], backends=())

    def test_determinism_across_jobs(self):
        sweep = self._sweep()
        baseline = [r.to_json() for r in sweep.run(jobs=1)]
        for jobs in (2, 3, 8):
            shard = [r.to_json() for r in sweep.run(jobs=jobs)]
            assert json.dumps(shard, sort_keys=True) \
                == json.dumps(baseline, sort_keys=True), jobs

    def test_records_line_up_with_cells(self):
        sweep = self._sweep()
        records = sweep.run(jobs=2)
        for (workload, backend), record in zip(sweep.cells(), records):
            assert record.kernel == workload.kernel
            assert record.variant == workload.variant
            assert record.backend == backend.spec

    def test_run_indexed(self):
        sweep = self._sweep()
        indexed = sweep.run_indexed()
        record = indexed[(Workload("pi_lcg", "baseline", n=256),
                          "cluster:2")]
        assert record.cluster.cores == 2

    def test_index_reuses_records_without_rerunning(self):
        sweep = self._sweep()
        records = sweep.run()
        indexed = sweep.index(records)
        assert len(indexed) == len(records)
        key = (Workload("pi_lcg", "baseline", n=256), "cluster:2")
        assert indexed[key] in records

    def test_index_rejects_wrong_length(self):
        sweep = self._sweep()
        with pytest.raises(ValueError, match="records for"):
            sweep.index(sweep.run()[:-1])

    def test_run_indexed_rejects_duplicate_keys(self):
        sweep = Sweep([Workload("pi_lcg", n=256),
                       Workload("pi_lcg", n=256)])
        with pytest.raises(ValueError, match="duplicate sweep cell"):
            sweep.run_indexed()

    def test_from_records_rejects_mismatched_pairs(self):
        from repro.eval.fig2 import KernelMeasurement
        backend = CoreBackend()
        expf = backend.run(Workload("expf", "baseline", n=512))
        logf_cop = backend.run(Workload("logf", "copift", n=512))
        expf_cop = backend.run(Workload("expf", "copift", n=512))
        with pytest.raises(ValueError, match="mismatched record pair"):
            KernelMeasurement.from_records(expf, logf_cop)
        with pytest.raises(ValueError, match="out of order"):
            KernelMeasurement.from_records(expf_cop, expf)
        assert KernelMeasurement.from_records(expf, expf_cop).speedup > 1

    def test_registry_populated_for_library_users(self):
        # Importing repro.eval (or repro) must fill the artifact
        # registry; the README documents this as a public API.
        import repro.eval  # noqa: F401
        from repro.api import artifacts
        assert artifacts.get("fig2").name == "fig2"
        assert set(artifacts.names()) >= {
            "table1", "fig2", "fig3", "clusterscale", "socscale",
            "all", "report",
        }

    def test_invalid_jobs(self):
        with pytest.raises(ValueError, match="jobs must be"):
            self._sweep().run(jobs=0)


@pytest.mark.skipif(not os.path.exists(GOLDEN_PATH),
                    reason="golden file missing")
class TestGoldenAgreement:
    """RunRecord must agree exactly with the recorded golden values."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN_PATH) as handle:
            return json.load(handle)

    @pytest.mark.parametrize("kernel", ["poly_lcg", "expf"])
    @pytest.mark.parametrize("variant", ["baseline", "copift"])
    def test_core_backend_matches_golden(self, golden, kernel, variant):
        row = golden["machine"][f"{kernel}/{variant}"]
        record = CoreBackend().run(
            Workload(kernel, variant, n=golden["n"]), check=True)
        assert record.cycles == row["region_cycles"]
        assert record.total_cycles == row["cycles"]
        assert record.ipc == row["ipc"]
        assert record.power_mw == row["power_mw"]
        assert record.energy_pj == row["energy_pj"]
        assert json.loads(json.dumps(record.counters)) \
            == row["region_counters"]

    @pytest.mark.parametrize("kernel", ["poly_lcg", "expf"])
    @pytest.mark.parametrize("variant", ["baseline", "copift"])
    def test_cluster_backend_matches_golden(self, golden, kernel,
                                            variant):
        rows = {(r["kernel"], r["variant"]): r
                for r in golden["clusterscale"]["rows"]}
        points = {p["cores"]: p
                  for p in rows[(kernel, variant)]["points"]}
        for cores in golden["cores"]:
            record = ClusterBackend(cores=cores).run(
                Workload(kernel, variant, n=golden["n"]))
            point = points[cores]
            assert record.cycles == point["cycles"], cores
            assert record.power_mw == point["power_mw"], cores
            assert record.cluster.tcdm_conflict_cycles \
                == point["tcdm_conflict_cycles"], cores
            assert record.cluster.dma_bytes == point["dma_bytes"], cores
            assert record.cluster.barrier_count \
                == point["barrier_count"], cores
