"""Pipelined parallel streaming: bit-identity, fallbacks, auditing.

The pipelined fold (:mod:`repro.engine.pipelined`) partitions cold
renders across a persistent worker pool; workers fold their own
slices inline (state transport, the default) or ship blocks to a
parent-side fold over shared memory / store readiness-polling.  Every
path must reproduce the in-RAM pipeline bit for bit; every failure mode
must degrade to the serial streamed path with a warning, never a
wrong answer.  Also covers the ``audit_parts`` sequential-oracle
spot check and the sharded fold's process cap.
"""

import contextlib
import multiprocessing
import os
import re
import warnings

import numpy as np
import pytest

from repro.engine import (
    ArtifactStore,
    Engine,
    ExperimentSpec,
    StreamAuditReport,
    StreamedProfiles,
    StreamingAuditError,
    TraceSpec,
)
from repro.engine import pipelined, streaming
from repro.engine.pipelined import shutdown_stream_pool
from repro.engine.spec import paper_order_spec
from repro.pipeline.renderer import (
    render_trace,
    render_trace_blocks,
    triangle_slice_bounds,
)
from repro.pipeline.trace import concat_blocks, iter_blocks

SCENE = "town"
SCALE = 0.05
LAYOUT = ("blocked", 8)
SIZES = (1024, 4096, 16384)

GRID = dict(scenes=(SCENE,), layouts=(LAYOUT,), cache_sizes=SIZES,
            line_sizes=(32, 64), assocs=(None, 2), scale=SCALE)


def town_spec():
    return TraceSpec(scene=SCENE, scale=SCALE, order=paper_order_spec(SCENE))


def rows(result):
    return [(r.scene, r.layout, r.config.label(), r.stats)
            for r in result.rows]


@contextlib.contextmanager
def no_fallback_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    fallbacks = [w for w in caught if "falling back" in str(w.message)]
    assert not fallbacks, [str(w.message) for w in fallbacks]


@pytest.fixture(autouse=True)
def fresh_pool():
    """Workers inherit the environment at spawn, so every test starts
    (and leaves) with no pool: fault-injection env vars set by one test
    must never leak into another test's persistent workers."""
    shutdown_stream_pool()
    yield
    shutdown_stream_pool()


class TestTriangleSlices:
    def test_slice_bounds_partition_the_index_space(self):
        for n in (0, 1, 7, 100):
            for count in (1, 2, 3, 8):
                bounds = [triangle_slice_bounds(n, (i, count))
                          for i in range(count)]
                assert bounds[0][0] == 0 and bounds[-1][1] == n
                for (_, hi), (lo, _) in zip(bounds[:-1], bounds[1:]):
                    assert hi == lo
        assert triangle_slice_bounds(10) == (0, 10)
        with pytest.raises(ValueError):
            triangle_slice_bounds(10, (2, 2))
        with pytest.raises(ValueError):
            triangle_slice_bounds(10, (0, 0))

    def test_sliced_streams_concatenate_bit_identical(self):
        scene = Engine().scene(SCENE, SCALE)
        whole = render_trace(scene).trace
        blocks, totals = [], []
        for index in range(3):
            slice_totals = {}
            blocks.extend(render_trace_blocks(
                scene, 2048, totals=slice_totals,
                triangle_slice=(index, 3)))
            totals.append(slice_totals)
        rebuilt = concat_blocks(blocks)
        assert rebuilt.n_accesses == whole.n_accesses
        for column in ("texture_id", "level", "tu", "tv",
                       "tu_raw", "tv_raw", "kind"):
            assert np.array_equal(getattr(rebuilt, column),
                                  getattr(whole, column))
        # Slice totals are slice-local and sum to the frame's.
        assert sum(t["n_fragments"] for t in totals) == whole.n_fragments


class TestPipelinedRun:
    def test_cold_pipelined_run_bit_identical(self, tmp_path):
        exp = ExperimentSpec(**GRID)
        ram = Engine(store=ArtifactStore(tmp_path / "a")).run(exp)
        pipe_store = ArtifactStore(tmp_path / "b")
        piped = Engine(store=pipe_store).run(exp, chunk_size=4096,
                                             stream_workers=2)
        assert rows(ram) == rows(piped)
        # The parallel render committed a dense, verifiable chunked
        # trace: p00000..p{n-1}, sidecar published, checksums intact.
        reader = pipe_store.open_render_blocks(exp.trace_specs()[0])
        assert reader is not None and len(reader) > 1
        names = [entry["name"] for entry in reader.meta["parts"]]
        assert [int(re.search(r"\.p(\d+)\.npz$", name).group(1))
                for name in names] == list(range(len(names)))
        scan = pipe_store.verify()
        assert scan["clean"] and scan["bad"] == 0

    def test_warm_pipelined_fold_bit_identical(self, tmp_path):
        # Build the chunked trace without publishing any profiles, so
        # prefetch() must actually run the warm pipelined fold rather
        # than loading cached artifacts.
        spec = town_spec()
        scratch = Engine(store=ArtifactStore(tmp_path / "scratch"))
        result = scratch.render(spec)
        store = ArtifactStore(tmp_path / "warm")
        writer = store.open_render_writer(spec)
        for block in iter_blocks(result.trace, 3000):
            writer.append(block)
        assert writer.finish({
            "n_triangles_submitted": result.n_triangles_submitted,
            "n_triangles_rasterized": result.n_triangles_rasterized})

        streamed = StreamedProfiles(store, spec, LAYOUT, chunk_size=3000,
                                    stream_workers=2)
        reference = scratch.streams(spec, LAYOUT)
        for pair in ((32, 1), (32, 64), (64, 1), (64, 16)):
            got = streamed.set_profile(*pair)
            want = reference.set_profile(*pair)
            assert np.array_equal(got.counts, want.counts)
            assert got.cold == want.cold
            assert got.duplicate_hits == want.duplicate_hits

    def test_pool_persists_across_folds(self, tmp_path):
        exp = ExperimentSpec(**GRID)
        engine = Engine(store=ArtifactStore(tmp_path / "a"))
        engine.run(exp, chunk_size=4096, stream_workers=2)
        pool = pipelined._POOL
        assert pool is not None and pool.alive()
        pids = [process.pid for process in pool.processes]
        # A second grid over the same pool: different layout, so the
        # fold runs again (warm this time) instead of loading caches.
        engine.run(ExperimentSpec(**{**GRID, "layouts": (("nonblocked",),)}),
                   chunk_size=4096, stream_workers=2)
        assert pipelined._POOL is pool
        assert [process.pid for process in pool.processes] == pids

    def test_stream_workers_reject_reference_kernel(self, tmp_path):
        exp = ExperimentSpec(scenes=(SCENE,), layouts=(LAYOUT,), scale=SCALE)
        with pytest.raises(ValueError, match="vectorized"):
            Engine(store=ArtifactStore(tmp_path / "a")).run(
                exp, stream_workers=2, kernel="reference")

    def test_audit_parts_requires_streaming(self, tmp_path):
        exp = ExperimentSpec(scenes=(SCENE,), layouts=(LAYOUT,), scale=SCALE)
        with pytest.raises(ValueError, match="streaming"):
            Engine(store=ArtifactStore(tmp_path / "a")).run(
                exp, audit_parts=2)


class TestFallbacks:
    def test_pool_death_falls_back_to_serial(self, tmp_path, monkeypatch):
        exp = ExperimentSpec(**GRID)
        ram = Engine(store=ArtifactStore(tmp_path / "a")).run(exp)
        monkeypatch.setenv("REPRO_FAULT_STREAM_POOL", "die")
        with pytest.warns(RuntimeWarning, match="falling back"):
            piped = Engine(store=ArtifactStore(tmp_path / "b")).run(
                exp, chunk_size=4096, stream_workers=2)
        assert rows(ram) == rows(piped)

    def test_shm_unavailable_falls_back_to_serial(self, tmp_path,
                                                  monkeypatch):
        # The shm transport must be forced: the default state transport
        # never touches shared memory, so losing shm cannot break it.
        exp = ExperimentSpec(**GRID)
        ram = Engine(store=ArtifactStore(tmp_path / "a")).run(exp)
        monkeypatch.setenv("REPRO_STREAM_TRANSPORT", "shm")
        monkeypatch.setenv("REPRO_FAULT_SHM", "unavailable")
        with pytest.warns(RuntimeWarning, match="falling back"):
            piped = Engine(store=ArtifactStore(tmp_path / "b")).run(
                exp, chunk_size=4096, stream_workers=2)
        assert rows(ram) == rows(piped)

    def test_more_workers_than_cores_bit_identical(self, tmp_path):
        # Four workers (more than a small host has cores) finish their
        # ranges concurrently and write their states, each larger than
        # one atomic pipe write, to the one event pipe: every message
        # must arrive whole.
        exp = ExperimentSpec(**GRID)
        ram = Engine(store=ArtifactStore(tmp_path / "a")).run(exp)
        with no_fallback_warning():
            piped = Engine(store=ArtifactStore(tmp_path / "b")).run(
                exp, chunk_size=1024, stream_workers=4)
        assert rows(ram) == rows(piped)
        assert piped.stream_report is None or piped.stream_report.clean

    def test_shm_transport_bit_identical(self, tmp_path, monkeypatch):
        # Forcing the shared-memory transport keeps the parent-side
        # fold over shm block descriptors covered; no fallback fires.
        exp = ExperimentSpec(**GRID)
        ram = Engine(store=ArtifactStore(tmp_path / "a")).run(exp)
        monkeypatch.setenv("REPRO_STREAM_TRANSPORT", "shm")
        store = ArtifactStore(tmp_path / "b")
        with no_fallback_warning():
            piped = Engine(store=store).run(exp, chunk_size=4096,
                                            stream_workers=2)
        assert rows(ram) == rows(piped)
        scan = store.verify()
        assert scan["clean"] and scan["bad"] == 0
        # Leak check: every shm segment the fold created must be gone
        # once the pool shuts down (tracked in-flight ones included).
        shutdown_stream_pool()
        shm_root = "/dev/shm"
        if os.path.isdir(shm_root):
            leaked = [name for name in os.listdir(shm_root)
                      if name.startswith(f"repro{os.getpid()}s")]
            assert leaked == []

    def test_store_transport_bit_identical(self, tmp_path, monkeypatch):
        # Forcing the part-file transport exercises the readiness-
        # polling protocol end to end; no fallback may fire.
        exp = ExperimentSpec(**GRID)
        ram = Engine(store=ArtifactStore(tmp_path / "a")).run(exp)
        monkeypatch.setenv("REPRO_STREAM_TRANSPORT", "store")
        store = ArtifactStore(tmp_path / "b")
        with no_fallback_warning():
            piped = Engine(store=store).run(exp, chunk_size=4096,
                                            stream_workers=2)
        assert rows(ram) == rows(piped)
        scan = store.verify()
        assert scan["clean"] and scan["bad"] == 0

    def test_single_worker_request_stays_serial(self, tmp_path):
        # stream_workers=1 requests streaming but there is nothing to
        # pipeline; the serial fold runs without any fallback warning.
        exp = ExperimentSpec(**GRID)
        ram = Engine(store=ArtifactStore(tmp_path / "a")).run(exp)
        with no_fallback_warning():
            piped = Engine(store=ArtifactStore(tmp_path / "b")).run(
                exp, stream_workers=1)
        assert rows(ram) == rows(piped)
        assert pipelined._POOL is None


class TestAudit:
    def test_audit_report_via_engine_run(self, tmp_path):
        exp = ExperimentSpec(**GRID)
        result = Engine(store=ArtifactStore(tmp_path / "a")).run(
            exp, chunk_size=4096, stream_workers=2, audit_parts=2)
        assert len(result.audit_reports) == 1
        report = result.audit_reports[0]
        assert isinstance(report, StreamAuditReport)
        assert 1 <= len(report.parts) <= 2
        assert all(0 <= p < report.n_parts for p in report.parts)
        assert report.accesses > 0
        # Every (line_size, n_sets) pair of the grid got audited.
        line_sizes = {pair[0] for pair in report.pairs}
        assert line_sizes == set(GRID["line_sizes"])

    def test_audit_detects_a_broken_kernel(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "a")
        streamed = StreamedProfiles(store, town_spec(), LAYOUT,
                                    chunk_size=4096)
        pairs = [(64, 1), (64, 16)]
        streamed.prefetch(pairs)
        assert isinstance(streamed.audit(pairs, parts=2), StreamAuditReport)

        real = streaming.per_set_distances

        def corrupted(run_lines, n_sets):
            distances, cold = real(run_lines, n_sets)
            distances = distances.copy()
            if len(distances) and (~cold).any():
                warm = np.flatnonzero(~cold)
                distances[warm[-1]] += 1  # off-by-one a warm distance
            return distances, cold

        monkeypatch.setattr(streaming, "per_set_distances", corrupted)
        with pytest.raises(StreamingAuditError):
            streamed.audit(pairs, parts=2)


class TestShardCap:
    def test_sharded_pool_capped_at_cpu_count(self, tmp_path, monkeypatch):
        captured = {}
        real_pool = multiprocessing.Pool

        def spying_pool(processes=None):
            captured["processes"] = processes
            return real_pool(processes=processes)

        monkeypatch.setattr(multiprocessing, "Pool", spying_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        streamed = StreamedProfiles(ArtifactStore(tmp_path / "a"),
                                    town_spec(), LAYOUT,
                                    chunk_size=4096, shards=8)
        streamed.prefetch([(64, 16)])
        assert captured["processes"] == 1
