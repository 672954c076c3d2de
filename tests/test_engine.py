"""Tests for the shared experiment engine (repro.engine)."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import miss_rate_curve
from repro.engine import (
    ArtifactStore,
    Engine,
    ExperimentSpec,
    TraceSpec,
    addresses_payload,
    fingerprint,
    render_calls,
    run_experiment,
)
from repro.pipeline.trace import TexelTrace
from repro.texture.layout import BlockedLayout, WilliamsLayout
from repro.texture.memory import AddressMapper, place_textures

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

SPEC = TraceSpec(scene="goblet", scale=0.1, order=("horizontal",))


def trace_columns(trace):
    return (trace.texture_id, trace.level, trace.tu, trace.tv,
            trace.tu_raw, trace.tv_raw, trace.kind)


def assert_traces_equal(a, b):
    for left, right in zip(trace_columns(a), trace_columns(b)):
        np.testing.assert_array_equal(left, right)
    assert a.n_fragments == b.n_fragments


class TestArtifactStore:
    def test_cold_miss_then_warm_hit(self, tmp_path):
        cold = Engine(store=ArtifactStore(tmp_path))
        before = render_calls()
        first = cold.render(SPEC)
        assert render_calls() == before + 1
        # Same engine: in-memory memo, still one render.
        assert cold.render(SPEC) is first

        # Fresh engine over the same store: zero renders, zero scene
        # builds, same trace and triangle counters.
        warm = Engine(store=ArtifactStore(tmp_path))
        second = warm.render(SPEC)
        assert render_calls() == before + 1
        assert not warm._scenes
        assert_traces_equal(first.trace, second.trace)
        assert second.n_fragments == first.n_fragments
        assert second.n_triangles_submitted == first.n_triangles_submitted
        assert second.n_triangles_rasterized == first.n_triangles_rasterized

    def test_warm_streams_skip_render_and_scene_build(self, tmp_path):
        cold = Engine(store=ArtifactStore(tmp_path))
        cold_addresses = cold.addresses(SPEC, ("blocked", 4))
        before = render_calls()
        warm = Engine(store=ArtifactStore(tmp_path))
        warm_addresses = warm.addresses(SPEC, ("blocked", 4))
        assert render_calls() == before
        assert not warm._scenes
        np.testing.assert_array_equal(cold_addresses, warm_addresses)

    def test_fingerprint_invalidation(self):
        base = fingerprint(addresses_payload(SPEC, ("blocked", 4)))
        changed = [
            addresses_payload(
                TraceSpec(scene="goblet", scale=0.2, order=("horizontal",)),
                ("blocked", 4)),
            addresses_payload(
                TraceSpec(scene="goblet", scale=0.1, order=("vertical",)),
                ("blocked", 4)),
            addresses_payload(SPEC, ("blocked", 8)),
            addresses_payload(SPEC, ("nonblocked",)),
        ]
        fingerprints = {base} | {fingerprint(p) for p in changed}
        assert len(fingerprints) == 5

    def test_miss_rate_curves_bit_identical_cold_vs_warm(self, tmp_path):
        sizes = [1024, 2048, 4096]
        cold = Engine(store=ArtifactStore(tmp_path))
        cold_curve = miss_rate_curve(cold.streams(SPEC, ("blocked", 4)), 32, sizes)
        warm = Engine(store=ArtifactStore(tmp_path))
        warm_curve = miss_rate_curve(warm.streams(SPEC, ("blocked", 4)), 32, sizes)
        np.testing.assert_array_equal(cold_curve.miss_rates, warm_curve.miss_rates)
        assert cold_curve.cold_miss_rate == warm_curve.cold_miss_rate

    def test_stats_and_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        Engine(store=store).streams(SPEC, ("blocked", 4)).profile(32)
        report = store.stats()
        assert report["kinds"]["traces"]["files"] > 0
        assert report["kinds"]["addresses"]["files"] > 0
        assert report["kinds"]["profiles"]["files"] > 0
        assert report["total_bytes"] > 0
        cleared = store.clear()
        assert cleared["total_files"] == report["total_files"]
        assert store.stats()["total_files"] == 0

    def test_torn_artifact_treated_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        Engine(store=store).render(SPEC)
        for path in (tmp_path / "traces").iterdir():
            path.write_bytes(b"torn")
        before = render_calls()
        result = Engine(store=ArtifactStore(tmp_path)).render(SPEC)
        assert render_calls() == before + 1
        assert result.trace.n_accesses > 0


class TestTraceSaveLoad:
    def test_round_trip(self, tmp_path):
        trace = Engine(store=ArtifactStore(tmp_path)).trace(SPEC)
        path = tmp_path / "trace.npz"
        trace.save(path)
        assert_traces_equal(trace, TexelTrace.load(path))


class TestWarmHarness:
    def test_fig_5_2_second_run_renders_nothing(self, tmp_path):
        import bench_fig_5_2
        from paperbench import SceneBank

        cold_bank = SceneBank(scale=0.1, store=ArtifactStore(tmp_path))
        cold_curves, cold_colds = bench_fig_5_2.measure(cold_bank)
        before = render_calls()

        warm_bank = SceneBank(scale=0.1, store=ArtifactStore(tmp_path))
        warm_curves, warm_colds = bench_fig_5_2.measure(warm_bank)
        assert render_calls() == before
        assert not warm_bank.engine._scenes

        assert cold_curves.keys() == warm_curves.keys()
        for key in cold_curves:
            np.testing.assert_array_equal(cold_curves[key].miss_rates,
                                          warm_curves[key].miss_rates)
        assert cold_colds == warm_colds


class TestExperimentRunner:
    def test_grid_and_select(self, tmp_path):
        experiment = ExperimentSpec(
            scenes=("goblet",), orders=(("horizontal",), ("vertical",)),
            layouts=(("nonblocked",), ("blocked", 4)),
            cache_sizes=(1024, 4096), line_sizes=(32,), assocs=(None, 2),
            scale=0.1)
        result = run_experiment(experiment, store=ArtifactStore(tmp_path))
        assert len(result.rows) == 2 * 2 * 2 * 2
        picked = result.select(order=("vertical",), layout=("blocked", 4),
                               cache_size=4096, assoc=None)
        assert len(picked) == 1
        assert 0.0 <= picked[0].stats.miss_rate <= 1.0
        # Bigger cache, same everything else: no more misses.
        small = result.select(order=("vertical",), layout=("blocked", 4),
                              cache_size=1024, assoc=None)[0]
        assert picked[0].stats.miss_rate <= small.stats.miss_rate + 1e-12

    def test_dedup_one_render_per_scene_order(self, tmp_path):
        before = render_calls()
        experiment = ExperimentSpec(
            scenes=("goblet",), orders=(("horizontal",),),
            layouts=(("nonblocked",), ("blocked", 4), ("blocked", 8)),
            cache_sizes=(1024,), line_sizes=(32, 64), scale=0.1)
        run_experiment(experiment, store=ArtifactStore(tmp_path))
        assert render_calls() == before + 1

    def test_parallel_workers_warm_the_store(self, tmp_path):
        experiment = ExperimentSpec(
            scenes=("goblet",), orders=(("horizontal",), ("vertical",)),
            layouts=(("blocked", 4),), cache_sizes=(1024, 4096),
            line_sizes=(32,), scale=0.1)
        store = ArtifactStore(tmp_path)
        result = run_experiment(experiment, store=store, workers=2)
        # Workers rendered in subprocesses; this process stayed cold.
        assert len(result.rows) == 2 * 2
        serial = run_experiment(experiment, store=ArtifactStore(tmp_path))
        for row, expected in zip(result.rows, serial.rows):
            assert row.stats.miss_rate == expected.stats.miss_rate

    def test_reference_kernel_runs_no_distance_pass(self, tmp_path):
        # The reference simulator replays the address stream, so neither
        # the parallel warm phase nor assembly may leave a profile.
        experiment = ExperimentSpec(
            scenes=("goblet",), orders=(("horizontal",),),
            layouts=(("blocked", 4),), cache_sizes=(1024, 4096),
            line_sizes=(32,), assocs=(2,), scale=0.1)
        result = run_experiment(experiment, store=ArtifactStore(tmp_path),
                                workers=2, kernel="reference")
        assert len(result.rows) == 2
        assert result.warm_report.tasks == 1 and result.warm_report.ok
        for kind in ("profiles", "set_profiles"):
            assert not list((tmp_path / kind).glob("*.npz")), kind
        assert list((tmp_path / "addresses").glob("*.npy"))
        vectorized = run_experiment(experiment,
                                    store=ArtifactStore(tmp_path / "vec"))
        assert [row.stats for row in result.rows] == \
            [row.stats for row in vectorized.rows]


class TestSpecValidation:
    def test_unknown_scene_rejected(self):
        with pytest.raises((KeyError, ValueError)):
            TraceSpec(scene="teapot", scale=0.1, order=("horizontal",))

    def test_paper_order_resolved(self):
        assert TraceSpec(scene="town", scale=0.1, order="paper").order == \
            ("vertical",)

    def test_trace_specs_deduped(self):
        experiment = ExperimentSpec(
            scenes=("goblet",), orders=("paper", ("horizontal",)),
            layouts=(("nonblocked",),), scale=0.1)
        assert len(experiment.trace_specs()) == 1


class TestAddressMapper:
    def test_matches_per_access_lookup(self, tmp_path):
        engine = Engine(store=ArtifactStore(tmp_path))
        trace = engine.trace(SPEC)
        scene = engine.scene("goblet", 0.1)
        placements = place_textures(scene.get_mipmaps(), BlockedLayout(4))
        mapped = AddressMapper(placements).map_trace(trace)
        expected = np.empty_like(mapped)
        for i in range(trace.n_accesses):
            expected[i] = placements[int(trace.texture_id[i])].addresses(
                int(trace.level[i]), trace.tu[i:i + 1], trace.tv[i:i + 1])[0]
        np.testing.assert_array_equal(mapped, expected)

    def test_williams_three_accesses_per_texel(self, tmp_path):
        engine = Engine(store=ArtifactStore(tmp_path))
        trace = engine.trace(SPEC)
        scene = engine.scene("goblet", 0.1)
        placements = place_textures(scene.get_mipmaps(), WilliamsLayout())
        mapped = AddressMapper(placements).map_trace(trace)
        assert mapped.shape == (trace.n_accesses, 3)
        assert trace.byte_addresses(placements).shape == (3 * trace.n_accesses,)

    def test_empty_trace(self):
        mapper = AddressMapper([])
        empty = np.empty(0, dtype=np.int64)
        assert mapper.map(np.empty(0, dtype=np.int16),
                          np.empty(0, dtype=np.int16), empty, empty).shape == (0,)


class TestCacheCLI:
    def test_stats_and_clear(self, tmp_path, capsys):
        from repro.cli import main

        store = ArtifactStore(tmp_path)
        Engine(store=store).render(SPEC)
        assert main(["cache", "stats", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "traces" in out
        assert str(tmp_path) in out
        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        assert "cleared" in capsys.readouterr().out
        assert store.stats()["total_files"] == 0
