"""Tests for the benchmark-harness infrastructure (benchmarks/paperbench)."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from paperbench import (  # noqa: E402
    SceneBank,
    kb,
    layout_from_spec,
    order_from_spec,
    scaled_cache,
)


class TestScaledCache:
    def test_identity_at_scale_one(self, monkeypatch):
        import paperbench
        monkeypatch.setattr(paperbench, "SCALE", 1.0)
        assert paperbench.scaled_cache(32 * 1024) == 32 * 1024

    def test_quarter_scale(self, monkeypatch):
        import paperbench
        monkeypatch.setattr(paperbench, "SCALE", 0.25)
        assert paperbench.scaled_cache(32 * 1024) == 8 * 1024
        assert paperbench.scaled_cache(4 * 1024) == 1024

    def test_floor(self, monkeypatch):
        import paperbench
        monkeypatch.setattr(paperbench, "SCALE", 0.1)
        assert paperbench.scaled_cache(1024) == 512

    def test_power_of_two(self):
        for paper in (1024, 4096, 32768, 131072):
            size = scaled_cache(paper)
            assert size & (size - 1) == 0


class TestSpecs:
    def test_order_specs(self):
        assert order_from_spec(("horizontal",)).name == "horizontal"
        assert order_from_spec(("tiled", 16)).tile_w == 16
        tiled = order_from_spec(("tiled", 8, "col", "col"))
        assert tiled.within == "col"
        assert order_from_spec(("hilbert", 9)).order_bits == 9

    def test_layout_specs(self):
        assert layout_from_spec(("nonblocked",)).name == "nonblocked"
        assert layout_from_spec(("blocked", 4)).block_w == 4
        padded = layout_from_spec(("padded", 8, 2))
        assert padded.pad_blocks == 2
        six = layout_from_spec(("blocked6d", 8, 16384))
        assert six.superblock_nbytes == 16384
        assert layout_from_spec(("williams",)).accesses_per_texel == 3

    def test_kb(self):
        assert kb(8192) == "8KB"
        assert kb(512) == "512B"


class TestSceneBank:
    @pytest.fixture(scope="class")
    def bank(self):
        return SceneBank(scale=0.1)

    def test_scene_memoized(self, bank):
        assert bank.scene("goblet") is bank.scene("goblet")

    def test_render_memoized_per_order(self, bank):
        a = bank.render("goblet", ("horizontal",))
        b = bank.render("goblet", ("horizontal",))
        c = bank.render("goblet", ("vertical",))
        assert a is b
        assert a is not c

    def test_streams_cached(self, bank):
        first = bank.streams("goblet", ("horizontal",), ("blocked", 4))
        second = bank.streams("goblet", ("horizontal",), ("blocked", 4))
        assert first is second

    def test_paper_order_spec(self, bank):
        assert bank.paper_order_spec("town") == ("vertical",)
        assert bank.paper_order_spec("goblet") == ("horizontal",)

    def test_addresses_nonempty(self, bank):
        streams = bank.streams("goblet", ("horizontal",), ("nonblocked",))
        assert streams.stream(32).total_accesses > 0


#: The harnesses that read stored profiles through SceneBank.evaluate.
PROFILE_HARNESSES = ("bench_fig_5_2", "bench_fig_5_4", "bench_fig_5_5",
                     "bench_fig_5_6", "bench_fig_5_7", "bench_fig_6_2",
                     "bench_fig_6_4", "bench_table_7_1")


def test_harness_queries_declare_every_profile_they_read(tmp_path,
                                                         monkeypatch):
    """Each profile harness's queries name every profile they read, so
    a cold ``measure()`` runs all its distance passes inside the
    prefetch (on the pool) and none afterwards in this process."""
    import importlib

    from repro.core import kernels, stackdist
    from repro.engine import ArtifactStore, Engine

    prefetching = []
    late_passes = []
    original_prefetch = Engine.prefetch

    def prefetch(self, *args, **kwargs):
        prefetching.append(True)
        try:
            return original_prefetch(self, *args, **kwargs)
        finally:
            prefetching.pop()

    def counted(owner, attribute):
        original = getattr(owner, attribute)

        def wrapper(*args, **kwargs):
            if not prefetching:
                late_passes.append(attribute)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, wrapper)

    monkeypatch.setattr(Engine, "prefetch", prefetch)
    for attribute in ("set_distance_histogram", "per_set_distances",
                      "previous_occurrences"):
        counted(kernels, attribute)
    counted(stackdist, "stack_distances")

    bank = SceneBank(scale=0.05, store=ArtifactStore(tmp_path / "store"))
    for name in PROFILE_HARNESSES:
        importlib.import_module(name).measure(bank)
        assert late_passes == [], name
