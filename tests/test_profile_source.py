"""Tests for the profile-source route through ``simulate`` and
``classify_misses``.

A *profile source* serves memoized distance profiles through
``profile(line_size)`` and ``set_profile(line_size, n_sets)``:
:class:`~repro.core.sweep.TraceStreams` in RAM,
:class:`~repro.engine.runner.StoredTraceStreams` backed by the artifact
store, and the streamed fold
:class:`~repro.engine.streaming.StreamedProfiles`.  Covers:

* equivalence -- every source gives the same :class:`CacheStats`, field
  for field (3C split included), as the :class:`LineStream` route and
  the sequential ``kernel="reference"`` oracle;
* the warm path -- a fresh engine on a store one pass filled answers
  the Fig 5.7, Fig 6.4 and Table 7.1 harness queries with no render,
  no load of the addresses artifact and no distance pass;
* the previous-occurrence index lives no longer than the batch that
  built it.
"""

import dataclasses
import gc
import sys
import weakref
from pathlib import Path

import pytest

from repro.core import CacheConfig, LineStream, classify_misses, simulate
from repro.core import kernels, stackdist
from repro.core.sweep import TraceStreams, sweep_associativities
from repro.engine import ArtifactStore, Engine, TraceSpec, render_calls, tiers

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

SPEC = TraceSpec(scene="goblet", scale=0.05, order=("horizontal",))
LAYOUT = ("blocked", 4)
LINE_SIZES = (32, 64, 128)
ASSOCIATIVITIES = (1, 2, 4, None)


def configs():
    """Line sizes x associativities x two sizes; ``4 * line`` at
    4 ways (and every fully associative cell) has one set."""
    for line in LINE_SIZES:
        for size in (4 * line, 2048):
            for assoc in ASSOCIATIVITIES:
                yield CacheConfig(size, line, assoc)


def fields(stats):
    return dataclasses.asdict(stats)


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("profile-source"))
    engine = Engine(store=store)
    stored = engine.streams(SPEC, LAYOUT)
    addresses = stored.addresses
    return addresses, {
        "TraceStreams": TraceStreams(addresses),
        "StoredTraceStreams": stored,
        "StreamedProfiles": engine.streamed(SPEC, LAYOUT, chunk_size=200),
    }


@pytest.mark.parametrize("source_name", ["TraceStreams", "StoredTraceStreams",
                                         "StreamedProfiles"])
class TestEquivalence:
    def test_simulate(self, sources, source_name):
        addresses, by_name = sources
        source = by_name[source_name]
        for config in configs():
            stream = LineStream.from_addresses(addresses, config.line_size)
            expected = fields(simulate(addresses, config, kernel="reference"))
            assert fields(simulate(stream, config)) == expected, config
            assert fields(simulate(source, config)) == expected, config

    def test_classify_misses(self, sources, source_name):
        addresses, by_name = sources
        source = by_name[source_name]
        assert any(config.n_sets == 1 and config.assoc is not None
                   for config in configs())
        for config in configs():
            stream = LineStream.from_addresses(addresses, config.line_size)
            expected = fields(
                classify_misses(addresses, config, kernel="reference"))
            assert expected["capacity_misses"] is not None
            assert fields(classify_misses(stream, config)) == expected, config
            assert fields(classify_misses(source, config)) == expected, config


def test_reference_kernel_replays_the_source_stream(sources):
    addresses, by_name = sources
    config = CacheConfig(2048, 64, 2)
    expected = fields(classify_misses(addresses, config, kernel="reference"))
    assert fields(classify_misses(by_name["TraceStreams"], config,
                                  kernel="reference")) == expected
    # Streaming never materializes the stream the oracle replays.
    with pytest.raises(RuntimeError, match="never materializes"):
        simulate(by_name["StreamedProfiles"], config, kernel="reference")


class _Counter:
    """Counts calls to module or class attributes it wraps."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.calls = {}

    def wrap(self, owner, attribute, label):
        original = getattr(owner, attribute)
        self.calls.setdefault(label, 0)

        def counted(*args, **kwargs):
            self.calls[label] += 1
            return original(*args, **kwargs)

        self.monkeypatch.setattr(owner, attribute, counted)


def test_warm_engine_serves_harness_queries_from_stored_profiles(
        tmp_path, monkeypatch):
    import bench_fig_5_7
    import bench_fig_6_4
    import bench_table_7_1
    from paperbench import SceneBank

    harnesses = (bench_fig_5_7, bench_fig_6_4, bench_table_7_1)
    root = tmp_path / "store"
    cold = [harness.measure(SceneBank(scale=0.05, store=ArtifactStore(root)))
            for harness in harnesses]
    # A fresh process: nothing memoized, nothing in the T0 tier.
    tiers.clear_process_caches()

    counter = _Counter(monkeypatch)
    counter.wrap(ArtifactStore, "load_addresses", "addresses loads")
    for attribute in ("set_distance_histogram", "per_set_distances",
                      "previous_occurrences"):
        counter.wrap(kernels, attribute, "distance passes")
    counter.wrap(stackdist, "stack_distances", "distance passes")
    renders = render_calls()

    bank = SceneBank(scale=0.05, store=ArtifactStore(root))
    warm = [harness.measure(bank) for harness in harnesses]

    assert render_calls() == renders
    assert counter.calls == {"addresses loads": 0, "distance passes": 0}
    for cold_result, warm_result in zip(cold, warm):
        assert cold_result.keys() == warm_result.keys()
        for key, value in cold_result.items():
            other = warm_result[key]
            if dataclasses.is_dataclass(value):
                value, other = fields(value), fields(other)
            assert value == other, key


def test_previous_occurrence_index_does_not_outlive_its_batch(
        sources, monkeypatch):
    addresses, _ = sources
    alive = []
    original = kernels.previous_occurrences

    def tracked(lines):
        prev = original(lines)
        alive.append(weakref.ref(prev))
        return prev

    monkeypatch.setattr(kernels, "previous_occurrences", tracked)
    streams = TraceStreams(addresses)
    sweep_associativities(streams, 2048, 64, classify=True)
    streams.profile(128)
    streams.set_profile(128, 4)
    gc.collect()
    assert alive, "no distance pass ran"
    assert all(ref() is None for ref in alive)
    # The memoized profiles themselves stay.
    assert streams.profile(64) is streams.profile(64)
