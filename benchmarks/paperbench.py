"""Shared infrastructure for the paper-reproduction benchmarks.

Every file in this directory regenerates one of the paper's tables or
figures.  Rendering a scene is expensive, so all pipeline stages are
obtained through :mod:`repro.engine`: a session-wide :class:`Engine`
memoizes scenes, renders, placements and streams in memory, and the
content-addressed :class:`~repro.engine.ArtifactStore` (default
``benchmarks/.cache/``, relocatable via ``REPRO_CACHE_DIR``) persists
rendered traces, byte-address streams and stack-distance profiles on
disk.  Harnesses hand the store-backed ``bank.streams(...)`` profile
source itself to ``miss_rate_curve``/``simulate``/``classify_misses``
(never ``streams.stream(line)``), so a warm pytest-benchmark session
performs **zero** renders, loads no address stream and runs **no**
distance pass: every number is read off a stored profile,
bit-identical to the cold run.

The profile harnesses state their whole grid once, as ``{key: (scene,
order, layout, query)}`` cells (queries: :func:`curve`,
:func:`simulated`, :func:`classified`), and hand it to
:meth:`SceneBank.evaluate`.  That first prefetches every profile the
cells read: a cold run resolves them on the engine's persistent
worker pool -- one job per (trace, layout) with a store miss,
rendering, mapping and running the distance passes in the worker --
so the independent passes of a figure run in parallel and this
process never holds their renders or address streams.  A warm run
loads every profile from the store and starts no pool.  Then it
evaluates the same cells off the memoized profiles.

Scale: ``REPRO_SCALE`` (default 0.25) scales the scenes as described in
DESIGN.md; cache sizes quoted from the paper are scaled linearly with
the same factor (working sets scale with the scan-line texel span), so
"32 KB" at scale 0.25 is benchmarked as 8 KB.  Every harness prints the
paper's published numbers next to the measured ones and writes the
table to ``benchmarks/results/``.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.core import classify_misses, miss_rate_curve, simulate
from repro.engine import (
    ArtifactStore,
    Engine,
    TraceSpec,
    layout_from_spec,
    order_from_spec,
    paper_order_spec,
)

#: Reproduction scale (1.0 = the paper's resolutions).
SCALE = float(os.environ.get("REPRO_SCALE", "0.25"))

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def scaled_cache(paper_bytes: int) -> int:
    """Scale a paper cache size, rounding to a power of two.

    Working sets scale roughly linearly with the reproduction scale
    (scan-line texel span x line size), so cache capacities quoted from
    the paper are scaled by the same factor.
    """
    target = max(paper_bytes * SCALE, 512)
    exponent = int(round(np.log2(target)))
    return 1 << exponent


def kb(nbytes: int) -> str:
    """Format a byte count the way the paper labels cache sizes."""
    if nbytes >= 1024:
        return f"{nbytes // 1024}KB"
    return f"{nbytes}B"


class SceneBank:
    """Session-wide access to scenes, traces, placements and streams.

    A thin adapter over :class:`repro.engine.Engine` kept for the
    harnesses' vocabulary: methods take (scene name, order spec,
    layout spec) tuples plus optional renderer keyword arguments
    (``time``, ``max_anisotropy``, ``lod_bias``, ``use_mipmaps``,
    ``record_positions``), and every artifact round-trips through the
    shared on-disk store.
    """

    def __init__(self, scale: float = SCALE, store: ArtifactStore = None):
        self.scale = scale
        self.engine = Engine(store=store)

    def _spec(self, name: str, order_spec: tuple, **options) -> TraceSpec:
        return TraceSpec(scene=name, scale=self.scale, order=order_spec,
                         **options)

    def scene(self, name: str):
        return self.engine.scene(name, self.scale)

    def paper_order_spec(self, name: str) -> tuple:
        """The rasterization direction the paper reports for a scene."""
        return paper_order_spec(name)

    def render(self, name: str, order_spec: tuple, **options):
        """RenderResult for (scene, order [, renderer options]), cached."""
        return self.engine.render(self._spec(name, order_spec, **options))

    def trace(self, name: str, order_spec: tuple, **options):
        return self.render(name, order_spec, **options).trace

    def placements(self, name: str, layout_spec: tuple):
        return self.engine.placements(name, self.scale, layout_spec)

    def addresses(self, name: str, order_spec: tuple, layout_spec: tuple,
                  **options):
        """Byte-address stream for (scene, order, layout), cached."""
        return self.engine.addresses(self._spec(name, order_spec, **options),
                                     layout_spec)

    def streams(self, name: str, order_spec: tuple, layout_spec: tuple,
                **options):
        """Byte-address TraceStreams for (scene, order, layout), cached
        together with its per-line-size collapsed streams/profiles."""
        return self.engine.streams(self._spec(name, order_spec, **options),
                                   layout_spec)

    def evaluate(self, grid: dict) -> dict:
        """Evaluate a harness's grid: ``{key: (scene, order, layout,
        query)}`` -> ``{key: query's result on streams(scene, order,
        layout)}``.  Every profile the queries read is resolved first,
        in one batch (:meth:`~repro.engine.Engine.prefetch`: store hits
        load here, misses run on the engine's worker pool)."""
        self.engine.prefetch([(self._spec(name, order_spec), layout_spec,
                               query.pairs)
                              for name, order_spec, layout_spec, query
                              in grid.values()])
        return {key: query(self.streams(name, order_spec, layout_spec))
                for key, (name, order_spec, layout_spec, query)
                in grid.items()}

    def streamed(self, name: str, order_spec: tuple, layout_spec: tuple,
                 chunk_size: int = None, **options):
        """Constant-memory :class:`~repro.engine.streaming.StreamedProfiles`
        for (scene, order, layout): the trace is consumed as bounded
        fragment blocks, never materialized whole."""
        return self.engine.streamed(self._spec(name, order_spec, **options),
                                    layout_spec, chunk_size=chunk_size)


class _Query:
    """One harness measurement on a profile source: ``pairs`` are the
    ``(line_size, n_sets)`` profiles it reads (``n_sets`` 1 for the
    fully associative profile)."""

    def __init__(self, pairs, run):
        self.pairs = tuple(pairs)
        self._run = run

    def __call__(self, streams):
        return self._run(streams)


def curve(line_size: int, cache_sizes) -> _Query:
    """``miss_rate_curve(streams, line_size, cache_sizes)``."""
    return _Query([(line_size, 1)], lambda streams: miss_rate_curve(
        streams, line_size, cache_sizes))


def simulated(config) -> _Query:
    """``simulate(streams, config)``."""
    return _Query([(config.line_size, config.n_sets)],
                  lambda streams: simulate(streams, config))


def classified(config) -> _Query:
    """``classify_misses(streams, config)``: the 3C split reads the
    fully associative profile and the configuration's per-set one."""
    return _Query([(config.line_size, 1), (config.line_size, config.n_sets)],
                  lambda streams: classify_misses(streams, config))


def emit(experiment: str, text: str) -> None:
    """Print a harness's output and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    banner = f"\n=== {experiment} (scale={SCALE}) ===\n"
    print(banner + text)
    path = RESULTS_DIR / f"{experiment}.txt"
    path.write_text(banner + text + "\n")


__all__ = [
    "SCALE",
    "RESULTS_DIR",
    "SceneBank",
    "classified",
    "curve",
    "emit",
    "kb",
    "layout_from_spec",
    "order_from_spec",
    "scaled_cache",
    "simulated",
]
