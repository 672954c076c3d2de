"""Constant-memory streaming execution of the simulate pipeline.

The in-RAM pipeline materializes a whole frame's texel trace, its
byte-address stream and the per-line-size collapsed streams before any
profile pass runs, so peak memory scales with trace length -- the cap
that kept experiments at reproduction scale 0.25.  This module folds
the same pipeline over bounded :class:`~repro.pipeline.trace.FragmentBlock`
chunks instead::

    render_blocks --> per-block byte addresses --> PartialSetProfile
    per (line_size, n_sets) --> merge --> finalize

:class:`StreamedProfiles` duck-types the ``profile``/``set_profile``/
``stream`` interface of :class:`~repro.core.sweep.TraceStreams` that
``miss_rate_curve`` and ``Engine._sweep_sizes`` consume, and loads or
saves the *same* store artifacts (``profiles/``, ``set_profiles/``)
under the same fingerprints -- so streamed and in-RAM runs warm each
other.  Because :meth:`~repro.core.kernels.PartialSetProfile.merge` is
exactly the profile of the concatenated stream, every downstream
number (miss-rate curves, 3C classification) is bit-identical to the
in-RAM path.

Peak RSS is bounded by ``O(chunk_size + distinct lines + scene
textures)``, independent of trace length.  ``shards > 1`` fans the
fold out over contiguous part ranges of the store's chunked trace
across a ``multiprocessing`` pool (the same pool discipline as the
warm phase); per-shard partial states merge associatively in part
order, so the sharded result is bit-identical too.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.cache import (
    CacheConfig,
    CacheStats,
    LineStream,
    collapse_consecutive,
    to_lines,
)
from ..core.classify import classify_misses
from ..core.kernels import (
    PartialSetProfile,
    SetDistanceProfile,
    per_set_distances,
    previous_occurrences,
)
from ..core.stackdist import DistanceProfile
from ..pipeline.renderer import render_trace_blocks
from ..pipeline.trace import iter_blocks
from ..scenes import ALL_SCENES
from ..texture.memory import place_textures
from .artifacts import (
    ArtifactStore,
    addresses_payload,
    fingerprint,
    profile_payload,
    set_profile_payload,
)
from .spec import TraceSpec, layout_from_spec, order_from_spec

#: Default block bound in texel accesses (~8 MB of trace columns).
DEFAULT_CHUNK_SIZE = 1 << 20


def _build_scene(spec: TraceSpec):
    return ALL_SCENES[spec.scene]().build(scale=spec.scale, time=spec.time)


def _fold_block_into(states: dict, addresses: np.ndarray) -> None:
    """Merge one block's addresses into every ``(line_size, n_sets)``
    partial state, sharing the line reduction, the consecutive-run
    collapse and the previous-occurrence argsort per line size."""
    by_line_size = {}
    for line_size, n_sets in states:
        by_line_size.setdefault(line_size, []).append(n_sets)
    for line_size, set_counts in by_line_size.items():
        lines = to_lines(addresses, line_size)
        if len(lines) == 0:
            continue
        run_lines, duplicate_hits = collapse_consecutive(lines)
        prev = previous_occurrences(run_lines)
        for n_sets in set_counts:
            key = (line_size, n_sets)
            states[key] = states[key].merge(PartialSetProfile.from_runs(
                run_lines, prev, duplicate_hits, len(lines),
                line_size, n_sets))


def _shard_fold_task(task) -> dict:
    """Pool worker: fold one contiguous part range of a chunked trace
    into per-pair partial states (picklable, merged by the parent).

    Scene/placements and the verified reader come from the pipelined
    module's worker memos: a forked worker inherits the parent's
    pre-built copies (and its verify-once digest cache) copy-on-write,
    so the shard pool pays zero scene builds and re-verifies parts
    with stats instead of hashes."""
    from .pipelined import _cached_placements, _cached_reader
    root, trace_spec, layout_spec, lo, hi, pairs = task
    reader = _cached_reader(root, trace_spec)
    if reader is None:
        raise RuntimeError("chunked trace artifact vanished under the fold")
    placements = _cached_placements(trace_spec, layout_spec)
    states = {pair: PartialSetProfile.empty(*pair) for pair in pairs}
    for index in range(lo, hi):
        _fold_block_into(states, reader.read_part(index).byte_addresses(
            placements))
    return states


class StreamingAuditError(RuntimeError):
    """A spot-audited part disagreed with the sequential reference
    oracle (or the folded profile disagreed with the trace totals)."""


@dataclass(frozen=True)
class StreamAuditReport:
    """What one streamed spot audit checked (it raises on failure)."""

    parts: tuple        # sampled part indices
    n_parts: int        # parts in the chunked trace
    pairs: tuple        # audited (line_size, n_sets) pairs
    accesses: int       # texel accesses replayed through the oracle


def _sequential_set_distances(run_lines, n_sets: int) -> tuple:
    """Per-access LRU stack distances of a collapsed run stream by the
    obvious sequential walk (one MRU-first list per set) -- the oracle
    the streamed spot audit replays against the vectorized kernel.
    Returns ``(distances, cold)`` matching
    :func:`~repro.core.kernels.per_set_distances` (distance values on
    cold accesses are unspecified there, so compare warm slots only).
    """
    distances = np.zeros(len(run_lines), dtype=np.int64)
    cold = np.zeros(len(run_lines), dtype=bool)
    stacks: dict = {}
    for position, line in enumerate(map(int, run_lines)):
        stack = stacks.setdefault(line % n_sets, [])
        try:
            depth = stack.index(line)
        except ValueError:
            cold[position] = True
        else:
            distances[position] = depth + 1
            del stack[depth]
        stack.insert(0, line)
    return distances, cold


class StreamedProfiles:
    """Distance profiles for one ``(trace, layout)`` computed as a
    constant-memory fold over fragment blocks.

    A profile source (:func:`~repro.core.cache.is_profile_source`):
    drop-in for :class:`~repro.engine.runner.StoredTraceStreams` on the
    vectorized kernel.  :meth:`stream` raises, because streaming never
    materializes a :class:`~repro.core.cache.LineStream` (the reference
    simulator needs the in-RAM path).
    """

    def __init__(self, store: Optional[ArtifactStore], trace_spec: TraceSpec,
                 layout_spec, chunk_size: int = DEFAULT_CHUNK_SIZE,
                 shards: int = 0, stream_workers: int = 0):
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.store = store if store is not None else ArtifactStore()
        self.trace_spec = trace_spec
        self.layout_spec = tuple(layout_spec)
        self.chunk_size = int(chunk_size)
        self.shards = int(shards)
        self.stream_workers = int(stream_workers)
        self._payload = addresses_payload(trace_spec, self.layout_spec)
        self._profiles = {}
        self._set_profiles = {}
        self._scene = None
        self._placements = None
        #: Recovery observability: attached/updated by the pipelined
        #: fold (:class:`~repro.engine.pipelined.StreamReport`); stays
        #: ``None`` when every fold ran serially and undisturbed.
        self.stream_report = None

    # -- TraceStreams duck interface --------------------------------------

    def stream(self, line_size: int) -> LineStream:
        raise RuntimeError(
            "streaming mode never materializes a LineStream; the reference "
            "kernel needs the in-RAM path (drop --chunk-size/--shards)")

    def profile(self, line_size: int) -> DistanceProfile:
        """Fully-associative distance profile: the ``n_sets == 1``
        per-set profile under another name (identical fields)."""
        if line_size not in self._profiles:
            base = self.set_profile(line_size, 1)
            self._profiles[line_size] = DistanceProfile(
                counts=base.counts, cold=base.cold,
                duplicate_hits=base.duplicate_hits)
        return self._profiles[line_size]

    def set_profile(self, line_size: int, n_sets: int) -> SetDistanceProfile:
        key = (int(line_size), int(n_sets))
        if key not in self._set_profiles:
            self.prefetch([key])
        return self._set_profiles[key]

    def collapsed_runs(self, line_size: int) -> tuple:
        """The whole trace's collapsed line runs, folded block by block.

        Returns ``(run_lines, duplicate_hits)`` exactly equal to
        :func:`~repro.core.cache.collapse_consecutive` over the
        materialized line stream: each block collapses independently
        and a run straddling two blocks is stitched back into one
        (the dropped repeat is a guaranteed LRU hit, like any other
        suppressed duplicate).  Peak memory is one block plus the runs
        themselves -- no full trace or byte-address array is ever
        built.  Feeds :func:`~repro.core.kernels.sequence_stats` for
        multi-segment (e.g. inter-frame) simulations.
        """
        parts = []
        total = 0
        last = None
        for block in self._blocks():
            lines = to_lines(block.byte_addresses(self._placed()), line_size)
            total += len(lines)
            runs, _ = collapse_consecutive(lines)
            if last is not None and len(runs) and runs[0] == last:
                runs = runs[1:]
            if len(runs):
                last = int(runs[-1])
                parts.append(runs)
        run_lines = (np.concatenate(parts) if parts
                     else np.empty(0, dtype=np.int64))
        return run_lines, int(total - len(run_lines))

    # -- the fold ----------------------------------------------------------

    def prefetch(self, pairs) -> None:
        """Compute (or load from the store) every ``(line_size,
        n_sets)`` profile in ``pairs`` with at most one pass over the
        blocks -- the way to run a whole sweep grid at one render."""
        pairs = sorted({(int(line_size), int(n_sets))
                        for line_size, n_sets in pairs}
                       - set(self._set_profiles))
        remaining = []
        for pair in pairs:
            cached = self._load_cached(pair)
            if cached is not None:
                self._set_profiles[pair] = cached
            else:
                remaining.append(pair)
        if not remaining:
            return
        for pair, state in self._fold(remaining).items():
            profile = state.finalize()
            self._save_cached(pair, profile)
            self._set_profiles[pair] = profile

    def _fold(self, pairs) -> dict:
        if self.stream_workers > 1:
            from . import pipelined
            try:
                return pipelined.fold_pipelined(self, pairs)
            except pipelined.PipelineError as fault:
                report = pipelined._report_of(self)
                report.fallbacks += 1
                report.note(f"serial fallback: {fault}")
                warnings.warn(
                    f"pipelined streaming fold failed ({fault}); "
                    "falling back to the serial streaming path",
                    RuntimeWarning, stacklevel=3)
        if self.shards > 1:
            reader = self._ensure_chunked()
            if reader is not None and len(reader) > 1:
                try:
                    return self._fold_sharded(reader, pairs)
                except Exception as fault:  # pool death: correctness first
                    warnings.warn(
                        f"sharded profile fold failed ({fault}); "
                        "continuing in-process", RuntimeWarning,
                        stacklevel=3)
        states = {pair: PartialSetProfile.empty(*pair) for pair in pairs}
        for block in self._blocks():
            _fold_block_into(states, block.byte_addresses(self._placed()))
        return states

    def _fold_sharded(self, reader, pairs) -> dict:
        import multiprocessing

        if multiprocessing.get_start_method() == "fork":
            # Build placements once in the parent before the pool
            # forks: every worker inherits the memo copy-on-write
            # instead of re-synthesizing the scene's textures.
            from .pipelined import _cached_placements
            _cached_placements(self.trace_spec, self.layout_spec)
        n_parts = len(reader)
        shards = min(self.shards, n_parts)
        bounds = np.linspace(0, n_parts, shards + 1).astype(int)
        tasks = [(str(self.store.root), self.trace_spec, self.layout_spec,
                  int(lo), int(hi), tuple(pairs))
                 for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        # Cap the pool at the machine: shards partition work, not
        # processes, and oversubscribing cores with one process per
        # shard only adds fork/teardown cost.
        processes = min(len(tasks), os.cpu_count() or 1)
        with multiprocessing.Pool(processes=processes) as pool:
            results = pool.map(_shard_fold_task, tasks)
        # merge() is associative and exact, so folding the per-shard
        # states in part order reproduces the serial fold bit for bit.
        states = {pair: PartialSetProfile.empty(*pair) for pair in pairs}
        for shard_states in results:
            for pair in pairs:
                states[pair] = states[pair].merge(shard_states[pair])
        return states

    # -- spot audit --------------------------------------------------------

    def audit(self, pairs, parts: int = 2) -> StreamAuditReport:
        """Replay ``parts`` evenly-sampled chunks of the trace through
        the sequential reference oracle and assert, per access, that
        the vectorized fold agrees.

        Streaming refuses the reference kernel (it needs the
        materialized stream), so this is the scoped substitute: for
        each sampled part and each ``(line_size, n_sets)`` pair it
        checks (1) the vectorized per-access stack distances and cold
        masks against a sequential per-set LRU walk, (2) the part's
        :class:`~repro.core.kernels.PartialSetProfile` against the
        oracle's histogram, and (3) the folded profile's access total
        against the chunked trace's counters.  Raises
        :class:`StreamingAuditError` on the first disagreement;
        returns a :class:`StreamAuditReport` describing the sample.
        """
        pairs = sorted({(int(line_size), int(n_sets))
                        for line_size, n_sets in pairs})
        if not pairs:
            raise ValueError("audit needs at least one pair")
        reader = self._ensure_chunked()
        if reader is None:
            raise StreamingAuditError(
                "spot audit needs the chunked trace in the store "
                "(store demoted?)")
        n_parts = len(reader)
        sampled = sorted({int(index) for index in np.linspace(
            0, n_parts - 1, max(1, min(int(parts), n_parts)))})
        by_line_size = {}
        for line_size, n_sets in pairs:
            by_line_size.setdefault(line_size, []).append(n_sets)
        accesses = 0
        texels_per_access = None
        for part_index in sampled:
            block = reader.read_part(part_index)
            addresses = block.byte_addresses(self._placed())
            if block.n_accesses:
                texels_per_access = len(addresses) // int(block.n_accesses)
            for line_size, set_counts in by_line_size.items():
                lines = to_lines(addresses, line_size)
                run_lines, duplicate_hits = collapse_consecutive(lines)
                for n_sets in set_counts:
                    self._audit_part(part_index, lines, run_lines,
                                     duplicate_hits, line_size, n_sets)
            accesses += int(block.n_accesses)
        for line_size, n_sets in pairs:
            profile = self.set_profile(line_size, n_sets)
            if texels_per_access and profile.total_accesses != \
                    texels_per_access * reader.n_accesses:
                raise StreamingAuditError(
                    f"folded ({line_size}B, {n_sets} sets) profile "
                    f"covers {profile.total_accesses} accesses; the "
                    f"chunked trace implies "
                    f"{texels_per_access * reader.n_accesses}")
        return StreamAuditReport(parts=tuple(sampled), n_parts=n_parts,
                                 pairs=tuple(pairs), accesses=accesses)

    def _audit_part(self, part_index, lines, run_lines, duplicate_hits,
                    line_size, n_sets) -> None:
        """One part x one pair: vectorized kernel vs sequential walk."""
        label = f"part {part_index}, ({line_size}B, {n_sets} sets)"
        vec_distances, vec_cold = per_set_distances(run_lines, n_sets)
        ref_distances, ref_cold = _sequential_set_distances(
            run_lines, n_sets)
        if not np.array_equal(vec_cold, ref_cold):
            raise StreamingAuditError(
                f"{label}: cold-access mask disagrees with the "
                "sequential oracle")
        if not np.array_equal(vec_distances[~vec_cold],
                              ref_distances[~ref_cold]):
            raise StreamingAuditError(
                f"{label}: per-access stack distances disagree with "
                "the sequential oracle")
        partial = PartialSetProfile.from_lines(lines, line_size, n_sets)
        warm = ref_distances[~ref_cold]
        counts = (np.bincount(warm) if len(warm)
                  else np.zeros(1, dtype=np.int64))
        nonzero = np.flatnonzero(counts)
        counts = (counts[:int(nonzero[-1]) + 1] if len(nonzero)
                  else np.zeros(1, dtype=np.int64))
        if not np.array_equal(partial.counts, counts) \
                or partial.duplicate_hits != duplicate_hits \
                or len(partial.open_lines) != int(ref_cold.sum()) \
                or partial.total_accesses != len(lines):
            raise StreamingAuditError(
                f"{label}: partial profile disagrees with the "
                "sequential oracle's histogram")

    # -- block sources -----------------------------------------------------

    def _blocks(self):
        """Yield the trace's blocks at constant memory: chunked store
        parts, a re-chunked monolithic artifact, or a fresh streaming
        render persisted part by part as it is consumed."""
        reader = self.store.open_render_blocks(self.trace_spec)
        if reader is not None:
            yield from reader
            return
        cached = self.store.load_render(self.trace_spec)
        if cached is not None:
            yield from iter_blocks(cached.trace, self.chunk_size)
            return
        yield from self._render_fresh_blocks()

    def _render_fresh_blocks(self):
        spec = self.trace_spec
        digest = fingerprint(spec.payload())
        with self.store.single_flight("traces", digest):
            reader = self.store.open_render_blocks(spec)
            if reader is not None:  # a racing process published it
                yield from reader
                return
            from . import runner
            runner.RENDER_CALLS += 1
            writer = self.store.open_render_writer(spec)
            totals = {}
            blocks = render_trace_blocks(
                self._built_scene(), self.chunk_size,
                order=order_from_spec(spec.order), raster=spec.raster,
                record_positions=spec.record_positions,
                max_anisotropy=spec.max_anisotropy, lod_bias=spec.lod_bias,
                use_mipmaps=spec.use_mipmaps, totals=totals)
            for block in blocks:
                writer.append(block)
                yield block
            writer.finish(totals)

    def _ensure_chunked(self):
        """The chunked-parts reader, rendering and/or re-chunking into
        the store first if needed; ``None`` when the store cannot hold
        it (demoted)."""
        reader = self.store.open_render_blocks(self.trace_spec)
        if reader is not None:
            return reader
        cached = self.store.load_render(self.trace_spec)
        if cached is not None:
            digest = fingerprint(self.trace_spec.payload())
            with self.store.single_flight("traces", digest):
                reader = self.store.open_render_blocks(self.trace_spec)
                if reader is not None:
                    return reader
                writer = self.store.open_render_writer(self.trace_spec)
                for block in iter_blocks(cached.trace, self.chunk_size):
                    writer.append(block)
                writer.finish({
                    "n_triangles_submitted": cached.n_triangles_submitted,
                    "n_triangles_rasterized": cached.n_triangles_rasterized})
        else:
            for _ in self._render_fresh_blocks():
                pass  # the generator persists parts as a side effect
        return self.store.open_render_blocks(self.trace_spec)

    # -- store round trip --------------------------------------------------

    def _load_cached(self, pair):
        line_size, n_sets = pair
        if n_sets == 1:
            profile = self.store.load_profile(
                profile_payload(self._payload, line_size))
            if profile is None:
                return None
            return SetDistanceProfile(
                line_size=line_size, n_sets=1, counts=profile.counts,
                cold=profile.cold, duplicate_hits=profile.duplicate_hits)
        return self.store.load_set_profile(
            set_profile_payload(self._payload, line_size, n_sets))

    def _save_cached(self, pair, profile: SetDistanceProfile) -> None:
        line_size, n_sets = pair
        if n_sets == 1:
            # Same artifact the in-RAM path persists, so either path
            # warms the other.
            self.store.save_profile(
                profile_payload(self._payload, line_size),
                DistanceProfile(counts=profile.counts, cold=profile.cold,
                                duplicate_hits=profile.duplicate_hits))
        else:
            self.store.save_set_profile(
                set_profile_payload(self._payload, line_size, n_sets),
                profile)

    # -- scene helpers -----------------------------------------------------

    def _built_scene(self):
        if self._scene is None:
            self._scene = _build_scene(self.trace_spec)
        return self._scene

    def _placed(self):
        if self._placements is None:
            self._placements = place_textures(
                self._built_scene().get_mipmaps(),
                layout_from_spec(self.layout_spec))
        return self._placements


def classify_streamed(streams: StreamedProfiles,
                      config: CacheConfig) -> CacheStats:
    """3C classification off streamed profiles -- bit-identical to
    :func:`~repro.core.classify.classify_misses` over the materialized
    address stream, with no per-access pass.  Both profiles come out
    of one fold."""
    streams.prefetch([(config.line_size, 1),
                      (config.line_size, config.n_sets)])
    return classify_misses(streams, config)
