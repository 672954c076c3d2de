"""Pipelined parallel streaming: overlap render, persist and fold.

The serial streaming fold (:mod:`repro.engine.streaming`) renders
blocks, persists parts and folds profiles strictly one after another
in a single process.  This module runs the same fold as a
producer/consumer pipeline over a **persistent** pool of worker
processes, with bit-identical results::

    parent                          workers (persistent StreamPool)
    ------                          -------------------------------
    assign render ranges   ----->   one task channel per worker
    supervise: heartbeats,          render one contiguous clipped-
    deadlines, respawn dead         triangle slice -> FragmentBlocks,
    workers, retry failed           persist each part, fold it into
    ranges with backoff             the range's per-pair states
    collect range states   <-----   event queue (per-range partial
    merge in range order            states; or raw blocks over shared
                                    memory / part-file polling)
    renumber + publish     <-----   per-range part envelopes
    sidecar (all ranges
    complete, or nothing)

**Parallel cold render.**  The clipped triangle index space is cut
into equal contiguous slices (:func:`~repro.pipeline.renderer.
triangle_slice_bounds` -- a pure function of the clipped triangle
count, so each worker derives its own bounds).  Triangle boundaries
are fragment boundaries, so concatenating the slices' block streams
in slice order is bit-identical to the unsliced stream, and the
associative-exact :meth:`~repro.core.kernels.PartialSetProfile.merge`
over per-range states in range order reproduces the serial fold bit
for bit (merge is *not* commutative -- order is load-bearing).

**Block transport.**  Three ways rendered blocks reach the fold,
selected by ``REPRO_STREAM_TRANSPORT`` (see :func:`_resolve_transport`
for the tradeoff).  ``state`` (default): each worker folds the blocks
it renders immediately after persisting them and ships only tiny
per-range partial states -- both heavy stages parallelize across the
whole pool and no bulk data crosses a process boundary.  ``shm``: the
parent folds; workers ship each block's columns through one
``multiprocessing.shared_memory`` segment per block (a small
descriptor crosses the queue; the arrays do not get pickled), and the
bounded event queue applies backpressure so in-flight segments -- and
therefore peak RSS -- stay capped at a few blocks.  ``store``: the
parent folds by readiness-polling the part files workers publish
atomically (:meth:`~repro.engine.artifacts.ChunkedRenderReader.
poll_part`) -- no shared memory needed, and the single-machine
prototype of a cross-machine fold.  Forcing ``shm`` on a host without
shared memory degrades to the serial fold, with a warning, via
:class:`PipelineError`.

**Persistence.**  Each worker writes its slice's parts through its
own ``part_base``-offset :class:`~repro.engine.artifacts.
ChunkedRenderWriter` (checksummed, atomically published, sidecar
withheld).  Only the parent -- after every range reports complete --
renumbers the strided parts into the dense ``.p00000`` sequence and
publishes the sidecar, so a partially rendered trace can never
verify as a complete artifact.

**Self-healing.**  A fold no longer fails whole on the first fault;
it degrades through an escalation ladder, each rung strictly cheaper
than the next:

1. *Supervised retry.*  The parent (:class:`_Supervision`) hands
   each idle worker one range at a time through that worker's own
   task channel, so it always knows which worker owns which range,
   and watches a heartbeat array.  A dead worker (SIGKILL, OOM) is
   detected by liveness polling and respawned in place, with a fresh
   channel -- forked from the parent, so it re-inherits the
   copy-on-write scene memo -- and a
   wedged worker (heartbeat stale past the per-job deadline,
   ``REPRO_STREAM_JOB_TIMEOUT``) is killed first.  Only the *failed
   contiguous ranges* are re-dispatched, with bounded retries and
   exponential backoff mirroring the warm pool's ``WARM_RETRIES``
   policy (:mod:`repro.engine.runner`).
2. *Residual recovery.*  A range that exhausts its retry budget is
   rendered or folded serially in the parent -- the fold still
   completes bit-identically, with a ``RuntimeWarning`` naming the
   residual count.
3. *Serial fallback.*  Only when *no* range succeeds through the pool
   (or the pipeline itself is unusable) does :class:`PipelineError`
   propagate and :class:`~repro.engine.streaming.StreamedProfiles`
   rerun the entire serial path.

**Crash-resume.**  A cold fold killed mid-run (SIGKILL of the parent,
ENOSPC demotion) leaves checksummed strided parts behind plus two
kinds of resume metadata (:meth:`~repro.engine.artifacts.
ArtifactStore.save_stream_plan` / ``save_range_record``): the range
plan written at dispatch and one completion record per finished
range, listing its part envelopes.  The next cold fold of the same
spec verifies the surviving parts against those envelopes, folds the
verified ranges *warm* (``foldparts`` jobs), re-renders only the
missing ranges under the original plan geometry, then renumbers and
publishes as usual -- bit-identical to an uninterrupted run, and
identical under ``REPRO_STREAM_TRANSPORT=store``.

**Observability.**  Every fold accounts its recovery actions in a
:class:`StreamReport` (the pipelined analog of
:class:`~repro.engine.runner.WarmReport`) hung off the
``StreamedProfiles`` and surfaced on ``ExperimentResult`` and in the
CLI: respawns, retried/residual/resumed ranges, serial fallbacks and
recovery wall-clock (time from a range's first failure to its
recovery, plus respawn and residual work; resumed work is *saved*
time and is counted by range/part instead).  Deterministic fault
injection for all of the above lives in :mod:`repro.engine.faults`
(``REPRO_FAULT_PLAN``).

**Warm traces** (chunked parts already in the store) skip the render
stage: part ranges fan out over the same pool, each worker folds its
range into picklable partial states, and the parent merges them in
part order under the same supervision.

**Profiles jobs** (:func:`resolve_profiles`, behind
:meth:`~repro.engine.runner.Engine.prefetch`) use the same pool and
supervisor for independent in-RAM distance passes: one job per
(trace, layout) renders, maps and profiles in the worker and ships
the finished profiles back in its done event.
"""

from __future__ import annotations

import atexit
import itertools
import os
import random
import time
import traceback
import warnings
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from multiprocessing.reduction import ForkingPickler
from queue import Empty

import numpy as np

from ..core.kernels import PartialSetProfile
from ..pipeline import traceio
from ..pipeline.renderer import render_trace_blocks
from ..pipeline.trace import FragmentBlock
from ..texture.memory import place_textures
from . import faults
from .artifacts import (ArtifactStore, ChunkedRenderReader, fingerprint,
                        load_part_block)
from .spec import layout_from_spec, order_from_spec

#: Part-index stride between ranges; the parent renumbers densely, so
#: this only needs to exceed any single range's block count.
PART_STRIDE = 100_000

#: Render/fold ranges per worker: >1 so a fragment-heavy slice is
#: rebalanced dynamically (the next range goes to whichever worker
#: frees up first), but low --
#: each range pays fixed dispatch/flush costs, and on the few-core
#: hosts this targets the smoothing won from finer slices is smaller
#: than that overhead.
RANGES_PER_WORKER = 2

#: Event-queue poll interval; also paces store-transport readiness
#: polling.
EVENT_POLL_S = 0.05

#: How often the supervisor polls worker liveness and heartbeats.
HEALTH_POLL_S = 0.5

#: A pipeline that neither delivers an event nor folds a part for this
#: long (with live workers) is declared wedged.
NO_PROGRESS_TIMEOUT_S = 600.0

#: Per-range retry budget and backoff base, mirroring the warm pool's
#: ``WARM_RETRIES`` / ``WARM_BACKOFF_S`` policy (:mod:`.runner`): a
#: range is retried this many times (with exponential backoff and
#: jitter) before becoming *residual* and recovering serially in the
#: parent.
STREAM_RETRIES = 2
STREAM_BACKOFF_S = 0.25

#: A dispatched range whose worker heartbeat goes stale for this long
#: is presumed wedged: the worker is killed, respawned, and the range
#: retried.  Override with ``REPRO_STREAM_JOB_TIMEOUT`` (seconds).
STREAM_JOB_TIMEOUT_S = 600.0


def _job_timeout_s() -> float:
    value = os.environ.get("REPRO_STREAM_JOB_TIMEOUT", "")
    try:
        return float(value) if value else STREAM_JOB_TIMEOUT_S
    except ValueError:
        return STREAM_JOB_TIMEOUT_S


class PipelineError(RuntimeError):
    """The pipelined fold could not run or finish; callers degrade to
    the serial streaming path (results stay bit-identical)."""


@dataclass
class StreamReport:
    """Recovery accounting for the pipelined streaming engine -- the
    analog of :class:`~repro.engine.runner.WarmReport`.  One report
    accumulates across every fold of a ``StreamedProfiles`` (an
    experiment row folds once per trace/layout); ``recovery_s`` is the
    wall-clock from each range's first failure to its recovery plus
    respawn and residual-recovery work, while *resumed* work -- saved,
    not lost, time -- is counted by range and part instead."""

    folds: int = 0
    respawns: int = 0
    retried_ranges: int = 0
    residual_ranges: int = 0
    resumed_ranges: int = 0
    resumed_parts: int = 0
    fallbacks: int = 0
    recovery_s: float = 0.0
    events: tuple = field(default=())

    _MAX_EVENTS = 64

    def note(self, event: str) -> None:
        if len(self.events) < self._MAX_EVENTS:
            self.events = (*self.events, str(event))

    @property
    def clean(self) -> bool:
        """True when every fold ran without any recovery action."""
        return not (self.respawns or self.retried_ranges
                    or self.residual_ranges or self.resumed_ranges
                    or self.fallbacks or self.events)

    def absorb(self, other: "StreamReport") -> None:
        """Fold another report into this one (a run aggregates the
        per-``StreamedProfiles`` reports of every trace/layout row)."""
        self.folds += other.folds
        self.respawns += other.respawns
        self.retried_ranges += other.retried_ranges
        self.residual_ranges += other.residual_ranges
        self.resumed_ranges += other.resumed_ranges
        self.resumed_parts += other.resumed_parts
        self.fallbacks += other.fallbacks
        self.recovery_s += other.recovery_s
        for event in other.events:
            self.note(event)

    def summary(self) -> str:
        if self.clean:
            return (f"stream: {self.folds} pipelined fold(s), "
                    "no recovery needed")
        parts = [f"stream: {self.folds} fold(s)"]
        if self.respawns:
            parts.append(f"{self.respawns} worker respawn(s)")
        if self.retried_ranges:
            parts.append(f"{self.retried_ranges} range retry(ies)")
        if self.residual_ranges:
            parts.append(f"{self.residual_ranges} residual range(s) "
                         "recovered serially")
        if self.resumed_ranges:
            parts.append(f"{self.resumed_ranges} range(s) resumed from "
                         f"{self.resumed_parts} published part(s)")
        if self.fallbacks:
            parts.append(f"{self.fallbacks} serial fallback(s)")
        if self.recovery_s:
            parts.append(f"recovery {self.recovery_s:.2f}s")
        return ", ".join(parts)


def _report_of(profiles) -> StreamReport:
    """The profiles' recovery report, created on first use (keeps
    ``fold_pipelined`` usable on bare test doubles)."""
    report = getattr(profiles, "stream_report", None)
    if report is None:
        report = StreamReport()
        try:
            profiles.stream_report = report
        except AttributeError:
            pass
    return report


def _shm_module():
    """``multiprocessing.shared_memory``, or ``None`` when the host
    lacks it (or tests inject ``REPRO_FAULT_SHM=unavailable``)."""
    if os.environ.get("REPRO_FAULT_SHM") == "unavailable":
        return None
    try:
        from multiprocessing import shared_memory
    except ImportError:
        return None
    return shared_memory


def _resolve_transport(store: ArtifactStore) -> str:
    """Which way rendered blocks reach the fold.

    ``state`` (default): each worker folds the blocks it renders and
    ships only per-range partial states -- both heavy stages
    parallelize, nothing bulk crosses a process boundary, but every
    worker holds its own fold state for all pairs.  ``shm``: workers
    ship raw blocks through shared memory and the parent folds --
    workers stay fold-state-free (one copy of the states total),
    costing a dedicated folding core.  ``store``: like ``shm`` but the
    parent readiness-polls the part files instead (no shared memory
    needed; the cross-machine fold protocol)."""
    forced = os.environ.get("REPRO_STREAM_TRANSPORT", "").strip().lower()
    transport = forced or "state"
    if transport == "store":
        if not store.available:
            raise PipelineError(
                "store block transport needs a writable store")
        return "store"
    if transport == "shm":
        if _shm_module() is None:
            raise PipelineError(
                "multiprocessing.shared_memory is unavailable "
                "(set REPRO_STREAM_TRANSPORT=store to pipeline through "
                "part files instead)")
        return "shm"
    if transport != "state":
        raise PipelineError(
            f"unknown REPRO_STREAM_TRANSPORT {forced!r}")
    return "state"


# -- shared-memory block transport ----------------------------------------

#: Column order is part of the descriptor contract.
_BLOCK_COLUMNS = ("texture_id", "level", "tu", "tv",
                  "tu_raw", "tv_raw", "kind", "x", "y")


def _pack_block(shared_memory, block, name=None) -> dict:
    """Copy one block's columns into a fresh shared-memory segment;
    returns the descriptor the consumer rebuilds views from.  The
    producer disowns the segment (the consumer unlinks after
    folding), so exactly one process ever frees it.  ``name`` scopes
    the segment to the pool's unique prefix so a forced shutdown can
    sweep stragglers by glob."""
    arrays = {}
    for column in _BLOCK_COLUMNS:
        data = getattr(block, column)
        if data is not None:
            arrays[column] = np.ascontiguousarray(data)
    columns = {}
    offset = 0
    for column, data in arrays.items():
        columns[column] = (str(data.dtype), tuple(data.shape), offset)
        offset += data.nbytes
    segment = shared_memory.SharedMemory(create=True, size=max(1, offset),
                                         name=name)
    try:
        for column, (dtype, shape, start) in columns.items():
            view = np.ndarray(shape, dtype=dtype, buffer=segment.buf,
                              offset=start)
            view[...] = arrays[column]
            view = None
    finally:
        descriptor = {
            "shm": segment.name,
            "columns": columns,
            "n_fragments": int(block.n_fragments),
            "index": int(block.index) if block.index is not None else 0,
        }
        segment.close()
        _disown_segment(segment)
    return descriptor


def _disown_segment(segment) -> None:
    """Transfer cleanup responsibility to the consumer.  Without this
    the producer's resource tracker would unlink the segment again at
    process exit -- after the parent already has -- and complain."""
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass


def _consume_shm_block(shared_memory, descriptor, fold) -> None:
    """Rebuild a block from its shared segment, run ``fold(block)``
    (which must not retain views -- address mapping copies), then
    close and unlink the segment."""
    segment = shared_memory.SharedMemory(name=descriptor["shm"])
    block = columns = None
    try:
        columns = dict.fromkeys(_BLOCK_COLUMNS)
        for name, (dtype, shape, start) in descriptor["columns"].items():
            columns[name] = np.ndarray(tuple(shape), dtype=dtype,
                                       buffer=segment.buf, offset=start)
        block = FragmentBlock(n_fragments=descriptor["n_fragments"],
                              index=descriptor["index"], **columns)
        fold(block)
    finally:
        block = columns = None
        try:
            segment.close()
        except BufferError:
            pass  # a failing fold can pin views; unlink still works
        try:
            segment.unlink()
        except FileNotFoundError:
            pass


def _discard_segment(descriptor) -> None:
    """Best-effort unlink of an unconsumed in-flight segment (error
    and shutdown paths)."""
    shared_memory = _shm_module()
    if shared_memory is None:
        return
    try:
        segment = shared_memory.SharedMemory(name=descriptor["shm"])
        segment.close()
        segment.unlink()
    except Exception:
        pass


def _purge_segments(prefix: str, extra=()) -> None:
    """Unlink every shared segment a pool may have left behind: the
    tracked in-flight names plus anything matching the pool's unique
    name prefix -- covering segments still queued, packed by a worker
    that died before shipping, or mid-consume when a forced shutdown
    struck."""
    shared_memory = _shm_module()
    if shared_memory is None:
        return
    names = {name for name in extra if name}
    shm_dir = Path("/dev/shm")
    if prefix and shm_dir.is_dir():
        try:
            names.update(entry.name for entry in shm_dir.glob(prefix + "*"))
        except OSError:
            pass
    for name in names:
        try:
            segment = shared_memory.SharedMemory(name=name)
        except Exception:
            continue
        try:
            segment.close()
            segment.unlink()
        except Exception:
            pass


# -- worker side -----------------------------------------------------------

#: Per-worker memo of the last built scene / placements: an experiment
#: grid re-renders and re-folds the same scene across many rows, and
#: the pool persists across rows, so this is where scene builds
#: amortize.  Size-one on purpose (bounded worker RSS).
_SCENES: dict = {}
_PLACEMENTS: dict = {}
_READERS: dict = {}


def _cached_scene(spec):
    from .streaming import _build_scene
    key = (spec.scene, float(spec.scale), float(spec.time))
    if key not in _SCENES:
        _SCENES.clear()
        _PLACEMENTS.clear()
        _SCENES[key] = _build_scene(spec)
    return _SCENES[key]


def _cached_placements(spec, layout_spec):
    key = (spec.scene, float(spec.scale), float(spec.time),
           tuple(layout_spec))
    if key not in _PLACEMENTS:
        _PLACEMENTS.clear()
        _PLACEMENTS[key] = place_textures(
            _cached_scene(spec).get_mipmaps(),
            layout_from_spec(layout_spec))
    return _PLACEMENTS[key]


def _cached_reader(root: str, spec):
    """Open (and envelope-verify) a chunked trace once per worker, not
    once per fold job: a published trace is immutable and an experiment
    grid folds the same trace once per profile pair, so re-verifying
    every part's checksum on every job dominates small fold ranges."""
    key = (root, fingerprint(spec.payload()))
    if key not in _READERS:
        reader = ArtifactStore(root).open_render_blocks(spec)
        if reader is None:
            return None  # never cache a miss: the trace may land later
        _READERS.clear()
        _READERS[key] = reader
    return _READERS[key]


def _bind_to_parent_lifetime() -> None:
    """Linux: ask the kernel to SIGTERM this worker when its parent
    dies (``PR_SET_PDEATHSIG``).  A parent killed without cleanup --
    SIGKILL, ``os._exit`` -- must not leave orphaned workers blocked
    forever on their task channel; crash-resume replaces them on the next
    run."""
    try:
        import ctypes
        import signal as signals
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signals.SIGTERM, 0, 0, 0)  # 1 = PR_SET_PDEATHSIG
    except Exception:
        pass  # non-Linux hosts: orphans idle until their queue closes


def _worker_loop(channel, events, heartbeats, block_credits, slot) -> None:
    """Generic persistent worker: render and fold ranges, or resolve
    profiles jobs, from its own task ``channel`` until the ``None``
    sentinel.  A task failure is reported as an event and the worker
    lives on; only a hard crash kills it.  The worker stamps
    ``heartbeats[slot]`` at task pickup and per block, part or profile
    so the supervisor can tell wedged from slow."""
    _bind_to_parent_lifetime()
    while True:
        task = channel.get()
        if task is None:
            break
        kind, job = task
        heartbeats[slot] = time.monotonic()

        def beat():
            heartbeats[slot] = time.monotonic()

        events.put(("started", job.get("fold", 0), job.get("range", -1),
                    job.get("attempt", 0)))
        try:
            if kind == "render":
                _worker_render(job, events, beat, block_credits)
            elif kind == "fold":
                _worker_fold(job, events, beat)
            elif kind == "foldparts":
                _worker_fold_parts(job, events, beat)
            elif kind == "profiles":
                _worker_profiles(job, events, beat)
            else:
                raise RuntimeError(f"unknown stream task {kind!r}")
        except Exception:
            events.put(("error", job.get("fold", 0), job.get("range", -1),
                        job.get("attempt", 0), traceback.format_exc()))
        beat()


#: Per-worker engine serving ``profiles`` jobs (one per store root).
#: It is trimmed after every job to the job's scene and placements: no
#: render or address stream outlives its job.
_ENGINES: dict = {}


def _worker_profiles(job: dict, events, beat) -> None:
    """Resolve one (trace, layout)'s profiles: render, map and run the
    distance passes as the store requires, and ship the profiles back
    in the done event.  The worker's store writes are best effort (a
    read-only store demotes to a no-op); the parent memoizes what the
    event carries."""
    fault = faults.maybe_fault("profiles-job", job=job["range"])
    if fault is not None:
        _run_worker_fault(fault, None)
    from .runner import Engine, _maybe_inject_warm_fault
    _maybe_inject_warm_fault(job.get("warm_fault"))
    engine = _ENGINES.get(job["root"])
    if engine is None:
        _ENGINES.clear()
        engine = _ENGINES[job["root"]] = Engine(ArtifactStore(job["root"]))
    try:
        profiles = engine.resolve(job["trace_spec"], job["layout_spec"],
                                  job["pairs"], kernel=job["kernel"],
                                  beat=beat)
    finally:
        engine.trim(job["trace_spec"])
    events.put(("profiles_done", job.get("fold", 0), job["range"],
                job.get("attempt", 0), profiles))


def _run_worker_fault(fault, store) -> None:
    """Execute an armed worker fault directive (``enospc`` needs the
    worker's ``store``; the other actions ignore it)."""
    if fault.action == "kill-worker":
        os._exit(1)  # a hard crash: no cleanup, like the OOM killer
    elif fault.action == "wedge-worker":
        time.sleep(float(fault.param("seconds", 3600.0)))
    elif fault.action == "enospc":
        # What ArtifactStore._demote does when the disk fills, minus
        # the warning: writes silently stop persisting mid-range.
        store._demoted = True


def _worker_render(job: dict, events, beat, block_credits=None) -> None:
    """Render one triangle slice: persist its parts (strided index
    space), fold them inline (state transport) or ship each block to
    the folding parent (shm/store), report envelopes.  A completed
    range also leaves a completion record in the store so an
    interrupted run can resume from its parts."""
    if os.environ.get("REPRO_FAULT_STREAM_POOL") == "die":
        os._exit(1)  # legacy whole-pool fault: every attempt dies
    spec = job["trace_spec"]
    store = ArtifactStore(job["root"])
    writer = store.open_render_writer(spec, part_base=job["part_base"])
    shared_memory = _shm_module() if job["transport"] == "shm" else None
    states = placements = None
    if job["transport"] == "state":
        from .streaming import _fold_block_into
        placements = _cached_placements(spec, job["layout_spec"])
        states = {pair: PartialSetProfile.empty(*pair)
                  for pair in job["pairs"]}
    totals: dict = {}
    blocks = render_trace_blocks(
        _cached_scene(spec), job["chunk_size"],
        order=order_from_spec(spec.order), raster=spec.raster,
        record_positions=spec.record_positions,
        max_anisotropy=spec.max_anisotropy, lod_bias=spec.lod_bias,
        use_mipmaps=spec.use_mipmaps, totals=totals,
        triangle_slice=(job["range"], job["n_ranges"]))
    n_blocks = 0
    for block in blocks:
        fault = faults.maybe_fault("render-block", range=job["range"],
                                   block=n_blocks)
        if fault is not None:
            _run_worker_fault(fault, store)
        writer.append(block)
        if states is not None:
            _fold_block_into(states, block.byte_addresses(placements))
        elif shared_memory is not None:
            if block_credits is not None:
                # Backpressure: one credit per in-flight segment, given
                # back by the parent on receipt.
                block_credits.acquire()
            segment_name = (f"{job.get('shm_prefix', '')}"
                            f"f{job.get('fold', 0)}r{job['range']}"
                            f"b{n_blocks}a{job.get('attempt', 0)}")
            descriptor = _pack_block(shared_memory, block,
                                     name=segment_name)
            drop = faults.maybe_fault("ship-block", range=job["range"],
                                      block=n_blocks)
            if drop is not None:
                _discard_segment(descriptor)  # ships a dangling handle
            events.put(("block", job.get("fold", 0), job["range"],
                        job.get("attempt", 0), n_blocks, descriptor))
        elif len(writer.part_envelopes) != n_blocks + 1:
            # Store transport folds off the part files, so a part that
            # failed to persist (demoted store) would hang the parent.
            raise RuntimeError(
                "store transport needs every part persisted")
        n_blocks += 1
        beat()
    envelopes, complete, has_positions = writer.finish_parts()
    totals.pop("per_triangle_fragments", None)
    totals["has_positions"] = has_positions
    payload = {"envelopes": envelopes, "complete": complete,
               "totals": totals, "n_blocks": n_blocks}
    if complete:
        # On disk before the parent hears "done": a parent killed right
        # after this range completed can still resume from it.
        store.save_range_record(spec, job["range"],
                                {"range": job["range"], **payload})
    if states is not None:
        payload["states"] = states
    events.put(("range_done", job.get("fold", 0), job["range"],
                job.get("attempt", 0), payload))


def _worker_fold(job: dict, events, beat) -> None:
    """Fold one contiguous part range of a warm chunked trace into
    per-pair partial states (picklable; parent merges in part order)."""
    from .streaming import _fold_block_into
    reader = _cached_reader(job["root"], job["trace_spec"])
    if reader is None:
        raise RuntimeError("chunked trace vanished under the fold")
    placements = _cached_placements(job["trace_spec"], job["layout_spec"])
    states = {pair: PartialSetProfile.empty(*pair)
              for pair in job["pairs"]}
    for index in range(job["lo"], job["hi"]):
        _fold_block_into(states,
                         reader.read_part(index).byte_addresses(placements))
        beat()
    events.put(("fold_done", job.get("fold", 0), job["range"],
                job.get("attempt", 0), states))


def _worker_fold_parts(job: dict, events, beat) -> None:
    """Fold the explicitly named (envelope-verified) part files of one
    resumed range -- the crash-resume analog of :func:`_worker_fold`,
    which cannot be used because an interrupted render has no sidecar
    to open a reader from."""
    from .streaming import _fold_block_into
    spec = job["trace_spec"]
    placements = _cached_placements(spec, job["layout_spec"])
    states = {pair: PartialSetProfile.empty(*pair)
              for pair in job["pairs"]}
    for sequence, name in enumerate(job["parts"]):
        block = load_part_block(job["root"], name, sequence)
        _fold_block_into(states, block.byte_addresses(placements))
        beat()
    events.put(("fold_done", job.get("fold", 0), job["range"],
                job.get("attempt", 0), states))


# -- the persistent pool ---------------------------------------------------

#: Distinguishes the shared-memory prefixes of pools created in one
#: process lifetime (a test teardown/rebuild cycle reuses the PID).
_POOL_SEQ = itertools.count()

#: Process-wide respawn counter: folds snapshot it around their run to
#: attribute respawns (including ones performed by ``get_pool``
#: between folds) without double counting.
_RESPAWNS_TOTAL = 0


class _EventQueue:
    """The workers' events to the parent: one pipe, written
    synchronously under a lock, read only by the parent.

    Unbounded like a ``multiprocessing.Queue`` (a bounded queue's slot
    semaphore leaks when a worker dies between put and receipt; shm
    backpressure lives in ``block_credits``), but without its
    background feeder thread.  That thread takes the queue's write
    lock after ``put()`` returns, so a worker that puts an event and
    then dies (the ``kill-worker`` fault, ``os._exit``) could die
    holding the lock, and no worker's event would ever reach the
    parent again.  Here ``put()`` returns only once its bytes are in
    the pipe, and the lock with them."""

    def __init__(self, context):
        self._reader, self._writer = context.Pipe(duplex=False)
        self._lock = context.Lock()

    def put(self, message) -> None:
        data = ForkingPickler.dumps(message)
        with self._lock:
            self._writer.send_bytes(data)

    def get(self, timeout: float):
        """The next message; :class:`queue.Empty` after ``timeout``."""
        if not self._reader.poll(timeout):
            raise Empty
        return self._reader.recv()

    def drain(self) -> list:
        """Close the queue and return what was left in it.  Closing
        the parent's write end first lets a message that a killed
        worker left half-written end in EOF instead of a hang (unless
        another live process still holds a copy of that end)."""
        self._writer.close()
        left = []
        try:
            while self._reader.poll(0):
                left.append(self._reader.recv())
        except Exception:
            pass
        self._reader.close()
        return left


class StreamPool:
    """A persistent pool of streaming workers, one task channel per
    worker and the shared event queue back to the parent.  One pool
    serves every fold of every row of an experiment grid; individual
    dead workers are respawned in place (:meth:`respawn_dead`) and the
    pool is only rebuilt when the worker count changes.

    Each worker reads only its own channel, and a respawn replaces the
    channel with the worker.  A shared task queue would not survive a
    worker killed while idle: that worker dies holding the queue's
    read lock, and no other worker can ever take a task again."""

    def __init__(self, workers: int):
        import multiprocessing
        self.workers = int(workers)
        self._context = multiprocessing.get_context()
        self.events = _EventQueue(self._context)
        #: Shm-transport backpressure: workers take one credit per
        #: in-flight block (before packing its segment) and the parent
        #: returns it on receipt, capping in-flight segments -- and
        #: therefore peak RSS -- at a few blocks.  A worker that dies
        #: holding a credit leaks at most one; the supervisor
        #: compensates per observed death (BoundedSemaphore caps any
        #: over-compensation at the original capacity).
        self.block_credits = self._context.BoundedSemaphore(
            max(4, 2 * self.workers))
        #: Worker liveness stamps (``time.monotonic`` is system-wide on
        #: the platforms with fork, so parent and child clocks agree).
        #: Lock-free: a stamp is one aligned double, and a lock would be
        #: one more thing a killed worker could die holding.
        self.heartbeats = self._context.Array("d", self.workers,
                                              lock=False)
        #: Monotonic per-pool fold counter: events carry the fold id
        #: they belong to, so a fold never consumes a predecessor's
        #: stragglers (a worker may outlive the fold that queued its
        #: task).
        self.fold_id = 0
        self.respawns = 0
        #: Unique prefix for this pool's shared-memory segments, so a
        #: forced shutdown can sweep leaked segments by glob.
        self.shm_prefix = f"repro{os.getpid()}s{next(_POOL_SEQ)}"
        #: Segment names the parent has received but not yet consumed;
        #: unlinked on shutdown if a failure strands them.
        self.inflight_segments: set = set()
        self.processes = [None] * self.workers
        self.channels = [None] * self.workers
        for slot in range(self.workers):
            self._spawn(slot)

    def _spawn(self, slot: int) -> None:
        """Start ``slot``'s worker on a fresh task channel (a dead
        worker's channel may be left locked or holding its task)."""
        if self.channels[slot] is not None:
            self.channels[slot].close()
        channel = self.channels[slot] = self._context.SimpleQueue()
        self.heartbeats[slot] = time.monotonic()
        process = self._context.Process(
            target=_worker_loop,
            args=(channel, self.events, self.heartbeats,
                  self.block_credits, slot),
            name=f"stream-worker-{slot}", daemon=True)
        process.start()
        self.processes[slot] = process

    def send(self, slot: int, task) -> None:
        """Hand ``task`` to ``slot``'s worker.  Its heartbeat restarts
        now, so the job deadline counts from dispatch."""
        self.heartbeats[slot] = time.monotonic()
        self.channels[slot].put(task)

    def replenish_block_credit(self) -> None:
        """Return one shm block credit (on block receipt, or as
        compensation for a worker that died holding one)."""
        try:
            self.block_credits.release()
        except ValueError:
            pass  # already at full capacity: nothing was leaked

    def alive(self) -> bool:
        return all(process.is_alive() for process in self.processes)

    def dead_slots(self) -> list:
        return [slot for slot, process in enumerate(self.processes)
                if not process.is_alive()]

    def respawn_dead(self) -> int:
        """Replace every dead worker with a fresh fork of the parent
        (which re-inherits the copy-on-write scene memo seeded before
        the original pool start).  Returns the number respawned."""
        global _RESPAWNS_TOTAL
        respawned = 0
        for slot in self.dead_slots():
            try:
                self.processes[slot].join(timeout=0)  # reap the zombie
            except Exception:
                pass
            self._spawn(slot)
            respawned += 1
        self.respawns += respawned
        _RESPAWNS_TOTAL += respawned
        return respawned

    def kill_slot(self, slot: int) -> None:
        """Terminate one (presumed wedged) worker so
        :meth:`respawn_dead` can replace it."""
        process = self.processes[slot]
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)

    def shutdown(self, force: bool = False) -> None:
        if not force:
            for slot, process in enumerate(self.processes):
                if process.is_alive():
                    self.channels[slot].put(None)
            for process in self.processes:
                process.join(timeout=5.0)
        for process in self.processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        # Unlink any in-flight shared segments still queued, then sweep
        # the pool's whole segment namespace: a forced shutdown can
        # strand segments that were packed but never queued (producer
        # killed mid-put) or received but never consumed.
        for message in self.events.drain():
            if message and message[0] == "block":
                _discard_segment(message[5])
        _purge_segments(self.shm_prefix, self.inflight_segments)
        self.inflight_segments.clear()
        for channel in self.channels:
            channel.close()


_POOL: StreamPool = None


def _seed_pool_memos(spec, layout_spec, workers: int) -> None:
    """Pre-build the scene (and, given a layout, the placements) in the
    parent when a fresh pool is about to fork: children inherit the
    worker memos copy-on-write, so the whole pool pays one scene build
    -- mipmaps included -- instead of one per worker.  Texture
    synthesis dominates cold time on small scenes, and the duplicated
    builds also contended for memory bandwidth.  Also the reason
    respawned workers stay cheap: they fork from a parent whose memo is
    already warm.  No-op when the pool already exists with every worker
    alive (the forks already happened) or the start method cannot
    inherit parent memory."""
    import multiprocessing
    if _POOL is not None and _POOL.workers == int(workers) \
            and _POOL.alive():
        return
    if multiprocessing.get_start_method() != "fork":
        return
    if layout_spec is not None:
        _cached_placements(spec, layout_spec)
    else:
        _cached_scene(spec).get_mipmaps()


def get_pool(workers: int) -> StreamPool:
    """The process-wide persistent pool, (re)built on first use or on a
    worker-count change.  Workers that died since the last fold are
    respawned in place -- a cheap liveness check instead of failing the
    first post-crash dispatch or tearing down the whole pool -- and
    only an unrespawnable pool is replaced."""
    global _POOL
    workers = int(workers)
    if _POOL is not None and _POOL.workers != workers:
        _POOL.shutdown(force=not _POOL.alive())
        _POOL = None
    if _POOL is not None and not _POOL.alive():
        try:
            _POOL.respawn_dead()
        except Exception:
            _POOL.shutdown(force=True)
            _POOL = None
    if _POOL is None:
        _POOL = StreamPool(workers)
    return _POOL


def shutdown_stream_pool() -> None:
    """Tear down the persistent pool (idempotent; re-created lazily)."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown()


def _break_pool() -> None:
    """Hard-stop a pool in an unknown state (failed run): a clean one
    is rebuilt on the next fold."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        pool.shutdown(force=True)


atexit.register(shutdown_stream_pool)


# -- parent-side supervision -----------------------------------------------

class _Supervision:
    """Parent-side supervisor for one pipelined fold: hands each idle
    worker one range at a time (so it knows which worker owns which
    range), detects dead and wedged workers, respawns them, and
    re-dispatches only the failed ranges with bounded retries and
    exponential backoff.  A range that
    exhausts the budget becomes *residual* -- recovered serially by
    the caller -- instead of failing the fold."""

    def __init__(self, pool: StreamPool, jobs: dict,
                 report: StreamReport, label: str, retries=None,
                 backoff_s=None):
        self.pool = pool
        self.report = report
        self.label = label
        self.jobs = dict(jobs)  # range index -> (task kind, job dict)
        self.attempt = {index: 0 for index in self.jobs}
        self.tries = {index: 0 for index in self.jobs}
        self.waiting: deque = deque()  # ranges queued for a free worker
        self.owner: dict = {}       # range index -> worker slot
        self.slot_range: dict = {}  # worker slot -> range index
        self.complete: set = set()
        self.residual: dict = {}    # range index -> first terminal reason
        self.retry_at: list = []    # (due monotonic time, range index)
        self.first_failed_at: dict = {}
        self.on_retry = None        # transport hook: reset partial fold
        self.compensate_credits = False  # shm fold: repair leaked credits
        self.timeout = _job_timeout_s()
        self.retries = STREAM_RETRIES if retries is None else retries
        self.backoff_s = STREAM_BACKOFF_S if backoff_s is None else backoff_s

    # -- dispatch ---------------------------------------------------------

    def dispatch(self, index: int) -> None:
        """Queue one attempt of ``index`` for the next free worker."""
        self.tries[index] += 1
        self.waiting.append(index)

    def dispatch_all(self) -> None:
        for index in self.jobs:
            self.dispatch(index)

    def assign(self) -> None:
        """Send waiting ranges to idle live workers, one per worker."""
        pool = self.pool
        for slot in range(pool.workers):
            if not self.waiting:
                return
            if slot in self.slot_range \
                    or not pool.processes[slot].is_alive():
                continue
            index = self.waiting.popleft()
            while index in self.complete or index in self.residual:
                if not self.waiting:
                    return
                index = self.waiting.popleft()
            kind, job = self.jobs[index]
            self.owner[index] = slot
            self.slot_range[slot] = index
            pool.send(slot, (kind, dict(job, attempt=self.attempt[index],
                                        fold=pool.fold_id)))

    def flush_due(self) -> bool:
        """Dispatch retries whose backoff has elapsed (the event loop
        stays non-blocking: the parent never sleeps a backoff)."""
        if not self.retry_at:
            return False
        now = time.monotonic()
        due = [index for when, index in self.retry_at if when <= now]
        if not due:
            return False
        self.retry_at = [(when, index) for when, index in self.retry_at
                         if when > now]
        for index in due:
            self.dispatch(index)
        return True

    # -- bookkeeping ------------------------------------------------------

    def current(self, index: int, attempt: int) -> bool:
        """Whether an event belongs to the range's current attempt."""
        return self.attempt.get(index) == attempt

    def release(self, index: int) -> None:
        """Free the worker that held ``index`` for the next range."""
        slot = self.owner.pop(index, None)
        if slot is not None:
            self.slot_range.pop(slot, None)

    def note_complete(self, index: int) -> None:
        self.complete.add(index)
        self.residual.pop(index, None)  # a late success beats recovery
        self.release(index)
        failed_at = self.first_failed_at.pop(index, None)
        if failed_at is not None:
            self.report.recovery_s += time.monotonic() - failed_at

    def fail(self, index: int, why: str) -> None:
        """Record one attempt failure: schedule a backoff retry inside
        the budget, park the range as residual beyond it."""
        if index in self.complete or index in self.residual \
                or index not in self.jobs:
            return
        self.release(index)
        self.attempt[index] += 1
        self.first_failed_at.setdefault(index, time.monotonic())
        self.report.note(f"{self.label} range {index}: {why}")
        if self.on_retry is not None:
            self.on_retry(index)
        if self.tries[index] > self.retries:
            self.residual[index] = why
            self.report.residual_ranges += 1
            return
        self.report.retried_ranges += 1
        delay = self.backoff_s * (2 ** (self.tries[index] - 1))
        delay *= 0.5 + random.random()  # jitter, as in the warm pool
        self.retry_at.append((time.monotonic() + delay, index))

    # -- health -----------------------------------------------------------

    def check_health(self) -> bool:
        """Detect dead and wedged workers; fail their ranges and
        respawn replacements.  Returns True when it acted (which counts
        as progress for the stall detector)."""
        acted = False
        pool = self.pool
        dead = pool.dead_slots()
        for slot in dead:
            index = self.slot_range.get(slot)
            if index is not None:
                self.fail(index, f"worker died (slot {slot})")
        if dead:
            if self.compensate_credits:
                # A worker killed between taking a block credit and the
                # parent receiving the block leaks that credit.  Each
                # death can hold at most one, so return one per death;
                # the BoundedSemaphore caps over-compensation at the
                # original capacity.
                for _ in dead:
                    pool.replenish_block_credit()
            started = time.monotonic()
            pool.respawn_dead()
            self.report.recovery_s += time.monotonic() - started
            acted = True
        now = time.monotonic()
        for slot, index in list(self.slot_range.items()):
            if now - pool.heartbeats[slot] <= self.timeout:
                continue
            pool.kill_slot(slot)
            if self.compensate_credits:
                pool.replenish_block_credit()
            self.fail(index, f"worker wedged (slot {slot}: no heartbeat "
                             f"for {self.timeout:.0f}s)")
            pool.respawn_dead()
            acted = True
        return acted

    def finished(self) -> bool:
        return len(self.complete) + len(self.residual) == len(self.jobs)


def _last_line(text: str) -> str:
    lines = str(text).strip().splitlines()
    return lines[-1] if lines else str(text)


#: The events that end a worker's task (``error`` ends it too, and
#: fails the range).
_DONE_EVENTS = ("range_done", "fold_done", "profiles_done")


def _receive(pool: StreamPool, supervisor: _Supervision, message,
             handle) -> bool:
    """Route one event-queue message: filter stale folds, apply
    supervision events, delegate data events to the fold's handler.
    Returns True when the message constituted progress."""
    kind, fold, index, attempt = (message[0], message[1],
                                  message[2], message[3])
    if kind == "block":
        # Every shipped block holds one backpressure credit; give it
        # back on receipt no matter what happens to the block next.
        pool.replenish_block_credit()
    if fold != pool.fold_id:
        # A straggler from an earlier fold of this pool (its range was
        # retried or abandoned); only its segment needs freeing.
        if kind == "block":
            descriptor = message[5]
            pool.inflight_segments.discard(descriptor.get("shm"))
            _discard_segment(descriptor)
        return False
    if kind == "started":
        return True  # liveness: the range is in flight, not stalled
    if kind in _DONE_EVENTS and supervisor.current(index, attempt):
        supervisor.release(index)  # the worker is free for the next range
    if kind == "error":
        if index < 0:
            raise PipelineError(
                f"stream worker failed:\n{message[4]}")
        if supervisor.current(index, attempt):
            supervisor.fail(
                index, f"worker task failed: {_last_line(message[4])}")
        return True
    return handle(kind, index, attempt, message)


def _drive(pool: StreamPool, supervisor: _Supervision, handle,
           poll=None, what: str = "pipelined fold") -> None:
    """The supervised event loop shared by the warm and cold folds:
    flush due retries, consume events, run the transport's readiness
    poll, check worker health on a short period, and declare a stall
    only when nothing -- events, polls, recoveries -- has progressed
    for :data:`NO_PROGRESS_TIMEOUT_S`."""
    last_progress = last_health = time.monotonic()
    while not supervisor.finished():
        if supervisor.flush_due():
            last_progress = time.monotonic()
        supervisor.assign()
        try:
            message = pool.events.get(timeout=EVENT_POLL_S)
        except Empty:
            message = None
        progressed = False
        if message is not None:
            progressed = _receive(pool, supervisor, message, handle)
        if poll is not None and poll():
            progressed = True
        now = time.monotonic()
        if progressed:
            last_progress = now
            continue
        if now - last_health >= HEALTH_POLL_S:
            last_health = now
            if supervisor.check_health():
                last_progress = now
                continue
        if now - last_progress > NO_PROGRESS_TIMEOUT_S:
            raise PipelineError(
                f"{what} stalled (no progress for "
                f"{NO_PROGRESS_TIMEOUT_S:.0f}s)")


def _maybe_kill_run(done_count: int) -> None:
    """Chaos hook: crash the *parent* after ``after`` ranges completed
    (``kill-run`` in ``REPRO_FAULT_PLAN``) -- the deterministic stand-in
    for SIGKILL in crash-resume tests."""
    fault = faults.maybe_fault("range-complete", after=done_count)
    if fault is None:
        return
    if fault.param("mode", "raise") == "exit":
        os._exit(42)
    raise faults.InjectedCrash(
        f"injected parent crash after {done_count} completed range(s)")


# -- parent-side drivers ---------------------------------------------------

def resolve_profiles(root, tasks: list, workers: int, kernel: str, report,
                     retries: int, backoff_s: float,
                     warm_fault=None) -> tuple:
    """Run one ``profiles`` job per ``(trace_spec, layout_spec,
    pairs)`` task on the persistent pool, under the same supervision as
    a fold: dead and wedged workers are respawned and their jobs
    retried ``retries`` times with exponential backoff from
    ``backoff_s``.

    Returns ``(results, residual)``: task index -> the job's ``{pair:
    profile}``, and task index -> last error for every task the pool
    did not finish (retry budget spent, or the pool itself broke), for
    the caller to resolve in-process.  Fills ``report`` (a
    :class:`~repro.engine.runner.WarmReport`)'s attempts, retries and
    respawns."""
    jobs = {index: ("profiles", {
        "range": index, "root": str(root), "trace_spec": trace_spec,
        "layout_spec": tuple(layout_spec), "pairs": tuple(pairs),
        "kernel": kernel, "warm_fault": warm_fault})
        for index, (trace_spec, layout_spec, pairs) in enumerate(tasks)}
    stream_report = StreamReport(folds=1)
    results: dict = {}
    supervisor = None
    respawns_before = _RESPAWNS_TOTAL
    try:
        pool = get_pool(workers)
        pool.fold_id += 1
        supervisor = _Supervision(pool, jobs, stream_report, "profiles",
                                  retries=retries, backoff_s=backoff_s)

        def handle(kind, index, attempt, message):
            if kind != "profiles_done":
                raise PipelineError(
                    f"unexpected {kind!r} event in a profiles batch")
            if index in supervisor.complete:
                return False  # a duplicate attempt finished too
            results[index] = message[4]
            supervisor.note_complete(index)
            return True

        supervisor.dispatch_all()
        _drive(pool, supervisor, handle, what="profiles batch")
        residual = dict(supervisor.residual)
    except Exception as fault:
        _break_pool()
        why = f"{type(fault).__name__}: {fault}"
        residual = {index: why for index in jobs if index not in results}
    finally:
        report.respawns += _RESPAWNS_TOTAL - respawns_before
    if supervisor is not None:
        report.attempts += sum(supervisor.tries.values())
    report.retries += stream_report.retried_ranges
    return results, residual


def fold_pipelined(profiles, pairs) -> dict:
    """Compute every pair's :class:`PartialSetProfile` for
    ``profiles`` (a :class:`~repro.engine.streaming.StreamedProfiles`)
    through the pipelined pool, self-healing per range.  Raises
    :class:`PipelineError` -- with the pool torn down -- only when the
    pipeline is unusable or no range succeeded, so the caller can
    rerun the serial path."""
    pairs = tuple(pairs)
    if int(profiles.stream_workers) < 2:
        raise PipelineError("pipelined fold needs stream_workers >= 2")
    report = _report_of(profiles)
    report.folds += 1
    respawns_before = _RESPAWNS_TOTAL
    try:
        return _fold_dispatch(profiles, pairs)
    except PipelineError:
        _break_pool()
        raise
    except Exception as fault:
        _break_pool()
        raise PipelineError(f"{type(fault).__name__}: {fault}") from fault
    finally:
        report.respawns += _RESPAWNS_TOTAL - respawns_before


def _fold_dispatch(profiles, pairs) -> dict:
    store = profiles.store
    spec = profiles.trace_spec
    reader = store.open_render_blocks(spec)
    if reader is None and store.load_render(spec) is not None:
        # Monolithic artifact: re-chunk it (serial, IO-bound) so the
        # warm parallel fold below has parts to fan out.
        reader = profiles._ensure_chunked()
        if reader is None:
            raise PipelineError(
                "store cannot hold the chunked representation")
    if reader is not None:
        if len(reader) < 2:
            raise PipelineError("single-part trace (nothing to fan out)")
        return _fold_warm(profiles, pairs, reader)
    return _fold_cold(profiles, pairs)


def _fold_warm(profiles, pairs, reader) -> dict:
    """Fan a warm chunked trace's part ranges over the pool."""
    report = _report_of(profiles)
    _seed_pool_memos(profiles.trace_spec, profiles.layout_spec,
                     profiles.stream_workers)
    pool = get_pool(profiles.stream_workers)
    n_parts = len(reader)
    n_ranges = min(n_parts, pool.workers * RANGES_PER_WORKER)
    bounds = np.linspace(0, n_parts, n_ranges + 1).astype(int)
    jobs = {index: ("fold", {"range": index,
                             "root": str(profiles.store.root),
                             "trace_spec": profiles.trace_spec,
                             "layout_spec": profiles.layout_spec,
                             "lo": int(lo), "hi": int(hi), "pairs": pairs})
            for index, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
            if hi > lo}
    pool.fold_id += 1
    supervisor = _Supervision(
        pool, jobs, report, f"warm fold ({profiles.trace_spec.scene})")
    results: dict = {}

    def handle(kind, index, attempt, message):
        if kind != "fold_done":
            raise PipelineError(
                f"unexpected {kind!r} event in warm fold")
        if index in supervisor.complete:
            return False  # a duplicate attempt finished too; harmless
        results[index] = message[4]
        supervisor.note_complete(index)
        return True

    supervisor.dispatch_all()
    _drive(pool, supervisor, handle, what="pipelined warm fold")
    if supervisor.residual:
        if not supervisor.complete:
            raise PipelineError(
                "every warm fold range failed in the pool "
                f"({_last_line(next(iter(supervisor.residual.values())))})")
        _recover_residual_warm(profiles, pairs, reader, supervisor,
                               results, report)
    # merge() is associative-exact but not commutative: range order is
    # part order is stream order.
    states = {pair: PartialSetProfile.empty(*pair) for pair in pairs}
    for index in sorted(jobs):
        for pair in pairs:
            states[pair] = states[pair].merge(results[index][pair])
    return states


def _recover_residual_warm(profiles, pairs, reader, supervisor, results,
                           report) -> None:
    """Escalation rung two for the warm fold: fold the residual part
    ranges serially in the parent."""
    residual = sorted(supervisor.residual.items())
    started = time.monotonic()
    from .streaming import _fold_block_into
    placements = _cached_placements(profiles.trace_spec,
                                    profiles.layout_spec)
    for index, why in residual:
        _, job = supervisor.jobs[index]
        states = {pair: PartialSetProfile.empty(*pair) for pair in pairs}
        for part_index in range(job["lo"], job["hi"]):
            _fold_block_into(
                states,
                reader.read_part(part_index).byte_addresses(placements))
        results[index] = states
        supervisor.note_complete(index)
    report.recovery_s += time.monotonic() - started
    warnings.warn(
        f"pipelined warm fold recovered {len(residual)} residual "
        "range(s) serially in the parent after the retry budget",
        RuntimeWarning, stacklevel=6)


def _fold_cold(profiles, pairs) -> dict:
    """Render, persist and fold a cold trace concurrently, resuming
    from the verified parts of a previously interrupted run."""
    store = profiles.store
    spec = profiles.trace_spec
    report = _report_of(profiles)
    transport = _resolve_transport(store)
    # State transport: workers fold, so they need placements; shm and
    # store fold in the parent, whose own placements (profiles._placed)
    # live in a different memo -- seed the render-side scene only.
    _seed_pool_memos(spec,
                     profiles.layout_spec if transport == "state" else None,
                     profiles.stream_workers)
    pool = get_pool(profiles.stream_workers)
    # State transport folds inside the workers, so the parent never
    # maps a block and skips its own placements (the pre-fork seed
    # above builds the scene exactly once, in the worker memo).
    placements = None if transport == "state" else profiles._placed()
    digest = fingerprint(spec.payload())
    with store.single_flight("traces", digest):
        reader = store.open_render_blocks(spec)
        if reader is not None:
            # A racing process published the trace while we waited.
            if len(reader) < 2:
                raise PipelineError("single-part trace (nothing to fan out)")
            return _fold_warm(profiles, pairs, reader)
        from . import runner
        runner.RENDER_CALLS += 1
        plan, resumed = _load_resume(store, spec)
        if plan is None or not resumed:
            # Nothing usable survives: plan this run from scratch.
            store.discard_resume_state(spec)
            n_ranges = pool.workers * RANGES_PER_WORKER
            chunk_size = profiles.chunk_size
            store.save_stream_plan(spec, {
                "n_ranges": n_ranges, "chunk_size": int(chunk_size),
                "part_stride": PART_STRIDE, "created_at": time.time()})
            resumed = {}
        else:
            # Resume MUST reuse the interrupted run's slicing geometry:
            # the surviving parts embody its range bounds and chunk
            # size, and only identical bounds make "fold the survivors,
            # render the rest" bit-identical to an uninterrupted run.
            n_ranges = int(plan["n_ranges"])
            chunk_size = int(plan["chunk_size"])
            report.resumed_ranges += len(resumed)
            report.resumed_parts += sum(
                len(record["envelopes"]) for record in resumed.values())
            report.note(
                f"cold fold ({spec.scene}): resumed {len(resumed)}/"
                f"{n_ranges} range(s) from a prior interrupted render")
        jobs: dict = {}
        render_jobs: list = []
        for index in range(n_ranges):
            if index in resumed:
                jobs[index] = ("foldparts", {
                    "range": index, "root": str(store.root),
                    "trace_spec": spec,
                    "layout_spec": profiles.layout_spec, "pairs": pairs,
                    "parts": [entry["name"]
                              for entry in resumed[index]["envelopes"]]})
            else:
                job = {"range": index, "n_ranges": n_ranges,
                       "root": str(store.root), "trace_spec": spec,
                       "layout_spec": profiles.layout_spec, "pairs": pairs,
                       "chunk_size": chunk_size,
                       "part_base": index * PART_STRIDE,
                       "transport": transport,
                       "shm_prefix": pool.shm_prefix}
                jobs[index] = ("render", job)
                render_jobs.append(job)
        pool.fold_id += 1
        supervisor = _Supervision(pool, jobs, report,
                                  f"cold fold ({spec.scene})")
        supervisor.dispatch_all()
        states, done = _collect_cold(pool, supervisor, render_jobs,
                                     resumed, pairs, placements, store,
                                     spec, transport)
        if supervisor.residual:
            if not supervisor.complete:
                raise PipelineError(
                    "every render range failed in the pool "
                    f"({_last_line(next(iter(supervisor.residual.values())))})")
            _recover_residual_cold(profiles, supervisor, pairs, store,
                                   spec, states, done, report)
        merged = {pair: PartialSetProfile.empty(*pair) for pair in pairs}
        for index in range(n_ranges):
            for pair in pairs:
                merged[pair] = merged[pair].merge(states[index][pair])
        _publish_assembled(store, spec, done, n_ranges)
    return merged


def _load_resume(store, spec) -> tuple:
    """The interrupted-run plan and its verified completion records:
    ``(plan, {range index: record})``.  A record only qualifies when
    its geometry is sane and *every* part it lists passes a deep
    envelope check (checksum + size); anything else is discarded --
    along with its parts -- so a half-valid record can never smuggle a
    torn part into a resumed fold."""
    plan = store.load_stream_plan(spec)
    if not isinstance(plan, dict):
        return None, {}
    try:
        n_ranges = int(plan["n_ranges"])
        chunk_size = int(plan["chunk_size"])
        stride = int(plan.get("part_stride", -1))
    except (KeyError, TypeError, ValueError):
        return None, {}
    if stride != PART_STRIDE or n_ranges < 1 or chunk_size < 1:
        return None, {}
    digest = fingerprint(spec.payload())
    resumed = {}
    for index, record in sorted(store.load_range_records(spec).items()):
        envelopes = record.get("envelopes")
        names = [entry.get("name") for entry in envelopes
                 if isinstance(entry, dict)] \
            if isinstance(envelopes, list) else []
        expected = [
            f"{digest}.p{index * PART_STRIDE + seq:0{traceio.PART_DIGITS}d}"
            f".npz" for seq in range(len(names))]
        valid = (
            0 <= index < n_ranges
            and record.get("complete") is True
            and isinstance(envelopes, list)
            and record.get("n_blocks") == len(envelopes)
            and isinstance(record.get("totals"), dict)
            and names == expected
            and store.verify_part_list("traces", envelopes))
        if valid:
            resumed[index] = record
        else:
            store.discard_range_record(spec, index, names)
    return plan, resumed


def _collect_cold(pool, supervisor, render_jobs, resumed, pairs,
                  placements, store, spec, transport) -> tuple:
    """Drive the supervised event loop until every range is complete or
    residual.  State transport: render ranges arrive pre-folded.
    Shm/store: the parent folds each render range's blocks in order as
    they arrive (shared memory) or as their part files land (readiness
    polling).  Resumed ranges arrive pre-folded from ``foldparts``
    jobs on every transport."""
    from .streaming import _fold_block_into
    shared_memory = _shm_module()
    states = {index: {pair: PartialSetProfile.empty(*pair)
                      for pair in pairs} for index in supervisor.jobs}
    folded = {job["range"]: 0 for job in render_jobs}
    done = {index: dict(record) for index, record in resumed.items()}
    resumed_pending = set(resumed)
    pending = (ChunkedRenderReader.pending(store, spec)
               if transport == "store" else None)

    def fold_block(index, block):
        _fold_block_into(states[index], block.byte_addresses(placements))
        folded[index] += 1

    def reset_range(index):
        # A retry replays its range from the first block.  Only the shm
        # fold accumulated transient state to roll back: store-transport
        # retries republish identical parts (atomic replaces), so the
        # parent's fold position stays valid, and state-transport
        # ranges fold entirely in the worker.
        if transport == "shm" and index in folded:
            folded[index] = 0
            states[index] = {pair: PartialSetProfile.empty(*pair)
                             for pair in pairs}

    supervisor.on_retry = reset_range
    supervisor.compensate_credits = transport == "shm"

    def check_complete(index):
        if index in supervisor.complete or index in resumed_pending:
            return
        info = done.get(index)
        if info is None:
            return
        if transport != "state" and index in folded \
                and folded[index] < info["n_blocks"]:
            return
        supervisor.note_complete(index)
        _maybe_kill_run(len(supervisor.complete))

    def handle(kind, index, attempt, message):
        if kind == "block":
            descriptor = message[5]
            name = descriptor.get("shm")
            if transport != "shm" or index in supervisor.complete \
                    or not supervisor.current(index, attempt):
                pool.inflight_segments.discard(name)
                _discard_segment(descriptor)
                return False  # a stale attempt's block: free and ignore
            sequence = message[4]
            if sequence != folded.get(index):
                pool.inflight_segments.discard(name)
                _discard_segment(descriptor)
                supervisor.fail(index,
                                f"block {sequence} arrived at fold "
                                f"position {folded.get(index)}")
                return True
            pool.inflight_segments.add(name)
            try:
                _consume_shm_block(shared_memory, descriptor,
                                   lambda block: fold_block(index, block))
            except Exception as fault:
                supervisor.fail(index, "shm block unusable "
                                f"({type(fault).__name__}: {fault})")
            finally:
                pool.inflight_segments.discard(name)
            check_complete(index)
            return True
        if kind == "range_done":
            payload = message[4]
            if index in supervisor.complete:
                return False  # a duplicate attempt finished; harmless
            if transport == "shm" and not supervisor.current(index, attempt):
                return False  # the current attempt is re-shipping blocks
            if not payload.get("complete"):
                supervisor.fail(index, "range persisted incomplete "
                                       "(worker store demoted)")
                return True
            worker_states = payload.pop("states", None)
            if worker_states is not None:
                # State transport: the worker already folded its
                # range's blocks inline; nothing left to consume.
                states[index] = worker_states
                folded[index] = payload["n_blocks"]
            done[index] = payload
            check_complete(index)
            return True
        if kind == "fold_done":
            if index in supervisor.complete:
                return False
            states[index] = message[4]
            resumed_pending.discard(index)
            check_complete(index)
            return True
        raise PipelineError(f"unexpected {kind!r} event in cold fold")

    def poll():
        if pending is None:
            return False
        progressed = False
        for job in render_jobs:
            index = job["range"]
            if index in supervisor.complete:
                continue
            info = done.get(index)
            if info is not None and folded[index] >= info["n_blocks"]:
                continue
            while True:
                block = pending.poll_part(job["part_base"] + folded[index])
                if block is None:
                    break
                fold_block(index, block)
                progressed = True
            check_complete(index)
        return progressed

    _drive(pool, supervisor, handle, poll, what="pipelined cold fold")
    return states, done


def _recover_residual_cold(profiles, supervisor, pairs, store, spec,
                           states, done, report) -> None:
    """Escalation rung two for the cold fold: render (or, for a
    resumed range, fold) each residual range serially in the parent.
    The parent reuses the pre-fork scene memo, so no scene rebuild."""
    residual = sorted(supervisor.residual.items())
    started = time.monotonic()
    from .streaming import _fold_block_into
    placements = _cached_placements(spec, profiles.layout_spec)
    for index, why in residual:
        kind, job = supervisor.jobs[index]
        if kind == "render":
            range_states, payload = _render_range_inline(
                store, spec, job, pairs, placements)
            states[index] = range_states
            done[index] = payload
        else:  # a resumed range whose foldparts job kept failing
            range_states = {pair: PartialSetProfile.empty(*pair)
                            for pair in pairs}
            for sequence, name in enumerate(job["parts"]):
                _fold_block_into(
                    range_states,
                    load_part_block(store.root, name,
                                    sequence).byte_addresses(placements))
            states[index] = range_states
        supervisor.note_complete(index)
    report.recovery_s += time.monotonic() - started
    warnings.warn(
        f"pipelined cold fold recovered {len(residual)} residual "
        "range(s) serially in the parent after the retry budget",
        RuntimeWarning, stacklevel=6)


def _render_range_inline(store, spec, job, pairs, placements) -> tuple:
    """Render one residual triangle slice in the parent: the same
    persist/fold contract as :func:`_worker_render` (state transport),
    minus the event queue."""
    from .streaming import _fold_block_into
    writer = store.open_render_writer(spec, part_base=job["part_base"])
    states = {pair: PartialSetProfile.empty(*pair) for pair in pairs}
    totals: dict = {}
    n_blocks = 0
    for block in render_trace_blocks(
            _cached_scene(spec), job["chunk_size"],
            order=order_from_spec(spec.order), raster=spec.raster,
            record_positions=spec.record_positions,
            max_anisotropy=spec.max_anisotropy, lod_bias=spec.lod_bias,
            use_mipmaps=spec.use_mipmaps, totals=totals,
            triangle_slice=(job["range"], job["n_ranges"])):
        writer.append(block)
        _fold_block_into(states, block.byte_addresses(placements))
        n_blocks += 1
    envelopes, complete, has_positions = writer.finish_parts()
    totals.pop("per_triangle_fragments", None)
    totals["has_positions"] = has_positions
    payload = {"envelopes": envelopes, "complete": complete,
               "totals": totals, "n_blocks": n_blocks}
    if complete:
        store.save_range_record(spec, job["range"],
                                {"range": job["range"], **payload})
    return states, payload


def _publish_assembled(store, spec, done, n_ranges) -> bool:
    """Commit the sidecar over every range's parts, in range order,
    renumbered densely -- but only when *all* ranges persisted
    completely, so the artifact can never be partial.  Publishing (or
    even attempting the renumber, which consumes the strided parts)
    retires the run's crash-resume metadata; an incomplete set keeps
    it, so the completed ranges stay resumable."""
    infos = [done[index] for index in range(n_ranges)]
    if not store.available or not all(info["complete"] for info in infos):
        return False
    if any(len(info["envelopes"]) >= PART_STRIDE for info in infos):
        return False  # would alias another range's index space
    envelopes = [entry for info in infos for entry in info["envelopes"]]
    renamed = store.renumber_parts(spec, envelopes)
    if renamed is None:
        return False
    store.discard_resume_state(spec)  # records point at consumed names
    totals = dict(infos[0]["totals"])  # n_triangles_submitted is global
    totals["n_triangles_rasterized"] = sum(
        int(info["totals"]["n_triangles_rasterized"]) for info in infos)
    totals["has_positions"] = any(
        info["totals"].get("has_positions") for info in infos)
    published = store.publish_chunked_sidecar(spec, renamed, totals)
    if published:
        # Each part was hashed by the worker that wrote it; seeding
        # the parent's verify-once cache from those envelopes means
        # the first warm fold over this trace re-verifies with stats
        # instead of re-hashing the whole artifact.
        from . import tiers
        for entry in renamed:
            tiers.digest_cache().record(
                store.root / "traces" / entry["name"], entry["digest"])
    else:
        warnings.warn(
            f"pipelined render for {spec.scene} persisted its parts but "
            "could not publish the sidecar; the next run re-renders",
            RuntimeWarning, stacklevel=4)
    return published
