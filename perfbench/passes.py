"""The workloads' inputs and one timed pass per process.

``python -m perfbench.passes '<json config>'`` runs one pass of the
``stream`` or ``timing`` workload, or the idle-worker-kill probe, in a
fresh process and writes a JSON result: the pass's start and end on
the system-wide monotonic clock and in CPU seconds (``cpu_seconds``),
one output digest per op and, when traced, the per-layer metrics.  The parent compares the digests with
the recorded reference; it never trusts the pass to judge itself.

The ``paper`` workload runs through pytest instead (see ``plugin.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import signal
import sys
import time

SCENES = ("flight", "goblet", "guitar", "town")
LAYOUT = ("blocked", 8)
#: The stream warm pass sweeps the same grid on a second layout: the
#: traces the cold pass stored are reused (zero renders) and their
#: parts fan out over the pool again.  Re-serving the cold pass's own
#: 168 rows would time tens of milliseconds of profile loads.
STREAM_WARM_LAYOUT = ("blocked", 4)
#: Animation times the seed picks from: consecutive frames at 30 fps,
#: so every seed renders a different frame of about the same work.
FRAMES = tuple(k / 30 for k in range(8))

STREAM_SCALE = 0.25
STREAM_LINE_SIZES = (32, 64, 128)
STREAM_CACHE_SIZES = tuple(1024 * k for k in (1, 2, 4, 8, 16, 32, 64))
STREAM_ASSOCS = (None, 2)
STREAM_WORKERS = 2
#: The pipelined fold cuts each scene into workers x 2 ranges.
STREAM_RANGES = 4

TIMING_SCALE = 0.25
TIMING_DEPTHS = (32, 64, 128, 256, 512, 1024)
TIMING_QUEUE_DEPTH = 128
TIMING_METRICS = ("n_fragments", "n_fills", "total_cycles", "ideal_cycles",
                  "stall_cycles", "fragment_fifo_wait", "request_fifo_wait",
                  "reorder_buffer_wait")

#: ``REPRO_STREAM_JOB_TIMEOUT`` of the timed stream passes.  A range
#: here renders in well under 2 s; the program's 600 s default would
#: let one wedged worker stall a pass past the run's deadline instead
#: of letting the supervisor respawn it and retry the range.
STREAM_JOB_TIMEOUT_S = "10"

PROBE_SCENE = "town"
PROBE_SCALE = 0.05
PROBE_JOB_TIMEOUT_S = "2"


def cpu_seconds() -> float:
    """CPU time (user + system) of this process and of every child it
    has reaped, pool workers included.  Time the host gives to other
    tenants is not in it: the kernel accounts hypervisor steal apart."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def kill_plan(seed: int, round_index: int) -> str:
    """One worker kill per cold stream pass.  The seed picks the first
    range; later rounds rotate through the others so every run's kills
    cover the same positions.  The kill strikes block 0 because at
    ``STREAM_SCALE`` every range renders in a single block."""
    first_range = random.Random(seed).randrange(STREAM_RANGES)
    target = (first_range + round_index) % STREAM_RANGES
    return f"kill-worker:range={target},block=0,scope=once"


def timing_latencies() -> list:
    import numpy as np
    return sorted({int(round(latency))
                   for latency in np.geomspace(4, 1024, 24)})


def stream_experiment(scene: str, frame: float, layout=LAYOUT):
    from repro.engine import ExperimentSpec
    return ExperimentSpec(
        scenes=(scene,), layouts=(layout,), line_sizes=STREAM_LINE_SIZES,
        cache_sizes=STREAM_CACHE_SIZES, assocs=STREAM_ASSOCS,
        scale=STREAM_SCALE, time=frame)


def rows_digest(rows) -> str:
    """SHA-256 over every row's configuration and exact miss counts."""
    digest = hashlib.sha256()
    for row in rows:
        stats = row.stats
        config = stats.config
        digest.update(json.dumps([
            row.scene, list(row.order), list(row.layout), config.size,
            config.line_size, config.assoc, stats.accesses, stats.misses,
            stats.cold_misses, stats.capacity_misses, stats.conflict_misses,
        ]).encode() + b"\n")
    return digest.hexdigest()


def grid_digest(grid: dict) -> str:
    """SHA-256 over every cell's cycle metrics, in cell order."""
    digest = hashlib.sha256()
    for cell in sorted(grid):
        result = grid[cell]
        digest.update(json.dumps(
            list(cell) + [int(getattr(result, metric))
                          for metric in TIMING_METRICS]).encode() + b"\n")
    return digest.hexdigest()


def timing_inputs(engine, scene: str, frame: float, scale: float):
    """Per-fragment fill counts and page-mode DRAM service cycles for
    one scene's full trace (32 KB-scaled, 2-way, 64 B lines)."""
    import numpy as np
    from repro.core import CacheConfig
    from repro.core.dram import PAPER_DRAM
    from repro.core.texcache import fragment_fill_streams
    from repro.engine import TraceSpec
    addresses = engine.addresses(
        TraceSpec(scene, scale=scale, order="paper", time=frame), LAYOUT)
    size = 1 << int(round(np.log2(max(32 * 1024 * scale, 512))))
    return fragment_fill_streams(addresses, CacheConfig(size, 64, 2),
                                 dram=PAPER_DRAM)


def timing_grid(inputs, depths=TIMING_DEPTHS, latencies=None,
                kernel: str = "vectorized") -> dict:
    from repro.core.machine import PAPER_MACHINE
    from repro.core.texcache import sweep_texcache
    miss_counts, services = inputs
    params = PAPER_MACHINE.texcache_params(
        64, request_fifo=TIMING_QUEUE_DEPTH,
        reorder_buffer=TIMING_QUEUE_DEPTH)
    return sweep_texcache(
        miss_counts, params, depths,
        timing_latencies() if latencies is None else latencies,
        services=services, kernel=kernel)


def _stream_pass(engine, config, recorder) -> list:
    from repro.engine import shutdown_stream_pool
    layout = STREAM_WARM_LAYOUT if config["warm"] else LAYOUT
    ops = []
    for scene in SCENES:
        with recorder.span("op.stream." + scene, op=scene):
            result = engine.run(
                stream_experiment(scene, config["frame"], layout),
                stream_workers=STREAM_WORKERS)
        report = result.stream_report
        ops.append({"op": scene, "digest": rows_digest(result.rows),
                    "rows": len(result.rows),
                    "recovery": report and {
                        "respawns": report.respawns,
                        "range_retries": report.retried_ranges,
                        "residual_ranges": report.residual_ranges,
                        "fallbacks": report.fallbacks,
                        "recovery_s": report.recovery_s}})
    with recorder.span("op.stream.shutdown"):
        shutdown_stream_pool()
    return ops


def _timing_pass(engine, config, recorder) -> list:
    ops = []
    for scene in SCENES:
        with recorder.span("op.timing." + scene, op=scene):
            grid = timing_grid(timing_inputs(engine, scene, config["frame"],
                                             TIMING_SCALE))
        ops.append({"op": scene, "digest": grid_digest(grid),
                    "cells": len(grid)})
    return ops


def _probe_pass(engine, config, recorder) -> list:
    """ROADMAP item 1: a worker killed while idle in ``tasks.get()``
    dies holding the task queue's read lock.  SIGTERM every idle
    worker so the lock holder is always among them, then fold again."""
    import multiprocessing

    from repro.engine import ExperimentSpec, shutdown_stream_pool

    def fold(frame):
        spec = ExperimentSpec(scenes=(PROBE_SCENE,), layouts=(LAYOUT,),
                              scale=PROBE_SCALE, time=frame)
        start = time.perf_counter()
        result = engine.run(spec, stream_workers=STREAM_WORKERS)
        return time.perf_counter() - start, result

    fold(FRAMES[0])  # spawns the pool; its workers now sit idle
    clean_s, _ = fold(FRAMES[1])
    idle = multiprocessing.active_children()
    for worker in idle:
        os.kill(worker.pid, signal.SIGTERM)
    for worker in idle:
        worker.join(timeout=10)
    os.environ["REPRO_STREAM_JOB_TIMEOUT"] = PROBE_JOB_TIMEOUT_S
    killed_s, result = fold(FRAMES[2])
    report = result.stream_report
    # The wedged queue makes a graceful shutdown wait out two join
    # timeouts; stop the workers first so it only reaps them.
    for worker in multiprocessing.active_children():
        worker.kill()
        worker.join(timeout=10)
    shutdown_stream_pool()
    return [{"op": "probe", "clean_s": clean_s, "fold_s": killed_s,
             "respawns": report.respawns if report else 0,
             "range_retries": report.retried_ranges if report else 0,
             "residual_ranges": report.residual_ranges if report else 0,
             "fallbacks": report.fallbacks if report else 0,
             "rows": len(result.rows)}]


PASSES = {"stream": _stream_pass, "timing": _timing_pass,
          "probe": _probe_pass}


def main(argv) -> int:
    config = json.loads(argv[0])
    from perfbench.tracing import Recorder, instrument, layer_metrics
    from repro.engine import ArtifactStore, Engine

    recorder = Recorder()
    if config["trace"]:
        instrument(recorder)
    engine = Engine(store=ArtifactStore(config["store"]))
    before = snapshot(engine.store) if config["trace"] else None
    cpu_start, start = cpu_seconds(), time.monotonic()
    ops = PASSES[config["workload"]](engine, config, recorder)
    end, cpu_end = time.monotonic(), cpu_seconds()
    result = {"start": start, "end": end, "cpu_start": cpu_start,
              "cpu_end": cpu_end, "ops": ops,
              "worker_rss_mb": resource.getrusage(
                  resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
    if config["trace"]:
        result["layers"] = layer_metrics(recorder)
        result["layers"].update(store_deltas(before, snapshot(engine.store)))
        recorder.write(config["spans"])
    with open(config["out"], "w") as sink:
        json.dump(result, sink)
    return 0


def snapshot(store) -> dict:
    """The store's and the tiers' cumulative counters."""
    from repro.engine import tiers
    stats = store.stats()
    memory = tiers.memory_tier().stats()
    digests = tiers.digest_cache().stats()
    return {
        "artifacts.bytes_written": stats["total_bytes"],
        "artifacts.parts": stats["part_files"],
        "artifacts.quarantined": stats["quarantined"],
        "tiers.t0_hits": memory["hits"],
        "tiers.t0_misses": memory["misses"],
        "tiers.digests_computed": digests["misses"],
        "tiers.digest_hits": digests["hits"],
    }


def store_deltas(before: dict, after: dict) -> dict:
    return {name: after[name] - before[name] for name in after}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
