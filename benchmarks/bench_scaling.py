"""Methodology validation: the REPRO_SCALE model and streaming scale-up.

Two harnesses share this file:

* ``test_scaling`` (pytest-benchmark) -- DESIGN.md claims that scaling
  scene resolution, texture dimensions and tessellation together
  preserves the *shape* of every curve while shifting working sets
  linearly with the scale factor.  It renders the Town scene at two
  scales an octave apart and checks that (i) the nonblocked/vertical
  working-set knee moves by ~the scale ratio and (ii) the miss-rate
  curves collapse onto each other when cache sizes are divided by the
  scale.

* ``main`` (run directly) -- the streaming pipeline benchmark.  Every
  measurement runs in a fresh subprocess with its own cold artifact
  store so ``resource.getrusage(RUSAGE_SELF).ru_maxrss`` is that
  pipeline's true peak, then the streamed run is verified
  **bit-identical** to the in-RAM baseline (miss-rate curves and 3C
  classifications) before its timing counts.  ``--smoke`` gates the
  equivalence plus a fixed peak-RSS budget at the current
  ``REPRO_SCALE`` (the CI configuration) for both the serial streamed
  fold and the pipelined fold (``stream_workers=2``); the full run
  sweeps chunk sizes plus the sharded (``shards=2``) and pipelined
  modes across scales 0.25/0.5/1.0 on all four scenes and records
  fragments/s and peak RSS in ``BENCH_streaming.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from paperbench import SCALE, emit  # noqa: E402

from repro.analysis import first_working_set, format_table, miss_rate_chart  # noqa: E402
from repro.core import miss_rate_curve  # noqa: E402
from repro.engine import TraceSpec  # noqa: E402

SIZES_PER_SCALE = {
    1.0: [1024 * k for k in (1, 2, 4, 8, 16, 32, 64)],
}

STREAM_SCENES = ("flight", "goblet", "guitar", "town")
STREAM_SCALES = (0.25, 0.5, 1.0)
CHUNK_SIZES = (1 << 18, 1 << 20)
STREAM_LAYOUT = ("blocked", 8)
STREAM_LINE_SIZE = 64

#: Fixed peak-RSS ceiling for the ``--smoke`` gate (MB).  Chosen with
#: headroom over the ~250 MB a streamed scale-0.25 pipeline actually
#: peaks at (interpreter + numpy + scene textures + one chunk); a
#: regression that materializes the trace or address stream at larger
#: scales shows up long before this at scale 1.0, and gross
#: materialization blows past it even at 0.25.
SMOKE_RSS_BUDGET_MB = 768

STREAM_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_streaming.json"


def curve_at(bank, scale):
    spec = TraceSpec(scene="town", scale=scale, order=("vertical",))
    streams = bank.engine.streams(spec, ("nonblocked",))
    sizes = [max(int(1024 * k * scale), 256) for k in (1, 2, 4, 8, 16, 32, 64)]
    return miss_rate_curve(streams, 32, sorted(set(sizes)))


def measure(bank):
    small_scale = SCALE
    large_scale = min(SCALE * 2, 1.0)
    return {
        small_scale: curve_at(bank, small_scale),
        large_scale: curve_at(bank, large_scale),
    }


def test_scaling(benchmark, bank):
    curves = benchmark.pedantic(measure, args=(bank,), rounds=1, iterations=1)
    (small_scale, small), (large_scale, large) = sorted(curves.items())

    rows = []
    for scale, curve in sorted(curves.items()):
        ws = first_working_set(curve)
        rows.append([
            scale,
            " ".join(
                (f"{int(s) // 1024}K" if s >= 1024 else f"{int(s)}B")
                + f":{100 * r:.2f}%"
                for s, r in zip(curve.sizes, curve.miss_rates)),
            f"{ws.size / 1024:.1f}KB",
        ])
    text = format_table(["scale", "miss curve (cache:miss)", "working set"],
                        rows, title="Town (vertical, nonblocked, 32B lines):")
    text += "\n\n" + miss_rate_chart(
        {f"scale {scale}": curve for scale, curve in sorted(curves.items())},
        title="Curves shift left by the scale ratio (log axes):")
    text += ("\n\nDividing cache sizes by the scale collapses the curves: "
             "the reproduction scale moves working sets linearly, as "
             "DESIGN.md's substitution argument requires.")
    emit("scaling", text)

    # Working set shifts by roughly the scale ratio.
    ws_small = first_working_set(small).size
    ws_large = first_working_set(large).size
    ratio = (large_scale / small_scale)
    assert 0.4 * ratio <= ws_large / ws_small <= 2.5 * ratio
    # Scale-normalized curves collapse: compare at matched size/scale.
    paired = []
    for size_small, rate_small in zip(small.sizes, small.miss_rates):
        matched = size_small * large_scale / small_scale
        index = np.argmin(np.abs(large.sizes - matched))
        if abs(large.sizes[index] - matched) < 1:
            paired.append((rate_small, large.miss_rates[index]))
    assert len(paired) >= 4
    for rate_small, rate_large in paired:
        assert abs(rate_small - rate_large) < 0.6 * max(rate_small, rate_large, 0.005)


# -- streaming pipeline benchmark ----------------------------------------


def _stream_sizes(scale: float) -> list:
    """Paper cache sizes scaled to the reproduction scale, snapped to
    powers of two (identical in every worker, so curves compare)."""
    return sorted({1 << int(round(np.log2(max(paper * scale, 512))))
                   for paper in (4096, 16384, 65536, 262144)})


def _stream_configs(scale: float) -> list:
    size = 1 << int(round(np.log2(max(16384 * scale, 2048))))
    return [(size, STREAM_LINE_SIZE, assoc) for assoc in (1, 2, 4)]


def _run_pipeline(scene: str, scale: float, mode: str, chunk_size: int,
                  shards: int, stream_workers: int = 0) -> dict:
    """One cold pipeline (render -> profiles -> curve -> 3C) in this
    process; returns everything the parent compares and records."""
    import resource

    from repro.core.cache import CacheConfig
    from repro.core.classify import classify_misses
    from repro.engine import Engine, classify_streamed, paper_order_spec

    spec = TraceSpec(scene=scene, scale=scale, order=paper_order_spec(scene))
    engine = Engine()
    start = time.perf_counter()
    if mode in ("streamed", "sharded", "pipelined"):
        streams = engine.streamed(spec, STREAM_LAYOUT, chunk_size=chunk_size,
                                  shards=shards,
                                  stream_workers=stream_workers)
        # Fold every profile the row needs in one pass over the blocks
        # (classify set profiles + the fully-associative curve/3C
        # profile), the way Engine.run batches a grid's pairs.
        pairs = {(STREAM_LINE_SIZE, 1)}
        pairs.update((STREAM_LINE_SIZE, CacheConfig(*config).n_sets)
                     for config in _stream_configs(scale))
        streams.prefetch(sorted(pairs))
        classify = [classify_streamed(streams,
                                      CacheConfig(*config))
                    for config in _stream_configs(scale)]
    else:
        # Same profile reuse the streamed path gets: one distance pass
        # and one per-set pass per (line size, set count), via the
        # materialized stream.
        streams = engine.streams(spec, STREAM_LAYOUT)
        classify = [classify_misses(streams, CacheConfig(*config))
                    for config in _stream_configs(scale)]
    curve = miss_rate_curve(streams, STREAM_LINE_SIZE, _stream_sizes(scale))
    elapsed = time.perf_counter() - start
    reader = engine.store.open_render_blocks(spec)
    if reader is not None:
        n_fragments = reader.n_fragments
    else:
        n_fragments = engine.render(spec).n_fragments
    if mode == "pipelined":
        # Reap the pool first so RUSAGE_CHILDREN covers the workers.
        from repro.engine import shutdown_stream_pool
        shutdown_stream_pool()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    streaming = mode in ("streamed", "sharded", "pipelined")
    return {
        "scene": scene,
        "scale": scale,
        "mode": mode,
        "chunk_size": chunk_size if streaming else None,
        "shards": shards if streaming else 0,
        "stream_workers": stream_workers if streaming else 0,
        "n_accesses": int(classify[0].accesses),
        "n_fragments": int(n_fragments),
        "elapsed_s": round(elapsed, 3),
        "fragments_per_s": round(n_fragments / max(elapsed, 1e-9)),
        "maxrss_mb": round(maxrss_kb / 1024, 1),
        # Largest single-process peak among forked children (stream
        # pool workers, shard folders); 0 when none ran.
        "maxrss_children_mb": round(children_kb / 1024, 1),
        "miss_rates": [float(rate) for rate in curve.miss_rates],
        "classify": [[stats.misses, stats.cold_misses,
                      stats.capacity_misses, stats.conflict_misses]
                     for stats in classify],
    }


def _spawn_worker(scene: str, scale: float, mode: str,
                  chunk_size: int = 0, shards: int = 0,
                  stream_workers: int = 0) -> dict:
    """Run one measurement in a fresh subprocess over a fresh cold
    store, so ``ru_maxrss`` (a per-process high-water mark) is that
    pipeline's own peak and no run warms another."""
    with tempfile.TemporaryDirectory() as cache_dir:
        env = dict(os.environ, REPRO_CACHE_DIR=cache_dir)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        result = subprocess.run(
            [sys.executable, __file__, "--worker", "--scene", scene,
             "--scale-value", repr(scale), "--mode", mode,
             "--chunk", str(chunk_size), "--shards", str(shards),
             "--stream-workers", str(stream_workers)],
            env=env, capture_output=True, text=True)
    if result.returncode != 0:
        raise RuntimeError(
            f"worker failed for {scene}@{scale} ({mode}):\n{result.stderr}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def _assert_identical(baseline: dict, candidate: dict) -> None:
    label = (f"{candidate['scene']}@{candidate['scale']} "
             f"chunk={candidate['chunk_size']} shards={candidate['shards']}")
    if candidate["miss_rates"] != baseline["miss_rates"]:
        raise AssertionError(f"{label}: miss-rate curve diverges from in-RAM")
    if candidate["classify"] != baseline["classify"]:
        raise AssertionError(f"{label}: 3C classification diverges from in-RAM")
    if candidate["n_accesses"] != baseline["n_accesses"]:
        raise AssertionError(f"{label}: access count diverges from in-RAM")


def streaming_smoke() -> int:
    """CI gate: streamed and pipelined == in-RAM bit for bit on every
    scene at the current ``REPRO_SCALE``, under the fixed peak-RSS
    budget."""
    for scene in STREAM_SCENES:
        baseline = _spawn_worker(scene, SCALE, "ram")
        streamed = _spawn_worker(scene, SCALE, "streamed",
                                 chunk_size=CHUNK_SIZES[0])
        _assert_identical(baseline, streamed)
        piped = _spawn_worker(scene, SCALE, "pipelined",
                              chunk_size=CHUNK_SIZES[0], stream_workers=2)
        _assert_identical(baseline, piped)
        for row in (streamed, piped):
            peak = max(row["maxrss_mb"], row["maxrss_children_mb"])
            if peak > SMOKE_RSS_BUDGET_MB:
                raise AssertionError(
                    f"{scene}: {row['mode']} peak RSS {peak} MB "
                    f"exceeds the {SMOKE_RSS_BUDGET_MB} MB budget")
        print(f"{scene}: streamed + pipelined == in-RAM (curve + 3C), "
              f"peaks {streamed['maxrss_mb']}/{piped['maxrss_mb']} MB "
              f"(in-RAM {baseline['maxrss_mb']} MB, "
              f"budget {SMOKE_RSS_BUDGET_MB} MB)")
    print(f"smoke OK: bit-identical streamed and pipelined pipelines on "
          f"{len(STREAM_SCENES)} scenes at scale {SCALE}")
    return 0


def measure_streaming() -> dict:
    rows = []
    for scale in STREAM_SCALES:
        for scene in STREAM_SCENES:
            baseline = _spawn_worker(scene, scale, "ram")
            rows.append(baseline)
            print(f"{scene:8s} scale {scale:4}  in-RAM    "
                  f"{baseline['elapsed_s']:7.1f} s  "
                  f"{baseline['maxrss_mb']:7.1f} MB  "
                  f"{baseline['fragments_per_s']:>9,} frag/s")
            for chunk_size in CHUNK_SIZES:
                streamed = _spawn_worker(scene, scale, "streamed",
                                         chunk_size=chunk_size)
                _assert_identical(baseline, streamed)
                rows.append(streamed)
                print(f"{scene:8s} scale {scale:4}  chunk {chunk_size >> 10:4}K "
                      f"{streamed['elapsed_s']:7.1f} s  "
                      f"{streamed['maxrss_mb']:7.1f} MB  "
                      f"{streamed['fragments_per_s']:>9,} frag/s")
            for mode, kwargs in (("sharded", dict(shards=2)),
                                 ("pipelined", dict(stream_workers=2))):
                row = _spawn_worker(scene, scale, mode,
                                    chunk_size=CHUNK_SIZES[0], **kwargs)
                _assert_identical(baseline, row)
                rows.append(row)
                print(f"{scene:8s} scale {scale:4}  {mode:9s} "
                      f"{row['elapsed_s']:7.1f} s  "
                      f"{row['maxrss_mb']:7.1f} MB  "
                      f"{row['fragments_per_s']:>9,} frag/s")
    streaming_rows = [row for row in rows if row["mode"] != "ram"]
    ram_rows = [row for row in rows if row["mode"] == "ram"]
    return {
        "bench": "streaming_pipeline",
        "config": {
            "scenes": list(STREAM_SCENES),
            "scales": list(STREAM_SCALES),
            "chunk_sizes": list(CHUNK_SIZES),
            "layout": list(STREAM_LAYOUT),
            "line_size": STREAM_LINE_SIZE,
            "shards": 2,
            "stream_workers": 2,
            "equivalence": "bit-identical miss-rate curves and 3C "
                           "classifications vs the in-RAM pipeline, "
                           "verified per row before timing counts",
            "rss_meter": "resource.getrusage(RUSAGE_SELF).ru_maxrss in a "
                         "fresh subprocess per measurement, cold store "
                         "(maxrss_children_mb: largest forked worker)",
        },
        "rows": rows,
        "peak_rss_mb": {
            "streamed_max": max(max(row["maxrss_mb"],
                                    row["maxrss_children_mb"])
                                for row in streaming_rows),
            "in_ram_max": max(row["maxrss_mb"] for row in ram_rows),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="equivalence + RSS-budget gate at REPRO_SCALE, "
                             "no BENCH_streaming.json")
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--scene", default="town", help=argparse.SUPPRESS)
    parser.add_argument("--scale-value", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--mode", default="ram", help=argparse.SUPPRESS)
    parser.add_argument("--chunk", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--shards", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--stream-workers", type=int, default=0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        row = _run_pipeline(args.scene, float(args.scale_value), args.mode,
                            args.chunk, args.shards, args.stream_workers)
        print(json.dumps(row))
        return 0
    if args.smoke:
        return streaming_smoke()

    report = measure_streaming()
    STREAM_RESULT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    print(f"peak RSS: streamed {report['peak_rss_mb']['streamed_max']} MB "
          f"vs in-RAM {report['peak_rss_mb']['in_ram_max']} MB "
          f"(scales {STREAM_SCALES})")
    print(f"wrote {STREAM_RESULT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
