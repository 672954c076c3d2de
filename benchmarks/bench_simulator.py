"""Simulator kernel timings: reference loop versus vectorized kernels.

Times the Figure 5.7-style associativity sweep (cache sizes x
associativities at 128-byte lines) on the four benchmark scenes two
ways:

* ``ms_before`` -- the pre-kernel cost: one sequential
  :class:`~repro.core.cache.LRUCache` simulation per grid cell, which
  is what every harness paid before the stack-distance kernels landed.
* ``ms_after`` -- the cost the harnesses pay now: every cell read off
  a store-backed :class:`~repro.core.kernels.SetDistanceProfile`
  (warm steady state; the one-time cold kernel pass is reported
  separately as ``ms_after_cold`` in the config block).

Both paths are verified cell-by-cell for bit-identical miss counts
before anything is timed.  Results land in ``BENCH_simulator.json`` at
the repository root with schema ``{bench, config, ms_before, ms_after,
speedup}``.

Run directly (``python benchmarks/bench_simulator.py``) or through the
benchmark suite; ``--smoke`` runs a reduced grid, skips the JSON and
just checks equivalence (CI runs it at tiny scale on 3.9 and 3.12).
The smoke also fails unless some fully-associative stream it verifies
is longer than one fold block (:data:`repro.core.kernels._FOLD_RUNS`),
so the equivalence check always covers the cross-block merge.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from paperbench import SceneBank, kb, paper_order_spec, scaled_cache  # noqa: E402

from repro.core import CacheConfig, simulate  # noqa: E402
from repro.core.kernels import _FOLD_RUNS  # noqa: E402
from repro.core.sweep import TraceStreams  # noqa: E402
from repro.engine import StoredTraceStreams, TraceSpec, addresses_payload  # noqa: E402

CACHE_SIZES = [scaled_cache(1024 * k) for k in (4, 8, 16, 32, 64, 128)]
ASSOCIATIVITIES = (1, 2, 4, 8, 16, None)
LINE = 128
LAYOUT = ("blocked", 8)
SCENES = ("flight", "goblet", "guitar", "town")

RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_simulator.json"


def grid(smoke: bool = False):
    sizes = CACHE_SIZES[:2] if smoke else CACHE_SIZES
    return [CacheConfig(size, LINE, assoc)
            for size in sizes for assoc in ASSOCIATIVITIES]


def reference_sweep(stream, configs):
    return [simulate(stream, config, kernel="reference") for config in configs]


def vectorized_sweep(streams, configs):
    return [streams.set_profile(LINE, config.n_sets).stats_for(config)
            for config in configs]


def fresh_stored_streams(bank, name):
    """A StoredTraceStreams with empty in-memory memos, so every
    profile comes from the on-disk store (the warm steady state a new
    session experiences)."""
    spec = TraceSpec(scene=name, scale=bank.scale,
                     order=paper_order_spec(name))
    payload = addresses_payload(spec, LAYOUT)
    addresses = bank.engine.store.load_addresses(payload)
    return StoredTraceStreams(addresses, store=bank.engine.store,
                              key_payload=payload)


def measure(bank, smoke: bool = False) -> dict:
    configs = grid(smoke)
    per_scene = {}
    totals = {"before": 0.0, "after": 0.0, "cold": 0.0}
    for name in SCENES:
        streams = bank.streams(name, paper_order_spec(name), LAYOUT)
        stream = streams.stream(LINE)

        reference = reference_sweep(stream, configs)
        # Warm the store and verify bit-identical miss counts first.
        vectorized = vectorized_sweep(fresh_stored_streams(bank, name),
                                      configs)
        for config, fast, slow in zip(configs, vectorized, reference):
            if (fast.misses, fast.cold_misses) != (slow.misses,
                                                   slow.cold_misses):
                raise AssertionError(
                    f"{name} {config.label()}: vectorized "
                    f"({fast.misses}, {fast.cold_misses}) != reference "
                    f"({slow.misses}, {slow.cold_misses})")

        start = time.perf_counter()
        reference_sweep(stream, configs)
        ms_before = 1000 * (time.perf_counter() - start)

        ms_after = min(
            _timed(lambda: vectorized_sweep(fresh_stored_streams(bank, name),
                                            configs))
            for _ in range(3))
        ms_cold = min(
            _timed(lambda: vectorized_sweep(TraceStreams(streams.addresses),
                                            configs))
            for _ in range(2))

        per_scene[name] = {"ms_before": round(ms_before, 3),
                           "ms_after": round(ms_after, 3),
                           "ms_after_cold": round(ms_cold, 3),
                           "run_accesses": int(len(stream.run_lines))}
        totals["before"] += ms_before
        totals["after"] += ms_after
        totals["cold"] += ms_cold
    return {
        "bench": "simulator_assoc_sweep",
        "config": {
            "scale": bank.scale,
            "line_size": LINE,
            "cache_sizes": [kb(size) for size in (CACHE_SIZES[:2] if smoke
                                                  else CACHE_SIZES)],
            "associativities": ["full" if a is None else a
                                for a in ASSOCIATIVITIES],
            "scenes": list(SCENES),
            "layout": list(LAYOUT),
            "warm_store": True,
            "ms_after_cold": round(totals["cold"], 3),
            "per_scene": per_scene,
        },
        "ms_before": round(totals["before"], 3),
        "ms_after": round(totals["after"], 3),
        "speedup": round(totals["before"] / max(totals["after"], 1e-9), 2),
    }


def _timed(run) -> float:
    start = time.perf_counter()
    run()
    return 1000 * (time.perf_counter() - start)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced grid, equivalence check only "
                             "(no BENCH_simulator.json)")
    args = parser.parse_args(argv)

    bank = SceneBank()
    report = measure(bank, smoke=args.smoke)
    summary = (f"{report['bench']}: {len(grid(args.smoke))} configs x "
               f"{len(SCENES)} scenes, reference {report['ms_before']:.1f} ms "
               f"-> warm kernels {report['ms_after']:.1f} ms "
               f"({report['speedup']:.1f}x; cold kernels "
               f"{report['config']['ms_after_cold']:.1f} ms)")
    print(summary)
    if args.smoke:
        longest = max(scene["run_accesses"]
                      for scene in report["config"]["per_scene"].values())
        if longest <= _FOLD_RUNS:
            raise AssertionError(
                f"longest verified stream has {longest} runs, within one "
                f"{_FOLD_RUNS}-run fold block: the cross-block merge "
                f"went unchecked")
        print(f"smoke OK: vectorized == reference on the reduced grid "
              f"(longest fully-associative stream {longest} runs, "
              f"{-(-longest // _FOLD_RUNS)} fold blocks)")
        return 0
    RESULT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {RESULT_PATH}")
    return 0


def test_simulator_kernels(bank):
    """Benchmark-suite entry: full measurement plus the JSON artifact."""
    report = measure(bank)
    RESULT_PATH.write_text(json.dumps(report, indent=1) + "\n")
    assert report["speedup"] > 1.0


if __name__ == "__main__":
    sys.exit(main())
