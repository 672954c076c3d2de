#!/usr/bin/env python3
"""Benchmark of the texture-cache reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 22 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``paper``  -- the 11 paper harnesses through pytest, cold then warm;
* ``stream`` -- the pipelined streamed fold of all 4 scenes with one
  seeded worker kill per cold pass, re-swept warm on a second layout;
* ``timing`` -- the cycle-level texcache sweep of all 4 scenes.

Each *round* runs a cold pass in a fresh process on an empty store and
a warm pass in another fresh process on the store the cold pass left;
the first round also runs ``repro cache verify`` on that store.
Rounds repeat while another one fits in ``--seconds`` (at least one);
every metric is a median over the run's passes or rounds.  The provenance line also carries each
pass's CPU seconds (pass process and pool workers): wall time well
above them on a one-process pass means the pass waited for a core.
Every op's output is compared with ``perfbench/reference.json`` and a
mismatch counts as a failed op.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead
runs one untraced cold pass, one traced round and, for ``stream``, the
idle-worker-kill probe, and prints the per-layer metrics, the tracing
overhead among them.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(BENCH_DIR))

from perfbench import passes  # noqa: E402

REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

PAPER_HARNESSES = ("fig_5_2", "fig_5_4", "fig_5_5", "fig_5_6", "fig_5_7",
                   "fig_6_2", "fig_6_4", "table_2_1", "table_4_1",
                   "table_7_1", "locality_stats")
PAPER_SCALE = "0.25"

WORKLOADS = ("paper", "stream", "timing")
#: A stream run covers every kill range once: the kill costs 0.3-1 s
#: depending on the range, so a run missing one would skew its median.
MIN_ROUNDS = {"paper": 1, "stream": passes.STREAM_RANGES, "timing": 1}
#: Rows of the probe's one-scene fold (9 default cache sizes).
PROBE_ROWS = 9
#: Every run must end within 180 s; passes share what is left of this.
RUN_DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "cold_s": "s", "warm_s": "s",
              "peak_rss_mb": "MB"}

PER_LAYER = dict(
    [(f"harness.{name}.{kind}_s", "s") for name in PAPER_HARNESSES
     for kind in ("cold", "warm")]
    + [("scenes.build_s", "s"), ("scenes.builds", "count"),
       ("renderer.render_s", "s"), ("renderer.renders", "count"),
       ("renderer.fragments", "count"), ("raster.clip_s", "s"),
       ("raster.raster_s", "s"), ("filtering.access_gen_s", "s"),
       ("memory.place_s", "s"), ("trace.byte_addresses_s", "s"),
       ("trace.accesses_mapped", "count"),
       ("kernels.profile_requests", "count"),
       ("kernels.profiles_computed", "count"), ("kernels.profile_s", "s"),
       ("kernels.profile_reuse_ratio", "ratio"),
       ("cache.simulate_calls", "count"), ("cache.simulate_s", "s"),
       ("classify.s", "s"), ("runner.run_s", "s"), ("runner.cells", "count"),
       ("streaming.fold_s", "s"), ("streaming.merges", "count"),
       ("streaming.merge_s", "s"), ("pipelined.respawns", "count"),
       ("pipelined.range_retries", "count"),
       ("pipelined.residual_ranges", "count"),
       ("pipelined.fallbacks", "count"), ("pipelined.recovery_s", "s"),
       ("pipelined.worker_rss_mb", "MB"), ("artifacts.saves", "count"),
       ("artifacts.save_s", "s"), ("artifacts.bytes_written", "bytes"),
       ("artifacts.parts", "count"), ("artifacts.loads", "count"),
       ("artifacts.load_s", "s"), ("artifacts.load_miss_ratio", "ratio"),
       ("artifacts.quarantined", "count"), ("tiers.t0_hits", "count"),
       ("tiers.t0_misses", "count"), ("tiers.t0_hit_ratio", "ratio"),
       ("tiers.digests_computed", "count"), ("tiers.digest_hits", "count"),
       ("texcache.fill_streams_s", "s"), ("texcache.sweep_s", "s"),
       ("texcache.cells", "count"), ("texcache.fragments", "count"),
       ("probe.clean.fold_s", "s"), ("probe.idle_kill.fold_s", "s"),
       ("probe.idle_kill.respawns", "count"),
       ("probe.idle_kill.range_retries", "count"),
       ("probe.idle_kill.residual_ranges", "count"),
       ("probe.idle_kill.fallbacks", "count"),
       ("trace.overhead_s", "s"), ("trace.coverage", "ratio")])


class Run:
    """One benchmark run: its scratch directory, deadline and ops."""

    def __init__(self, root: str, workload: str, seed: int,
                 reference: dict = None):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.frame_index = seed % len(passes.FRAMES)
        self.started = time.monotonic()
        self.deadline = self.started + RUN_DEADLINE_S
        self.dir = os.path.join(root, ".perfbench",
                                f"{workload}-seed{seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(os.path.join(self.dir, "tmp"))
        self.ops = []  # (name, ok, why)
        self.reference = load_reference() if reference is None else reference
        self.verified = False
        self.kept_logs = []

    def op(self, name: str, ok: bool, why: str = "") -> None:
        self.ops.append((name, bool(ok), why))

    def env(self, **extra) -> dict:
        env = {key: value for key, value in os.environ.items()
               if not key.startswith(("REPRO_", "PERFBENCH_"))}
        env.update(PYTHONPATH=os.pathsep.join(
            [os.path.join(self.root, "src"), self.root]),
            TMPDIR=os.path.join(self.dir, "tmp"),
            # One BLAS thread per process: spinning BLAS threads would
            # compete with the pool workers for the host's few cores.
            OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1")
        env.update(extra)
        return env

    # -- passes -------------------------------------------------------------

    def run_pass(self, name: str, kind: str, store: str, traced: bool,
                 plan: str = "", warm: bool = False) -> dict:
        """Run one pass in a fresh process; return its timings and ops."""
        where = os.path.join(self.dir, name)
        os.makedirs(where)
        out = os.path.join(where, "result.json")
        spans = os.path.join(where, "spans.jsonl")
        faults = os.path.join(where, "faults")
        os.makedirs(faults)
        env = self.env(REPRO_CACHE_DIR=store, REPRO_FAULT_DIR=faults)
        if plan:
            env["REPRO_FAULT_PLAN"] = plan
        if kind == "stream":
            env["REPRO_STREAM_JOB_TIMEOUT"] = passes.STREAM_JOB_TIMEOUT_S
        if self.workload == "paper":
            results = os.path.join(where, "results")
            env.update(REPRO_SCALE=PAPER_SCALE, PERFBENCH_OUT=out,
                       PERFBENCH_RESULTS=results, PERFBENCH_SPANS=spans,
                       PERFBENCH_TRACE="1" if traced else "0")
            argv = ([sys.executable, "-m", "pytest", "-q", "-p",
                     "no:cacheprovider", "-p", "perfbench.plugin",
                     "--benchmark-disable"]
                    + [f"benchmarks/bench_{h}.py" for h in PAPER_HARNESSES])
        else:
            config = {"workload": kind, "store": store, "trace": traced,
                      "warm": warm,
                      "frame": passes.FRAMES[self.frame_index],
                      "out": out, "spans": spans}
            argv = [sys.executable, "-m", "perfbench.passes",
                    json.dumps(config)]
        spawned = time.monotonic()
        status, rss_mb = self._wait(argv, env, os.path.join(where, "log"))
        result = {"ok": status == 0, "rss_mb": rss_mb, "faults": faults,
                  "where": where, "spans": spans}
        if os.path.exists(out):
            with open(out) as source:
                record = json.load(source)
            if record.get("start") is not None:
                result.update(record)
                result["setup_s"] = record["start"] - spawned
                result["wall_s"] = record["end"] - record["start"]
                result["cpu_s"] = record["cpu_end"] - record["cpu_start"]
        if "wall_s" not in result:
            result["ok"] = False
        if not result["ok"]:
            self.keep_log(name)
        return result

    def keep_log(self, name: str) -> None:
        """Copy a failed pass's log out of the scratch directory, which
        the run deletes, to ``.perfbench/failed/``."""
        kept = os.path.join(self.root, ".perfbench", "failed",
                            f"{os.path.basename(self.dir)}-{name}.log")
        os.makedirs(os.path.dirname(kept), exist_ok=True)
        shutil.copyfile(os.path.join(self.dir, name, "log"), kept)
        self.kept_logs.append(os.path.relpath(kept, self.root))

    def _wait(self, argv, env, log_path) -> tuple:
        """Run ``argv`` to completion or the run's deadline; return its
        exit status and the peak RSS (MB) of it and every child it
        reaped, as ``wait4`` reports them."""
        with open(log_path, "w") as log:
            child = subprocess.Popen(argv, cwd=self.root, env=env,
                                     stdout=log, stderr=subprocess.STDOUT)
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                child.returncode = os.waitstatus_to_exitcode(status)
                return child.returncode, usage.ru_maxrss / 1024.0
            if time.monotonic() > self.deadline:
                child.kill()
                _, status, usage = os.wait4(child.pid, 0)
                child.returncode = -9
                return -9, usage.ru_maxrss / 1024.0
            time.sleep(0.02)

    # -- checks -------------------------------------------------------------

    def check_pass(self, label: str, result: dict, warm: bool = False) -> None:
        """Count one op per unit of output, failed unless it matches the
        reference exactly."""
        if self.workload == "paper":
            outcomes = {op["op"]: op["passed"] for op in result.get("ops", ())}
            for harness in PAPER_HARNESSES:
                table = os.path.join(result["where"], "results",
                                     harness + ".txt")
                emitted = _read(table) if os.path.exists(table) else None
                same = emitted == self.reference["paper"][harness]
                self.op(f"{label}.{harness}",
                        outcomes.get(harness, False) and same,
                        "table differs" if outcomes.get(harness)
                        else "harness failed")
            return
        section = ("stream_relayout" if warm and self.workload == "stream"
                   else self.workload)
        expected = self.reference[section][str(self.frame_index)]
        produced = {op["op"]: op["digest"] for op in result.get("ops", ())}
        for scene in passes.SCENES:
            self.op(f"{label}.{scene}",
                    result["ok"] and produced.get(scene) == expected[scene],
                    "digest differs" if result["ok"] else "pass failed")

    def verify_store(self, label: str, store: str) -> None:
        status, _ = self._wait(
            [sys.executable, "-m", "repro", "cache", "verify", "--dir", store],
            self.env(), os.path.join(self.dir, label + ".verify.log"))
        self.op(label + ".cache_verify", status == 0, f"exit {status}")

    # -- rounds -------------------------------------------------------------

    def cold(self, label: str, store: str, traced: bool, index: int) -> dict:
        """A cold pass on an empty store; for ``stream``, under one
        seeded worker kill that must fire."""
        plan = (passes.kill_plan(self.seed, index)
                if self.workload == "stream" else "")
        result = self.run_pass(label + "-cold", self.workload, store, traced,
                               plan)
        self.check_pass(label + ".cold", result)
        if plan:
            fired = any(name.endswith(".fired")
                        for name in os.listdir(result["faults"]))
            self.op(label + ".cold.kill_fired", fired, plan)
        return result

    def round(self, index: int, traced: bool) -> dict:
        """Cold pass, warm pass on the store it left and, in a run's
        first round, a verify of that store (a process of its own, so
        once per run leaves room for more rounds)."""
        label = f"r{index}{'t' if traced else ''}"
        store = os.path.join(self.dir, label + "-store")
        shm_before = _shm_segments()
        cold = self.cold(label, store, traced, index)
        warm = self.run_pass(label + "-warm", self.workload, store, traced,
                             warm=True)
        self.check_pass(label + ".warm", warm, warm=True)
        if self.workload == "stream":
            leaked = _shm_segments() - shm_before
            self.op(label + ".shm_clean", not leaked, ",".join(sorted(leaked)))
        if not self.verified:
            self.verify_store(label, store)
            self.verified = True
        shutil.rmtree(store, ignore_errors=True)
        return {"cold": cold, "warm": warm}


def _read(path: str) -> str:
    with open(path) as source:
        return source.read()


def _shm_segments() -> set:
    """The program's shared-memory segments (``repro`` name prefix)."""
    try:
        return {name for name in os.listdir("/dev/shm")
                if name.startswith("repro")}
    except OSError:
        return set()


def load_reference() -> dict:
    with open(REFERENCE_PATH) as source:
        return json.load(source)


def _median(values):
    return statistics.median(values) if values else 0.0


def _passes(round_: dict) -> list:
    return [round_["cold"], round_["warm"]]


def end_to_end(rounds: list) -> dict:
    return {
        "setup_s": _median([p["setup_s"] for r in rounds for p in _passes(r)
                            if "setup_s" in p]),
        "cold_s": _median([r["cold"]["wall_s"] for r in rounds
                           if "wall_s" in r["cold"]]),
        "warm_s": _median([r["warm"]["wall_s"] for r in rounds
                           if "wall_s" in r["warm"]]),
        "peak_rss_mb": _median([max(p["rss_mb"] for p in _passes(r))
                                for r in rounds]),
    }


def recoveries(rounds: list) -> dict:
    """Per pass and op, the pool's recovery counters where any is
    non-zero: a seeded kill costs one respawn and one retried range;
    anything more is the pool recovering from worse."""
    found = {}
    for index, round_ in enumerate(rounds):
        for kind in ("cold", "warm"):
            for op in round_[kind].get("ops", ()):
                counters = op.get("recovery") or {}
                if any(counters.values()):
                    found[f"r{index}.{kind}.{op['op']}"] = counters
    return found


def per_layer(traced: dict, untraced_cold: dict, probe: dict) -> dict:
    """Per-layer metrics from one traced round (its cold and warm pass
    summed), the tracing overhead against an untraced cold pass, and
    the probe's counts."""
    values = dict.fromkeys(PER_LAYER, 0.0)
    totals = {}
    for kind in ("cold", "warm"):
        for name, value in traced[kind].get("layers", {}).items():
            if name.startswith("harness."):
                values[f"{name[:-2]}.{kind}_s"] = value
            else:
                totals[name] = totals.get(name, 0.0) + value
    for name in values:
        if name in totals:
            values[name] = totals[name]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    values["kernels.profile_reuse_ratio"] = ratio(
        totals.get("kernels.served_requests", 0),
        totals.get("kernels.profile_requests", 0))
    values["artifacts.load_miss_ratio"] = ratio(
        totals.get("artifacts.load_misses", 0), totals.get("artifacts.loads", 0))
    values["tiers.t0_hit_ratio"] = ratio(
        totals.get("tiers.t0_hits", 0),
        totals.get("tiers.t0_hits", 0) + totals.get("tiers.t0_misses", 0))
    values["pipelined.worker_rss_mb"] = max(
        p.get("worker_rss_mb", 0.0) for p in _passes(traced))
    values["trace.overhead_s"] = (traced["cold"].get("wall_s", 0.0)
                                  - untraced_cold.get("wall_s", 0.0))
    values["trace.coverage"] = ratio(
        totals.get("trace.spanned_s", 0.0),
        sum(p.get("wall_s", 0.0) for p in _passes(traced)))
    if probe:
        values["probe.clean.fold_s"] = probe["clean_s"]
        values["probe.idle_kill.fold_s"] = probe["fold_s"]
        for counter in ("respawns", "range_retries", "residual_ranges",
                        "fallbacks"):
            values[f"probe.idle_kill.{counter}"] = probe[counter]
    return values


def host_stamp(root: str) -> dict:
    """Where and on what the numbers were measured."""
    import numpy
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "host": platform.node(), "nproc": os.cpu_count(), "commit": commit,
        "source_sha256": source_digest(root),
        "python": platform.python_version(), "numpy": numpy.__version__,
    }


def source_digest(root: str) -> str:
    """SHA-256 over the program's and the harnesses' sources: the
    commit stand-in when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "benchmarks"):
        for folder, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as source:
                        digest.update(source.read())
    return digest.hexdigest()


def check_checkout(root: str) -> str:
    """Why ``root`` cannot be benchmarked, or ``""``."""
    for needed in ("src/repro/__init__.py", "benchmarks/paperbench.py"):
        if not os.path.isfile(os.path.join(root, needed)):
            return f"{needed} not found under {root}: run from a checkout root"
    if not os.path.isfile(REFERENCE_PATH):
        return f"missing {REFERENCE_PATH}"
    return ""


def benchmark(root: str, workload: str, seed: int, seconds: int,
              trace: bool) -> tuple:
    """Run the workload; return ``(ops, metrics, provenance)``."""
    run = Run(root, workload, seed)
    cache_dir = os.path.join(root, "benchmarks", ".cache")
    cache_before = _stamp(cache_dir)
    try:
        rounds = []
        if trace:
            # The overhead baseline: the traced round's cold pass, same
            # kill position, untraced.
            untraced_cold = run.cold("u1", os.path.join(run.dir, "u1-store"),
                                     False, 1)
            rounds.append(run.round(1, traced=True))
            probe = {}
            if workload == "stream":
                probe_pass = run.run_pass(
                    "probe", "probe", os.path.join(run.dir, "probe-store"),
                    traced=False)
                probe = (probe_pass.get("ops") or [{}])[0]
                run.op("probe", probe.get("rows") == PROBE_ROWS,
                       "probe fold")
            metrics = per_layer(rounds[0], untraced_cold, probe)
            _keep_spans(run, rounds[0])
        else:
            # Another round while it fits in ``seconds``, judged by the
            # mean round so far.
            while (len(rounds) < MIN_ROUNDS[workload]
                   or time.monotonic() - run.started
                   + (time.monotonic() - run.started) / len(rounds)
                   <= seconds):
                rounds.append(run.round(len(rounds), traced=False))
            metrics = end_to_end(rounds)
        run.op("hermetic.benchmarks_cache", _stamp(cache_dir) == cache_before,
               "benchmarks/.cache changed")
        samples = {
            "cold_s": [r["cold"].get("wall_s") for r in rounds],
            "warm_s": [r["warm"].get("wall_s") for r in rounds],
            "setup_s": [p.get("setup_s") for r in rounds for p in _passes(r)],
            "cold_cpu_s": [r["cold"].get("cpu_s") for r in rounds],
            "warm_cpu_s": [r["warm"].get("cpu_s") for r in rounds],
            "peak_rss_mb": [max(p["rss_mb"] for p in _passes(r))
                            for r in rounds]}
        stamp = host_stamp(root)
        stamp.update(workload=workload, seed=seed,
                     frame=passes.FRAMES[run.frame_index], trace=trace,
                     estimator="median over rounds", rounds=len(rounds),
                     samples=samples, recoveries=recoveries(rounds),
                     failed_pass_logs=run.kept_logs)
        return run.ops, metrics, stamp
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run.dir))  # only if nothing is kept
        except OSError:
            pass


def _keep_spans(run: Run, traced: dict) -> None:
    """Move the traced round's span files out of the scratch directory."""
    keep = os.path.join(run.root, ".perfbench", "traces",
                        f"{run.workload}-seed{run.seed}")
    shutil.rmtree(keep, ignore_errors=True)
    os.makedirs(keep)
    for kind in ("cold", "warm"):
        if os.path.exists(traced[kind]["spans"]):
            shutil.move(traced[kind]["spans"],
                        os.path.join(keep, f"{kind}.spans.jsonl"))


def _stamp(path: str):
    try:
        stat = os.stat(path)
        return (stat.st_ino, stat.st_mtime_ns)
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    problem = check_checkout(root)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    ops, metrics, stamp = benchmark(root, args.workload, args.seed,
                                    args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    failed = [(name, why) for name, ok, why in ops if not ok]
    stamp["failed_ops"] = [f"{name}: {why}" for name, why in failed]
    print(json.dumps({"provenance": stamp}))
    print(json.dumps({
        "correct": not failed, "attempted": len(ops), "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
