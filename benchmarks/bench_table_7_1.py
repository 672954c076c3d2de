"""Table 7.1: memory bandwidth requirements.

The paper's bottom line: at 50 million textured fragments per second,
memory bandwidth for three cache sizes (4 KB and 32 KB two-way, 128 KB
direct-mapped) across line sizes 32/64/128 B, with the blocked+padded
representation and 8x8-pixel tiled rasterization.  Block dims follow
the paper: 4x4 blocks for 32/64 B lines, 8x8 for 128 B.  The uncached
comparison is 1.5 GB/s; the paper reports a 3-15x reduction for the
32 KB cache.

Cache sizes are scaled by REPRO_SCALE like the rest of the harness;
bandwidths are computed at the paper's full 50 Mfragment/s machine.
"""

from paperbench import SCALE, emit, kb, scaled_cache, simulated

from repro.analysis import format_table
from repro.core import (
    CacheConfig,
    cached_bandwidth,
    mbytes_per_second,
    uncached_bandwidth,
)

#: (paper cache KB, assoc) columns and the per-line block sizes.
CACHES = [(4, 2), (32, 2), (128, 1)]
LINES = {32: 4, 64: 4, 128: 8}  # line size -> block dim
ORDER = ("tiled", 8)

#: Paper Table 7.1: scene -> {(cacheKB, line): (MB/s, miss%)}.
PAPER = {
    "flight": {(4, 32): (396, 3.24), (4, 64): (447, 1.83), (4, 128): (610, 1.25),
               (32, 32): (355, 2.91), (32, 64): (386, 1.58), (32, 128): (435, 0.89),
               (128, 32): (339, 2.78), (128, 64): (366, 1.50), (128, 128): (425, 0.87)},
    "town": {(4, 32): (233, 1.91), (4, 64): (271, 1.11), (4, 128): (444, 0.91),
             (32, 32): (99, 0.81), (32, 64): (103, 0.42), (32, 128): (122, 0.25),
             (128, 32): (77, 0.63), (128, 64): (78, 0.32), (128, 128): (88, 0.18)},
    "guitar": {(4, 32): (319, 2.61), (4, 64): (371, 1.52), (4, 128): (552, 1.13),
               (32, 32): (154, 1.26), (32, 64): (161, 0.66), (32, 128): (215, 0.44),
               (128, 32): (120, 0.98), (128, 64): (125, 0.51), (128, 128): (137, 0.28)},
    "goblet": {(4, 32): (385, 3.15), (4, 64): (566, 2.32), (4, 128): (596, 1.22),
               (32, 32): (189, 1.55), (32, 64): (212, 0.87), (32, 128): (225, 0.46),
               (128, 32): (194, 1.59), (128, 64): (215, 0.88), (128, 128): (229, 0.47)},
}

# town's paper (128, 32) cell is partially cut off in the source scan;
# 77 MB/s is back-computed from the 0.63% miss rate shown for guitar's
# row alignment -- treat town/guitar large-cache cells as approximate.


def measure(bank):
    stats = bank.evaluate({
        (scene, paper_kb, line): (
            scene, ORDER, ("padded", block, 4),
            simulated(CacheConfig(scaled_cache(paper_kb * 1024), line, assoc)))
        for scene in PAPER for line, block in LINES.items()
        for paper_kb, assoc in CACHES})
    return {key: result.miss_rate for key, result in stats.items()}


def test_table_7_1(benchmark, bank):
    results = benchmark.pedantic(measure, args=(bank,), rounds=1, iterations=1)

    rows = []
    for scene in PAPER:
        for paper_kb, assoc in CACHES:
            for line in LINES:
                miss = results[(scene, paper_kb, line)]
                bandwidth = mbytes_per_second(cached_bandwidth(miss, line))
                paper_bw, paper_miss = PAPER[scene][(paper_kb, line)]
                rows.append([
                    scene,
                    f"{paper_kb}KB->{kb(scaled_cache(paper_kb * 1024))}"
                    f"/{line}B/{assoc}-way",
                    f"{bandwidth:.0f} ({paper_bw})",
                    f"{100 * miss:.2f}% ({paper_miss}%)",
                ])
    uncached = mbytes_per_second(uncached_bandwidth())
    text = format_table(
        ["scene", "cache (paper->scaled)", "MB/s (paper)", "miss (paper)"],
        rows,
        title=(f"Bandwidth at 50M fragments/s, blocked+padded, tiled 8x8 "
               f"(scale {SCALE}); uncached = {uncached:.0f} MB/s:"),
    )
    reductions = []
    for scene in PAPER:
        for line in LINES:
            miss = results[(scene, 32, line)]
            reductions.append(
                uncached_bandwidth() / cached_bandwidth(max(miss, 1e-9), line))
    text += (f"\n\n32KB-class cache bandwidth reduction: "
             f"{min(reductions):.1f}x - {max(reductions):.1f}x "
             "(paper: 3x - 15x)")
    emit("table_7_1", text)

    # Shape guards.
    for scene in PAPER:
        for line in LINES:
            # Bigger caches never need more bandwidth.
            assert results[(scene, 32, line)] <= results[(scene, 4, line)] + 1e-9
        # The 4KB -> 32KB transition shrinks bandwidth substantially for
        # at least one line size per scene (paper: "much reduced").
        gains = [results[(scene, 4, line)] / max(results[(scene, 32, line)], 1e-9)
                 for line in LINES]
        assert max(gains) > 1.3, scene
    # The headline: the working-set-sized cache cuts bandwidth several
    # fold across the board.  At reduced scale cold misses amortize
    # over fewer accesses, so the floor sits slightly below the paper's
    # 3x (it tightens toward 3-15x as REPRO_SCALE -> 1).
    assert min(reductions) > 2.0
    assert max(reductions) > 8.0
