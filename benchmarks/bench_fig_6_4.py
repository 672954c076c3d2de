"""Figure 6.4: tiled rasterization, padding and 6D blocking versus
conflict misses.

(a) Town, rasterized column-major within and between 8x8 tiles, and
(b) Flight with 8x8 tiles -- comparing the plain blocked representation
against padded (4 pad blocks per block row) and 6D-blocked (superblock
= cache size) layouts, plus the nontiled baseline.  8x8 texel blocks,
128-byte lines, two-way set-associative caches, conflict misses
decomposed with the 3C model.

Paper findings: tiling alone shrinks Town's conflict rate; Flight's
large textures need padding or 6D blocking on top of tiling because a
row of blocks spans a multiple of the cache size.
"""

from paperbench import classified, emit, kb, scaled_cache

from repro.analysis import format_table
from repro.core import CacheConfig

CACHE_SIZES = [scaled_cache(1024 * k) for k in (4, 8, 16, 32)]
LINE = 128

SCENES = {
    "town": ("tiled", 8, "col", "col"),
    "flight": ("tiled", 8),
}
NONTILED = {"town": ("vertical",), "flight": ("horizontal",)}


def layout_specs(cache_bytes):
    return [
        ("blocked", ("blocked", 8)),
        ("padded", ("padded", 8, 4)),
        ("6d", ("blocked6d", 8, cache_bytes)),
    ]


def measure(bank):
    grid = {}
    for scene, tiled_order in SCENES.items():
        for size in CACHE_SIZES:
            query = classified(CacheConfig(size, LINE, 2))
            for label, layout in layout_specs(size):
                grid[(scene, size, label)] = (scene, tiled_order, layout, query)
            grid[(scene, size, "nontiled blocked")] = (
                scene, NONTILED[scene], ("blocked", 8), query)
    return bank.evaluate(grid)


def test_fig_6_4(benchmark, bank):
    results = benchmark.pedantic(measure, args=(bank,), rounds=1, iterations=1)

    sections = []
    variants = ["nontiled blocked", "blocked", "padded", "6d"]
    for scene in SCENES:
        rows = []
        for size in CACHE_SIZES:
            for variant in variants:
                stats = results[(scene, size, variant)]
                rows.append([
                    kb(size), variant, f"{100 * stats.miss_rate:.3f}%",
                    f"{100 * stats.conflict_misses / stats.accesses:.3f}%",
                ])
        sections.append(format_table(
            ["cache", "variant", "miss rate", "conflict rate"], rows,
            title=f"{scene}, 8x8 blocks, {LINE}B lines, 2-way:",
        ))
    text = "\n\n".join(sections)
    text += ("\n\nPaper: tiling reduces same-array block conflicts (Town); "
             "for Flight's large textures, padding or 6D blocking is also "
             "needed.")
    emit("fig_6_4", text)

    def conflict_rate(scene, size, variant):
        stats = results[(scene, size, variant)]
        return stats.conflict_misses / stats.accesses

    # Tiling reduces Town's conflicts vs nontiled-vertical at some size.
    town_gains = [conflict_rate("town", size, "nontiled blocked")
                  - conflict_rate("town", size, "blocked")
                  for size in CACHE_SIZES]
    assert max(town_gains) > 0
    # Padding and 6D blocking help Flight beyond tiling alone.
    flight_blocked = sum(conflict_rate("flight", s, "blocked") for s in CACHE_SIZES)
    flight_padded = sum(conflict_rate("flight", s, "padded") for s in CACHE_SIZES)
    flight_6d = sum(conflict_rate("flight", s, "6d") for s in CACHE_SIZES)
    assert flight_padded < flight_blocked
    assert flight_6d < flight_blocked
