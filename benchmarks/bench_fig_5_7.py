"""Figure 5.7: effect of cache associativity on conflict misses.

Goblet (horizontal) and Town (vertical), 8x8 blocks, 128-byte lines,
associativities direct-mapped through fully associative across cache
sizes.

Paper findings:
* Goblet (small triangles): direct-mapped suffers conflicts between
  adjacent Mip Map levels; two-way matches fully associative.
* Town-vertical: two-way helps with Mip-level conflicts, but conflicts
  between blocks in the same 2D array persist -- a gap to fully
  associative remains, and limited associativity beyond two-way only
  helps at small sizes.
"""

from paperbench import emit, kb, scaled_cache, simulated

from repro.analysis import format_table
from repro.core import CacheConfig

CACHE_SIZES = [scaled_cache(1024 * k) for k in (4, 8, 16, 32, 64, 128)]
ASSOCIATIVITIES = (1, 2, 4, 8, 16, None)
LINE = 128
LAYOUT = ("blocked", 8)

SCENES = {"goblet": ("horizontal",), "town": ("vertical",)}


def measure(bank):
    stats = bank.evaluate({
        (name, size, assoc): (name, order, LAYOUT,
                              simulated(CacheConfig(size, LINE, assoc)))
        for name, order in SCENES.items() for size in CACHE_SIZES
        for assoc in ASSOCIATIVITIES})
    return {key: result.miss_rate for key, result in stats.items()}


def label(assoc):
    return "full" if assoc is None else f"{assoc}-way"


def test_fig_5_7(benchmark, bank):
    rates = benchmark.pedantic(measure, args=(bank,), rounds=1, iterations=1)

    sections = []
    for name, order in SCENES.items():
        rows = []
        for size in CACHE_SIZES:
            rows.append([kb(size)] + [
                f"{100 * rates[(name, size, assoc)]:.3f}%"
                for assoc in ASSOCIATIVITIES
            ])
        sections.append(format_table(
            ["cache"] + [label(a) for a in ASSOCIATIVITIES], rows,
            title=f"{name} ({order[0]}), 8x8 blocks, {LINE}B lines:",
        ))
    text = "\n\n".join(sections)
    text += ("\n\nPaper: (a) Goblet -- direct-mapped >> 2-way = fully "
             "associative (Mip-level conflicts); (b) Town-vertical -- a "
             "gap between 2-way and fully associative remains (same-array "
             "block conflicts).")
    emit("fig_5_7", text)

    # Goblet: direct-mapped suffers; 2-way ~ fully associative.
    goblet_gap = []
    for size in CACHE_SIZES[:4]:
        direct = rates[("goblet", size, 1)]
        two_way = rates[("goblet", size, 2)]
        full = rates[("goblet", size, None)]
        goblet_gap.append(direct / max(two_way, 1e-9))
        assert two_way < 1.6 * full + 1e-9, size
    assert max(goblet_gap) > 1.5
    # Town-vertical: 2-way still beats direct...
    small = CACHE_SIZES[0]
    assert rates[("town", small, 2)] < rates[("town", small, 1)]
    # ...but a gap to fully associative persists somewhere in the sweep.
    gaps = [rates[("town", size, 2)] - rates[("town", size, None)]
            for size in CACHE_SIZES]
    assert max(gaps) > 0.0005
