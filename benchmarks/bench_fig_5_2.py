"""Figure 5.2 and Section 5.2.2: the base (nonblocked) representation.

(a) Miss rate versus cache size under horizontal rasterization and
(b) under vertical rasterization, fully associative, 32-byte lines --
plus the cold miss rates at 32- and 128-byte lines.

Paper findings reproduced here:
* first working sets are small: Flight 4 KB, Town 8 KB, Guitar 16 KB,
  Goblet 16 KB at full scale (scaled by REPRO_SCALE here);
* Town's working set doubles under vertical rasterization (upright
  textures make column-major traversal the worst case);
* cold miss rates are low (0.55%-2.8% at 32 B) and drop ~3-4x with
  128-byte lines.
"""

from paperbench import SCALE, curve, emit, kb, scaled_cache

from repro.analysis import first_working_set, format_series, format_table, miss_rate_chart
from repro.scenes import ALL_SCENES

PAPER_COLD_32 = {"town": 0.0055, "guitar": 0.0087, "goblet": 0.015, "flight": 0.028}
PAPER_COLD_128 = {"town": 0.0015, "guitar": 0.0025, "goblet": 0.0042, "flight": 0.011}
PAPER_WORKING_SET = {"flight": 4, "town": 8, "guitar": 16, "goblet": 16}  # KB, horizontal

CACHE_SIZES = sorted({scaled_cache(1024 * k) for k in (1, 2, 4, 8, 16, 32, 64, 128, 256)})
LAYOUT = ("nonblocked",)


def measure(bank):
    grid = {("curve", name, direction):
            (name, (direction,), LAYOUT, curve(32, CACHE_SIZES))
            for name in ALL_SCENES for direction in ("horizontal", "vertical")}
    grid.update({("cold", name, line):
                 (name, ("horizontal",), LAYOUT, curve(line, [CACHE_SIZES[-1]]))
                 for name in ALL_SCENES for line in (32, 128)})
    results = bank.evaluate(grid)
    curves = {(name, direction): results[("curve", name, direction)]
              for name in ALL_SCENES for direction in ("horizontal", "vertical")}
    colds = {name: (results[("cold", name, 32)].cold_miss_rate,
                    results[("cold", name, 128)].cold_miss_rate)
             for name in ALL_SCENES}
    return curves, colds


def test_fig_5_2(benchmark, bank):
    curves, colds = benchmark.pedantic(measure, args=(bank,), rounds=1,
                                       iterations=1)

    lines = []
    for direction in ("horizontal", "vertical"):
        lines.append(f"\n(%s rasterization)" % direction)
        for name in ALL_SCENES:
            curve = curves[(name, direction)]
            lines.append(format_series(
                f"  {name:8s}", [kb(s) for s in curve.sizes],
                [f"{100 * r:.2f}%" for r in curve.miss_rates],
                "cache", "miss"))
    cold_rows = [
        [name,
         f"{100 * colds[name][0]:.2f}% ({100 * PAPER_COLD_32[name]:.2f}%)",
         f"{100 * colds[name][1]:.2f}% ({100 * PAPER_COLD_128[name]:.2f}%)"]
        for name in ALL_SCENES
    ]
    ws_rows = []
    for name in ALL_SCENES:
        ws = first_working_set(curves[(name, "horizontal")])
        ws_rows.append([name, kb(ws.size),
                        kb(int(PAPER_WORKING_SET[name] * 1024 * SCALE)) + " (scaled paper)"])
    text = "\n".join(lines)
    text += "\n\n" + format_table(
        ["scene", "cold @32B (paper)", "cold @128B (paper)"], cold_rows,
        title="Cold miss rates, Section 5.2.2:")
    text += "\n\n" + format_table(
        ["scene", "measured first working set", "paper working set x scale"],
        ws_rows, title="First working sets (horizontal):")
    for direction in ("horizontal", "vertical"):
        text += "\n\n" + miss_rate_chart(
            {name: curves[(name, direction)] for name in ALL_SCENES},
            title=f"Figure 5.2 ({direction}), nonblocked, 32B lines:")
    emit("fig_5_2", text)

    # Shape guards.
    for name in ALL_SCENES:
        horizontal = curves[(name, "horizontal")]
        vertical = curves[(name, "vertical")]
        # Curves are non-increasing and converge at large sizes.
        assert (horizontal.miss_rates[:-1] >= horizontal.miss_rates[1:] - 1e-12).all()
        assert vertical.miss_rates[-1] < 1.15 * horizontal.miss_rates[-1] + 1e-9
        # Cold misses drop substantially with the longer line.
        cold32, cold128 = colds[name]
        assert cold128 < cold32 / 2.0
    # Town is direction-sensitive at small caches (upright textures).
    assert curves[("town", "vertical")].miss_rates[0] > \
        1.5 * curves[("town", "horizontal")].miss_rates[0]
    # Goblet's small triangles make it direction-insensitive.
    goblet_v = curves[("goblet", "vertical")].miss_rates[0]
    goblet_h = curves[("goblet", "horizontal")].miss_rates[0]
    assert goblet_v < 1.6 * goblet_h
