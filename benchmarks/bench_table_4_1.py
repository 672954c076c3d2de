"""Table 4.1: benchmark scene characteristics.

Measures, for each procedural scene, the properties the paper
tabulates for the originals, and prints them side by side so deviations
of the stand-in scenes are visible.  Absolute values shrink with
REPRO_SCALE (resolution and texture dimensions scale together); the
paper's values correspond to scale 1.0.  The rows are the engine's
stored ``"scene"`` summaries, so a warm run builds no scene.
"""

from paperbench import SCALE, emit

from repro.analysis import format_table
from repro.scenes import ALL_SCENES
from repro.scenes.stats import SceneCharacteristics

#: Table 4.1 as published (scale 1.0).
PAPER = {
    "flight": dict(resolution="1280x1024", triangles=9152, area=294, width=38,
                   height=20, textures=15, storage_mb=56.0, used_mb=6.3,
                   used_pct=11, pixels_m=1.4),
    "town": dict(resolution="1280x1024", triangles=5317, area=1149, width=67,
                 height=23, textures=51, storage_mb=4.7, used_mb=1.8,
                 used_pct=38, pixels_m=2.1),
    "guitar": dict(resolution="800x800", triangles=719, area=1867, width=72,
                   height=94, textures=8, storage_mb=4.9, used_mb=1.1,
                   used_pct=23, pixels_m=0.7),
    "goblet": dict(resolution="800x800", triangles=7200, area=41, width=25,
                   height=14, textures=1, storage_mb=1.4, used_mb=0.78,
                   used_pct=56, pixels_m=0.3),
}


def measure(bank):
    return [SceneCharacteristics(**bank.summary(
                "scene", name, bank.paper_order_spec(name)))
            for name in ALL_SCENES]


def test_table_4_1(benchmark, bank):
    measured = benchmark.pedantic(measure, args=(bank,), rounds=1, iterations=1)

    rows = []
    for chars in measured:
        paper = PAPER[chars.name]
        rows.append([
            chars.name,
            f"{chars.width}x{chars.height}",
            f"{chars.n_triangles} ({paper['triangles']})",
            f"{chars.avg_triangle_area:.0f} ({paper['area']})",
            f"{chars.n_textures} ({paper['textures']})",
            f"{chars.texture_storage_mb:.2f} ({paper['storage_mb']})",
            f"{chars.texture_used_mb:.2f} ({paper['used_mb']})",
            f"{100 * chars.texture_used_fraction:.0f}% ({paper['used_pct']}%)",
            f"{chars.pixels_textured_millions:.2f} ({paper['pixels_m']})",
        ])
    text = format_table(
        ["scene", "resolution", "triangles", "avg area px", "textures",
         "storage MB", "used MB", "used %", "Mpixels textured"],
        rows,
        title=(f"measured (paper @ scale 1.0 in parentheses); linear scale "
               f"{SCALE} => areas/storage shrink ~{SCALE ** 2:.3f}x"),
    )
    emit("table_4_1", text)

    # Structural guards: texture counts match the paper exactly; the
    # triangle-size ordering matches (goblet smallest, guitar largest).
    by_name = {c.name: c for c in measured}
    for name, paper in PAPER.items():
        assert by_name[name].n_textures == paper["textures"]
    areas = {name: c.avg_triangle_area for name, c in by_name.items()}
    assert areas["goblet"] == min(areas.values())
    assert areas["guitar"] == max(areas.values())
    for chars in measured:
        assert 0.0 < chars.texture_used_fraction <= 1.0
