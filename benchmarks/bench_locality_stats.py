"""Section 3.1.2 / Section 5.2.3 locality statistics.

Regenerates the paper's pre-cache locality measurements:

* accesses per texel -- trilinear lower level ~4, upper level ~14-16,
  bilinear ~18 (scene dependent);
* texture repetition -- Town 2.9x, Guitar 1.7x, Goblet 1.1x,
  Flight 1.0x;
* same-texture runlengths -- 223,629 (Town), 553,745 (Guitar) and
  562,154 (Flight) at full scale; the headline is that the working set
  holds one texture at a time.

The numbers are the engine's stored ``"locality"`` summaries, so a warm
run loads no trace.
"""

from paperbench import emit

from repro.analysis import format_table
from repro.analysis.metrics import AccessesPerTexel
from repro.scenes import ALL_SCENES

PAPER_REPETITION = {"town": 2.9, "guitar": 1.7, "goblet": 1.1, "flight": 1.0}
PAPER_RUNLENGTH = {"town": 223629, "guitar": 553745, "flight": 562154}


def measure(bank):
    stats = {}
    for name in ALL_SCENES:
        summary = bank.summary("locality", name, bank.paper_order_spec(name))
        stats[name] = {
            "apt": AccessesPerTexel(**summary["accesses_per_texel"]),
            "repetition": summary["repetition_factor"],
            "runlength": summary["mean_texture_runlength"],
            "accesses": summary["n_accesses"],
        }
    return stats


def test_locality_stats(benchmark, bank):
    stats = benchmark.pedantic(measure, args=(bank,), rounds=1, iterations=1)

    rows = []
    for name, entry in stats.items():
        apt = entry["apt"]
        paper_run = PAPER_RUNLENGTH.get(name)
        rows.append([
            name,
            f"{apt.lower:.1f} (4)",
            f"{apt.upper:.1f} (14-16)",
            f"{apt.bilinear:.1f} (18)" if apt.bilinear else "-",
            f"{entry['repetition']:.2f} ({PAPER_REPETITION[name]})",
            f"{entry['runlength']:.0f}"
            + (f" ({paper_run})" if paper_run else " (single texture)"),
        ])
    text = format_table(
        ["scene", "acc/texel lower", "acc/texel upper", "acc/texel bilinear",
         "repetition", "mean runlength"],
        rows,
        title="measured (paper values in parentheses; runlengths scale down "
              "with trace length)",
    )
    emit("locality_stats", text)

    # Paper-shape guards.
    for name, entry in stats.items():
        apt = entry["apt"]
        # Upper level texels are reused much more than lower level.
        assert apt.upper > 1.5 * apt.lower, name
        # Lower-level reuse is around the paper's ~4.
        assert 1.5 < apt.lower < 8.0, name
    # Repetition ordering: Town most repeated, Flight unrepeated.
    assert stats["flight"]["repetition"] < 1.1
    assert stats["goblet"]["repetition"] < 1.4
    assert stats["town"]["repetition"] > 1.8
    # Long same-texture runs: thousands of consecutive accesses.
    for name in ("town", "guitar", "flight"):
        assert stats[name]["runlength"] > 1000, name
