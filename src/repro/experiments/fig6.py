"""Figure 6: runtime of MineTopkRGS vs. FARMER (a-d) and vs. k (e).

Panels (a)-(d) sweep the absolute minimum support (expressed here as a
fraction of the class-1 size, the paper's 0.95 down to 0.6) and time

* ``TopkRGS k=1`` and ``TopkRGS k=100`` — MineTopkRGS on the prefix-tree
  engine;
* ``FARMER`` — the projected-table engine (the original implementation),
  at ``minconf = 0`` and at the high confidence threshold the paper uses
  (0.9, or 0.95 on OC/PC);
* ``FARMER+prefix`` — the same search on the prefix-tree engine.

Panel (e) sweeps ``k`` at fixed minimum support on ALL- and PC-shaped
data.  ``--column-baselines`` adds CHARM and CLOSET+ runs, reproducing
the Section 6.1 observation that column enumeration does not finish.

Every run is guarded by a wall-clock budget; a trailing ``+`` on a time
means the budget expired first (the paper's "cannot finish" rows).
Absolute times are Python, not the paper's C — the object of comparison
is the *relative* picture: orders of magnitude between the series, and
MineTopkRGS's insensitivity to minsup.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..baselines import mine_charm, mine_closetplus, mine_farmer
from ..core.topk_miner import mine_topk, relative_minsup
from ..data.loaders import Benchmark
from .harness import DATASET_NAMES, Timing, prepare, render_table, timed

__all__ = ["Fig6Result", "run", "run_panel_e", "render", "main"]

DEFAULT_FRACTIONS = (0.95, 0.9, 0.85, 0.8, 0.7, 0.6)
DEFAULT_K_VALUES = (1, 25, 50, 75, 100)
_HIGH_CONF = {"ALL": 0.9, "LC": 0.9, "OC": 0.95, "PC": 0.9}


@dataclass
class Fig6Result:
    """Timings per dataset: list of (fraction, minsup, series -> Timing)."""

    panels: dict[str, list[tuple[float, int, dict[str, Timing]]]] = field(
        default_factory=dict
    )
    k_panel: dict[str, list[tuple[int, Timing]]] = field(default_factory=dict)
    time_budget: float = 20.0


def _sweep_dataset(
    benchmark: Benchmark,
    fractions: Sequence[float],
    time_budget: float,
    k_values: Sequence[int] = (1, 100),
    column_baselines: bool = False,
) -> list[tuple[float, int, dict[str, Timing]]]:
    train = benchmark.train_items
    high_conf = _HIGH_CONF.get(benchmark.name, 0.9)
    rows = []
    for fraction in fractions:
        minsup = relative_minsup(train, 1, fraction)
        series: dict[str, Timing] = {}
        for k in k_values:
            timing, _ = timed(
                lambda k=k: mine_topk(
                    train, 1, minsup, k=k, engine="tree",
                    time_budget=time_budget,
                )
            )
            series[f"TopkRGS k={k}"] = timing
        timing, _ = timed(
            lambda: mine_farmer(
                train, 1, minsup, minconf=0.0, engine="table",
                time_budget=time_budget,
            )
        )
        series["FARMER"] = timing
        timing, _ = timed(
            lambda: mine_farmer(
                train, 1, minsup, minconf=high_conf, engine="table",
                time_budget=time_budget,
            )
        )
        series[f"FARMER conf={high_conf}"] = timing
        timing, _ = timed(
            lambda: mine_farmer(
                train, 1, minsup, minconf=0.0, engine="tree",
                time_budget=time_budget,
            )
        )
        series["FARMER+prefix"] = timing
        if column_baselines:
            timing, _ = timed(
                lambda: mine_charm(train, 1, minsup, time_budget=time_budget)
            )
            series["CHARM"] = timing
            timing, _ = timed(
                lambda: mine_closetplus(
                    train, 1, minsup, time_budget=time_budget
                )
            )
            series["CLOSET+"] = timing
        rows.append((fraction, minsup, series))
    return rows


def run(
    scale: float = 1.0,
    datasets: Sequence[str] = DATASET_NAMES,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    time_budget: float = 20.0,
    column_baselines: bool = False,
) -> Fig6Result:
    """Panels (a)-(d): the minsup sweep on each dataset."""
    result = Fig6Result(time_budget=time_budget)
    for name in datasets:
        benchmark = prepare(name, scale)
        result.panels[name] = _sweep_dataset(
            benchmark, fractions, time_budget,
            column_baselines=column_baselines,
        )
    return result


def run_panel_e(
    scale: float = 1.0,
    datasets: Sequence[str] = ("ALL", "PC"),
    k_values: Sequence[int] = DEFAULT_K_VALUES,
    fraction: float = 0.8,
    time_budget: float = 20.0,
) -> Fig6Result:
    """Panel (e): runtime vs. k at fixed minimum support."""
    result = Fig6Result(time_budget=time_budget)
    for name in datasets:
        benchmark = prepare(name, scale)
        train = benchmark.train_items
        minsup = relative_minsup(train, 1, fraction)
        curve = []
        for k in k_values:
            timing, _ = timed(
                lambda k=k: mine_topk(
                    train, 1, minsup, k=k, engine="tree",
                    time_budget=time_budget,
                )
            )
            curve.append((k, timing))
        result.k_panel[name] = curve
    return result


def render(result: Fig6Result) -> str:
    """Plain-text rendering of all computed panels."""
    sections = []
    for dataset, rows in result.panels.items():
        if not rows:
            continue
        series_names = list(rows[0][2])
        headers = ["minsup (frac)", *series_names]
        body = [
            [f"{minsup} ({fraction:g})", *(series[name].render() for name in series_names)]
            for fraction, minsup, series in rows
        ]
        sections.append(
            render_table(headers, body, title=f"Figure 6 — {dataset} runtime")
        )
    for dataset, curve in result.k_panel.items():
        headers = ["k", "TopkRGS runtime"]
        body = [[k, timing.render()] for k, timing in curve]
        sections.append(
            render_table(headers, body, title=f"Figure 6(e) — {dataset}")
        )
    note = (
        f"('+' = wall-clock budget of {result.time_budget:g}s expired "
        "before completion)"
    )
    return "\n\n".join([*sections, note])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.25,
                        help="gene-count scale; FARMER needs small scales "
                             "to finish at low minsup")
    parser.add_argument("--datasets", nargs="+", default=list(DATASET_NAMES),
                        choices=DATASET_NAMES)
    parser.add_argument("--fractions", nargs="+", type=float,
                        default=list(DEFAULT_FRACTIONS))
    parser.add_argument("--time-budget", type=float, default=20.0)
    parser.add_argument("--column-baselines", action="store_true")
    parser.add_argument("--panel", choices=["sweep", "e", "all"], default="all")
    args = parser.parse_args(argv)
    result = Fig6Result(time_budget=args.time_budget)
    if args.panel in ("sweep", "all"):
        swept = run(
            scale=args.scale,
            datasets=args.datasets,
            fractions=args.fractions,
            time_budget=args.time_budget,
            column_baselines=args.column_baselines,
        )
        result.panels = swept.panels
    if args.panel in ("e", "all"):
        k_result = run_panel_e(scale=args.scale, time_budget=args.time_budget)
        result.k_panel = k_result.k_panel
    print(render(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
