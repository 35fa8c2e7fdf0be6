"""Figure 7: effect of the number of lower bound rules (nl) on accuracy.

Sweeps ``nl`` for RCBT on the ALL- and LC-shaped datasets (the two the
paper plots).  The published curves are flat for nl ≳ 15 — the committee
saturates — and that insensitivity is the claim this driver checks.
Each point's build wall-clock is reported alongside.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..classifiers import RCBTClassifier
from .harness import DATASET_NAMES, format_seconds, prepare, render_table

__all__ = ["Fig7Result", "run", "render", "main"]

DEFAULT_NL_VALUES = (1, 5, 10, 15, 20, 25)


@dataclass
class Fig7Result:
    """Accuracy per dataset per nl value.

    ``timings`` holds per-point build wall-clock as ``(nl, seconds)``.
    """

    curves: dict[str, list[tuple[int, float]]] = field(default_factory=dict)
    timings: dict[str, list[tuple[int, float]]] = field(default_factory=dict)
    k: int = 10


def run(
    scale: float = 1.0,
    datasets: Sequence[str] = ("ALL", "LC"),
    nl_values: Sequence[int] = DEFAULT_NL_VALUES,
    k: int = 10,
    minsup_fraction: float = 0.7,
) -> Fig7Result:
    """Fit RCBT at each nl and record test accuracy (and build times)."""
    result = Fig7Result(k=k)
    for name in datasets:
        benchmark = prepare(name, scale)
        curve = []
        timings = []
        for nl in nl_values:
            start = time.perf_counter()
            model = RCBTClassifier(
                k=k, nl=nl, minsup_fraction=minsup_fraction
            ).fit(benchmark.train_items)
            seconds = time.perf_counter() - start
            curve.append((nl, model.score(benchmark.test_items)))
            timings.append((nl, seconds))
        result.curves[name] = curve
        result.timings[name] = timings
    return result


def render(result: Fig7Result) -> str:
    datasets = list(result.curves)
    nl_values = [nl for nl, _acc in next(iter(result.curves.values()))]
    headers = ["nl", *datasets]
    body = []
    for index, nl in enumerate(nl_values):
        body.append(
            [nl, *(f"{result.curves[d][index][1]:.2%}" for d in datasets)]
        )
    sections = [
        render_table(
            headers, body, title=f"Figure 7 — RCBT accuracy vs nl (k={result.k})"
        )
    ]
    if result.timings:
        time_body = [
            [nl, *(format_seconds(result.timings[d][index][1])
                   for d in datasets)]
            for index, nl in enumerate(nl_values)
        ]
        sections.append(
            render_table(
                headers, time_body, title="Figure 7 — RCBT build wall-clock",
            )
        )
    return "\n\n".join(sections)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--datasets", nargs="+", default=["ALL", "LC"],
                        choices=DATASET_NAMES)
    parser.add_argument("--nl-values", nargs="+", type=int,
                        default=list(DEFAULT_NL_VALUES))
    parser.add_argument("--k", type=int, default=10)
    args = parser.parse_args(argv)
    print(render(run(scale=args.scale, datasets=args.datasets,
                     nl_values=args.nl_values, k=args.k)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
