"""Seeded generation of randomized audit cases.

Every case is a small discretized dataset plus one mining request
(consequent, minsup, k), derived *only* from ``(master seed, case
index)`` so any failure anywhere in the audit pipeline is reproducible
from two integers.  The generator deliberately over-samples the shapes
that historically break miners and serving layers:

* varying row/item counts, density and class skew;
* duplicate rows (closure collisions, tie-heavy top-k lists);
* degenerate datasets — empty rows, a single class, all-identical rows;
* tall datasets (> 64 rows, so bitsets span multiple machine words)
  built from a handful of distinct row patterns, which keeps the
  brute-force oracle exact: the oracle enumerates *distinct* patterns,
  and duplicates add rows without adding itemsets;
* minsup values from 1 up to the whole consequent class.

Datasets stay at or below :data:`MAX_ROWS` rows (:data:`MAX_TALL_ROWS`
for the ``tall`` shape, whose distinct-pattern count stays tiny) so the
brute-force oracle of :mod:`repro.baselines.naive_topk` remains
feasible on every generated case.  Only the stdlib ``random`` module is
used, so the stream is stable across numpy versions and platforms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..data.dataset import DiscretizedDataset, Item

__all__ = [
    "AuditCase",
    "MAX_ROWS",
    "MAX_TALL_ROWS",
    "SHAPES",
    "generate_case",
    "generate_cases",
]

# The naive oracle enumerates all 2^n subsets of *distinct* row
# patterns; 12 rows keeps one oracle run in the low milliseconds while
# still covering every shape.
MAX_ROWS = 12

# Row range of the "tall" shape: above 64 rows so row bitsets span
# multiple 64-bit words (where single-word shortcuts would hide bugs),
# but built from at most 8 distinct patterns so the oracle stays exact.
MIN_TALL_ROWS = 65
MAX_TALL_ROWS = 96

# Shape rotation: index i draws SHAPES[i % len(SHAPES)], so any case
# count >= len(SHAPES) exercises every degenerate family at least once.
SHAPES = (
    "uniform",
    "skewed",
    "duplicates",
    "dense",
    "sparse",
    "empty-rows",
    "single-class",
    "identical-rows",
    "tall",
)


@dataclass(frozen=True)
class AuditCase:
    """One generated dataset plus the mining request to audit it with."""

    index: int
    seed: int
    shape: str
    dataset: DiscretizedDataset
    consequent: int
    minsup: int
    k: int

    def describe(self) -> str:
        return (
            f"case {self.index} [{self.shape}] seed={self.seed}: "
            f"{self.dataset.n_rows} rows x {self.dataset.n_items} items, "
            f"{self.dataset.n_classes} classes, consequent={self.consequent}, "
            f"minsup={self.minsup}, k={self.k}"
        )

    def repro_command(self) -> str:
        """Copy-pastable command reproducing exactly this case."""
        return (
            f"PYTHONPATH=src python -m repro.cli audit "
            f"--seed {self.seed} --only-case {self.index}"
        )


def _items(n_items: int) -> list[Item]:
    return [
        Item(index, index, f"g{index}", float("-inf"), float("inf"))
        for index in range(n_items)
    ]


def _random_row(rng: random.Random, n_items: int, density: float) -> frozenset[int]:
    row = frozenset(i for i in range(n_items) if rng.random() < density)
    if not row:
        row = frozenset({rng.randrange(n_items)})
    return row


def _labels(rng: random.Random, n_rows: int, n_classes: int, skew: float) -> list[int]:
    """Labels with class 0 weighted by ``skew``; every class represented."""
    labels = [
        0 if rng.random() < skew else rng.randrange(1, n_classes)
        for _ in range(n_rows)
    ]
    # Reserve one distinct position per class so no class is ever empty
    # (a dataset whose max label exceeds an observed class would also
    # fail DiscretizedDataset validation).
    for class_id, position in zip(
        range(n_classes), rng.sample(range(n_rows), min(n_classes, n_rows))
    ):
        labels[position] = class_id
    return labels


def generate_case(seed: int, index: int) -> AuditCase:
    """Deterministically build audit case ``index`` of master ``seed``."""
    rng = random.Random(f"repro-audit:{seed}:{index}")
    shape = SHAPES[index % len(SHAPES)]

    n_rows = rng.randint(4, MAX_ROWS)
    n_items = rng.randint(3, 10)
    n_classes = rng.choice((2, 2, 2, 3))
    density = rng.uniform(0.25, 0.7)
    skew = 0.5

    if shape == "skewed":
        skew = rng.uniform(0.75, 0.92)
    elif shape == "dense":
        density = rng.uniform(0.75, 0.95)
    elif shape == "sparse":
        density = rng.uniform(0.08, 0.2)
        n_items = rng.randint(6, 12)
    elif shape == "single-class":
        n_classes = 1
    elif shape == "tall":
        n_rows = rng.randint(MIN_TALL_ROWS, MAX_TALL_ROWS)

    if shape == "tall":
        # A handful of distinct patterns duplicated across many rows:
        # the multi-word bitset paths run for real, while the oracle's
        # distinct-pattern enumeration stays exact and fast.
        base = [
            _random_row(rng, n_items, density)
            for _ in range(rng.randint(4, 8))
        ]
        rows = [base[rng.randrange(len(base))] for _ in range(n_rows)]
    else:
        rows = [_random_row(rng, n_items, density) for _ in range(n_rows)]
    if shape == "duplicates":
        # Overwrite roughly half the rows with copies of earlier rows.
        for _ in range(n_rows // 2):
            src = rng.randrange(n_rows)
            dst = rng.randrange(n_rows)
            rows[dst] = rows[src]
    elif shape == "empty-rows":
        for _ in range(max(1, n_rows // 4)):
            rows[rng.randrange(n_rows)] = frozenset()
    elif shape == "identical-rows":
        rows = [rows[0]] * n_rows

    if n_classes == 1:
        labels = [0] * n_rows
    else:
        labels = _labels(rng, n_rows, n_classes, skew)

    dataset = DiscretizedDataset(
        rows, labels, _items(n_items), name=f"audit-{seed}-{index}"
    )
    consequent = rng.randrange(dataset.n_classes)
    class_size = dataset.class_counts()[consequent]
    minsup = rng.randint(1, max(1, class_size))
    k = rng.randint(1, 3)
    return AuditCase(
        index=index,
        seed=seed,
        shape=shape,
        dataset=dataset,
        consequent=consequent,
        minsup=minsup,
        k=k,
    )


def generate_cases(seed: int, n_cases: int) -> list[AuditCase]:
    """The first ``n_cases`` audit cases of ``seed``, in index order."""
    if n_cases < 1:
        raise ValueError(f"n_cases must be >= 1, got {n_cases}")
    return [generate_case(seed, index) for index in range(n_cases)]
