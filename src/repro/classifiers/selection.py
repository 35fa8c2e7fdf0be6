"""CBA's rule sorting, coverage test and error-minimizing truncation.

Steps 2-4 of Section 2.2, shared by every rule-based classifier here
(CBA, IRG and each level of RCBT):

* rules are sorted by the total order ``≺`` — confidence, then support,
  then shorter antecedent, then discovery order;
* each rule in turn is kept iff it correctly classifies at least one
  still-uncovered training row; rows it covers (of any class) are then
  removed;
* after each kept rule the running error of "classifier so far + default
  class" is recorded, and the final classifier is the prefix minimizing
  that error, together with the default class recorded at the cut point.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Sequence

from ..core.bitset import mask_below, popcount
from ..core.rules import Rule, RuleGroup, cba_sort_key

if TYPE_CHECKING:  # pragma: no cover - import is for annotations only
    from ..data.dataset import DiscretizedDataset

__all__ = [
    "SelectedRules",
    "SelectedGroups",
    "cba_select",
    "cba_select_groups",
    "majority_class",
]


@dataclass
class SelectedRules:
    """A pruned, ordered rule list plus its default class."""

    rules: list[Rule]
    default_class: int
    training_errors: int

    def first_match(self, row_items: frozenset[int]) -> Rule | None:
        """The highest-precedence rule matching the row, if any."""
        for rule in self.rules:
            if rule.antecedent <= row_items:
                return rule
        return None


def majority_class(labels: Sequence[int], n_classes: int) -> int:
    """Most frequent class; ties broken toward the smaller id."""
    counts = [0] * n_classes
    for label in labels:
        counts[label] += 1
    return max(range(n_classes), key=lambda c: (counts[c], -c))


def _coverage_test(
    ordered: Sequence,
    covered_rows: Iterable[int],
    dataset: "DiscretizedDataset",
    error_cut: bool,
) -> tuple[list, int, int]:
    """CBA's Step 3 over candidates already in ``≺`` order, and Step 4
    when ``error_cut`` is set.

    ``covered_rows`` yields each candidate's matching training rows as
    a bitset, in ``ordered``'s order; it is consumed lazily, so
    matching stops once every training row is covered.  Returns the
    kept candidates, the default class and the training errors.
    """
    n_classes = dataset.n_classes
    n_rows = dataset.n_rows
    class_masks = [dataset.class_mask(c) for c in range(n_classes)]

    remaining = mask_below(n_rows)
    selected: list = []
    # Per kept candidate: (cumulative errors, default class, total errors).
    checkpoints: list[tuple[int, int, int]] = []
    kept_errors = 0
    for candidate, rows in zip(ordered, covered_rows):
        if not remaining:
            break
        covered = rows & remaining
        if not covered:
            continue
        correct = covered & class_masks[candidate.consequent]
        if not correct:
            continue
        selected.append(candidate)
        kept_errors += popcount(covered) - popcount(correct)
        remaining &= ~covered
        default = max(
            range(n_classes),
            key=lambda c: (popcount(remaining & class_masks[c]), -c),
        )
        default_errors = popcount(remaining) - popcount(
            remaining & class_masks[default]
        )
        checkpoints.append(
            (kept_errors, default, kept_errors + default_errors)
        )

    overall_default = majority_class(dataset.labels, n_classes)
    if not selected:
        base_errors = n_rows - popcount(class_masks[overall_default])
        return [], overall_default, base_errors

    if error_cut:
        best_index = min(range(len(checkpoints)), key=lambda i: checkpoints[i][2])
        _, best_default, best_total = checkpoints[best_index]
        return selected[: best_index + 1], best_default, best_total

    # Coverage test only: keep every candidate that earned its place.
    # The default class is the majority of whatever stayed uncovered
    # (the overall majority when nothing did).
    if remaining:
        final_default = max(
            range(n_classes),
            key=lambda c: (popcount(remaining & class_masks[c]), -c),
        )
    else:
        final_default = overall_default
    return selected, final_default, checkpoints[-1][2]


def cba_select(rules: Sequence[Rule], dataset: "DiscretizedDataset") -> SelectedRules:
    """Run the CBA coverage test over ``rules`` against ``dataset``.

    Args:
        rules: candidate rules in discovery order (the order is the final
            ``≺`` tie-breaker).
        dataset: training data the coverage test runs on.

    Returns:
        The error-minimizing rule prefix and default class.  With no
        usable rules the classifier is empty and the default class is the
        training majority.
    """
    ordered = [
        rule for _index, rule in sorted(
            enumerate(rules), key=lambda pair: cba_sort_key(pair[1], pair[0])
        )
    ]
    covered_rows = map(
        dataset.support_set, map(attrgetter("antecedent"), ordered)
    )
    return SelectedRules(
        *_coverage_test(ordered, covered_rows, dataset, error_cut=True)
    )


@dataclass
class SelectedGroups:
    """A pruned, ordered rule-group list plus its default class.

    Used by RCBT, whose coverage test runs at rule-group granularity: all
    lower bounds of one group match exactly the same training rows (their
    shared support set), so removing covered rows after the first of them
    would spuriously prune the other ``nl - 1`` — and make the collective
    vote degenerate to first-match.
    """

    groups: list[RuleGroup]
    default_class: int
    training_errors: int


def cba_select_groups(
    groups: Sequence[RuleGroup],
    dataset: "DiscretizedDataset",
    error_cut: bool = False,
) -> SelectedGroups:
    """CBA's sort and coverage test over whole rule groups.

    A group "matches" a training row iff the row is in its support set,
    which is identical for every member rule of the group; the selection
    is therefore exactly CBA's Step 3 applied once per group instead of
    once per lower bound.  RCBT levels use Step 3 *only* ("sorted and
    pruned (as in Step 3)", Section 5.2) — applying Step 4's error cut
    would truncate a level to its first perfect group and leave the
    opposing class without voters; pass ``error_cut=True`` to get the
    full CBA behaviour anyway.
    """
    # The sort is stable, so ties keep discovery order.
    ordered = sorted(
        groups, key=lambda group: (-group.confidence, -group.support)
    )
    covered_rows = map(attrgetter("row_set"), ordered)
    return SelectedGroups(
        *_coverage_test(ordered, covered_rows, dataset, error_cut)
    )
