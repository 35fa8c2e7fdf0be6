"""Invariant checks over mining results and classifiers.

Each check raises :class:`InvariantViolation` with a human-readable
description of the first violated property.  The checks are pure
functions over public objects, so they are usable from three places:

* the differential audit harness (``repro audit``);
* the test suite (deliberate-corruption tests);
* the miners themselves — :func:`repro.core.topk_miner.mine_topk`
  (also inside the pool workers of
  :func:`repro.parallel.mine_topk_requests`) runs
  :func:`check_topk_result` on every result when the ``REPRO_CHECK``
  environment variable is set to a non-empty value other than ``0``,
  turning any workload into a self-auditing run.

Invariant catalog (references are to the paper):

``check_topk_result``
    * **coverage** — ``per_row`` has exactly one entry per
      consequent-class row, and (for completed runs) the entry is
      non-empty whenever the row contains at least one frequent item;
    * **admissibility** — each list holds at most ``k`` distinct rule
      groups, sorted by the Definition 2.2 significance order
      (confidence desc, then support desc), each covering its row;
    * **closure soundness** — every antecedent equals the closure
      ``I(R(antecedent))`` restricted to the frequent items, and
      ``row_set`` equals ``R(antecedent)``;
    * **support/confidence consistency** — ``support`` is the count of
      consequent-class rows in ``row_set``, ``confidence`` is
      ``support / |row_set|``, and ``support >= minsup``.

``check_rcbt_coverage``
    * every class's mined result passes ``check_topk_result``;
    * ``predict_batch`` agrees with per-row prediction on every
      training row, and every prediction is a valid class id.

``check_cba_order``
    * the CBA precedence key of Section 2.2 is a strict total order on
      the given rules: keys are unique and pairwise comparisons are
      antisymmetric.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Sequence

from ..core.bitset import popcount
from ..core.rules import Rule, cba_sort_key
from ..core.view import MiningView
from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - imports for annotations only
    from ..classifiers.rcbt import RCBTClassifier
    from ..core.topk_miner import TopkResult
    from ..data.dataset import DiscretizedDataset

__all__ = [
    "InvariantViolation",
    "checks_enabled",
    "check_topk_result",
    "check_rcbt_coverage",
    "check_cba_order",
]


class InvariantViolation(ReproError):
    """A mined result or classifier violates a paper invariant."""


def checks_enabled() -> bool:
    """True when the ``REPRO_CHECK`` env flag requests inline auditing."""
    return os.environ.get("REPRO_CHECK", "") not in ("", "0")


def _fail(message: str, context: str = "") -> None:
    raise InvariantViolation(f"{message}{f' ({context})' if context else ''}")


def check_topk_result(
    dataset: "DiscretizedDataset",
    result: "TopkResult",
    strict_coverage: bool = True,
) -> None:
    """Assert every catalog invariant of one :class:`TopkResult`.

    Args:
        dataset: the dataset the result was mined from.
        result: the result to audit.
        strict_coverage: also require non-empty per-row lists wherever a
            frequent item covers the row.  Disable for partial results
            (budget overruns / cancellations), where lists may be
            legitimately incomplete; structural invariants still hold.
    """
    view = MiningView(dataset, result.consequent, result.minsup)
    frequent = frozenset(view.frequent_items)
    class_mask = dataset.class_mask(result.consequent)
    positive_rows = set(dataset.rows_of_class(result.consequent))

    if set(result.per_row) != positive_rows:
        _fail(
            "per_row keys must be exactly the consequent-class rows",
            f"got {sorted(result.per_row)}, expected {sorted(positive_rows)}",
        )

    checked_groups: set[tuple[int, int]] = set()
    for row, groups in result.per_row.items():
        context = f"row {row}"
        if len(groups) > result.k:
            _fail(f"more than k={result.k} groups", context)
        if strict_coverage and not groups and dataset.rows[row] & frequent:
            _fail(
                "empty top-k list for a row containing a frequent item",
                context,
            )
        seen_row_sets: set[tuple[int, int]] = set()
        previous = None
        for rank, group in enumerate(groups, start=1):
            group_context = f"{context} rank {rank}: {group.describe()}"
            if not group.row_set >> row & 1:
                _fail("group does not cover its row", group_context)
            key = (group.row_set, group.consequent)
            if key in seen_row_sets:
                _fail("duplicate rule group in one top-k list", group_context)
            seen_row_sets.add(key)
            if previous is not None and (
                (group.confidence, group.support)
                > (previous.confidence, previous.support)
            ):
                _fail(
                    "list not sorted by the Definition 2.2 significance "
                    "order",
                    group_context,
                )
            previous = group
            if key not in checked_groups:
                checked_groups.add(key)
                _check_group(dataset, view, frequent, class_mask,
                             result.minsup, group, group_context)


def _check_group(
    dataset: "DiscretizedDataset",
    view: MiningView,
    frequent: frozenset[int],
    class_mask: int,
    minsup: int,
    group,
    context: str,
) -> None:
    if not group.antecedent:
        _fail("empty antecedent", context)
    if not group.antecedent <= frequent:
        _fail("antecedent contains a non-frequent item", context)
    support_set = dataset.support_set(sorted(group.antecedent))
    if support_set != group.row_set:
        _fail("row_set is not R(antecedent)", context)
    closure = dataset.common_items(group.row_set) & frequent
    if group.antecedent != closure:
        _fail(
            "antecedent is not the closure of its row_set over the "
            "frequent items",
            f"{context}; closure={sorted(closure)}",
        )
    support = popcount(group.row_set & class_mask)
    if group.support != support:
        _fail(
            "support disagrees with the consequent-class rows of row_set",
            f"{context}; recounted {support}",
        )
    total = popcount(group.row_set)
    if total == 0 or group.confidence != support / total:
        _fail(
            "confidence disagrees with support / |row_set|",
            f"{context}; recounted {support}/{total}",
        )
    if group.support < minsup:
        _fail(f"support below minsup {minsup}", context)


def check_rcbt_coverage(
    model: "RCBTClassifier", train: "DiscretizedDataset"
) -> None:
    """Assert RCBT's training-set coverage and batch/serial agreement."""
    model._check_fitted()
    for class_id, result in model.topk_results_.items():
        if result.consequent != class_id:
            _fail(
                "mined result stored under the wrong class",
                f"class {class_id} holds consequent {result.consequent}",
            )
        check_topk_result(train, result,
                          strict_coverage=result.stats.completed)
    batch = model.predict_batch(train.rows)
    for row_index, (row, batched) in enumerate(zip(train.rows, batch)):
        single = model.predict_row(row)
        if single != batched:
            _fail(
                "predict_batch disagrees with predict_row",
                f"row {row_index}: batch {batched}, single {single}",
            )
        label, source = batched
        if not 0 <= label < train.n_classes:
            _fail(f"prediction {label} out of range", f"row {row_index}")
        if source not in ("main", "standby", "default"):
            _fail(f"unknown prediction source {source!r}", f"row {row_index}")


def check_cba_order(rules: Sequence[Rule]) -> None:
    """Assert the CBA precedence is a strict total order on ``rules``."""
    keys = [cba_sort_key(rule, index) for index, rule in enumerate(rules)]
    if len(set(keys)) != len(keys):
        _fail("CBA sort keys are not unique across distinct rules")
    for i, left in enumerate(keys):
        for right in keys[i + 1:]:
            if (left < right) == (right < left):
                _fail(
                    "CBA precedence violates antisymmetry",
                    f"{left} vs {right}",
                )
