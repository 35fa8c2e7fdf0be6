"""FindLB: shortest lower bounds of a rule group (Figure 5).

A rule group's upper bound on discretized microarray data typically has
hundreds of items — far too specific to match unseen samples — while its
*lower bounds* (minimal antecedents with the same support set, Lemma 5.1)
have 1-5 items and are what CBA/RCBT classifiers actually deploy.

``find_lower_bounds`` performs the paper's breadth-first search over
subsets of the upper bound's items, ordered by the discriminative power
of their genes (entropy score), with bitmap containment tests.  A subset
``A'`` is a lower bound iff ``R(A') == R(A)`` (condition 2 of Lemma 5.1 —
conditions 1 and 3 are structural: the search only generates subsets, and
breadth-first order plus superset skipping guarantees minimality).

Three prunings keep the search tractable:

* supersets of already-found lower bounds are never extended;
* an item that does not shrink the current subset's support set is
  redundant in *every* superset of that subset (since
  ``R(S) = R(S∖{i}) ∩ R(i)`` and ``R(c ∪ {i}) = R(c)`` propagates), so
  such extensions are dropped outright.  This generalizes the paper's
  pairwise upper-bound intersection heuristic;
* a subset that can no longer reach the target is dropped (a dead end).
  Every item of the upper bound holds the whole target row set, so the
  smallest row set any extension of a subset can reach is its own row
  set ANDed with every later-ranked item (singleton bounds left out:
  the first pruning never adds them).  When that is not the target, no
  extension is a lower bound.

``max_frontier`` caps the live subsets kept per level; dead ends never
count against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .rules import Rule, RuleGroup

if TYPE_CHECKING:  # pragma: no cover - import is for annotations only
    from ..data.dataset import DiscretizedDataset

__all__ = ["LowerBoundResult", "find_lower_bounds", "find_lower_bounds_batch"]


@dataclass
class LowerBoundResult:
    """Outcome of one FindLB search.

    Attributes:
        rules: up to ``nl`` lower bound rules, shortest first, each
            carrying the group's support and confidence.
        complete: True when the search was exhaustive: ``rules`` are
            the first ``nl`` lower bounds in ranked breadth-first order
            over the searched items (the ``max_items`` best when that
            caps the list), or the search proved that no further bound
            exists.  False when the frontier cap trimmed a level,
            ``max_items`` cut the list before ``nl`` bounds were found,
            or the size cap stopped the search with live subsets
            pending; the fallback upper bound is never complete.
        subsets_tested: number of candidate subsets whose support set was
            evaluated.
    """

    rules: list[Rule]
    complete: bool
    subsets_tested: int


def find_lower_bounds(
    dataset: "DiscretizedDataset",
    group: RuleGroup,
    nl: int = 1,
    item_scores: Optional[dict[int, float]] = None,
    max_items: Optional[int] = None,
    max_size: int = 6,
    max_frontier: int = 100_000,
) -> LowerBoundResult:
    """Find up to ``nl`` shortest lower bounds of ``group``.

    Args:
        dataset: the dataset the group was mined from (its row universe
            defines ``R``).
        group: the rule group (upper bound + row support set).
        nl: number of lower bounds requested.
        item_scores: discriminative score per item (higher = searched
            first); typically from
            :func:`repro.analysis.gene_ranking.item_scores`.  Unscored
            items default to 0.
        max_items: consider only the best-ranked this many items of the
            upper bound (the paper's "items from the most discriminant
            genes"); None keeps all.
        max_size: largest lower bound length searched.
        max_frontier: cap on live partial subsets kept per level; when
            the cap trims the frontier the result is incomplete (bounds
            found after a trim are still minimal, but earlier ones may
            have been cut away).

    Returns:
        A :class:`LowerBoundResult`; ``rules`` is empty only if the upper
        bound itself is empty.
    """
    if nl < 1:
        raise ValueError(f"nl must be >= 1, got {nl}")
    scores = item_scores or {}
    items = sorted(group.antecedent, key=lambda i: (-scores.get(i, 0.0), i))
    truncated = False
    if max_items is not None and len(items) > max_items:
        items = items[:max_items]
        truncated = True
    item_rows = dataset.item_row_sets()
    target = group.row_set
    # reach[j]: the AND of the row sets of items[j:], singleton bounds
    # left out — the smallest row set an extension drawing on items[j:]
    # can reach.  A subset whose last item is items[j - 1] is live iff
    # its row set ANDed with reach[j] is still the target (-1 is the
    # all-rows identity of &).
    reach = [-1] * (len(items) + 1)
    for index in range(len(items) - 1, -1, -1):
        rows = item_rows[items[index]]
        reach[index] = reach[index + 1] & (-1 if rows == target else rows)

    found: list[frozenset[int]] = []
    # For the minimality/superset check: item -> [lower bound minus that
    # item].  A frontier combo can never contain a whole lower bound (its
    # support set differs from the target), so ``combo ∪ {item}`` contains
    # one iff the bound includes ``item`` and its remainder is in the
    # combo — an O(found-per-item) probe instead of a scan over all found
    # bounds per candidate.
    found_remainders: dict[int, list[frozenset[int]]] = {}

    def _register(lower: frozenset[int]) -> None:
        found.append(lower)
        for member in lower:
            found_remainders.setdefault(member, []).append(lower - {member})

    def _is_minimal(lower: tuple[int, ...]) -> bool:
        """No subset one item smaller has the target row set."""
        for skip in range(len(lower)):
            rows = -1
            for position, member in enumerate(lower):
                if position != skip:
                    rows &= item_rows[member]
            if rows == target:
                return False
        return True

    tested = 0
    # Frontier entries: (row bitset of the subset, index of its last item
    # in the ranked list, the subset itself as a tuple).
    frontier: list[tuple[int, int, tuple[int, ...]]] = []
    for index, item in enumerate(items):
        rows = item_rows[item]
        tested += 1
        if rows == target:
            _register(frozenset([item]))
            if len(found) >= nl:
                break
        elif rows & reach[index + 1] == target:
            frontier.append((rows, index, (item,)))

    size = 1
    frontier_trimmed = False
    while frontier and len(found) < nl and size < max_size:
        size += 1
        next_frontier: list[tuple[int, int, tuple[int, ...]]] = []
        for rows, last, combo in frontier:
            if len(found) >= nl:
                break
            combo_set = frozenset(combo)
            for index in range(last + 1, len(items)):
                item = items[index]
                remainders = found_remainders.get(item)
                if remainders is not None and any(
                    remainder <= combo_set for remainder in remainders
                ):
                    continue
                new_rows = rows & item_rows[item]
                if new_rows == rows:
                    # Redundant here and in every superset; drop.
                    continue
                tested += 1
                if new_rows == target:
                    # Before any trim, breadth-first order and the
                    # superset skip make every hit minimal; after one, a
                    # smaller bound may have been cut from the frontier.
                    if not frontier_trimmed or _is_minimal(combo + (item,)):
                        _register(frozenset(combo + (item,)))
                        if len(found) >= nl:
                            break
                elif new_rows & reach[index + 1] == target:
                    next_frontier.append((new_rows, index, combo + (item,)))
        if len(next_frontier) > max_frontier:
            next_frontier = next_frontier[:max_frontier]
            frontier_trimmed = True
        frontier = next_frontier

    # Only live subsets are kept, so an empty frontier proves no further
    # bound exists; a non-empty one at exit means the size cap stopped
    # the search with candidates pending.  A trim may have cut away
    # bounds that precede the found ones.
    complete = not frontier_trimmed and (
        len(found) >= nl or not (truncated or frontier)
    )
    if not found and group.antecedent:
        # No minimal subset was reachable within the search limits; fall
        # back to the full upper bound, which always satisfies
        # ``R(A) == target`` even though it may not be minimal.
        found.append(frozenset(group.antecedent))
    rules = [
        Rule(
            antecedent=lower,
            consequent=group.consequent,
            support=group.support,
            confidence=group.confidence,
        )
        for lower in sorted(found, key=lambda s: (len(s), sorted(s)))[:nl]
    ]
    return LowerBoundResult(rules=rules, complete=complete, subsets_tested=tested)


def find_lower_bounds_batch(
    dataset: "DiscretizedDataset",
    groups: Sequence[RuleGroup],
    nl: int = 1,
    item_scores: Optional[dict[int, float]] = None,
    max_items: Optional[int] = None,
    max_size: int = 6,
) -> dict[tuple[int, int], list[Rule]]:
    """FindLB over many groups, memoized by support set.

    Returns a mapping ``(row_set, consequent) -> lower bound rules`` so
    classifier builders can share one search per distinct rule group even
    when the same group tops the lists of many rows.
    """
    cache: dict[tuple[int, int], list[Rule]] = {}
    for group in groups:
        key = (group.row_set, group.consequent)
        if key not in cache:
            cache[key] = find_lower_bounds(
                dataset,
                group,
                nl=nl,
                item_scores=item_scores,
                max_items=max_items,
                max_size=max_size,
            ).rules
    return cache
