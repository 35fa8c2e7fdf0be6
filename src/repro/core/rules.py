"""Rules, rule groups, and the significance orders of the paper.

A *rule* is ``A -> C`` where ``A`` is a set of items and ``C`` a class
label.  A *rule group* (Definition 2.1) is the equivalence class of all
rules with the same antecedent support set; it is represented here by its
unique upper bound: the closed antecedent ``I(R(A))`` together with the row
support set.  Support and confidence follow Section 2: support is
``|R(A ∪ C)|`` (rows of class ``C`` containing ``A``) and confidence is
``|R(A ∪ C)| / |R(A)|``.

Two orders matter:

* the *significance* order of Definition 2.2 (confidence first, then
  support), used to rank candidate members of the per-row top-k lists, and
* the CBA total order ``≺`` of Section 2.2 Step 2 (confidence, support,
  then shorter antecedent / earlier discovery), used when building
  classifiers.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .bitset import popcount, to_indices

__all__ = [
    "Rule",
    "RuleGroup",
    "significance_key",
    "more_significant",
    "cba_sort_key",
    "TopKList",
]


@dataclass(frozen=True)
class Rule:
    """A single association rule ``antecedent -> consequent``.

    Attributes:
        antecedent: frozen set of item ids.
        consequent: class label id.
        support: absolute support, ``|R(A ∪ C)|``.
        confidence: ``support / |R(A)|``.
    """

    antecedent: frozenset[int]
    consequent: int
    support: int
    confidence: float

    def __len__(self) -> int:
        return len(self.antecedent)

    def matches(self, row_items: frozenset[int]) -> bool:
        """Return True iff the rule's antecedent is contained in the row."""
        return self.antecedent <= row_items

    def describe(self, item_namer=None) -> str:
        """Human-readable rendering, optionally naming items via a callable."""
        namer = item_namer if item_namer is not None else str
        items = ", ".join(namer(i) for i in sorted(self.antecedent))
        return (
            f"{{{items}}} -> class {self.consequent} "
            f"(sup={self.support}, conf={self.confidence:.3f})"
        )


@dataclass(frozen=True)
class RuleGroup:
    """A rule group, represented by its unique upper bound.

    Attributes:
        antecedent: the closed antecedent ``I(R(A))`` as a frozenset of
            item ids (the upper bound rule's antecedent).
        consequent: class label id.
        row_set: bitset of all rows containing the antecedent (``R(A)``).
        support: ``|R(A ∪ C)|`` — rows of the consequent class in
            ``row_set``.
        confidence: ``support / |row_set|``.
    """

    antecedent: frozenset[int]
    consequent: int
    row_set: int
    support: int
    confidence: float

    @classmethod
    def from_row_set(
        cls,
        antecedent: Iterable[int],
        consequent: int,
        row_set: int,
        class_mask: int,
    ) -> "RuleGroup":
        """Build a group from its support set and the consequent class mask.

        ``class_mask`` is the bitset of all rows labelled with the
        consequent class; support and confidence are derived from it.
        """
        total = popcount(row_set)
        sup = popcount(row_set & class_mask)
        conf = sup / total if total else 0.0
        return cls(frozenset(antecedent), consequent, row_set, sup, conf)

    @property
    def total_support(self) -> int:
        """``|R(A)|`` — rows of any class containing the antecedent."""
        return popcount(self.row_set)

    def covered_rows(self, class_mask: int) -> list[int]:
        """Row ids of the consequent class covered by this group."""
        return to_indices(self.row_set & class_mask)

    def upper_bound_rule(self) -> Rule:
        """The upper bound rule of this group."""
        return Rule(self.antecedent, self.consequent, self.support, self.confidence)

    def describe(self, item_namer=None) -> str:
        namer = item_namer if item_namer is not None else str
        items = ", ".join(namer(i) for i in sorted(self.antecedent))
        return (
            f"RG{{{items}}} -> class {self.consequent} "
            f"(sup={self.support}, conf={self.confidence:.3f}, "
            f"|R(A)|={self.total_support})"
        )


def significance_key(group: RuleGroup) -> tuple[float, int]:
    """Sort key implementing Definition 2.2 (larger key = more significant)."""
    return (group.confidence, group.support)


def more_significant(first: RuleGroup, second: RuleGroup) -> bool:
    """Return True iff ``first`` is strictly more significant (Def. 2.2)."""
    if first.confidence != second.confidence:
        return first.confidence > second.confidence
    return first.support > second.support


def cba_sort_key(rule: Rule, discovery_index: int) -> tuple[float, int, int, int]:
    """Key for the CBA precedence ``≺`` (sort ascending = best first).

    Higher confidence first, then higher support, then shorter antecedent
    (CBA's breadth-first discovery picks the shortest), then earlier
    discovery.
    """
    return (-rule.confidence, -rule.support, len(rule.antecedent), discovery_index)


@dataclass
class TopKList:
    """The top-k covering rule group list of a single row.

    Maintains up to ``k`` rule groups ordered from most to least
    significant.  Entries are keyed by their row support set so that the
    same rule group (possibly discovered provisionally via the single-item
    initialization optimization of Section 4.1.1) is never duplicated and
    can be upgraded in place once its closed upper bound is found.

    Confidence/support ties are broken *canonically by content*: the full
    sort key is ``(-confidence, -support, canonical row set)``, where the
    canonical row set is ``canonical_key(group)`` when provided (the
    miner passes a position-to-row translator so ties compare in original
    row space) and ``group.row_set`` otherwise.  The key is a total order
    over distinct groups, so the surviving members of a boundary tie
    class depend only on the offered population — never on arrival
    order.  That is what lets the direct and the hybrid partitioned
    miners converge to bit-identical lists.

    ``offer`` is the hottest policy operation of the whole miner (every
    emitted group is offered to every consequent-class row it covers), so
    the list keeps two derived structures alongside ``groups``:

    * ``_keys`` — the full sort keys in ascending order, so an insertion
      position comes from one :func:`bisect.bisect_right` call.
    * ``_members`` — ``(row_set, consequent) -> RuleGroup`` for O(1)
      duplicate detection.

    ``kth_conf``/``kth_sup`` cache :meth:`kth_threshold` so the dynamic
    pruning bounds of Equations 1-2 read two attributes per row instead
    of calling a method.  All mutation goes through :meth:`offer`, which
    keeps every derived structure in sync.
    """

    k: int
    groups: list[RuleGroup] = field(default_factory=list)
    canonical_key: Optional[Callable[[RuleGroup], int]] = None

    def __post_init__(self) -> None:
        self._keys: list[tuple[float, int, int]] = [
            self._key(group) for group in self.groups
        ]
        self._members: dict[tuple[int, int], RuleGroup] = {
            (group.row_set, group.consequent): group for group in self.groups
        }
        self._refresh_kth()

    def _key(self, group: RuleGroup) -> tuple[float, int, int]:
        canon = self.canonical_key
        rows = group.row_set if canon is None else canon(group)
        return (-group.confidence, -group.support, rows)

    def _refresh_kth(self) -> None:
        if len(self.groups) < self.k:
            self.kth_conf = 0.0
            self.kth_sup = 0
        else:
            last = self.groups[-1]
            self.kth_conf = last.confidence
            self.kth_sup = last.support

    def kth_threshold(self) -> tuple[float, int]:
        """Confidence and support of the k-th entry (0, 0 if underfull).

        This is the per-row contribution to the dynamic ``minconf`` and
        ``sup`` thresholds of Equations 1 and 2.
        """
        return (self.kth_conf, self.kth_sup)

    def would_accept(self, confidence: float, support: int) -> bool:
        """Return True iff a group with these stats *could* enter the list.

        Non-strict at exact ``(kth_conf, kth_sup)`` equality: a boundary
        tie member may still displace the current k-th entry under the
        canonical content tie-break, so pruning on this predicate must
        not discard it.  :meth:`offer` settles exact ties with the full
        key.
        """
        if confidence != self.kth_conf:
            return confidence > self.kth_conf
        return support >= self.kth_sup

    def offer(self, group: RuleGroup) -> bool:
        """Offer a group to the list; return True if the list changed.

        A group already present (same row support set) upgrades the stored
        antecedent — this realises the paper's "update the single item with
        the upper bound rule" adaptation of Step 13.
        """
        identity = (group.row_set, group.consequent)
        existing = self._members.get(identity)
        if existing is not None:
            if len(group.antecedent) > len(existing.antecedent):
                # Same row set means same sort key, so the upgrade
                # replaces in place without disturbing the order; bisect
                # narrows the identity scan to the equal-key run.
                index = bisect_left(self._keys, self._key(existing))
                groups = self.groups
                while groups[index] is not existing:
                    index += 1
                groups[index] = group
                self._members[identity] = group
                return True
            return False
        if not self.would_accept(group.confidence, group.support):
            return False
        key = self._key(group)
        index = bisect_right(self._keys, key)
        if index >= self.k and len(self.groups) >= self.k:
            # An exact (confidence, support) tie with the k-th entry that
            # loses the canonical tie-break would be popped right back.
            return False
        self.groups.insert(index, group)
        self._keys.insert(index, key)
        self._members[identity] = group
        if len(self.groups) > self.k:
            dropped = self.groups.pop()
            self._keys.pop()
            del self._members[(dropped.row_set, dropped.consequent)]
        self._refresh_kth()
        return True

    def __iter__(self):
        return iter(self.groups)

    def __len__(self) -> int:
        return len(self.groups)

    def __getitem__(self, index: int) -> RuleGroup:
        return self.groups[index]
