"""RCBT: Refined Classification Based on TopkRGS (Section 5.2).

RCBT attacks the two weaknesses of CBA on gene expression data:

* *default-class predictions*: when the main classifier matches nothing,
  k-1 **standby classifiers** — built from the rule groups ranked 2nd,
  3rd, ... k-th in the per-row top-k lists — get a chance before the
  default class does;
* *single-rule decisions*: within a classifier level, all matching rules
  vote.  Each rule scores ``S(γ) = γ.conf · γ.sup / d_c`` (``d_c`` = the
  number of training rows of its class) and a class's vote is the sum of
  its matching rules' scores normalized by the total score mass of that
  class in the level.  The class with the highest normalized vote wins.

Each level is assembled from the ``nl`` shortest lower bounds of its rule
groups (FindLB over entropy-ranked items) and pruned by the same CBA
coverage test as the main classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from ..analysis.gene_ranking import gene_entropy_scores, item_scores
from ..core.lower_bounds import find_lower_bounds_batch
from ..core.rules import Rule, RuleGroup
from ..core.topk_miner import TopkResult, mine_topk, relative_minsup
from .base import RuleBasedClassifier
from .selection import cba_select_groups, majority_class

if TYPE_CHECKING:  # pragma: no cover - import is for annotations only
    from ..data.dataset import DiscretizedDataset

__all__ = ["RCBTClassifier", "ClassifierLevel"]


@dataclass
class ClassifierLevel:
    """One classifier in the main/standby cascade."""

    rules: list[Rule]
    score_norms: list[float]  # per class: total score mass in this level

    def vote(
        self, row_items: frozenset[int], rule_scores: dict[int, float]
    ) -> Optional[int]:
        """Class decided by this level, or None when nothing matches."""
        matched = [
            index
            for index, rule in enumerate(self.rules)
            if rule.antecedent <= row_items
        ]
        return self.vote_indices(matched, rule_scores)

    def vote_indices(
        self, matched: Sequence[int], rule_scores: dict[int, float]
    ) -> Optional[int]:
        """Class decided by the given matching rule indices, if any."""
        if not matched:
            return None
        totals = [0.0] * len(self.score_norms)
        for index in matched:
            totals[self.rules[index].consequent] += rule_scores[index]
        best_class = 0
        best_score = -1.0
        for class_id, total in enumerate(totals):
            norm = self.score_norms[class_id]
            normalized = total / norm if norm > 0 else 0.0
            if normalized > best_score:
                best_score = normalized
                best_class = class_id
        return best_class


class RCBTClassifier(RuleBasedClassifier):
    """Refined classification based on top-k covering rule groups.

    Args:
        k: covering rule groups per row — one main classifier plus up to
            ``k - 1`` standby classifiers (paper default 10).
        nl: shortest lower bounds extracted per rule group (paper
            default 20).
        minsup_fraction: minimum support as a fraction of each class
            size (paper default 0.7).
        engine: row-enumeration engine for the mining step.
        max_lb_size: largest lower bound length FindLB searches.
        max_lb_items: optional cap on ranked items FindLB considers.
        use_voting: aggregate matching rules by score (paper behaviour);
            False falls back to first-match within each level, the
            ablation of Section 6.2's "collective decision" factor.
        n_jobs: worker processes for the mining step; 1 mines each class
            serially, any other value mines each class as one whole
            unit on the process pool via
            :func:`repro.parallel.mine_topk_requests` (``None``/0 = all
            cores, ``"auto"`` = planner decides).  The fitted model and
            every class's mining ``stats`` are identical either way.
    """

    def __init__(
        self,
        k: int = 10,
        nl: int = 20,
        minsup_fraction: float = 0.7,
        engine: str = "bitset",
        max_lb_size: int = 6,
        max_lb_items: Optional[int] = None,
        use_voting: bool = True,
        n_jobs: int = 1,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if nl < 1:
            raise ValueError(f"nl must be >= 1, got {nl}")
        self.k = k
        self.nl = nl
        self.minsup_fraction = minsup_fraction
        self.engine = engine
        self.max_lb_size = max_lb_size
        self.max_lb_items = max_lb_items
        self.use_voting = use_voting
        self.n_jobs = n_jobs
        self.levels_: list[ClassifierLevel] = []
        self.default_class_: int = 0
        self._level_scores: list[dict[int, float]] = []
        self._class_counts: list[int] = []
        self.topk_results_: dict[int, TopkResult] = {}
        self._rule_bits: Optional[list[list[int]]] = None

    def fit(self, train: "DiscretizedDataset") -> "RCBTClassifier":
        """Mine top-k covering rule groups and build the classifier cascade."""
        scores = item_scores(train, gene_entropy_scores(train))
        self._class_counts = train.class_counts()
        self.topk_results_ = {}
        if self.n_jobs != 1:
            # One whole mine per class: classes are independent units,
            # while one class's tree cannot be split without losing its
            # dynamic thresholds (DESIGN.md §7).
            from ..parallel import MineRequest, mine_topk_requests

            requests = [
                MineRequest(
                    consequent=class_id,
                    minsup=relative_minsup(
                        train, class_id, self.minsup_fraction
                    ),
                    k=self.k,
                    engine=self.engine,
                )
                for class_id in range(train.n_classes)
            ]
            self.topk_results_ = dict(enumerate(
                mine_topk_requests(train, requests, n_jobs=self.n_jobs)
            ))
        else:
            for class_id in range(train.n_classes):
                minsup = relative_minsup(train, class_id, self.minsup_fraction)
                self.topk_results_[class_id] = mine_topk(
                    train, class_id, minsup, k=self.k, engine=self.engine
                )

        self.levels_ = []
        self._level_scores = []
        default_set = False
        lb_cache: dict[tuple[int, int], list[Rule]] = {}
        for rank in range(1, self.k + 1):
            groups: list[RuleGroup] = []
            for class_id in range(train.n_classes):
                groups.extend(self.topk_results_[class_id].rank_set(rank))
            if not groups:
                continue
            # Coverage test at rule-group granularity: every lower bound
            # of a group matches exactly the rows of its support set, so
            # the CBA selection is run once per group and the surviving
            # groups each contribute all nl of their shortest lower
            # bounds to the level's voting committee.
            selected = cba_select_groups(groups, train)
            if not default_set:
                # The default class comes from the main classifier's
                # coverage test (Section 5.2).
                self.default_class_ = selected.default_class
                default_set = True
            if not selected.groups:
                continue
            lb_cache.update(
                find_lower_bounds_batch(
                    train,
                    [
                        group
                        for group in selected.groups
                        if (group.row_set, group.consequent) not in lb_cache
                    ],
                    nl=self.nl,
                    item_scores=scores,
                    max_items=self.max_lb_items,
                    max_size=self.max_lb_size,
                )
            )
            rules: list[Rule] = []
            for group in selected.groups:
                rules.extend(lb_cache[(group.row_set, group.consequent)])
            if rules:
                self._append_level(rules, train.n_classes)
        if not default_set:
            self.default_class_ = majority_class(train.labels, train.n_classes)
        self._rule_bits = None
        self._fitted = True
        return self

    def _append_level(self, rules: list[Rule], n_classes: int) -> None:
        rule_scores = {
            index: self._rule_score(rule) for index, rule in enumerate(rules)
        }
        norms = [0.0] * n_classes
        for index, rule in enumerate(rules):
            norms[rule.consequent] += rule_scores[index]
        self.levels_.append(ClassifierLevel(rules=rules, score_norms=norms))
        self._level_scores.append(rule_scores)

    def _rule_score(self, rule: Rule) -> float:
        """``S(γ) = conf · sup / d_c`` of Section 5.2 (in [0, 1])."""
        class_size = self._class_counts[rule.consequent]
        return rule.confidence * rule.support / class_size if class_size else 0.0

    def predict_row(self, row_items: frozenset[int]) -> tuple[int, str]:
        """Consult main then standby levels; fall back to the default class."""
        self._check_fitted()
        for level_index, level in enumerate(self.levels_):
            if self.use_voting:
                decision = level.vote(row_items, self._level_scores[level_index])
            else:
                matching = next(
                    (
                        rule
                        for rule in level.rules
                        if rule.antecedent <= row_items
                    ),
                    None,
                )
                decision = matching.consequent if matching else None
            if decision is not None:
                source = "main" if level_index == 0 else "standby"
                return decision, source
        return self.default_class_, "default"

    def _compiled_rule_bits(self) -> list[list[int]]:
        """Per level, each rule's antecedent as an item bitset (cached).

        Compiling once per fitted model turns the per-row subset test into
        a two-int ``&``/``==`` probe, which is what lets a batch of rows
        amortize the rule-matching work.
        """
        if self._rule_bits is None:
            compiled: list[list[int]] = []
            for level in self.levels_:
                bits_per_rule = []
                for rule in level.rules:
                    bits = 0
                    for item in rule.antecedent:
                        bits |= 1 << item
                    bits_per_rule.append(bits)
                compiled.append(bits_per_rule)
            self._rule_bits = compiled
        return self._rule_bits

    def predict_batch(
        self, rows: Sequence[frozenset[int]]
    ) -> list[tuple[int, str]]:
        """Bitset fast path; output identical to per-row prediction."""
        self._check_fitted()
        compiled = self._compiled_rule_bits()
        results: list[tuple[int, str]] = []
        for row_items in rows:
            row_bits = 0
            for item in row_items:
                row_bits |= 1 << item
            prediction: Optional[tuple[int, str]] = None
            for level_index, level in enumerate(self.levels_):
                matched = [
                    index
                    for index, bits in enumerate(compiled[level_index])
                    if bits & row_bits == bits
                ]
                if not matched:
                    continue
                if self.use_voting:
                    decision = level.vote_indices(
                        matched, self._level_scores[level_index]
                    )
                else:
                    decision = level.rules[matched[0]].consequent
                if decision is not None:
                    source = "main" if level_index == 0 else "standby"
                    prediction = (decision, source)
                    break
            if prediction is None:
                prediction = (self.default_class_, "default")
            results.append(prediction)
        return results

    @property
    def n_levels_(self) -> int:
        """Number of built classifiers (main + standby)."""
        self._check_fitted()
        return len(self.levels_)
