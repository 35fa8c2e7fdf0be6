"""FARMER: exhaustive interesting-rule-group mining (the baseline of [6]).

FARMER performs the same row enumeration as MineTopkRGS but with *static*
thresholds: it reports every rule group (upper bound) whose support and
confidence reach user-given minimums.  The paper benchmarks two variants:

* ``engine="table"`` — the original FARMER, whose projected transposed
  tables are explicit tuple lists ("in-memory pointers");
* ``engine="tree"``  — "FARMER+prefix", the same search over the prefix
  tree of Section 4.2, about an order of magnitude faster.

Both share :class:`FarmerPolicy`; a ``bitset`` engine is also available
and is what the test suite uses for cross-validation against CHARM and
CLOSET+.  The number of groups FARMER emits explodes at low minimum
support on discretized microarray data — exactly the behaviour Figure 6
contrasts with the bounded output of MineTopkRGS — so budget limits are
first-class here: on overrun the partial result is returned with
``stats.completed == False``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Sequence

from ..core.enumeration import ENGINES, ClosedSetResult, run_enumeration
from ..core.planner import plan
from ..core.rules import RuleGroup
from ..core.view import MiningView
from ..errors import MiningBudgetExceeded
from ..parallel import merge_stats, plan_shards, run_jobs

if TYPE_CHECKING:  # pragma: no cover - import is for annotations only
    from ..data.dataset import DiscretizedDataset

__all__ = ["FarmerPolicy", "FarmerShard", "mine_farmer"]


class FarmerPolicy:
    """Static-threshold policy: keep everything above minsup/minconf.

    ``min_chi_square`` adds FARMER's third interestingness constraint: a
    group is reported only if its 2x2 chi-square statistic against the
    consequent class clears the threshold.  It filters output (like the
    original's final check); it is not anti-monotone, so it cannot prune
    the search.  ``groups`` collects every reported group in row-id
    space, in emission order.
    """

    # The static thresholds never read the Lemma 3.2 row sets, so the
    # engines skip assembling them (an O(n_rows) bitset op per candidate
    # that tall cohorts would otherwise pay for nothing).
    uses_threshold_bits = False

    def __init__(
        self,
        view: MiningView,
        minconf: float = 0.0,
        max_groups: Optional[int] = None,
        min_chi_square: float = 0.0,
    ) -> None:
        if not 0.0 <= minconf <= 1.0:
            raise ValueError(f"minconf must be in [0, 1], got {minconf}")
        if min_chi_square < 0.0:
            raise ValueError(
                f"min_chi_square must be >= 0, got {min_chi_square}"
            )
        self.view = view
        self.minconf = minconf
        self.max_groups = max_groups
        self.min_chi_square = min_chi_square
        self._n_rows = view.n_rows
        self._class_rows = view.n_positive
        self.groups: list[RuleGroup] = []

    @property
    def minsup(self) -> int:
        return self.view.minsup

    def loose_prunable(
        self, x_p: int, x_n: int, r_p: int, r_n: int, threshold_bits: int
    ) -> bool:
        return self._prunable(x_p + r_p, x_n)

    def tight_prunable(
        self, x_p: int, x_n: int, m_p: int, r_n: int, threshold_bits: int
    ) -> bool:
        return self._prunable(x_p + m_p, x_n)

    def _prunable(self, sup_ub: int, x_n: int) -> bool:
        if sup_ub < self.view.minsup:
            return True
        if self.minconf > 0.0:
            conf_ub = sup_ub / (sup_ub + x_n)
            if conf_ub < self.minconf:
                return True
        return False

    def emit(
        self, items: Sequence[int], position_bits: int, x_p: int, x_n: int
    ) -> None:
        if x_p < self.view.minsup:
            return
        confidence = x_p / (x_p + x_n)
        if confidence < self.minconf:
            return
        if self.min_chi_square > 0.0:
            from ..analysis.significance import rule_chi_square

            statistic = rule_chi_square(
                self._n_rows, self._class_rows, x_p + x_n, x_p
            )
            if statistic < self.min_chi_square:
                return
        self.groups.append(self.view.rule_group(items, position_bits))
        if self.max_groups is not None and len(self.groups) > self.max_groups:
            raise MiningBudgetExceeded(
                f"group budget {self.max_groups} exceeded"
            )


@dataclass(frozen=True)
class FarmerShard:
    """One FARMER mine over the first-level row shard ``first_rows``.

    ``first_rows`` is a position bitset of the first-level subtrees to
    expand (``None`` expands all: the whole serial mine); the other
    fields are :func:`mine_farmer`'s arguments of the same names.  It is
    the job :func:`repro.parallel.run_jobs` runs for every FARMER mine.
    """

    consequent: int
    minsup: int
    minconf: float = 0.0
    engine: str = "table"
    node_budget: Optional[int] = None
    max_groups: Optional[int] = None
    min_chi_square: float = 0.0
    first_rows: Optional[int] = None

    def run(self, dataset: "DiscretizedDataset", cancel=None,
            time_budget: Optional[float] = None):
        """Mine this shard; returns ``(groups, stats)``, the groups in
        row-id space and in emission order."""
        view = MiningView.cached(dataset, self.consequent, self.minsup)
        policy = FarmerPolicy(
            view,
            minconf=self.minconf,
            max_groups=self.max_groups,
            min_chi_square=self.min_chi_square,
        )
        try:
            stats = run_enumeration(
                view,
                policy,
                engine=self.engine,
                node_budget=self.node_budget,
                time_budget=time_budget,
                cancel=cancel,
                first_rows=self.first_rows,
            )
        except MiningBudgetExceeded as overrun:
            stats = overrun.stats
        return policy.groups, stats


def mine_farmer(
    dataset: "DiscretizedDataset",
    consequent: int,
    minsup: int,
    minconf: float = 0.0,
    engine: str = "table",
    node_budget: Optional[int] = None,
    time_budget: Optional[float] = None,
    max_groups: Optional[int] = None,
    min_chi_square: float = 0.0,
    n_jobs: "int | str | None" = 1,
    backend=None,
    cancel=None,
    fault=None,
) -> ClosedSetResult:
    """Mine all rule groups above the given thresholds.

    Args:
        dataset: discretized dataset.
        consequent: class id of the rule consequent.
        minsup: absolute minimum support (consequent-class rows).
        minconf: minimum confidence; 0 disables confidence pruning, the
            configuration the paper uses to stress FARMER.
        engine: ``table`` (original FARMER), ``tree`` (FARMER+prefix) or
            ``bitset``.
        node_budget: optional enumeration-node limit.
        time_budget: optional wall-clock limit in seconds.
        max_groups: optional cap on emitted groups.
        min_chi_square: minimum chi-square statistic of reported groups
            (FARMER's third interestingness constraint); 0 disables.
        n_jobs: worker processes; 1 mines serially in this process, any
            other value mines :func:`repro.parallel.plan_shards` row
            shards on :mod:`repro.parallel`'s process pool (``None``/0 =
            all usable CPUs, ``"auto"`` lets :func:`repro.core.planner.plan`
            decide from the support mass times the row count).  FARMER's
            thresholds are static, so the shards concatenate in
            ascending order into exactly the serial emission order:
            output, group order and node counters are identical;
            ``node_budget`` then applies per shard.
        backend: ``None``, ``"int"`` or ``"auto"`` (see
            :mod:`repro.core.backends`); any other value raises
            ``ValueError``.
        cancel: object with ``is_set()``, polled on the enumeration's
            budget stride; when set the partial result is returned.
        fault: deterministic :class:`repro.parallel.FaultPlan` for the
            pool path (testing hook; ignored by the serial path).

    Returns:
        A :class:`~repro.core.enumeration.ClosedSetResult`; when a budget
        was exhausted it carries the groups found so far and
        ``stats.completed`` is False.
    """
    if engine not in ENGINES:  # run_enumeration also runs the column walk
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    planned = plan(
        dataset, consequent, minsup, task="farmer", n_jobs=n_jobs,
        backend=backend,
    )
    shard = FarmerShard(
        consequent=consequent,
        minsup=minsup,
        minconf=minconf,
        engine=engine,
        node_budget=node_budget,
        max_groups=max_groups,
        min_chi_square=min_chi_square,
    )
    jobs = [shard]
    if planned.workers > 1:
        jobs = [
            replace(shard, first_rows=mask)
            for mask in plan_shards(dataset.n_rows, planned.workers)
        ]
    outputs = run_jobs(
        dataset, jobs, planned.workers, time_budget, cancel, fault=fault
    )
    merged = [group for groups, _stats in outputs for group in groups]
    stats = merge_stats([stats for _groups, stats in outputs], engine)
    stats.plan = planned
    if max_groups is not None and len(merged) > max_groups:
        # A shard stops one group past the cap, as the serial walk does;
        # keep the identical prefix of the DFS emission order.
        merged = merged[: max_groups + 1]
        stats.completed = False
    return ClosedSetResult(
        groups=merged,
        consequent=consequent,
        minsup=minsup,
        stats=stats,
        minconf=minconf,
    )
