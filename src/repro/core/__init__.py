"""Core algorithms: rule groups, row enumeration, MineTopkRGS, FindLB."""

from .bitset import from_indices, iter_indices, popcount, to_indices
from .enumeration import ENGINES, ClosedSetResult, MinerStats, run_enumeration
from .hybrid import HybridStats, mine_topk_hybrid
from .lower_bounds import LowerBoundResult, find_lower_bounds, find_lower_bounds_batch
from .prefix_tree import PrefixTree, PrefixTreeNode
from .rules import Rule, RuleGroup, TopKList, cba_sort_key, more_significant
from .members import count_members, is_member, iter_members
from .topk_miner import TopkPolicy, TopkResult, mine_topk, relative_minsup
from .transposed import TransposedTable
from .view import MiningView

__all__ = [
    "ENGINES",
    "ClosedSetResult",
    "HybridStats",
    "LowerBoundResult",
    "MinerStats",
    "MiningView",
    "PrefixTree",
    "PrefixTreeNode",
    "Rule",
    "RuleGroup",
    "TopKList",
    "TopkPolicy",
    "TopkResult",
    "TransposedTable",
    "cba_sort_key",
    "count_members",
    "find_lower_bounds",
    "find_lower_bounds_batch",
    "from_indices",
    "is_member",
    "iter_indices",
    "iter_members",
    "mine_topk",
    "mine_topk_hybrid",
    "more_significant",
    "popcount",
    "relative_minsup",
    "run_enumeration",
    "to_indices",
]
