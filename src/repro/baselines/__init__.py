"""Baseline miners: FARMER, CHARM, CLOSET+ and brute-force oracles."""

from .charm import mine_charm
from .closetplus import mine_closetplus
from .farmer import FarmerPolicy, mine_farmer
from .naive_topk import enumerate_closed_groups, naive_farmer, naive_topk

__all__ = [
    "FarmerPolicy",
    "enumerate_closed_groups",
    "mine_charm",
    "mine_closetplus",
    "mine_farmer",
    "naive_farmer",
    "naive_topk",
]
