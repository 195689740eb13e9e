"""Hash-consed ROBDD engine: the Boolean substrate of the STE stack."""

from .manager import KERNEL, BDDError, BDDManager, Ref
from .bvec import BVec
from .node import iter_nodes, level_profile, to_dot
from .reorder import apply_order, interleave, order_for_memory

__all__ = [
    "KERNEL",
    "BDDError",
    "BDDManager",
    "Ref",
    "BVec",
    "apply_order",
    "interleave",
    "order_for_memory",
    "iter_nodes",
    "level_profile",
    "to_dot",
]
