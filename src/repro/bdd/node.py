"""Node-level inspection utilities for the ROBDD manager.

The manager's kernel stores nodes in flat arrays for speed; these
helpers give tests and debugging tools a structured view through
:meth:`~repro.bdd.manager.BDDManager.node_triple`: walk a function's
DAG, export it as DOT for visualisation, and compute per-level profiles
(the quantity variable-ordering heuristics optimise).
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from .manager import Ref

__all__ = ["iter_nodes", "level_profile", "to_dot"]


def iter_nodes(ref: Ref) -> Iterator[Tuple[int, str, int, int]]:
    """Yield ``(node_id, var_name, low_id, high_id)`` for every internal
    node reachable from *ref*, in a deterministic DFS order.

    Ids are full complement-edged ids; the children carry the node's
    complement bit pushed through, so each yielded quadruple is the
    Shannon expansion of the id's *function* — a node and its
    complement appear as two distinct entries, exactly as a plain
    (complement-free) ROBDD would store them."""
    mgr = ref.mgr
    seen = set()
    stack = [ref.node]
    while stack:
        node = stack.pop()
        if node < 2 or node in seen:
            continue
        seen.add(node)
        name, low, high = mgr.node_triple(node)
        yield (node, name, low, high)
        stack.append(low)
        stack.append(high)


def level_profile(ref: Ref) -> Dict[str, int]:
    """Nodes per variable: the width profile of the function's BDD."""
    profile: Dict[str, int] = {}
    for _, name, _, _ in iter_nodes(ref):
        profile[name] = profile.get(name, 0) + 1
    return profile


def to_dot(ref: Ref, name: str = "bdd") -> str:
    """GraphViz DOT rendering (solid = high edge, dashed = low edge)."""
    lines = [f"digraph {name} {{",
             '  node [shape=circle];',
             '  T [label="1", shape=box];',
             '  F [label="0", shape=box];']

    def tag(node: int) -> str:
        return {0: "F", 1: "T"}.get(node, f"n{node}")

    if ref.node in (0, 1):
        lines.append(f"  root -> {tag(ref.node)};")
    for node, var, low, high in iter_nodes(ref):
        lines.append(f'  n{node} [label="{var}"];')
        lines.append(f"  n{node} -> {tag(high)};")
        lines.append(f"  n{node} -> {tag(low)} [style=dashed];")
    lines.append("}")
    return "\n".join(lines)
