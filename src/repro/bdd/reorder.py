"""Variable ordering: static heuristics.

Variable order is the dominant factor in BDD size.  The STE literature the
paper builds on (Seger & Bryant; Pandey et al.'s symbolic indexing work)
relies on two ordering disciplines that we provide here:

* **interleaving** — bits of vectors that are compared or muxed against
  each other (e.g. a read address against a write address, or data words
  that flow through the same mux tree) should have their bits interleaved
  rather than concatenated; and
* **index-above-data** — address/index variables must sit above the data
  variables they select between, otherwise the select tree multiplies out.

The entry points:

* :func:`recommend_order` — compute a full static order *before* any
  node is built (interleaved vector groups on top of the
  :func:`order_for_memory` layout), which is how the benchmark harness
  drives large-memory runs;
* :func:`apply_order` — install an order on a fresh manager;
* :func:`interleave` / :func:`order_for_memory` — the building blocks.

The order is fixed once declared: the netlist-derived static orders are
near-optimal for this workload, so the manager does no dynamic
reordering.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from .manager import BDDManager

__all__ = ["interleave", "order_for_memory", "recommend_order",
           "apply_order"]


def interleave(*groups: Sequence[str]) -> List[str]:
    """Round-robin merge of variable-name groups.

    ``interleave(["a0","a1"], ["b0","b1"])`` -> ``["a0","b0","a1","b1"]``.
    Shorter groups simply run out early.
    """
    out: List[str] = []
    iters = [iter(g) for g in groups]
    while iters:
        remaining = []
        for it in iters:
            try:
                out.append(next(it))
                remaining.append(it)
            except StopIteration:
                pass
        iters = remaining
    return out


def order_for_memory(address_prefixes: Sequence[str], address_width: int,
                     data_prefixes: Sequence[str], data_width: int,
                     cell_prefix: str = "", depth: int = 0) -> List[str]:
    """The canonical order for memory read-after-write reasoning.

    Address vectors (interleaved with each other) go on top, then data
    vectors (interleaved), then the initial-content variables per cell.
    With this order the ``RAW`` function of the paper stays linear in the
    memory depth instead of exploding.
    """
    order: List[str] = []
    order += interleave(*[[f"{p}[{i}]" for i in range(address_width)]
                          for p in address_prefixes])
    order += interleave(*[[f"{p}[{i}]" for i in range(data_width)]
                          for p in data_prefixes])
    if cell_prefix and depth:
        for word in range(depth):
            order += [f"{cell_prefix}{word}[{b}]" for b in range(data_width)]
    return order


def recommend_order(groups: Sequence[Sequence[str]] = (), *,
                    address_prefixes: Sequence[str] = (),
                    address_width: int = 0,
                    data_prefixes: Sequence[str] = (),
                    data_width: int = 0,
                    cell_prefix: str = "", depth: int = 0) -> List[str]:
    """Compose a full static order: interleaved *groups* first, then the
    :func:`order_for_memory` layout for the named memory, duplicates
    dropped.  The result feeds :func:`apply_order` on a fresh manager."""
    order: List[str] = []
    seen = set()
    for name in interleave(*groups) + order_for_memory(
            address_prefixes, address_width, data_prefixes, data_width,
            cell_prefix=cell_prefix, depth=depth):
        if name not in seen:
            seen.add(name)
            order.append(name)
    return order


def apply_order(mgr: BDDManager, names: Iterable[str]) -> None:
    """Declare *names* in the given order on a fresh manager.

    Must be called before any of the names is used; declaring an existing
    name raises, which catches accidental post-hoc reordering attempts.
    """
    mgr.declare_all(names)

