"""Structural sanity checks for netlists.

`check_circuit` returns a list of human-readable issues; an empty list
means the netlist satisfies the assumptions the FSM compiler makes:

* every referenced node has a driver (input, gate, or register);
* no node carries two drivers;
* the combinational logic is acyclic (latches count as combinational
  for cycle purposes, since they read their data in the same phase);
* register clock/reset/retention controls are driven purely from the
  input cone — asynchronous controls produced by sequential logic would
  need fixed-point evaluation within a step, which the methodology (and
  real retention methodologies: NRET/NRST come from a power-management
  controller, not from the gated domain itself) does not require.

Since the :mod:`repro.lint` engine exists, these checks are *rules*
(``NET001``–``NET004`` of the structural pack) and this module is the
thin string-rendering shim over them: ``check_circuit`` runs exactly
those rules and returns their messages, so every caller that predates
the diagnostics engine keeps its list-of-strings contract while the
lint CLI and sessions get codes, severities and fix hints.

The traversal primitives live here (rules import them, not the other
way around): :func:`combinational_order`, :func:`fanout_index`, and
the worklist :func:`input_cone`.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Set

from .circuit import Circuit, NetlistError

__all__ = ["check_circuit", "combinational_order", "fanout_index",
           "input_cone", "require_valid"]


#: Circuit -> its content fingerprint when it last passed validation.
_validated: "weakref.WeakKeyDictionary[Circuit, str]" = \
    weakref.WeakKeyDictionary()


def require_valid(circuit: Circuit) -> None:
    """Raise :class:`NetlistError` with the full issue list if
    *circuit* fails :func:`check_circuit` — the shared gate used by the
    FSM compiler and the STE check session.

    A circuit that passed and has not been edited since (its content
    fingerprint is unchanged) is not checked again, so a run of
    one-shot checks over one circuit lints it once."""
    fingerprint = circuit.fingerprint(include_outputs=True)
    if _validated.get(circuit) == fingerprint:
        return
    issues = check_circuit(circuit)
    if issues:
        raise NetlistError(
            "circuit failed validation:\n  " + "\n  ".join(issues))
    _validated[circuit] = fingerprint


def fanout_index(circuit: Circuit) -> Dict[str, List[str]]:
    """node -> gate outputs consuming it, one entry per occurrence
    (a gate listing a node twice appears twice).  The index behind the
    worklist :func:`input_cone` and the lint pack's dead-cone rule."""
    index: Dict[str, List[str]] = {}
    for gate in circuit.gates.values():
        for src in gate.ins:
            index.setdefault(src, []).append(gate.out)
    return index


def input_cone(circuit: Circuit) -> Set[str]:
    """Nodes computable from primary inputs through combinational gates
    only (no register output anywhere in their fanin).

    Fanout-indexed worklist pass: each gate keeps a count of input
    occurrences not yet known combinational; resolving a node
    decrements its consumers and a gate whose count reaches zero joins
    the cone and the worklist.  O(nodes + edges), replacing the old
    repeated-rescan fixed point that was quadratic on deep cores.
    """
    cone: Set[str] = set(circuit.inputs)
    index = fanout_index(circuit)
    remaining: Dict[str, int] = {}
    worklist: List[str] = list(circuit.inputs)
    for out, gate in circuit.gates.items():
        pending = len(gate.ins)
        if pending == 0:                   # CONST0/CONST1: always in
            cone.add(out)
            worklist.append(out)
        else:
            remaining[out] = pending
    while worklist:
        node = worklist.pop()
        for out in index.get(node, ()):
            left = remaining.get(out)
            if left is None:
                continue
            left -= 1
            remaining[out] = left
            if left == 0 and out not in cone:
                cone.add(out)
                worklist.append(out)
    return cone


def combinational_order(circuit: Circuit) -> List[str]:
    """Topological order of gate and latch outputs.

    DFF outputs are sources (their update uses previous-step data).
    Latch outputs are ordered like gates because they sample their data
    in the current phase.  Raises ValueError on a combinational cycle.
    """
    deps: Dict[str, List[str]] = {}
    for out, gate in circuit.gates.items():
        deps[out] = list(gate.ins)
    for q, reg in circuit.registers.items():
        if reg.kind == "latch":
            deps[q] = [reg.d, reg.clk]

    order: List[str] = []
    state: Dict[str, int] = {}  # 0 visiting, 1 done

    for start in deps:
        if start in state:
            continue
        stack = [(start, iter(deps[start]))]
        state[start] = 0
        while stack:
            node, it = stack[-1]
            advanced = False
            for child in it:
                if child not in deps:
                    continue
                mark = state.get(child)
                if mark == 0:
                    cycle = [n for n, _ in stack] + [child]
                    raise ValueError(
                        "combinational cycle through: " + " -> ".join(cycle))
                if mark is None:
                    state[child] = 0
                    stack.append((child, iter(deps[child])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                state[node] = 1
                order.append(node)
    return order


def check_circuit(circuit: Circuit) -> List[str]:
    """Return a list of structural problems (empty = OK).

    Rendering shim over the lint engine: runs the structural rules
    that define validity for the FSM compiler (``NET001``–``NET004``;
    advisory rules like the dead-cone warning are not part of the
    validity contract) and returns their messages.
    """
    from ..lint.engine import run_lint
    report = run_lint(circuit,
                      select=("NET001", "NET002", "NET003", "NET004"))
    return [d.message for d in report.diagnostics]
