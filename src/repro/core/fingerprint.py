"""Canonical content fingerprints for every checking-problem part.

The paper's workflow is iterative: a retention bug is found, the RTL or
the UPF power intent is edited, and the property suite is re-verified.
Re-verification should only pay for what changed — which needs a stable
*name* for "this cone of this circuit under this schedule, asked this
property".  This module provides that name: deterministic content
hashes for

* circuits and cones (:func:`circuit_fingerprint` /
  :func:`cone_fingerprint`, delegating to
  :meth:`repro.netlist.Circuit.fingerprint` — node set + cell
  definitions, insertion-order independent);
* BDD-valued Boolean functions (:func:`bdd_fingerprint` — a structural
  hash over variable *names*, so it is stable across processes and
  manager instances, unlike node ids);
* trajectory formulas (:func:`formula_fingerprint` — conjunction-order
  independent, guards and lattice values hashed through their BDDs);
* schedules (:func:`schedule_fingerprint`) and whole properties
  (:func:`property_fingerprint`);
* the complete check problem (:func:`check_fingerprint` = cone ×
  property), which is what :class:`repro.core.cache.VerdictCache`
  keys verdicts under.

Equal fingerprints mean "provably the same question, same answer";
unequal fingerprints merely mean "re-check" — so a BDD hash that is
sensitive to the variable order (the suite builders declare a fixed
order, making it deterministic in practice) costs at most a spurious
cache miss, never a wrong verdict.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Optional

from ..bdd import BDDManager, Ref
from ..netlist import Circuit
from ..ternary import TernaryValue

__all__ = [
    "bdd_fingerprint", "ternary_fingerprint", "formula_fingerprint",
    "circuit_fingerprint", "cone_fingerprint", "schedule_fingerprint",
    "property_fingerprint", "check_fingerprint", "combine",
]

#: Hex digest length kept per fingerprint (128 bits — collisions are
#: negligible at cache scale while keys stay grep-able).
_DIGEST_CHARS = 32


def _h(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()[:_DIGEST_CHARS]


def combine(*fingerprints: str) -> str:
    """Order-sensitive combination of already-computed fingerprints."""
    return _h("combine", *fingerprints)


# ----------------------------------------------------------------------
# BDD / lattice values
# ----------------------------------------------------------------------
def _bdd_memo(mgr: BDDManager) -> Dict[int, str]:
    # Per-node digests memoise on the manager, but node ids are only
    # stable between garbage collections (indices are recycled) — so
    # the memo is stamped with the GC epoch and rebuilt from scratch
    # when it moves.
    epoch = getattr(mgr, "gc_epoch", 0)
    cached = mgr.__dict__.get("_fingerprint_memo")
    if cached is not None and cached[0] == epoch:
        return cached[1]
    memo: Dict[int, str] = {0: "F", 1: "T"}
    mgr.__dict__["_fingerprint_memo"] = (epoch, memo)
    return memo


def bdd_fingerprint(ref: Ref) -> str:
    """Structural hash of a Boolean function in terms of variable
    *names* — identical across processes, managers and runs that build
    the same function under the same variable order."""
    mgr = ref.mgr
    memo = _bdd_memo(mgr)
    stack = [ref.node]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        var, low, high = mgr.node_triple(node)
        low_d = memo.get(low)
        high_d = memo.get(high)
        if low_d is None or high_d is None:
            if low_d is None:
                stack.append(low)
            if high_d is None:
                stack.append(high)
            continue
        memo[node] = _h("B", var, low_d, high_d)
        stack.pop()
    return memo[ref.node]


def ternary_fingerprint(value: TernaryValue) -> str:
    """Hash of a dual-rail lattice value (both rails)."""
    return _h("L", bdd_fingerprint(value.h), bdd_fingerprint(value.l))


# ----------------------------------------------------------------------
# Trajectory formulas
# ----------------------------------------------------------------------
def formula_fingerprint(formula) -> str:
    """Canonical hash of a trajectory formula.

    Conjunction is hashed as a sorted multiset of part digests, so two
    suites that assemble the same constraints in different order hash
    equal; guards and ``is <function>`` payloads go through
    :func:`bdd_fingerprint`.
    """
    # Imported lazily: repro.core must stay importable while
    # repro.ste's package __init__ is still executing (the session
    # shim under repro.ste imports repro.core back).
    from ..ste.formula import Conj, Next, NodeIs, When

    def visit(f) -> str:
        if isinstance(f, NodeIs):
            value = f.value
            if isinstance(value, TernaryValue):
                payload = ternary_fingerprint(value)
            elif isinstance(value, Ref):
                payload = "b" + bdd_fingerprint(value)
            elif isinstance(value, bool) or value in (0, 1):
                payload = f"c{int(value)}"
            else:
                raise TypeError(f"unsupported node value {value!r}")
            return _h("IS", f.node, payload)
        if isinstance(f, Conj):
            return _h("AND", *sorted(visit(p) for p in f.parts))
        if isinstance(f, When):
            return _h("WHEN", visit(f.body), bdd_fingerprint(f.guard))
        if isinstance(f, Next):
            return _h("NEXT", str(f.steps), visit(f.body))
        raise TypeError(f"unknown formula node {f!r}")

    return visit(formula)


# ----------------------------------------------------------------------
# Circuits, cones, schedules, properties
# ----------------------------------------------------------------------
def circuit_fingerprint(circuit: Circuit) -> str:
    """Content hash of a full circuit (cells + outputs)."""
    return circuit.fingerprint(include_outputs=True)


def cone_fingerprint(circuit: Circuit,
                     roots: Optional[Iterable[str]] = None) -> str:
    """Content hash of a cone: node set + cell definitions, extraction
    roots excluded.  With *roots* given, the cone of influence is
    extracted from *circuit* first; otherwise *circuit* itself is
    treated as the (already reduced) cone."""
    if roots is not None:
        from ..fsm import cone_fingerprint as _fsm_cone_fp
        return _fsm_cone_fp(circuit, roots)
    return circuit.fingerprint(include_outputs=False)


def schedule_fingerprint(schedule) -> str:
    """Hash of a :class:`repro.retention.Schedule` — the clock/NRET/
    NRST waveforms plus every named time point (the name is cosmetic
    and excluded)."""
    return _h(
        "SCHED",
        str(schedule.depth),
        str(schedule.t_present), str(schedule.t_operate),
        str(schedule.t_execute), str(schedule.t_sleep_start),
        str(schedule.t_reset), str(schedule.t_resume),
        str(schedule.t_reload),
        formula_fingerprint(schedule.base),
    )


def property_fingerprint(antecedent, consequent) -> str:
    """Hash of one property (the schedule rides inside the antecedent's
    waveform conjuncts, so it needs no separate component)."""
    return _h("PROP", formula_fingerprint(antecedent),
              formula_fingerprint(consequent))


def check_fingerprint(cone: Circuit, antecedent, consequent) -> str:
    """The persistent-cache key: this cone asked this property.

    Engine-independent by design — STE, BMC and the portfolio answer
    alike (pinned by the differential suite), so one cached verdict
    serves all three backends.
    """
    return _h("CHECK", cone_fingerprint(cone),
              property_fingerprint(antecedent, consequent))
