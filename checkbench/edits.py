"""The pinned pool of single-gate edits the re-check cycles draw from.

Every edit replaces the cell of one gate that lies *only* in the cones
of the two ``decode_write_register_*`` properties, on every workload's
core and suite.  An edited re-check therefore re-decides exactly those
two properties and serves the other 24 from the verdict cache.  (A gate
such as ``WriteRegister[0]`` sits in every cone: editing it re-decides
all 26 properties and merely repeats a cold pass.)

Each pooled edit also passes the lint gate and breaks both write-register
properties on every workload, so a re-decided property is expected to
fail.

Re-derive the pool from the program and compare it with the pinned list
(exit status 0 when they agree, 1 otherwise; about two minutes)::

    python3 checkbench/edits.py
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Set, Tuple

#: The properties whose cones the edited gates must lie in.
TARGETS = frozenset({"decode_write_register_rtype",
                     "decode_write_register_load"})


class Edit(NamedTuple):
    """Make ``gate`` an ``op`` gate: over no inputs when ``const``, else
    over the gate's own inputs in the edited design."""

    gate: str
    op: str
    const: bool = False

    @property
    def key(self) -> str:
        return f"{self.gate}={self.op}"

    def apply(self, circuit) -> None:
        circuit.replace_gate(self.gate, op=self.op,
                             ins=() if self.const else None)


#: Pinned output of :func:`derive_pool` (see the module docstring).
POOL: Tuple[Edit, ...] = (
    Edit("WriteRegister[1]", "NOT"),
    Edit("WriteRegister[1]", "CONST0", const=True),
    Edit("WriteRegister[1]", "CONST1", const=True),
    Edit("WriteRegister[2]", "NOT"),
    Edit("WriteRegister[2]", "CONST0", const=True),
    Edit("WriteRegister[2]", "CONST1", const=True),
    Edit("WriteRegister[3]", "NOT"),
    Edit("WriteRegister[3]", "CONST0", const=True),
    Edit("WriteRegister[3]", "CONST1", const=True),
    Edit("WriteRegister[4]", "NOT"),
    Edit("WriteRegister[4]", "CONST0", const=True),
    Edit("WriteRegister[4]", "CONST1", const=True),
)


# ----------------------------------------------------------------------
# Derivation
# ----------------------------------------------------------------------
def candidate_edits(circuit, gates) -> List[Edit]:
    """Alternative cells for each gate: a BUF becomes NOT, CONST0 or
    CONST1; a MUX becomes AND or OR of its three inputs."""
    out: List[Edit] = []
    for name in sorted(gates):
        op = circuit.gates[name].op
        if op == "BUF":
            out += [Edit(name, "NOT"), Edit(name, "CONST0", True),
                    Edit(name, "CONST1", True)]
        elif op == "MUX":
            out += [Edit(name, "AND"), Edit(name, "OR")]
    return out


def cone_members(circuit, suite) -> Dict[str, Set[str]]:
    """node -> names of the properties whose cone of influence holds it."""
    from repro.netlist.coi import cone_nodes
    from repro.ste.formula import formula_nodes
    where: Dict[str, Set[str]] = {}
    for prop in suite:
        roots = set(formula_nodes(prop.antecedent))
        roots |= set(formula_nodes(prop.consequent))
        for node in cone_nodes(circuit, sorted(roots)):
            where.setdefault(node, set()).add(prop.name)
    return where


def derive_pool() -> List[Edit]:
    """Every candidate edit that, on every workload, (1) touches a gate
    lying only in the target cones, (2) passes the lint gate and
    (3) makes both target properties fail."""
    from repro.bdd import BDDManager
    from repro.core import CheckSession
    from repro.retention import build_suite
    from workload import WORKLOADS, lint_errors
    specs = list(WORKLOADS.values())
    eligible = None
    for spec in specs:
        core = spec.make_core()
        where = cone_members(core.circuit,
                             build_suite(core, BDDManager(),
                                         sleep=spec.sleep))
        gates = {g for g in core.circuit.gates
                 if where.get(g) and where[g] <= TARGETS}
        eligible = gates if eligible is None else eligible & gates
    base = specs[0].make_core().circuit
    pool: List[Edit] = []
    for edit in candidate_edits(base, eligible):
        verdicts = []
        for spec in specs:
            core = spec.make_core()
            edit.apply(core.circuit)
            if lint_errors(core):
                verdicts.append("lint")
                break
            mgr = BDDManager()
            suite = [p for p in build_suite(core, mgr, sleep=spec.sleep)
                     if p.name in TARGETS]
            session = CheckSession(core.circuit, mgr, engine=spec.engine)
            report = session.run(suite)
            verdicts.append("fail" if not any(report.verdicts().values())
                            else "pass")
        keep = verdicts == ["fail"] * len(specs)
        print(f"  {'keep' if keep else 'drop'} {edit.key}  {verdicts}")
        if keep:
            pool.append(edit)
    return pool


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    derived = derive_pool()
    print(f"derived {len(derived)} edits; pinned {len(POOL)}")
    if tuple(derived) == POOL:
        print("pool OK: the pinned list matches the derivation")
        return 0
    print("pool MISMATCH; the derivation gives:")
    for edit in derived:
        print(f"    {edit!r}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
