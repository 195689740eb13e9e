"""Executable ternary model of a circuit (the Forte ``exe`` analogue).

The paper's flow compiles the BLIF netlist "to a finite-state machine
using exlif2exe that is provided with the STE model checker Forte".
:class:`CompiledModel` plays that role here: it owns a levelized
evaluation schedule for a :class:`~repro.netlist.circuit.Circuit` and
exposes one operation, :meth:`step`, computing the circuit's node values
at time *t* from the values at *t-1* joined with the antecedent's
constraints at *t* — exactly the ``M(σ(t-1))`` component of the defining
trajectory (Defn 3).

Evaluation order within a step:

1. primary inputs (X unless constrained);
2. the *input cone* — combinational logic reachable from inputs alone —
   which produces the current clock/reset/retention control values;
3. dff outputs via :func:`~repro.netlist.cells.dff_next` (previous-step
   data, current-step async controls);
4. the remaining combinational logic and latches, levelized.

Constraints are joined in as soon as a node's value is computed, so
antecedent information propagates forward through the step, which is the
standard STE forward-propagation semantics.
"""

from __future__ import annotations

from itertools import repeat
from typing import (Callable, Dict, FrozenSet, Iterable, List, Mapping,
                    NamedTuple, Optional, Sequence, Tuple, Union)

from ..bdd import BDDManager, Ref
from ..engine import EngineAborted
from ..netlist import Circuit, dff_next, eval_gate, latch_next
from ..netlist.circuit import Register
from ..netlist.schedule import EvalSchedule, PlanEntry
from ..ternary import TernaryValue

__all__ = ["CompiledModel", "State", "StepPlan"]

#: A circuit state: every known node's lattice value at one time step.
State = Dict[str, TernaryValue]

#: Gate ops that never output ⊤ when no input is ⊤.
_TAME_OPS = frozenset(("CONST0", "CONST1", "BUF", "NOT", "AND", "NAND",
                       "OR", "NOR", "XOR", "XNOR", "MUX"))

#: Node classes of :meth:`CompiledModel.plan` besides "the same
#: constant at every step" (a shared constant TernaryValue).
_TAME = "tame"   # a constant other than ⊤ at every step
_ANY = "any"     # possibly symbolic or ⊤

_Class = Union[TernaryValue, str]


class StepPlan(NamedTuple):
    """What :meth:`CompiledModel.step` evaluates for one trajectory.

    ``fixed`` are the nodes left out because their value is the same
    constant at every step; ``template`` holds that value for them (and
    X for every other node) in the full state's node order."""

    template: Optional[State]
    fixed: FrozenSet[str]
    inputs: Sequence[str]
    pre_plan: Sequence[PlanEntry]
    dffs: Sequence[Tuple[str, Register]]
    post_plan: Sequence[PlanEntry]


class CompiledModel:
    """A circuit with a precomputed evaluation schedule."""

    def __init__(self, circuit: Circuit, mgr: BDDManager):
        self.circuit = circuit
        self.mgr = mgr
        # One shared object per constant lattice value, indexed by
        # ``h << 1 | l`` on the terminal rail ids: ⊤, 0, 1, X.
        self._consts = tuple(TernaryValue(mgr, Ref(mgr, h), Ref(mgr, l))
                             for h in (0, 1) for l in (0, 1))
        self._x = self._consts[3]
        # A cell whose inputs are all constant has a constant output,
        # and computing it takes only the kernel's terminal cases, which
        # touch no table and no counter.  `step` computes each (gate op
        # or register, constant inputs) result once and reuses it.  Keys
        # hold only the shared constants (and None for an absent
        # register control), so the tables stay small.
        self._const_gates: Dict[tuple, TernaryValue] = {}
        self._const_regs: Dict[tuple, TernaryValue] = {}
        self._is_const = frozenset(self._consts).union((None,)).issuperset
        # The phase structure (input cone before registers, control
        # derivability check, flat per-node plans) lives in
        # EvalSchedule, shared verbatim with the SAT engine's BMCModel.
        schedule = EvalSchedule(circuit)
        self._pre_plan = schedule.pre_plan
        self._post_plan = schedule.post_plan
        self._dffs = schedule.dffs
        self._full_plan = StepPlan(None, frozenset(), circuit.inputs,
                                   self._pre_plan, self._dffs,
                                   self._post_plan)
        self._plans: Dict[FrozenSet[Tuple[str, bool]], StepPlan] = {}
        self._reader_index: Optional[Dict[str, List[str]]] = None

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content identity of the compiled cone — node set plus cell
        definitions, output roots excluded (see
        :meth:`repro.netlist.Circuit.fingerprint`).  Two properties
        whose cones extract the same logic get the same fingerprint,
        which is the key the :mod:`repro.core` cache layer stores
        verdicts under."""
        return self.circuit.fingerprint(include_outputs=False)

    # ------------------------------------------------------------------
    def initial_state(self, constraints: Optional[Mapping[str, TernaryValue]]
                      = None) -> State:
        """The time-0 state: everything X, registers included, joined
        with the given constraints."""
        return self.step(None, constraints or {})

    def step(self, prev: Optional[State],
             constraints: Mapping[str, TernaryValue],
             abort: Optional[Callable[[], bool]] = None,
             plan: Optional[StepPlan] = None) -> State:
        """One defining-trajectory step.

        *prev* is the complete state at t-1 (None when computing t=0);
        *constraints* are the antecedent's defining-sequence entries for
        the current step.

        *plan*, from :meth:`plan` over the trajectory's whole
        constraint sequence, leaves out the nodes whose value it already
        knows; the state comes out the same, node order included.

        *abort* is polled every few dozen plan nodes; when it fires the
        step raises :class:`~repro.engine.EngineAborted` (manager
        intact).  A single step on a wide cone can run for seconds, so
        the portfolio racer needs a poll point finer than whole steps.
        """
        if plan is None:
            plan = self._full_plan
        elif not plan.fixed.isdisjoint(constraints):
            raise ValueError(
                f"step plan leaves out constrained nodes "
                f"{sorted(plan.fixed.intersection(constraints))}")
        mgr = self.mgr
        values: State = ({} if plan.template is None
                         else plan.template.copy())
        x = self._x
        get_constraint = constraints.get
        get_value = values.get
        get_const = self._const_gates.get
        const_regs = self._const_regs
        is_const = self._is_const
        shared = self._shared
        const_gate = self._const_gate
        xs = repeat(x)

        def finish(node: str, value: TernaryValue) -> None:
            constraint = get_constraint(node)
            if constraint is not None:
                value = shared(value.join(constraint))
            values[node] = value

        def run_plan(entries) -> None:
            countdown = 64
            for node, op, ins, reg in entries:
                if abort is not None:
                    countdown -= 1
                    if not countdown:
                        countdown = 64
                        if abort():
                            raise EngineAborted(
                                f"step aborted at node {node!r}")
                if reg is None:
                    args = tuple(map(get_value, ins, xs))
                    if not is_const(args):
                        finish(node, eval_gate(mgr, op, args))
                        continue
                    value = get_const((op, *args))
                    if value is None:
                        value = const_gate(op, args)
                    finish(node, value)
                else:
                    en_now = get_value(reg.clk, x)
                    d_now = get_value(reg.d, x)
                    q_prev = prev.get(node, x) if prev else x
                    finish(node, latch_next(en_now, d_now, q_prev))

        # Phase 1: primary inputs.
        for node in plan.inputs:
            finish(node, x)

        # Phase 2: input-cone combinational logic (gate outputs only —
        # latches never sit in the input cone by definition of the cone,
        # but guard anyway).
        run_plan(plan.pre_plan)

        # Phase 3: dff outputs.
        for q, reg in plan.dffs:
            if prev is None:
                finish(q, x)
                continue
            args = (prev.get(q, x), prev.get(reg.d, x),
                    prev.get(reg.clk, x), get_value(reg.clk, x),
                    prev.get(reg.enable, x) if reg.enable else None,
                    get_value(reg.nrst, x) if reg.nrst else None,
                    get_value(reg.nret, x) if reg.nret else None)
            key = (q, *args) if is_const(args) else None
            value = None if key is None else const_regs.get(key)
            if value is None:
                value = dff_next(mgr, reg, q_prev=args[0], d_prev=args[1],
                                 clk_prev=args[2], clk_now=args[3],
                                 enable_prev=args[4], nrst_now=args[5],
                                 nret_now=args[6])
                if key is not None:
                    value = const_regs[key] = shared(value)
            finish(q, value)

        # Phase 4: the rest of the combinational logic and the latches.
        run_plan(plan.post_plan)

        # Constrained nodes that nothing drives (floating spec nodes)
        # still take their constraint value.
        for node, constraint in constraints.items():
            if node not in values:
                values[node] = constraint
        return values

    # ------------------------------------------------------------------
    def plan(self, constraints_by_time: Iterable[Mapping[str, TernaryValue]]
             ) -> StepPlan:
        """The :class:`StepPlan` for a trajectory under
        *constraints_by_time* (every step's constraints).

        It leaves out each node whose value is the same constant at
        every step, computed with only the kernel's terminal cases (no
        table, node or counter moves), so the trajectory and every
        kernel count come out as without the plan.  Each cell maps
        all-X inputs to X; and a register whose data and own output are
        X stays X whatever its clock, load-enable and retention pins do,
        as long as those are never ⊤ and reset never selects the init
        value.  In a check of one stage of a pipeline, that leaves out
        every stage upstream of the one the antecedent drives.

        The node classes are found by a fixpoint over the schedule that
        starts with every register X: the same constant at every step,
        "tame" (a constant other than ⊤ at every step), or anything.
        A constrained node is never left out.
        """
        constrained: Dict[str, bool] = {}
        for constraints in constraints_by_time:
            for node, value in constraints.items():
                h = value.h.node
                l = value.l.node
                constrained[node] = (constrained.get(node, True)
                                     and h < 2 and l < 2 and h | l == 1)
        key = frozenset(constrained.items())
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._make_plan(constrained)
        return plan

    def _make_plan(self, constrained: Mapping[str, bool]) -> StepPlan:
        x = self._x
        one = self._consts[2]

        def settle(node: str, c: _Class) -> _Class:
            # Joined with its constraints, a node that is X elsewhere
            # takes a constant other than ⊤ if every constraint is one.
            # No node is ever the constant ⊤ otherwise (⊤ only comes
            # from joining a constraint), so a constant is tame.
            flag = constrained.get(node)
            if flag is None:
                return c
            return _TAME if flag and c is x else _ANY

        circuit = self.circuit
        cls: Dict[str, _Class] = {node: settle(node, x)
                                  for node in circuit.inputs}
        for q in circuit.registers:
            cls[q] = x
        get = cls.get

        def evaluate(node: str) -> _Class:
            gate = circuit.gates.get(node)
            if gate is not None:
                op = gate.op
                args = [get(i, x) for i in gate.ins]
                if (_ANY in args or op not in _TAME_OPS
                        or not (args or op.startswith("CONST"))):
                    return settle(node, _ANY)
                if _TAME in args:
                    return settle(node, _TAME)
                return settle(node, self._const_gate(op, args))
            reg = circuit.registers[node]
            pins = [get(n, x) for n in (reg.clk, reg.enable, reg.nret, reg.d,
                                        reg.nrst) if n is not None]
            if _ANY in pins or cls[node] is _ANY:
                return settle(node, _ANY)
            if (get(reg.d, x) is x and cls[node] is x
                    and get(reg.nrst, x) in (x, one)):
                return settle(node, x)
            return settle(node, _TAME)

        # One pass in schedule order with every register X, then
        # re-evaluate the readers of each node whose class rose until
        # nothing changes.  Classes only rise (a constant, then tame,
        # then anything), so each node changes at most twice.
        order = [*(e[0] for e in self._pre_plan),
                 *(q for q, _ in self._dffs),
                 *(e[0] for e in self._post_plan)]
        for node in order:
            cls[node] = evaluate(node)
        readers = self._readers()
        work = [node for node in circuit.registers]
        while work:
            node = work.pop()
            c = evaluate(node)
            if c is cls[node]:
                continue
            cls[node] = c
            work.extend(readers.get(node, ()))

        fixed = {node: c for node, c in cls.items()
                 if isinstance(c, TernaryValue) and node not in constrained}
        if not fixed:
            return self._full_plan
        template = dict.fromkeys(
            [*circuit.inputs, *(e[0] for e in self._pre_plan),
             *(q for q, _ in self._dffs), *(e[0] for e in self._post_plan)],
            x)
        template.update(fixed)
        return StepPlan(
            template, frozenset(fixed),
            [node for node in circuit.inputs if node not in fixed],
            [e for e in self._pre_plan if e[0] not in fixed],
            [e for e in self._dffs if e[0] not in fixed],
            [e for e in self._post_plan if e[0] not in fixed])

    def _const_gate(self, op: str, args: Sequence[TernaryValue]
                    ) -> TernaryValue:
        """Gate *op* over the shared constants *args*, computed once."""
        key = (op, *args)
        value = self._const_gates.get(key)
        if value is None:
            value = self._const_gates[key] = \
                self._shared(eval_gate(self.mgr, op, args))
        return value

    def _readers(self) -> Dict[str, List[str]]:
        """node -> the gates and registers reading it."""
        if self._reader_index is None:
            index: Dict[str, List[str]] = {}
            for gate in self.circuit.gates.values():
                for src in gate.ins:
                    index.setdefault(src, []).append(gate.out)
            for reg in self.circuit.registers.values():
                for src in (reg.d, reg.clk, reg.enable, reg.nrst, reg.nret,
                            reg.q):
                    if src is not None:
                        index.setdefault(src, []).append(reg.q)
            self._reader_index = index
        return self._reader_index

    def _shared(self, value: TernaryValue) -> TernaryValue:
        """*value*, or the shared object of the same constant."""
        h = value.h.node
        l = value.l.node
        if h > 1 or l > 1:
            return value
        return self._consts[h << 1 | l]

    # ------------------------------------------------------------------
    def run(self, constraints_by_time: Sequence[Mapping[str, TernaryValue]],
            steps: Optional[int] = None) -> List[State]:
        """Compute the defining trajectory for the given constraint
        sequence: ``sigma[t] = constraints[t] ⊔ M(sigma[t-1])``."""
        if steps is None:
            steps = len(constraints_by_time)
        trajectory: List[State] = []
        prev: Optional[State] = None
        for t in range(steps):
            cons = (constraints_by_time[t]
                    if t < len(constraints_by_time) else {})
            prev = self.step(prev, cons)
            trajectory.append(prev)
        return trajectory

    def stats(self) -> Dict[str, int]:
        info = dict(self.circuit.stats())
        info["pre_register_nodes"] = len(self._pre_plan)
        info["post_register_nodes"] = len(self._post_plan)
        return info
