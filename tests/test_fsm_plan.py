"""The step plan (:meth:`CompiledModel.plan`).

A trajectory stepped with the plan must be the trajectory stepped
without it: the same states in the same node order, the same node ids
and the same kernel counters.  The plan only leaves out nodes whose
value is one constant at every step, and those cost the kernel nothing.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.bdd import BDDManager
from repro.fsm import compile_circuit
from repro.netlist import Circuit, check_circuit
from repro.ternary import ONE, TernaryValue, ZERO

OPS = ("BUF", "NOT", "AND", "NAND", "OR", "NOR", "XOR", "XNOR", "MUX",
       "CONST0", "CONST1")
ARITY = {"BUF": 1, "NOT": 1, "MUX": 3, "CONST0": 0, "CONST1": 0}
INPUTS = ("clk", "nrst", "nret", "a", "b")
VALUES = ("X", "0", "1", "T", "u", "~u", "v", "u|X")


@st.composite
def sequential_circuits(draw):
    """A random netlist with every cell kind: gates over inputs,
    registers and earlier gates; dffs with optional load enable, reset
    and retention pins; an optional latch."""
    circuit = Circuit("random")
    for node in INPUTS:
        circuit.add_input(node)
    regs = [f"q{i}" for i in range(draw(st.integers(0, 3)))]
    readable = [*INPUTS, *regs]
    controls = list(INPUTS)            # derivable from inputs alone
    for i in range(draw(st.integers(1, 10))):
        op = draw(st.sampled_from(OPS))
        ins = [draw(st.sampled_from(readable))
               for _ in range(ARITY.get(op, 2))]
        out = circuit.add_gate(op, f"g{i}", ins)
        if all(node in controls for node in ins):
            controls.append(out)
        readable.append(out)
    def maybe(pool):
        return st.one_of(st.none(), st.sampled_from(pool))

    for q in regs:
        circuit.add_dff(q, draw(st.sampled_from(readable)),
                        draw(st.sampled_from(controls)),
                        enable=draw(maybe(readable)),
                        nrst=draw(maybe(controls)),
                        nret=draw(maybe(controls)),
                        init=draw(st.integers(0, 1)),
                        edge=draw(st.sampled_from(("rise", "fall"))))
    if draw(st.booleans()):
        circuit.add_latch("l0", draw(st.sampled_from(readable)),
                          draw(st.sampled_from(readable)))
        readable.append("l0")
    return circuit, readable


def _value(mgr, name):
    u, v = mgr.var("u"), mgr.var("v")
    return {"X": TernaryValue.x(mgr), "0": ZERO(mgr), "1": ONE(mgr),
            "T": TernaryValue.top(mgr), "u": TernaryValue.of_bdd(u),
            "~u": TernaryValue.of_bdd(~u), "v": TernaryValue.of_bdd(v),
            "u|X": TernaryValue(mgr, mgr.true, ~u)}[name]


def _trajectory(circuit, stimuli, planned):
    mgr = BDDManager()
    mgr.declare_all(["u", "v"])
    model = compile_circuit(circuit, mgr)
    seq = [{node: _value(mgr, name) for node, name in step.items()}
           for step in stimuli]
    plan = model.plan(seq) if planned else None
    states, prev = [], None
    for constraints in seq:
        prev = model.step(prev, constraints, plan=plan)
        states.append([(node, value.h.node, value.l.node)
                       for node, value in prev.items()])
    return states, mgr.stats(), mgr.cache_stats(), plan


class TestPlanIsInvisible:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_states_ids_and_counters(self, data):
        circuit, nodes = data.draw(sequential_circuits())
        assume(not check_circuit(circuit))
        step = st.dictionaries(st.sampled_from([*nodes, "spec"]),
                               st.sampled_from(VALUES), max_size=4)
        stimuli = data.draw(st.lists(step, min_size=1, max_size=6))
        plain = _trajectory(circuit, stimuli, planned=False)
        planned = _trajectory(circuit, stimuli, planned=True)
        assert planned[:3] == plain[:3]


def _pipeline(stages):
    """Registered stages of inverters, all clocked by ``clk``."""
    circuit = Circuit("pipe")
    circuit.add_input("clk")
    circuit.add_input("s0")
    for k in range(1, stages + 1):
        circuit.add_gate("NOT", f"n{k}", [f"s{k - 1}"])
        circuit.add_dff(f"s{k}", f"n{k}", "clk")
    circuit.set_output(f"s{stages}")
    return circuit


class TestPlanLeavesOut:
    def test_stages_upstream_of_the_driven_one(self):
        mgr = BDDManager()
        model = compile_circuit(_pipeline(3), mgr)
        driven = TernaryValue.of_bdd(mgr.var("y"))
        seq = [{"clk": ONE(mgr) if t % 2 else ZERO(mgr), "s2": driven}
               for t in range(6)]
        plan = model.plan(seq)
        assert plan.fixed == {"s0", "n1", "s1", "n2"}
        # The driven register and everything after it still run.
        assert {"s2", "n3", "s3"}.isdisjoint(plan.fixed)

    def test_reset_that_can_select_init_is_kept(self):
        mgr = BDDManager()
        circuit = Circuit("rst")
        for node in ("clk", "rst", "d"):
            circuit.add_input(node)
        circuit.add_gate("CONST1", "one", [])
        circuit.add_dff("held", "d", "clk", nrst="one", init=1)
        circuit.add_dff("reset", "d", "clk", nrst="rst", init=1)
        model = compile_circuit(circuit, mgr)
        fixed = model.plan([{"clk": ONE(mgr), "rst": ZERO(mgr)}]).fixed
        assert "held" in fixed          # reset never asserted: stays X
        assert "reset" not in fixed     # reset to 1 at step 0

    def test_register_behind_a_control_that_can_be_top_is_kept(self):
        # clk is 1 at step 0 and nclk = ~clk is constrained to 1 there
        # too, so nclk is ⊤ at step 0 and the register it clocks is ⊤
        # at step 1, not X.
        mgr = BDDManager()
        circuit = Circuit("top")
        for node in ("clk", "d"):
            circuit.add_input(node)
        circuit.add_gate("NOT", "nclk", ["clk"])
        circuit.add_dff("q", "d", "clk")
        circuit.add_dff("r", "d", "nclk")
        model = compile_circuit(circuit, mgr)
        seq = [{"clk": ONE(mgr), "nclk": ONE(mgr)}, {"clk": ZERO(mgr)}]
        plan = model.plan(seq)
        assert "q" in plan.fixed and "r" not in plan.fixed
        prev = None
        for constraints in seq:
            prev = model.step(prev, constraints, plan=plan)
        assert repr(prev["r"]) == "TernaryValue(T)"

    def test_constrained_node_cannot_be_left_out(self):
        mgr = BDDManager()
        model = compile_circuit(_pipeline(2), mgr)
        plan = model.plan([{"clk": ONE(mgr), "s1": ONE(mgr)}])
        assert "n1" in plan.fixed
        with pytest.raises(ValueError, match="n1"):
            model.step(None, {"n1": ONE(mgr)}, plan=plan)
