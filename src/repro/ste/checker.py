"""The STE model checker: ``M ⊨ A ⇒ C``.

Implements the decision procedure of §III: compute the defining
trajectory of the antecedent over the compiled circuit model (Defn 3)
and compare it point-wise, via the lattice ordering ⊑, against the
defining sequence of the consequent, for all nodes in C up to the depth
of C's next-time operators::

    M |= A => C   iff   ∀ t, n.  [C] t n  ⊑  [[A]] M t n

Because node values are dual-rail *symbolic* lattice values, the
comparison yields a BDD per (time, node) — the set of variable
assignments where the consequent is met.  The assertion holds iff every
such BDD is the constant true (restricted to assignments where the
antecedent is consistent, i.e. did not force any node to ⊤).

The checker also performs the cone-of-influence reduction that makes
the paper's per-unit property decomposition effective: only logic that
can affect a node mentioned in C (or feed the state it depends on) is
compiled and simulated.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, \
    Tuple, Union

from ..bdd import BDDManager, Ref
from ..engine import EngineAborted
from ..fsm import CompiledModel, compile_circuit
from ..netlist import Circuit
from ..obs.trace import tracer as _tracer
from ..ternary import TernaryValue
from .formula import (Formula, defining_sequence, formula_depth,
                      formula_nodes)

__all__ = ["check", "check_compiled", "STEResult", "Failure"]


@dataclass
class Failure:
    """One (time, node) where the consequent is not met everywhere."""

    time: int
    node: str
    condition: Ref            # BDD of assignments violating C here
    expected: TernaryValue    # what C required
    actual: TernaryValue      # what the trajectory delivered

    def __repr__(self) -> str:
        return f"Failure(t={self.time}, node={self.node!r})"


@dataclass
class STEResult:
    """Outcome of one STE run.

    ``passed`` is the paper's "successful STE run … a theorem that holds
    for all the Boolean variables mentioned in the property".  When it
    is False, ``failures`` carries per-point violation conditions from
    which :mod:`repro.ste.counterexample` extracts a scalar trace.
    """

    engine = "ste"

    passed: bool
    failures: List[Failure]
    antecedent_ok: Ref        # BDD: assignments where A was consistent
    depth: int
    trajectory: List[Dict[str, TernaryValue]]
    model: CompiledModel
    mgr: BDDManager
    elapsed_seconds: float
    bdd_nodes: int
    checked_points: int

    @property
    def vacuous(self) -> bool:
        """True when the antecedent is inconsistent for *every*
        assignment — the check passed for lack of stimuli."""
        return self.antecedent_ok.is_false

    def release_trajectory(self) -> None:
        """Drop the defining trajectory, letting the manager's GC
        reclaim its nodes.

        The trajectory exists to diagnose *failures* (the
        counterexample extractor walks it); once a property has passed
        and its verdict is recorded there is nothing left to diagnose,
        but the states — one :class:`TernaryValue` per circuit node per
        time step — pin the bulk of the unique table.  A session calls
        this on passed results before its GC safe point."""
        self.trajectory.clear()

    def failure_condition(self) -> Ref:
        """BDD of all assignments violating some consequent point (and
        consistent with the antecedent)."""
        cond = self.mgr.false
        for f in self.failures:
            cond = cond | f.condition
        return cond & self.antecedent_ok

    def summary(self) -> str:
        from ..obs.report import render_result
        return render_result(self)


def check(model: Union[Circuit, CompiledModel],
          antecedent: Formula,
          consequent: Formula,
          mgr: Optional[BDDManager] = None,
          use_coi: bool = True,
          engine: str = "ste"):
    """Check ``model ⊨ antecedent ⇒ consequent``.

    *model* may be a raw :class:`Circuit` (compiled here, with the
    cone-of-influence reduction rooted at the consequent's nodes unless
    ``use_coi=False``) or an already-compiled model (reused as-is, which
    is how the benchmark harness amortises compilation across a suite).

    ``engine="bmc"`` routes the same question to the SAT backend
    (:mod:`repro.sat.bmc`) and returns its
    :class:`~repro.sat.BMCResult` — verdict-identical by construction,
    counterexamples extractable through the same
    :func:`repro.ste.extract` path.
    """
    if engine == "bmc":
        from ..sat import bmc as _bmc
        if isinstance(model, CompiledModel):
            # Respect the caller's pre-reduced model: no second COI.
            return _bmc.check(model.circuit, antecedent, consequent,
                              mgr or model.mgr, use_coi=False,
                              validate=False)
        return _bmc.check(model, antecedent, consequent, mgr,
                          use_coi=use_coi)
    if engine == "portfolio":
        # One-shot portfolio race: both engine artefacts live in a
        # throwaway session (the session is where the race machinery
        # and per-cone win history live).
        from .session import CheckSession
        if isinstance(model, CompiledModel):
            session = CheckSession(model.circuit, mgr or model.mgr,
                                   use_coi=False, validate=False)
            if session.mgr is model.mgr:
                # Respect the caller's compilation work: the session's
                # full-circuit slot is exactly this model.
                session._full_model = model
        else:
            session = CheckSession(model, mgr or BDDManager(),
                                   use_coi=use_coi)
        return session.check(antecedent, consequent, engine="portfolio")
    if engine != "ste":
        from ..core.registry import engine_names
        raise ValueError(f"unknown engine {engine!r}; "
                         f"expected one of {engine_names()}")
    started = _time.perf_counter()
    if isinstance(model, CompiledModel):
        compiled = model
    else:
        roots = None
        if use_coi:
            roots = set(formula_nodes(consequent))
            roots.update(formula_nodes(antecedent))
        compiled = compile_circuit(model, mgr or BDDManager(),
                                   coi_roots=roots)
    compile_seconds = _time.perf_counter() - started
    result = check_compiled(compiled, antecedent, consequent)
    # One-shot checks historically reported validation + COI + model
    # compilation as part of the check time; keep that meaning (the
    # session reports amortised compilation separately).
    result.elapsed_seconds += compile_seconds
    return result


def check_compiled(compiled: CompiledModel,
                   antecedent: Formula,
                   consequent: Formula,
                   abort: Optional[Callable[[], bool]] = None,
                   slim_trajectory: bool = False) -> STEResult:
    """The decision procedure proper, on an already-compiled model.

    Split out from :func:`check` so that a
    :class:`~repro.ste.session.CheckSession` can amortise compilation
    across a whole property suite while producing results identical to
    per-property :func:`check` calls.

    *abort* is polled between trajectory steps and consequent points;
    when it fires the check raises
    :class:`~repro.engine.EngineAborted` (the manager and its caches
    stay valid) — the portfolio racer's cancellation hook.

    *slim_trajectory* releases each state as soon as the stepping no
    longer needs it, keeping only the steps the consequent examines.
    The full defining trajectory of a wide property pins millions of
    unique-table nodes that the verdict never looks at; dropping a
    state as the loop moves past it lets the manager's between-step GC
    reclaim them, bounding peak memory by the *live* frontier instead
    of the whole history.  Released steps render as ``X`` in
    counterexample traces, so the one-shot :func:`check` (whose result
    is the diagnostic artefact) keeps everything, while sessions —
    which record verdicts and discard passed trajectories anyway —
    turn this on.
    """
    started = _time.perf_counter()
    mgr = compiled.mgr
    a_seq = defining_sequence(mgr, antecedent)
    c_seq = defining_sequence(mgr, consequent)
    depth = max(formula_depth(antecedent), formula_depth(consequent))
    # GC safe point: between trajectory steps every live function is
    # held by a Ref (trajectory states, defining sequences, compiled
    # cones), so the manager may collect dead step temporaries here —
    # a single wide property can otherwise triple the unique table.
    maybe_collect = getattr(mgr, "maybe_collect", None)
    needed = set(c_seq) if slim_trajectory else None
    plan = compiled.plan(a_seq.values())

    # Defining trajectory (Defn 3), tracking antecedent consistency at
    # every constrained point (the only places ⊤ can originate).
    antecedent_ok = mgr.true
    trajectory: List[Dict[str, TernaryValue]] = []
    prev: Optional[Dict[str, TernaryValue]] = None
    with _tracer().span("ste.trajectory", cat="ste", depth=depth):
        for t in range(depth):
            if abort is not None and abort():
                raise EngineAborted(f"STE aborted at frame {t}/{depth}")
            state = compiled.step(prev, a_seq.get(t, {}), abort=abort,
                                  plan=plan)
            for node in a_seq.get(t, {}):
                antecedent_ok = antecedent_ok & state[node].is_consistent()
            trajectory.append(state)
            prev = state
            # Once the loop has stepped past t-1 nothing references
            # that state again unless the consequent examines it.
            if needed is not None and t and t - 1 not in needed:
                trajectory[t - 1] = {}
            if maybe_collect is not None:
                maybe_collect()
        if needed is not None and depth and depth - 1 not in needed:
            trajectory[depth - 1] = {}
            prev = None

    # Point-wise lattice comparison  [C] t n ⊑ [[A]] M t n.
    failures: List[Failure] = []
    checked_points = 0
    x = TernaryValue.x(mgr)
    with _tracer().span("ste.compare", cat="ste") as span:
        for t, constraints in sorted(c_seq.items()):
            state = trajectory[t]
            for node, expected in constraints.items():
                if abort is not None and abort():
                    raise EngineAborted(
                        f"STE aborted at point {checked_points}")
                checked_points += 1
                actual = state.get(node, x)
                holds = expected.leq(actual)
                violating = ~holds & antecedent_ok
                if not violating.is_false:
                    failures.append(Failure(t, node, violating, expected,
                                            actual))
        span.set("points", checked_points)
        span.set("failures", len(failures))

    if failures and slim_trajectory:
        # The slim run released the states a counterexample trace
        # renders.  Failures are the rare outcome, the computed tables
        # are now warm with this exact check, and the procedure is
        # deterministic — so simply redo it keeping everything, which
        # makes failing session results bit-identical (trajectory
        # included) to per-property checks.
        return check_compiled(compiled, antecedent, consequent,
                              abort=abort)

    elapsed = _time.perf_counter() - started
    return STEResult(
        passed=not failures,
        failures=failures,
        antecedent_ok=antecedent_ok,
        depth=depth,
        trajectory=trajectory,
        model=compiled,
        mgr=mgr,
        elapsed_seconds=elapsed,
        bdd_nodes=mgr.num_nodes(),
        checked_points=checked_points,
    )
