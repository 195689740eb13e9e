"""Outside-in per-layer attribution for the traced run.

Wrappers go around the coarse public entry points of each ``repro``
package (never around per-apply calls), and only in a run started with
``--trace 1``.  A wrapped call's *self time* is its wall time minus the
wall time of the wrapped calls nested inside it, so the self times of
one run add up to the traced region without double counting; what is
left over is ``unattributed_s``.  Spans recorded by ``repro.obs`` are
never read, so a change there cannot move the attribution.

Kernel and solver counters do not come from wrappers: they are
``stats()`` snapshot deltas (:class:`workload.Totals`).
"""

from __future__ import annotations

import functools
import time
from typing import Dict, List, Tuple

#: (module or class path, attribute, metric) — the wrapped entry points.
#: A module attribute is wrapped where callers look it up at call time.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.cpu", "fixed_core", "cpu.build"),
    ("repro.cpu", "buggy_core", "cpu.build"),
    ("repro.upf", "intent_for_core", "lint"),
    ("repro.lint", "run_lint", "lint"),
    ("repro.retention", "build_suite", "retention.build_suite"),
    ("repro.fsm", "compile_circuit", "fsm.compile"),
    ("repro.fsm.model:CompiledModel", "step", "fsm.step"),
    ("repro.bdd.manager:BDDManager", "maybe_collect", "bdd.collect"),
    ("repro.ste.checker", "check_compiled", "ste.check"),
    ("repro.ste.counterexample", "cex_text_for", "ste.cex"),
    ("repro.sat.bmc:BMCEngine", "__init__", "sat.prepare"),
    ("repro.sat.bmc:BMCEngine", "prepare", "sat.prepare"),
    ("repro.sat.bmc:BMCEngine", "solve_prepared", "sat.unroll_encode"),
    ("repro.sat.preprocess:IncrementalPreprocessor", "process",
     "sat.preprocess"),
    ("repro.sat.solver:Solver", "solve", "sat.solve"),
    ("repro.core.session", "cone_of_influence", "netlist.coi"),
    ("repro.core.fingerprint", "check_fingerprint", "core.fingerprint"),
    ("repro.core.cache:VerdictCache", "lookup", "core.cache_lookup"),
    ("repro.core.cache:VerdictCache", "store", "core.cache_store"),
    ("repro.core.session:CheckSession", "check", "core.session"),
)


def _resolve(path: str):
    import importlib
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class LayerTrace:
    """Self-time accounting over the wrapped entry points.

    Recording is off until :meth:`start`; wrappers are installed by
    :meth:`install` and removed by :meth:`uninstall`."""

    def __init__(self):
        self.recording = False
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: calls made while a call of the same metric was open (for
        #: ``ste.check``: the failing path's full-trajectory re-runs)
        self.reentries: Dict[str, int] = {}
        self.region_s = 0.0
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._t0 = 0.0
        #: BMC per-point refinement escalations inside the region
        self.refinements = 0

    def install(self) -> None:
        for path, attr, metric in ENTRY_POINTS:
            owner = _resolve(path)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, metric))
            self._patches.append((owner, attr, original))
            self.self_s.setdefault(metric, 0.0)
            self.calls.setdefault(metric, 0)
            self.reentries.setdefault(metric, 0)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def start(self) -> None:
        self.recording = True
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        self.region_s += time.perf_counter() - self._t0
        self.recording = False

    def _wrap(self, original, metric: str):
        trace = self
        counter = time.perf_counter
        solve_prepared = metric == "sat.unroll_encode"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not trace.recording:
                return original(*args, **kwargs)
            stack = trace._stack
            if any(frame[1] == metric for frame in stack):
                trace.reentries[metric] += 1
            frame = [0.0, metric]
            stack.append(frame)
            if solve_prepared:
                refinements = args[0].refinements
            t0 = counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = counter() - t0
                stack.pop()
                trace.calls[metric] += 1
                trace.self_s[metric] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if solve_prepared:
                    trace.refinements += args[0].refinements - refinements

        return wrapper

    def attributed_s(self) -> float:
        return sum(self.self_s.values())


#: Per-layer metric -> unit, in report order.
UNITS: Dict[str, str] = {
    "cpu.build_s": "s", "lint.s": "s", "retention.build_suite_s": "s",
    "fsm.compile_s": "s", "fsm.step_s": "s", "fsm.steps": "count",
    "bdd.apply_calls": "count", "bdd.cache_hit_ratio": "ratio",
    "bdd.computed_entries": "count", "bdd.gc_runs": "count",
    "bdd.gc_reclaimed": "count", "bdd.collect_s": "s",
    "ste.check_self_s": "s", "ste.full_reruns": "count", "ste.cex_s": "s",
    "sat.prepare_s": "s", "sat.unroll_encode_s": "s",
    "sat.preprocess_s": "s", "sat.solve_s": "s", "sat.solve_calls": "count",
    "sat.conflicts": "count", "sat.propagations": "count",
    "sat.decisions": "count", "sat.refinements": "count",
    "sat.frames_reused_ratio": "ratio", "sat.preprocess_kept_ratio": "ratio",
    "sat.probe_yield": "ratio",
    "netlist.coi_s": "s", "core.fingerprint_s": "s",
    "core.cache_lookup_s": "s", "core.cache_store_s": "s",
    "core.cache_hit_ratio": "ratio", "core.models_compiled": "count",
    "core.session_self_s": "s",
    "unattributed_s": "s", "trace_overhead_ratio": "ratio",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(trace: LayerTrace, totals, timed_s: float,
              untraced_timed_s: float) -> Dict[str, float]:
    """Every per-layer metric of a traced run.  A layer that does not
    run on the workload reports 0."""
    own = trace.self_s
    eng = totals.engine
    hits = totals.bdd["cache_hits"]
    lookups = hits + totals.bdd["cache_misses"]
    frames = eng.get("frames_reused", 0) + eng.get("frames_computed", 0)
    return {
        "cpu.build_s": own["cpu.build"],
        "lint.s": own["lint"],
        "retention.build_suite_s": own["retention.build_suite"],
        "fsm.compile_s": own["fsm.compile"],
        "fsm.step_s": own["fsm.step"],
        "fsm.steps": trace.calls["fsm.step"],
        "bdd.apply_calls": lookups,
        "bdd.cache_hit_ratio": _ratio(hits, lookups),
        "bdd.computed_entries": totals.computed_entries,
        "bdd.gc_runs": totals.bdd["gc_runs"],
        "bdd.gc_reclaimed": totals.bdd["gc_reclaimed"],
        "bdd.collect_s": own["bdd.collect"],
        "ste.check_self_s": own["ste.check"],
        "ste.full_reruns": trace.reentries["ste.check"],
        "ste.cex_s": own["ste.cex"],
        "sat.prepare_s": own["sat.prepare"],
        "sat.unroll_encode_s": own["sat.unroll_encode"],
        "sat.preprocess_s": own["sat.preprocess"],
        "sat.solve_s": own["sat.solve"],
        "sat.solve_calls": trace.calls["sat.solve"],
        "sat.conflicts": eng.get("conflicts", 0),
        "sat.propagations": eng.get("propagations", 0),
        "sat.decisions": eng.get("decisions", 0),
        "sat.refinements": trace.refinements,
        "sat.frames_reused_ratio": _ratio(eng.get("frames_reused", 0),
                                          frames),
        "sat.preprocess_kept_ratio": _ratio(
            eng.get("preprocess.clauses_out", 0),
            eng.get("preprocess.clauses_in", 0)),
        "sat.probe_yield": _ratio(eng.get("preprocess.failed_literals", 0),
                                  eng.get("preprocess.probes", 0)),
        "netlist.coi_s": own["netlist.coi"],
        "core.fingerprint_s": own["core.fingerprint"],
        "core.cache_lookup_s": own["core.cache_lookup"],
        "core.cache_store_s": own["core.cache_store"],
        "core.cache_hit_ratio": _ratio(
            totals.cache_hits, totals.cache_hits + totals.cache_misses),
        "core.models_compiled": totals.models_compiled,
        "core.session_self_s": own["core.session"],
        "unattributed_s": trace.region_s - trace.attributed_s(),
        "trace_overhead_ratio": timed_s / untraced_timed_s,
    }
