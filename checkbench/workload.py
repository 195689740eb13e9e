"""The three checking workloads and the run protocol they share.

A run of any workload is, in order:

1. **Set-up**, repeated :data:`SETUP_REPS` times (``setup_s`` is the
   median): build the core, run the lint gate, build the 26-property
   suite on a fresh BDD manager.  The last set-up feeds step 2.
2. **Cold pass** (``suite_s``): one :class:`~repro.core.CheckSession`
   over the whole suite, backed by an *empty* verdict cache, exactly as
   ``python -m repro --cache-dir`` runs it.
3. **Edit cycles**: each cycle draws the next single-gate edit from the
   seeded permutation of :data:`edits.POOL`, then re-checks the edited
   design (``edit_recheck_s``: 2 properties re-decided, 24 served from
   the cache) and re-checks the unedited design (``clean_recheck_s``:
   all 26 served).  Every re-check rebuilds the core, the manager, the
   suite and the session, as a fresh CLI invocation would.

Every property check is one operation.  It fails when it raises, when
its verdict differs from the expected one, when a failure carries no
counterexample, or when the cache serves a property it should
re-decide (or re-decides one it should serve).
"""

from __future__ import annotations

import gc
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import repro.cpu
import repro.lint
import repro.retention
import repro.upf
from repro.bdd import BDDManager
from repro.core import CheckSession
from repro.lint.engine import CIRCUIT_RULE_IGNORE

from edits import POOL, TARGETS, Edit, cone_members
from hostspeed import Phase

#: The geometry the CLI defaults to (2 registers, 2-word memories).
GEOMETRY = dict(nregs=2, imem_depth=2, dmem_depth=2)
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Edit cycles per run: one per this many seconds of ``--seconds``.
CYCLE_SECONDS = 2
#: ... but never fewer than this (the re-check medians need samples).
MIN_CYCLES = 3


#: End-to-end metric -> unit, in report order.
E2E_UNITS = {
    "setup_s": "s", "suite_s": "s", "edit_recheck_s": "s",
    "clean_recheck_s": "s", "peak_rss_mb": "MB", "peak_bdd_nodes": "count",
}


@dataclass(frozen=True)
class Spec:
    """One workload: which core, which suite, which engine."""

    name: str
    design: str          # "fixed" | "buggy"
    sleep: bool          # True = Property II (sleep/resume)
    engine: str          # "ste" | "bmc"

    @property
    def expect_pass(self) -> bool:
        """The paper's verdicts: the fixed core proves every property,
        the buggy core fails every Property II check."""
        return self.design == "fixed"

    def make_core(self):
        build = (repro.cpu.fixed_core if self.design == "fixed"
                 else repro.cpu.buggy_core)
        return build(**GEOMETRY)


#: Why each was chosen is recorded beside it in ``BENCHMARK.json``.
WORKLOADS: Dict[str, Spec] = {spec.name: spec for spec in (
    Spec("ste-p2", "fixed", True, "ste"),
    Spec("bmc-p1", "fixed", False, "bmc"),
    Spec("bug-recheck", "buggy", True, "ste"),
)}


def lint_errors(core) -> list:
    """The CLI's fail-fast lint gate (``--lint-level error``): the
    circuit plus its canonical power intent; returns the errors."""
    report = repro.lint.run_lint(
        core.circuit, intent=repro.upf.intent_for_core(core.circuit),
        ignore=CIRCUIT_RULE_IGNORE)
    return report.errors


def cycles_for(seconds: int) -> int:
    """Edit cycles in a run of *seconds*: a fixed function of the
    budget, so every count a run reports repeats exactly."""
    return min(len(POOL), max(MIN_CYCLES, seconds // CYCLE_SECONDS))


# ----------------------------------------------------------------------
# Counters: exact per-unit counts, layer totals
# ----------------------------------------------------------------------
_BDD_COUNTERS = ("cache_hits", "cache_misses", "gc_runs", "gc_reclaimed")


@dataclass
class Totals:
    """Counter totals over a run's timed part, from ``stats()``
    snapshots taken before and after each session (never from
    wrappers, so tracing cannot move them)."""

    bdd: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(_BDD_COUNTERS, 0))
    computed_entries: int = 0
    peak_nodes: int = 0
    engine: Dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    models_compiled: int = 0
    #: unit label ("cold", "clean", "edit <key>") -> its exact counts;
    #: every unit of one label must count alike, in any run
    units: Dict[str, Dict[str, int]] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)

    def add(self, label: str, mgr: BDDManager, base: Dict[str, int],
            report) -> None:
        now = mgr.stats()
        for key in _BDD_COUNTERS:
            self.bdd[key] += now[key] - base.get(key, 0)
        self.computed_entries = max(self.computed_entries,
                                    now["apply_cache"] + now["ite_cache"])
        self.peak_nodes = max(self.peak_nodes, now["peak_nodes"])
        for key, value in report.engine_stats.items():
            self.engine[key] = self.engine.get(key, 0) + value
        self.cache_hits += report.cache_hits
        self.cache_misses += report.cache_misses
        self.models_compiled += report.models_compiled
        counts = {
            "peak_bdd_nodes": now["peak_nodes"],
            "apply_calls": (now["cache_hits"] + now["cache_misses"]
                            - base.get("cache_hits", 0)
                            - base.get("cache_misses", 0)),
            "sat_conflicts": report.engine_stats.get("conflicts", 0),
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
        }
        seen = self.units.setdefault(label, counts)
        if seen != counts:
            self.mismatches.append(f"{label}: {counts} != {seen} earlier "
                                   f"in this run")


# ----------------------------------------------------------------------
# Correctness of each property check
# ----------------------------------------------------------------------
@dataclass
class Ledger:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)


def judge(outcome, *, expect_pass: bool, expect_cached: bool) -> \
        Optional[str]:
    """None when one property check came out right, else why not."""
    where = outcome.name
    result = outcome.result
    if outcome.cached != expect_cached:
        return (f"{where}: {'served' if outcome.cached else 're-decided'}"
                f" but expected {'served' if expect_cached else 'checked'}")
    if bool(result.passed) != expect_pass:
        return (f"{where}: {'PASS' if result.passed else 'FAIL'} but "
                f"expected {'PASS' if expect_pass else 'FAIL'}")
    if result.passed:
        return None
    if outcome.cached:
        if not getattr(result, "cex_text", None):
            return f"{where}: cache-served failure has no stored trace"
        return None
    if not result.failures:
        return f"{where}: failure without counterexample points"
    if result.engine == "ste" and not all(result.trajectory):
        return f"{where}: failure kept a slim trajectory (no full re-run)"
    return None


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
class Run:
    """One run of one workload (see the module docstring).  With
    *probing* off (the traced run) no host-speed probe runs and times
    stay in wall seconds."""

    def __init__(self, spec: Spec, seed: int, seconds: int, scratch: str,
                 probing: bool = True):
        import random
        self.spec = spec
        self.order: List[Edit] = random.Random(seed).sample(
            list(POOL), len(POOL))[:cycles_for(seconds)]
        self.scratch = scratch
        self.probing = probing
        self.ledger = Ledger()
        self.totals = Totals()
        self.setups = self.cold = self.edits = None
        self._members: Dict[str, set] = {}
        self._built = None

    # -- set-up ----------------------------------------------------------
    def _build(self, edit: Optional[Edit] = None):
        core = self.spec.make_core()
        if edit is not None:
            edit.apply(core.circuit)
        errors = lint_errors(core)
        if errors:
            raise RuntimeError(f"lint gate: {errors[0].render()}")
        mgr = BDDManager()
        suite = repro.retention.build_suite(core, mgr,
                                            sleep=self.spec.sleep)
        return core, mgr, suite

    def plan_edits(self) -> None:
        """Find, untimed, which properties' cones hold each drawn edit's
        gate: exactly those must be re-decided after the edit."""
        core, _mgr, suite = self._build()
        members = cone_members(core.circuit, suite)
        for edit in self.order:
            holders = members.get(edit.gate, set())
            if not holders or not holders <= TARGETS:
                raise RuntimeError(f"edit {edit.key} leaves the "
                                   f"write-register cones")
            self._members[edit.key] = holders

    def setup(self, on_last=None) -> None:
        """Set up :data:`SETUP_REPS` times, keeping the last (core, mgr,
        suite) for the cold pass.  *on_last* runs just before the final
        set-up (the traced run starts recording there)."""
        with Phase(self.probing) as self.setups:
            for i in range(SETUP_REPS):
                self._built = None
                if on_last is not None and i == SETUP_REPS - 1:
                    on_last()
                self._built = self._build()
                self.setups.lap()

    # -- checking ----------------------------------------------------------
    def _session(self, label, core, mgr, suite, cache_dir, *, dirty,
                 cached_by_default, lap=None):
        """Check the suite in one session; *lap* is called after each
        property."""
        base = mgr.stats()
        session = CheckSession(core.circuit, mgr, engine=self.spec.engine,
                               cache=cache_dir)
        try:
            for prop in suite:
                try:
                    session.check(prop.antecedent, prop.consequent,
                                  name=prop.name)
                except Exception as exc:           # one failed operation
                    self.ledger.record(f"{prop.name}: raised {exc!r}")
                else:
                    live = prop.name in dirty
                    self.ledger.record(judge(
                        session.outcomes[-1],
                        expect_pass=self.spec.expect_pass and not live,
                        expect_cached=cached_by_default and not live))
                if lap is not None:
                    lap()
            report = session.report()
        finally:
            session.close()
        self.totals.add(label, mgr, base, report)

    def _recheck(self, cache_dir: str, edit: Optional[Edit]) -> None:
        core, mgr, suite = self._build(edit)
        dirty = self._members[edit.key] if edit is not None else set()
        self._session(f"edit {edit.key}" if edit else "clean", core, mgr,
                      suite, cache_dir, dirty=dirty, cached_by_default=True)
        self.edits.lap()

    def timed(self) -> None:
        """The timed part: the cold pass, then the edit cycles."""
        core, mgr, suite = self._built
        self._built = None
        cache_dir = tempfile.mkdtemp(prefix="verdicts-", dir=self.scratch)
        try:
            with Phase(self.probing) as self.cold:
                self._session("cold", core, mgr, suite, cache_dir,
                              dirty=set(), cached_by_default=False,
                              lap=self.cold.lap)
                self.cold.lap()              # session report and close
            # Each re-check stands for a fresh CLI process: let the cold
            # pass's manager go before the first one starts.
            del core, mgr, suite
            gc.collect()
            with Phase(self.probing) as self.edits:
                for edit in self.order:
                    self._recheck(cache_dir, edit)
                    self._recheck(cache_dir, None)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    # -- results -----------------------------------------------------------
    @property
    def timed_s(self) -> float:
        """Wall seconds of the timed part, probes excluded."""
        return sum(self.cold.walls) + sum(self.edits.walls)

    def end_to_end(self, peak_rss_mb: float, scaled: bool = True
                   ) -> Dict[str, float]:
        """The end-to-end metrics, times in reference-host seconds (in
        wall seconds when *scaled* is false)."""
        def times(phase):
            return phase.scaled() if scaled else phase.walls
        edits = times(self.edits)
        return {
            "setup_s": statistics.median(times(self.setups)),
            "suite_s": sum(times(self.cold)),
            "edit_recheck_s": statistics.median(edits[0::2]),
            "clean_recheck_s": statistics.median(edits[1::2]),
            "peak_rss_mb": peak_rss_mb,
            "peak_bdd_nodes": self.totals.peak_nodes,
        }
