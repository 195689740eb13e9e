"""One renderer for every report surface — serial, parallel, cached.

Before this module each result shape carried its own ``summary()``
string and the CLI duplicated the cache line per path, so the serial
and parallel outputs drifted (different fields, different units).
Now there is exactly one line format per concept:

* :func:`render_result` — a per-property line.  Works on any
  engine-report shape (:class:`~repro.ste.STEResult`,
  :class:`~repro.sat.bmc.BMCResult`,
  :class:`~repro.parallel.RemoteResult`,
  :class:`~repro.core.cache.CachedResult`): engine-specific fields
  (``bdd_nodes``, ``cnf_vars``/``conflicts``) appear when the result
  carries them, a ``[cached]`` tag when it was cache-served.
* :func:`render_summary` — the one-line session roll-up
  (``SessionReport.summary()`` delegates here, so the serial and
  multiprocess paths cannot diverge again).  It and the timing table
  name the BDD kernel that ran (``bdd_kernel=native|python``), so a
  slow run on a host without a C compiler explains itself.
* :func:`render_cache_line` — the CLI's persistent-cache line.
* :func:`timing_table` — the per-property timing breakdown behind the
  CLI's ``--profile``.
* :func:`report_metrics` / :func:`render_metrics` — the unified
  metric namespace derived from a session report: the legacy
  per-component ``stats()`` totals bridged to dotted names
  (``bdd.apply.hits``, ``sat.conflicts``, ``cache.verdict.miss``)
  plus the live-incremented runtime metrics
  (``portfolio.race.aborts``, ``parallel.worker.idle_s``).  Totals
  equal the legacy dicts' by construction — pinned by the test suite.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..bdd import KERNEL
from .metrics import merge_metrics

__all__ = ["render_result", "render_summary", "render_cache_line",
           "render_lint_line", "timing_table", "report_metrics",
           "render_metrics"]


def render_result(result: Any) -> str:
    """The per-property summary line, for any engine-report shape."""
    engine = str(getattr(result, "engine", "?")).upper()
    status = "PASS" if result.passed else \
        f"FAIL({len(result.failures)} points)"
    if getattr(result, "vacuous", False):
        status += " [VACUOUS]"
    parts = [f"{engine} {status}", f"depth={result.depth}",
             f"points={getattr(result, 'checked_points', 0)}"]
    bdd_nodes = getattr(result, "bdd_nodes", None)
    if bdd_nodes is not None:
        parts.append(f"bdd_nodes={bdd_nodes}")
    cnf_stats = getattr(result, "cnf_stats", None)
    if cnf_stats is not None:
        parts.append(f"cnf_vars={cnf_stats.get('variables', 0)}")
        solver_stats = getattr(result, "solver_stats", None) or {}
        parts.append(f"conflicts={solver_stats.get('conflicts', 0)}")
    parts.append(f"time={result.elapsed_seconds:.3f}s")
    if getattr(result, "cached", False):
        parts.append("[cached]")
    return " ".join(parts)


def render_summary(report: Any) -> str:
    """The one-line suite roll-up (``SessionReport.summary()``)."""
    n = len(report.outcomes)
    failed = len(report.failures)
    status = "PASS" if failed == 0 else f"FAIL({failed}/{n})"
    hits = report.bdd_stats.get("cache_hits", 0)
    misses = report.bdd_stats.get("cache_misses", 0)
    total = hits + misses
    rate = (100.0 * hits / total) if total else 0.0
    line = (f"Session[{report.engine}] {status} properties={n} "
            f"models={report.models_compiled}"
            f"(+{report.model_reuses} reused) "
            f"bdd_nodes={report.bdd_stats.get('nodes', 0)} "
            f"cache_hit_rate={rate:.1f}% "
            f"time={report.elapsed_seconds:.3f}s "
            f"bdd_kernel={KERNEL}")
    if report.jobs > 1:
        line += f" jobs={report.jobs}"
    if report.cache_hits or report.cache_misses:
        checked = report.cache_hits + report.cache_misses
        line += (f" pcache={report.cache_hits}/{checked} skipped"
                 f"(+{report.cache_stored} stored)")
    if report.engine == "portfolio":
        wins = report.engine_wins
        line += " wins[" + " ".join(
            f"{e}={wins[e]}" for e in sorted(wins)) + "]"
    if report.engine_stats:
        line += (f" sat_conflicts={report.engine_stats.get('conflicts', 0)}"
                 f" sat_vars={report.engine_stats.get('variables', 0)}")
    return line


def render_cache_line(report: Any, cache_dir: str, rerun: str) -> str:
    """The persistent-cache roll-up the CLI prints — identical for the
    serial and multiprocess paths."""
    checked = report.cache_hits + report.cache_misses
    pct = (100.0 * report.cache_hits / checked) if checked else 0.0
    return (f"cache[{rerun}] {cache_dir}: "
            f"{report.cache_hits}/{checked} checks skipped ({pct:.0f}%), "
            f"{report.cache_stored} stored")


def render_lint_line(report: Any, level: str) -> str:
    """The CLI's static-lint roll-up (``python -m repro
    --lint-level``).  Duck-typed on the
    :class:`repro.lint.LintReport` surface so this module stays
    lint-agnostic."""
    errors = len(report.errors)
    warnings = len(report.warnings)
    body = "clean" if not (errors or warnings) else \
        f"{errors} error(s), {warnings} warning(s)"
    return (f"lint[{level}] {report.subject}: {body} "
            f"[{len(report.rules_run)} rules, "
            f"{report.elapsed_seconds:.3f}s]")


def timing_table(report: Any) -> str:
    """Per-property timing breakdown, slowest first: where the suite's
    wall clock went, which engine decided each property, what was
    cache-served.  The CLI prints this under ``--profile``."""
    rows: List[tuple] = []
    for outcome in report.outcomes:
        result = outcome.result
        rows.append((outcome.name, outcome.engine,
                     "cache" if outcome.cached else
                     ("reuse" if outcome.reused_model else "build"),
                     outcome.cone_nodes, result.depth,
                     getattr(result, "checked_points", 0),
                     result.elapsed_seconds))
    rows.sort(key=lambda r: (-r[6], r[0]))
    total = sum(r[6] for r in rows) or 1.0
    width = max([len(r[0]) for r in rows] + [8])
    lines = [f"{'property':<{width}} {'engine':<9} {'model':<5} "
             f"{'cone':>6} {'depth':>5} {'points':>6} "
             f"{'time':>9} {'share':>6}"]
    for name, engine, model, cone, depth, points, secs in rows:
        lines.append(f"{name:<{width}} {engine:<9} {model:<5} "
                     f"{cone:>6} {depth:>5} {points:>6} "
                     f"{secs:>8.3f}s {100.0 * secs / total:>5.1f}%")
    lines.append(f"{'total':<{width}} {'':<9} {'':<5} {'':>6} {'':>5} "
                 f"{'':>6} {total:>8.3f}s {'':>6} bdd_kernel={KERNEL}")
    return "\n".join(lines)


def report_metrics(report: Any) -> Dict[str, float]:
    """The unified metric namespace for a session report.

    Bridges the legacy per-component ``stats()`` totals the report
    already aggregates (BDD computed tables, SAT solver counters,
    persistent-cache traffic) into dotted names, then merges the
    runtime-incremented metrics the session/workers recorded
    (``report.obs_metrics``).  The bridged totals are *equal to* the
    legacy values — this is a renaming, not a re-count.
    """
    m: Dict[str, float] = {}
    for op, counts in report.cache_stats.items():
        m[f"bdd.{op}.hits"] = counts.get("hits", 0)
        m[f"bdd.{op}.misses"] = counts.get("misses", 0)
        m[f"bdd.{op}.entries"] = counts.get("entries", 0)
    m["bdd.apply.hits"] = report.bdd_stats.get("cache_hits", 0)
    m["bdd.apply.misses"] = report.bdd_stats.get("cache_misses", 0)
    m["bdd.nodes"] = report.bdd_stats.get("nodes", 0)
    m["bdd.vars"] = report.bdd_stats.get("vars", 0)
    for key, value in report.engine_stats.items():
        name = {"frames_computed": "sat.frames.computed",
                "frames_reused": "sat.frames.reused"}.get(
                    key, f"sat.{key}")
        m[name] = value
    m["cache.verdict.hit"] = report.cache_hits
    m["cache.verdict.miss"] = report.cache_misses
    m["cache.verdict.stored"] = report.cache_stored
    m["session.properties"] = len(report.outcomes)
    m["session.failures"] = len(report.failures)
    m["session.models_compiled"] = report.models_compiled
    m["session.model_reuses"] = report.model_reuses
    m["session.elapsed_s"] = round(report.elapsed_seconds, 6)
    m["session.check_s"] = round(report.check_seconds(), 6)
    m["parallel.jobs"] = report.jobs
    for engine, wins in report.engine_wins.items():
        m[f"session.wins.{engine}"] = wins
    merge_metrics(m, report.obs_metrics)
    return m


def render_metrics(metrics: Dict[str, float]) -> str:
    """An aligned, sorted dump of a flattened metric namespace."""
    if not metrics:
        return "(no metrics recorded)"
    width = max(len(name) for name in metrics)
    lines = []
    for name in sorted(metrics):
        value = metrics[name]
        if isinstance(value, float) and not value.is_integer():
            text = f"{value:.6f}".rstrip("0").rstrip(".")
        else:
            text = str(int(value))
        lines.append(f"{name:<{width}}  {text}")
    return "\n".join(lines)
