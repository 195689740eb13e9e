"""Run one workload of the checking benchmark and print its metrics.

    python3 checkbench/run.py --workload ste-p2 --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  ``--seed`` orders the edit pool
(the same seed gives the same edits); ``--seconds`` sizes the edit
phase (one edit cycle per 2 s, at least 3); ``--trace 1`` makes the
separate traced run that reports the per-layer metrics instead of the
end-to-end ones.  The workload process runs with ``PYTHONHASHSEED=0``
and the interpreter's cyclic GC left on.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit status is 0 whenever that line is printed, 2
when the program to measure is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HASH_SEED = "0"


def _args(argv):
    parser = argparse.ArgumentParser(prog="checkbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_facts() -> dict:
    """What a run's figures depend on besides the code, so that runs
    from unlike hosts are never compared."""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "load1": os.getloadavg()[0],
    }


def _measure(spec, args, store, scratch: Path):
    """The run's measured work.  Returns (runs made, layer trace or
    None, untraced timed part for the overhead ratio or None)."""
    from layers import LayerTrace
    from workload import Run
    runs = []
    reference = store.untraced_timed_s(args.seconds) if args.trace else None
    if args.trace and reference is None:
        # No untraced run of this program here yet: make one first, in
        # this process, for the tracing-overhead ratio.
        runs.append(Run(spec, args.seed, args.seconds, str(scratch),
                        probing=False))
    run = Run(spec, args.seed, args.seconds, str(scratch),
              probing=not args.trace)
    runs.append(run)
    trace = LayerTrace() if args.trace else None
    for made in runs:
        made.plan_edits()
        if made is not run or trace is None:
            made.setup()
            made.timed()
            continue
        trace.install()
        try:
            made.setup(on_last=trace.start)
            made.timed()
            trace.stop()
        finally:
            trace.uninstall()
    if args.trace and reference is None:
        reference = runs[0].timed_s
    return runs, trace, reference


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Fix set and dict iteration orders, so exact counts repeat.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()),
                   *sys.argv[1:]], env)
    sys.path.insert(0, str(ROOT / "src"))
    from layers import UNITS, per_layer
    from store import RunStore, program_hash
    from workload import E2E_UNITS, WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; expected one "
              f"of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    host = host_facts()
    print(f"host: {json.dumps(host, sort_keys=True)}")
    store = RunStore(ROOT, program_hash(ROOT), spec.name)
    scratch = store.dir / "tmp"
    scratch.mkdir(exist_ok=True)
    runs, trace, reference = _measure(spec, args, store, scratch)
    run = runs[-1]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = []
    units = {}
    for made in runs:
        problems += made.ledger.problems + made.totals.mismatches
        for label, counts in made.totals.units.items():
            if units.setdefault(label, counts) != counts:
                problems.append(f"{label}: counts differ within the run")
    problems += store.count_mismatches(units)
    attempted = sum(made.ledger.attempted for made in runs)
    failed = sum(made.ledger.failed for made in runs)
    correct = not problems

    if trace is None:
        values, units_of = run.end_to_end(peak_rss_mb), E2E_UNITS
        wall = run.end_to_end(peak_rss_mb, scaled=False)
    else:
        values = per_layer(trace, run.totals, run.timed_s, reference)
        units_of = UNITS
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units_of.items()}

    store.append({"seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "correct": correct,
                  "attempted": attempted, "failed": failed,
                  "timed_s": run.timed_s, "units": units, "host": host,
                  "at": time.time(),
                  "phases": {name: {"walls": phase.walls,
                                    "samples": phase.samples}
                             for name, phase in (("setup", run.setups),
                                                 ("cold", run.cold),
                                                 ("edits", run.edits))}})
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{spec.name}: seed {args.seed}, {len(run.order)} edit cycles, "
          f"{attempted} checks, {failed} failed, timed part "
          f"{run.timed_s:.2f} s wall")
    for name, metric in metrics.items():
        extra = (f"   ({wall[name]:.6g} s wall)"
                 if trace is None and metric["unit"] == "s" else "")
        print(f"  {name:<26} {metric['value']:>14.6g} {metric['unit']}"
              f"{extra}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
