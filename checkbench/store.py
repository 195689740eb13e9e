"""Run records kept in the checkout, for checks that span runs.

Every run appends one JSON line to ``.checkbench-state/runs.jsonl`` at
the root of the checkout.  Two checks read the earlier lines of the
same *program* (a hash of the Python sources under ``src/`` and
``checkbench/``):

* the **exact-count repeat check**: each unit of work (the cold pass,
  the clean re-check, each edited re-check) must report the same exact
  counts as every earlier run of that workload;
* the **tracing overhead**: a traced run divides its timed part by the
  median timed part of the earlier untraced runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from pathlib import Path
from typing import Dict, List, Optional


def program_hash(root: Path) -> str:
    """sha256 over the relative paths and bytes of the program's and
    the benchmark's Python sources."""
    digest = hashlib.sha256()
    for top in ("src", "checkbench"):
        for path in sorted((root / top).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class RunStore:
    """The records of one program's runs of one workload."""

    def __init__(self, root: Path, program: str, workload: str):
        self.dir = root / ".checkbench-state"
        self.dir.mkdir(exist_ok=True)
        self.path = self.dir / "runs.jsonl"
        self.program = program
        self.workload = workload

    def earlier(self) -> List[dict]:
        """Records of earlier runs of this program and workload."""
        if not self.path.exists():
            return []
        out = []
        with open(self.path) as fh:
            for line in fh:
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue             # a line cut short by a killed run
                if (rec.get("program") == self.program
                        and rec.get("workload") == self.workload):
                    out.append(rec)
        return out

    def count_mismatches(self, units: Dict[str, Dict[str, int]]
                         ) -> List[str]:
        """Units whose exact counts differ from an earlier run's."""
        problems = []
        for rec in self.earlier():
            for label, counts in units.items():
                seen = rec.get("units", {}).get(label)
                if seen is not None and seen != counts:
                    problems.append(
                        f"{label}: {counts} != {seen} in the run of seed "
                        f"{rec.get('seed')} (trace {rec.get('trace')})")
        return problems

    def untraced_timed_s(self, seconds: int) -> Optional[float]:
        """Median timed part of the earlier untraced runs of the same
        length, or None when there is none."""
        times = [rec["timed_s"] for rec in self.earlier()
                 if not rec.get("trace") and rec.get("seconds") == seconds
                 and rec.get("correct")]
        return statistics.median(times) if times else None

    def append(self, record: dict) -> None:
        record = dict(record, program=self.program, workload=self.workload)
        with open(self.path, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
