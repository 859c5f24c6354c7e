#!/usr/bin/env python3
"""Work-counter gate: fail when a campaign does more work than its baseline.

Usage:
    check_work.py BASELINE METRICS

BASELINE is a checked-in tests/golden/work_*.json; METRICS is the
metrics.json sidecar that `serep run SPEC --metrics-out=METRICS` wrote.
Every baseline counter must be present in METRICS. A work counter must not
exceed its baseline value. A counter of runs closed early (CLOSED_EARLY)
must not fall below it: closing fewer runs early is the regression.

A baseline holds only counters that depend on the spec alone, not on the
engine or the thread count: engine.steps, the batch.* and checkpoint.*
counters, cache.*.hits / cache.*.misses, the uncore.* counters and, for a
pruned spec, the prune.* counters. So one baseline serves every engine.
The counters in EXCLUDED stay out: cache.*.credits and engine.trace.* vary
by engine, and the checkpoint.rewind* counters by which pool thread ran
which fault run. A change that improves a counter updates the baseline, so
the gate then holds the gain.

Stdlib only; exit 0 on success, 1 when a counter moved the wrong way or is
missing, 2 on usage or on a baseline that holds an excluded counter.
"""

import fnmatch
import json
import sys

# Runs closed before the end of their simulation: a rise is the gain.
CLOSED_EARLY = {"batch.converged", "batch.answered_at_injection"}

# Counters no baseline may hold (fnmatch patterns).
EXCLUDED = (
    "cache.*.credits",
    "engine.trace.*",
    "checkpoint.rewinds",
    "checkpoint.rewind_pages",
)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        baseline = json.load(f)["counters"]
    with open(argv[2]) as f:
        measured = json.load(f)["counters"]

    excluded = [n for n in sorted(baseline)
                if any(fnmatch.fnmatchcase(n, p) for p in EXCLUDED)]
    if excluded:
        print(f"check_work: {argv[1]} holds excluded counters: "
              f"{', '.join(excluded)}", file=sys.stderr)
        return 2

    failures = []
    improved = []
    for name, want in sorted(baseline.items()):
        got = measured.get(name)
        if got is None:
            failures.append(f"{name}: missing (baseline {want})")
        elif name in CLOSED_EARLY:
            if got < want:
                failures.append(f"{name}: {got} < baseline {want}")
            elif got > want:
                improved.append(("raised", f"{name}: {got} > baseline {want}"))
        elif got > want:
            failures.append(f"{name}: {got} > baseline {want}")
        elif got < want:
            improved.append(("lowered", f"{name}: {got} < baseline {want}"))

    for how, line in improved:
        print(f"check_work: {how}, update the baseline: {line}")
    for line in failures:
        print(f"check_work: FAIL {line}", file=sys.stderr)
    if failures:
        return 1
    print(f"check_work: {len(baseline)} counters within {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
