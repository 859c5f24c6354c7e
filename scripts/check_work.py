#!/usr/bin/env python3
"""Work-counter gate: fail when a campaign does more work than its baseline.

Usage:
    check_work.py BASELINE METRICS

BASELINE is a checked-in tests/golden/work_*.json; METRICS is the
metrics.json sidecar that `serep run SPEC --metrics-out=METRICS` wrote.
Every baseline counter must be present in METRICS and must not exceed its
baseline value.

A baseline holds only counters that depend on the spec alone, not on the
engine or the thread count: engine.steps, the batch.* and checkpoint.*
counters, cache.*.hits / cache.*.misses, the uncore.* counters and, for a
pruned spec, the prune.* counters. So one baseline serves every engine.
cache.*.credits and engine.trace.* vary by engine and stay out. A change
that lowers a counter updates the baseline, so the gate then holds the
gain.

Stdlib only; exit 0 on success, 1 when a counter rose or is missing, 2 on
usage.
"""

import json
import sys


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        baseline = json.load(f)["counters"]
    with open(argv[2]) as f:
        measured = json.load(f)["counters"]

    failures = []
    lowered = []
    for name, want in sorted(baseline.items()):
        got = measured.get(name)
        if got is None:
            failures.append(f"{name}: missing (baseline {want})")
        elif got > want:
            failures.append(f"{name}: {got} > baseline {want}")
        elif got < want:
            lowered.append(f"{name}: {got} < baseline {want}")

    for line in lowered:
        print(f"check_work: lowered, update the baseline: {line}")
    for line in failures:
        print(f"check_work: FAIL {line}", file=sys.stderr)
    if failures:
        return 1
    print(f"check_work: {len(baseline)} counters within {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
