#!/usr/bin/env python3
"""Perf-trajectory diff of two BENCH_*.json reports.

Compares a baseline (committed) report against a freshly produced one
from the same bench and prints percent deltas for everything that moved:
headline metrics, host speed (sim-MIPS and the per-phase
bound/fault/fault_service/merge/weave breakdown; reports without
fault_service still compare), and the per-container tenant rows
(schema v3 "tenants" — walks, miss-latency p99, CoW privatizations,
shootdowns, DRAM interference extras).

The exit code makes it the CI sim-MIPS gate, the one place a speed
report is judged (bench_simspeed only measures). The host row "total"
regresses when its sim-MIPS falls below (100 - --threshold)% of the
baseline (85% by default); every other host row, one per workload,
regresses below ROW_FLOOR (80%) of its own baseline row, so one
workload cannot hide behind the others' gains. A baseline host row the
new report lacks regresses too (a lost workload is not a pass); a row
only in the new report is listed, not judged. Everything else — metric
drift, tenant drift, phase-time shifts — is reported but informational,
because direction-of-goodness is metric-specific and tenant counters
move whenever the model legitimately evolves. Runner hardware differs
from the machine that recorded a baseline, so the floors catch large
regressions, not small ones.

Usage:
  bench_diff.py BASELINE.json NEW.json [--threshold PCT] [--all]

  --threshold PCT  sim-MIPS drop (in percent) of the "total" row that
                   counts as a regression (default 15)
  --all            print every compared value, not just the ones whose
                   delta exceeds 0.5%

Exit codes:
  0  no regression (deltas printed are informational)
  1  REGRESSION: "total" or a workload row fell below its floor, or a
     baseline host row is missing from the new report
  2  usage error (argparse)
  3  a report could not be read or parsed, or a host row's sim_mips
     is missing, not a number or not positive (the row is named)
"""

import argparse
import json
import math
import signal
import sys

# Die quietly when the consumer (head, a closed tee) goes away.
if hasattr(signal, "SIGPIPE"):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

EXIT_REGRESSION = 1
EXIT_BAD_REPORT = 3

# A workload host row regresses below this fraction of its baseline.
ROW_FLOOR = 0.80

# Deltas smaller than this are suppressed without --all.
PRINT_THRESHOLD_PCT = 0.5

# Tenant-row fields worth tracking PR-over-PR (the rest of the row is
# derivable or identity: name/pid/ccid/slot and the evicted_by maps).
TENANT_FIELDS = (
    "instructions", "walks", "l1_misses", "cow_privatizations",
    "shootdowns_caused", "shootdowns_received",
    "dram_data_extra", "dram_walk_extra",
)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        print(f"cannot read {path}: {err}", file=sys.stderr)
        sys.exit(EXIT_BAD_REPORT)
    if not isinstance(doc, dict):
        print(f"cannot read {path}: not a JSON object", file=sys.stderr)
        sys.exit(EXIT_BAD_REPORT)
    return doc


def host_mips(doc, path):
    """The sim_mips of every host row of a report, by label.

    Exits 3 naming the row when a value is missing, not a number or not
    positive: a row that read as 0 would silently drop out of the gate.
    """
    host = doc.get("host", {})
    if not isinstance(host, dict):
        print(f"{path}: \"host\" is not an object", file=sys.stderr)
        sys.exit(EXIT_BAD_REPORT)
    mips = {}
    for label, row in host.items():
        value = row.get("sim_mips") if isinstance(row, dict) else None
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value) or value <= 0):
            print(f"{path}: host row {label!r} sim_mips is {value!r}, "
                  f"not a positive number", file=sys.stderr)
            sys.exit(EXIT_BAD_REPORT)
        mips[label] = value
    return mips


def delta_pct(old, new):
    """Percent change new vs old, or None when old is zero."""
    if old == 0:
        return None
    return (new - old) / old * 100.0


class Printer:
    """Suppresses sub-threshold rows unless --all; counts what it hid."""

    def __init__(self, show_all):
        self.show_all = show_all
        self.hidden = 0

    def row(self, label, old, new):
        d = delta_pct(old, new)
        if d is None:
            moved = new != old
            txt = "new nonzero" if moved else "0"
        else:
            moved = abs(d) >= PRINT_THRESHOLD_PCT
            txt = f"{d:+.2f}%"
        if not moved and not self.show_all:
            self.hidden += 1
            return
        print(f"  {label:<48} {old:>14g} -> {new:>14g}  {txt}")

    def flush_hidden(self):
        if self.hidden:
            print(f"  ({self.hidden} value(s) within "
                  f"{PRINT_THRESHOLD_PCT}% hidden; --all shows them)")
            self.hidden = 0


def diff_metrics(old, new, pr):
    old_m = old.get("metrics", {})
    new_m = new.get("metrics", {})
    if not old_m and not new_m:
        return
    print("metrics:")
    for key in sorted(set(old_m) | set(new_m)):
        if key not in old_m:
            print(f"  {key:<48} (new metric) -> {new_m[key]:g}")
        elif key not in new_m:
            print(f"  {key:<48} {old_m[key]:g} -> (removed)")
        else:
            pr.row(key, old_m[key], new_m[key])
    pr.flush_hidden()


def diff_host(old, new, old_mips, new_mips, pr, threshold):
    """Returns (label, delta %, floor) of every row below its floor;
    delta % is None for a baseline row the new report lacks."""
    regressed = []
    if not old_mips and not new_mips:
        return regressed
    print("host:")
    for label in sorted(set(old_mips) | set(new_mips)):
        if label not in new_mips:
            print(f"  {label:<48} only in baseline")
            regressed.append((label, None, None))
            continue
        if label not in old_mips:
            print(f"  {label:<48} only in new report")
            continue
        o, n = old_mips[label], new_mips[label]
        pr.row(f"{label}.sim_mips", o, n)
        floor = 1 - threshold / 100 if label == "total" else ROW_FLOOR
        if n < floor * o:
            regressed.append((label, delta_pct(o, n), floor))
        old_ph = old["host"][label].get("phases", {})
        new_ph = new["host"][label].get("phases", {})
        for phase in ("bound", "fault", "fault_service", "merge", "weave"):
            op, np = old_ph.get(phase), new_ph.get(phase)
            if op is not None and np is not None:
                pr.row(f"{label}.phases.{phase}", op, np)
    pr.flush_hidden()
    return regressed


def diff_tenants(old, new, pr):
    old_runs = old.get("runs", {})
    new_runs = new.get("runs", {})
    header_printed = False
    for label in sorted(set(old_runs) & set(new_runs)):
        old_t = {row["slot"]: row
                 for row in old_runs[label].get("tenants", [])}
        new_t = {row["slot"]: row
                 for row in new_runs[label].get("tenants", [])}
        if not old_t and not new_t:
            continue
        if not header_printed:
            print("tenants (per run, per container):")
            header_printed = True
        for slot in sorted(set(old_t) | set(new_t)):
            if slot not in old_t or slot not in new_t:
                side = "baseline" if slot not in new_t else "new report"
                print(f"  {label}.t{slot:<44} only in {side}")
                continue
            o, n = old_t[slot], new_t[slot]
            name = n.get("name", f"t{slot}")
            for field in TENANT_FIELDS:
                if field in o and field in n:
                    pr.row(f"{label}.{name}[{slot}].{field}",
                           o[field], n[field])
            op99 = o.get("miss_latency", {}).get("p99")
            np99 = n.get("miss_latency", {}).get("p99")
            if op99 is not None and np99 is not None:
                pr.row(f"{label}.{name}[{slot}].miss_p99", op99, np99)
    if header_printed:
        pr.flush_hidden()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="committed BENCH_*.json baseline")
    ap.add_argument("new", help="freshly produced BENCH_*.json")
    ap.add_argument("--threshold", type=float, default=15.0,
                    help="sim-MIPS drop (percent) of the \"total\" row "
                         "that counts as a regression (default "
                         "%(default)s; workload rows: "
                         f"{ROW_FLOOR * 100:g}%% floor)")
    ap.add_argument("--all", action="store_true",
                    help="print every compared value, not just deltas "
                         f"beyond {PRINT_THRESHOLD_PCT}%%")
    args = ap.parse_args()

    old = load(args.baseline)
    new = load(args.new)
    old_mips = host_mips(old, args.baseline)
    new_mips = host_mips(new, args.new)
    if old.get("bench") != new.get("bench"):
        print(f"note: comparing different benches "
              f"({old.get('bench')!r} vs {new.get('bench')!r})")
    print(f"bench_diff: {args.baseline} -> {args.new} "
          f"(bench {new.get('bench')!r})")

    pr = Printer(args.all)
    diff_metrics(old, new, pr)
    regressed = diff_host(old, new, old_mips, new_mips, pr, args.threshold)
    diff_tenants(old, new, pr)

    if regressed:
        print("REGRESSION: sim-MIPS fell below its floor on:")
        for label, d, floor in regressed:
            if d is None:
                print(f"  {label}: missing from the new report")
            else:
                print(f"  {label}: {d:+.2f}% "
                      f"(floor {floor:.0%} of baseline)")
        sys.exit(EXIT_REGRESSION)
    print("no sim-MIPS regression: every compared host row is within "
          "its floor")


if __name__ == "__main__":
    main()
