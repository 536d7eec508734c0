#!/usr/bin/env python3
"""Per-container tables of a finished bench report (DESIGN.md §17).

Prints one table per run of a schema-v3 BENCH_*.json report, headed by
the run label, from the run's "tenants" rows (e.g.
BENCH_fig11_performance.json from `bench_paper fig11_performance`, under
any BF_BACKEND, or the bench_fig9 report). The columns are a subset of the
live table `bf_top` shows: no sim-MIPS line and no missp99 or xevict
columns. The l1hit/l2hit/shr percentages and the dram_xs sum are
computed from the row's counters with the formulas of
attrib::Registry::renderTable.

Usage:
  bf_tenants.py REPORT

Exit codes:
  0  printed at least one table
  1  the report is unreadable or not JSON, a tenant row lacks a
     column's counter, or no run has tenant rows
  2  usage error (argparse)
"""

import argparse
import json
import signal
import sys

# Die quietly when the consumer (head, a closed pipe) goes away.
if hasattr(signal, "SIGPIPE"):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

HEADER = ("slot name             pid ccid  l1hit%  l2hit%   shr%       "
          "walks        cow   sd_c   sd_r    dram_xs")


def pct(num, den):
    return 100.0 * num / den if den else 0.0


def render_row(row):
    l1h, l1m = row["l1_hits"], row["l1_misses"]
    l2h = row["l2_data_hits"] + row["l2_instr_hits"]
    l2m = row["l2_data_misses"] + row["l2_instr_misses"]
    shr = row["l2_data_shared_hits"] + row["l2_instr_shared_hits"]
    return (f"{row['slot']:4d} {row['name'][:16]:<16} {row['pid']:4d} "
            f"{row['ccid']:4d} {pct(l1h, l1h + l1m):6.1f}% "
            f"{pct(l2h, l2h + l2m):6.1f}% {pct(shr, l2h):5.1f}% "
            f"{row['walks']:11d} {row['cow_privatizations']:10d} "
            f"{row['shootdowns_caused']:6d} "
            f"{row['shootdowns_received']:6d} "
            f"{row['dram_data_extra'] + row['dram_walk_extra']:10d}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("report", help="BENCH_*.json bench report")
    args = ap.parse_args()

    try:
        with open(args.report) as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"bf_tenants: cannot read {args.report}: {err}")
    runs = doc.get("runs") if isinstance(doc, dict) else None
    if not isinstance(runs, dict):
        runs = {}

    tables = 0
    for label, run in runs.items():
        rows = run.get("tenants") if isinstance(run, dict) else None
        if not rows:
            continue
        if tables:
            print()
        try:
            lines = [render_row(row) for row in rows]
        except (KeyError, TypeError, ValueError) as err:
            sys.exit(f"bf_tenants: {args.report}: run {label!r} has a "
                     f"malformed tenant row ({type(err).__name__}: {err})")
        print(f"{label}: tenants {len(rows)}")
        print(HEADER)
        print("\n".join(lines))
        tables += 1
    if not tables:
        sys.exit(f"bf_tenants: {args.report}: no run has tenant rows")


if __name__ == "__main__":
    main()
