#!/usr/bin/env python3
"""Paired, interleaved A/B of the repo benchmark against a base revision.

    python3 tools/ab.py --base REV [--rounds N] [--seconds S]
                        [--workloads a,b,...] [--workdir DIR]
    python3 tools/ab.py --self-test

Run it from the repository root. The base revision's committed files are
exported (`git archive`) into WORKDIR/base; the head side is the current
checkout. Each side builds and runs its own perfbench/run.py, so both
measure their own code with their own benchmark program.

Every round runs each workload once on each side, alternating which side
goes first, at seed 42 and the same run length. For every end-to-end
metric of BENCHMARK.json it then prints, per workload: each side's
median and quartiles (by perfbench/steady.py's spread(), the quartiles
the benchmark's steadiness check reports), the paired median ratio (the
median over rounds of head / base) and the number of pairs the head won
(by the metric's "better" direction; ties count for neither). Every JSON
line read is appended to WORKDIR/runs.jsonl.

A gain claim, by the rule this repository uses, needs the head to win at
least nine tenths of the pairs and the medians to differ by more than
the base's interquartile range; the `claim` column says whether both
hold.

Exit codes: 0 done, 1 a build or run failed (or --self-test failed),
2 bad arguments.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from steady import spread  # noqa: E402

WORKLOADS = ("colo-serving", "colo-compute", "faas-burst", "replay-sweep")
SEED = "42"


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_args(argv):
    parser = Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--base")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--workdir")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return args
    if not args.base:
        raise UsageError("--base is required")
    if args.rounds < 1:
        raise UsageError("--rounds must be at least 1")
    if not 1 <= args.seconds <= 60:
        raise UsageError("--seconds must be from 1 to 60")
    args.workloads = args.workloads.split(",")
    for name in args.workloads:
        if name not in WORKLOADS:
            raise UsageError("unknown workload %r (choose from %s)"
                             % (name, ", ".join(WORKLOADS)))
    if git("rev-parse", "--verify", "--quiet",
           args.base + "^{commit}") is None:
        raise UsageError("not a revision: %r" % args.base)
    return args


def git(*argv):
    """stdout of a git command in the repository, or None on failure."""
    done = subprocess.run(["git", "-C", ROOT] + list(argv),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return done.stdout if done.returncode == 0 else None


def export(rev, dest):
    """Write the committed files of @p rev into @p dest (made fresh)."""
    if os.path.isdir(dest) and os.listdir(dest):
        raise UsageError("%s exists and is not empty" % dest)
    os.makedirs(dest, exist_ok=True)
    archive = git("archive", "--format=tar", rev)
    with tempfile.TemporaryFile() as tmp:
        tmp.write(archive)
        tmp.seek(0)
        with tarfile.open(fileobj=tmp) as tar:
            tar.extractall(dest)


def run_one(tree, workload, seconds, smoke=False):
    """One perfbench run in @p tree: its parsed last JSON line, or None."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", SEED,
           "--seconds", str(seconds), "--trace", "0"]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3) as perfbench/steady.py computes them; one value
    repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    med, q1, q3, _ = spread(values)
    return q1, med, q3


def compare(pairs, better):
    """Summary of one metric over [(base, head), ...] run pairs."""
    base = [b for b, _ in pairs]
    head = [h for _, h in pairs]
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    ratios = [h / b for b, h in pairs if b != 0]
    bq, hq = quartiles(base), quartiles(head)
    return {
        "base": bq, "head": hq,
        "ratio": statistics.median(ratios) if ratios else None,
        "wins": wins, "pairs": len(pairs),
        "claim": (10 * wins >= 9 * len(pairs) and
                  sign * (hq[1] - bq[1]) > bq[2] - bq[0]),
    }


def summarize(records, metrics):
    """records: [{"workload", "round", "side", "line"}] ->
    {(workload, metric): compare(...)} over the rounds both sides ran."""
    by_key = {}
    for rec in records:
        by_key[(rec["workload"], rec["round"], rec["side"])] = rec["line"]
    table = {}
    workloads = sorted({r["workload"] for r in records},
                       key=lambda w: (WORKLOADS + (w,)).index(w))
    rounds = sorted({r["round"] for r in records})
    for wl in workloads:
        for name, better in metrics:
            pairs = []
            for rnd in rounds:
                b = by_key.get((wl, rnd, "base"))
                h = by_key.get((wl, rnd, "head"))
                if b is None or h is None:
                    continue
                bv = b["metrics"].get(name, {}).get("value")
                hv = h["metrics"].get(name, {}).get("value")
                if bv is not None and hv is not None:
                    pairs.append((bv, hv))
            if pairs:
                table[(wl, name)] = compare(pairs, better)
    return table


def end_to_end(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def fmt(v):
    return "%.4g" % v


def print_table(table, out=sys.stdout):
    out.write("| workload | metric | base median [q1, q3] | head median "
              "[q1, q3] | paired ratio | won | claim |\n")
    out.write("|---|---|---:|---:|---:|---:|---|\n")
    for (wl, name), c in table.items():
        ratio = "—" if c["ratio"] is None else "%.3f" % c["ratio"]
        out.write("| %s | `%s` | %s [%s, %s] | %s [%s, %s] | %s | %d/%d "
                  "| %s |\n" % (wl, name, fmt(c["base"][1]),
                                fmt(c["base"][0]), fmt(c["base"][2]),
                                fmt(c["head"][1]), fmt(c["head"][0]),
                                fmt(c["head"][2]), ratio, c["wins"],
                                c["pairs"], "yes" if c["claim"] else "no"))


def self_test():
    """Checks the pairing and the median maths on canned lines."""
    def line(mips, rss):
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"sim_mips_w1": {"value": mips, "unit": "MIPS"},
                            "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    canned = [  # (round, side, mips, rss); round 3 has no head run.
        (0, "base", 100, 20), (0, "head", 110, 18),
        (1, "head", 125, 18), (1, "base", 100, 20),
        (2, "base", 120, 21), (2, "head", 114, 21),
        (3, "base", 90, 19),
    ]
    records = [{"workload": "colo-serving", "round": r, "side": s,
                "line": json.loads(json.dumps(line(m, rss)))}
               for r, s, m, rss in canned]
    table = summarize(records, [("sim_mips_w1", "higher"),
                                ("peak_rss_mb", "lower")])
    mips = table[("colo-serving", "sim_mips_w1")]
    rss = table[("colo-serving", "peak_rss_mb")]
    checks = [
        ("pairs skip the unpaired round", mips["pairs"] == 3),
        ("base median", mips["base"][1] == 100),
        ("head median", mips["head"][1] == 114),
        ("base quartiles", mips["base"][0] == 100 and
         mips["base"][2] == 120),
        ("paired median ratio", abs(mips["ratio"] - 1.1) < 1e-12),
        ("higher-is-better wins", mips["wins"] == 2),
        ("2 of 3 wins is no claim", not mips["claim"]),
        ("lower-is-better wins, tie not counted", rss["wins"] == 2),
        ("quartiles as steady.py", quartiles([1, 2, 3, 4, 5]) ==
         (1.5, 3, 4.5)),
        ("claim when all won beyond the IQR",
         compare([(10, 12), (11, 13), (10, 12)], "higher")["claim"]),
        ("no claim inside the IQR",
         not compare([(10, 10.5), (12, 12.5), (14, 14.5)],
                     "higher")["claim"]),
    ]
    for bad in (["--rounds", "3"], ["--base", "HEAD", "--rounds", "0"],
                ["--base", "HEAD", "--workloads", "nosuch"]):
        checks.append(("exit 2 on " + " ".join(bad), main(bad) == 2))
    failed = [name for name, ok in checks if not ok]
    for name in failed:
        sys.stderr.write("ab.py self-test FAILED: %s\n" % name)
    if not failed:
        print("ab.py self-test: %d checks passed" % len(checks))
    return 1 if failed else 0


def main(argv):
    try:
        args = parse_args(argv)
        if args.self_test:
            return self_test()
        workdir = args.workdir or tempfile.mkdtemp(prefix="bf-ab-")
        trees = {"base": os.path.join(workdir, "base"), "head": ROOT}
        export(args.base, trees["base"])
    except UsageError as err:
        sys.stderr.write("ab.py: %s\n" % err)
        return 2

    print("ab.py: base %s in %s, head checkout in %s" % (
        args.base, trees["base"], trees["head"]))
    for side, tree in trees.items():  # build both before timing anything
        if run_one(tree, args.workloads[0], 1, smoke=True) is None:
            sys.stderr.write("ab.py: %s side failed to build or run\n"
                             % side)
            return 1

    records = []
    with open(os.path.join(workdir, "runs.jsonl"), "a") as log:
        for rnd in range(args.rounds):
            for wl in args.workloads:
                order = ("base", "head") if rnd % 2 == 0 else ("head",
                                                               "base")
                for side in order:
                    started = time.monotonic()
                    line = run_one(trees[side], wl, args.seconds)
                    if line is None:
                        sys.stderr.write("ab.py: %s %s round %d failed\n"
                                         % (side, wl, rnd))
                        return 1
                    rec = {"workload": wl, "round": rnd, "side": side,
                           "line": line}
                    records.append(rec)
                    log.write(json.dumps(rec) + "\n")
                    log.flush()
                    print("round %d %-12s %-4s %5.1f s  correct=%s "
                          "failed=%s" % (rnd, wl, side,
                                         time.monotonic() - started,
                                         line.get("correct"),
                                         line.get("failed")))
    print()
    print_table(summarize(records, end_to_end(trees["head"])))
    bad = [r for r in records
           if not r["line"].get("correct") or r["line"].get("failed")]
    if bad:
        print("\n%d run(s) not correct or with failed units" % len(bad))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
