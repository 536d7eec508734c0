#!/usr/bin/env python3
"""Generate warm-up checkpoints for the figure benches.

Runs each given bench binary, with no arguments, with BF_CKPT pointed
at --out and a tiny measurement window: every co-located app
configuration the bench touches simulates its warm-up once and saves a
checkpoint named
"<profile>-<config hash>.ckpt" right after it. A later full-length run
of the same bench with BF_RESTORE pointed at the same directory then
skips warm-up entirely and — by the resume-determinism guarantee
(tests/test_snapshot.cc) — exports the byte-identical stats it would
have produced cold.

The checkpoint name hashes everything that shapes the warmed state
(bench/common.hh RunConfig::checkpointTag): every field of
core::forEachParam — the same list the checkpoint manifest checks on
restore — plus the warm-up length, sampling period, containers per core
and seed. So the generating and the consuming run must agree on
BF_FAST / BF_CORES / BF_SAMPLE_MS / BF_SYNC_CHUNK / BF_BACKEND — run
both under the same environment and that holds. The measurement length
and BF_WORKERS are deliberately NOT part of the name: one warm-up
serves every measurement length and host parallelism. Checkpoints from
a build with an older archive format are rejected with a warning and
the run cold-starts.

Checkpoints are several MB each and fully reproducible from the config,
which is why CI regenerates them per run instead of committing them.

Exit codes match check_golden_stats.py: 0 success, 2 usage error,
3 a bench crashed or produced no checkpoint.

bench_paper with no arguments runs every cell of Figs. 10a/10b/11,
Table II and §VII-C, so it warms all 20 co-located app cells (5 apps x
4 configs) for any later bench_paper figure selection; the function
groups run to completion and have no warm-up to save.

Usage:
  make_warmup_ckpt.py --out ckpts/ build/bench/bench_paper ...
"""

import argparse
import os
import subprocess
import sys

EXIT_BENCH_FAILED = 3


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True,
                    help="directory to write the .ckpt files into")
    ap.add_argument("--measure-ms", default="0.5",
                    help="measurement window for the generating run; the "
                         "checkpoint is saved before it, so keep it tiny "
                         "(default 0.5)")
    ap.add_argument("bench", nargs="+", help="bench binaries to warm")
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    env = dict(os.environ)
    env["BF_CKPT"] = args.out
    env["BF_MEASURE_MS"] = args.measure_ms
    env["BF_JSON"] = "0"

    for bench in args.bench:
        print(f"warming {bench} -> {args.out}", flush=True)
        try:
            subprocess.run([bench], env=env, check=True,
                           stdout=subprocess.DEVNULL)
        except (subprocess.CalledProcessError, OSError) as err:
            print(f"BENCH FAILED: {bench}: {err}", file=sys.stderr)
            sys.exit(EXIT_BENCH_FAILED)

    ckpts = sorted(f for f in os.listdir(args.out) if f.endswith(".ckpt"))
    if not ckpts:
        print(f"BENCH FAILED: no .ckpt files produced in {args.out}",
              file=sys.stderr)
        sys.exit(EXIT_BENCH_FAILED)
    total = sum(os.path.getsize(os.path.join(args.out, f)) for f in ckpts)
    print(f"{len(ckpts)} warm-up checkpoints ({total / 1e6:.1f} MB) "
          f"in {args.out}")
    for name in ckpts:
        print(f"  {name}")


if __name__ == "__main__":
    main()
