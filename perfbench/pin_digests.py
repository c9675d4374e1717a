#!/usr/bin/env python3
"""Regenerates pinned_digests.json: the offline reference digests of
every workload's generated inputs for seeds 0..N-1.

    python3 perfbench/pin_digests.py [--seeds 100]

run.py fails any op on an input whose reference no longer matches the
pinned value, so a change that alters a prediction cannot pass the
benchmark unnoticed.  Re-pin only for a change that is meant to alter
predictions, and say so.  For deep_queue each digest is also checked
against the sweep digest `vppb predict` prints for the same log.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=100)
    args = ap.parse_args()
    harness, vppb = run.build()
    work = os.path.join(run.WORK, "pin")
    pinned = {}
    for workload in run.WORKLOADS:
        for seed in range(args.seeds):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            out = subprocess.run(
                [harness, "refs", "--workload", workload, "--seed",
                 str(seed)], cwd=work, check=True, stdout=subprocess.PIPE,
                text=True).stdout
            refs = json.loads(out)
            if workload == "deep_queue":
                name = "deep_queue.vpp"
                cli = run.cli_sweep_digest(vppb, os.path.join(work, name),
                                           time.monotonic() + 600)
                if cli != refs[name]:
                    sys.exit("seed %d: vppb predict %s, harness %s"
                             % (seed, cli, refs[name]))
            pinned.setdefault(workload, {})[str(seed)] = refs
        print("%s: %d seeds" % (workload, args.seeds), flush=True)
    shutil.rmtree(work, ignore_errors=True)
    with open(run.PINNED, "w") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
