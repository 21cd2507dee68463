"""Record the reference outputs that run.py checks passes against.

Usage (from the repository root, at the commit whose outputs are the
reference):

    PYTHONPATH=src python3 perfbench/record_reference.py

For each recorded seed it runs the mc-two-bit and mc-full-feedback configs
through ``fairtrade.cli.main`` and stores every CSV row's mean_regret and
stderr; mc-threaded is checked against the mc-two-bit rows, because results
do not depend on the thread count.  The verify suites take no seed, so
their rows (pass flag and measured value) are stored once.  Writes
perfbench/reference.json.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

import workloads
from fairtrade import cli

from run import HERE, git_sha

DEFAULT_SEED = 1
HELD_OUT_SEED = 1000
SEEDS = sorted({*range(16), DEFAULT_SEED, HELD_OUT_SEED})


def _cli(argv) -> None:
    code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"fairtrade {' '.join(argv)} exited {code}")


def main() -> None:
    ref = {
        "program_commit": git_sha(Path.cwd()),
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }
    with tempfile.TemporaryDirectory() as tmp:
        for workload in ("mc-two-bit", "mc-full-feedback"):
            ref[workload] = {}
            for seed in SEEDS:
                out = f"{tmp}/out.csv"
                with open(f"{tmp}/config.json", "w", encoding="utf-8") as fh:
                    json.dump(workloads.mc_config(workload, seed), fh)
                _cli(["run", "--config", f"{tmp}/config.json", "--out", out, "--threads", "1"])
                with open(out, newline="", encoding="utf-8") as fh:
                    ref[workload][str(seed)] = {
                        f"{r['algorithm']}|{r['env']}|{r['T']}": [
                            float(r["mean_regret"]), float(r["stderr"])
                        ]
                        for r in csv.DictReader(fh)
                    }
                print(f"{workload} seed {seed}: {len(ref[workload][str(seed)])} rows", file=sys.stderr)
        ref["verify-exact"] = {}
        for suite in workloads.VERIFY_SUITES:
            _cli(["verify", "--suite", suite, "--out", f"{tmp}/report.json"])
            with open(f"{tmp}/report.json", encoding="utf-8") as fh:
                ref["verify-exact"][suite] = {r["check"]: [r["pass"], r["measured"]] for r in json.load(fh)}
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
