"""End-to-end benchmark of the fairtrade CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload mc-two-bit --seed 1 --seconds 20 --trace 0

Workloads (perfbench/README.md says why each was chosen):

* ``mc-two-bit``        ``fairtrade run``, two-bit learners, T = 10^3..10^6
* ``mc-full-feedback``  ``fairtrade run``, fbep and uniform, T = 10^3..10^5
* ``verify-exact``      ``fairtrade verify`` on the eight exact suites
* ``mc-threaded``       the mc-two-bit cells with ``--threads 2``

Each pass is a fresh ``python3 perfbench/worker.py`` process with ``src``
on PYTHONPATH, so the program runs from source in the checkout.  With
``--trace 0`` the benchmark starts set-up-only processes, then runs passes
until ``--seconds`` have gone by (at least two passes), and reports medians:

* ``wall_s``       wall seconds of a pass's operations, set-up excluded
* ``cpu_s``        user plus system CPU seconds of the same operations
* ``setup_s``      fresh interpreter to first operation: ``import
                   fairtrade``, config parse, environment construction
* ``peak_rss_mb``  ``ru_maxrss`` of the pass process

The three times are seconds at a reference host speed.  The CPU speed of
the shared VM this was built on drifts by up to 2x within seconds to
minutes, so every worker times a fixed calibration loop right after
set-up and, in single-threaded passes, every 0.25 s while the operations
run, and scales its times by CAL_REF_S over the loop time measured around
them (worker.HostSpeed).  The raw medians and every raw sample are in the
metadata line.

With ``--trace 1`` it runs one plain pass and one traced pass and reports
the per-module metrics of tracer.py, ``verify.<check>.s`` from the plain
pass's reports, and ``trace.overhead_s``: traced minus plain wall seconds.
The traced pass's spans are written to .perfbench_work/spans-<workload>.jsonl.

Every operation's output is checked (workloads.py).  An operation is one
CSV row of ``run`` or one check row of ``verify``; ``attempted`` counts
them over all passes and ``failed`` those that raised, failed or
mismatched.  Seeds with a recorded reference (reference.json) are matched
against it; other seeds get the invariant checks.  The last line of
standard output is the JSON result, the line before it the run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from worker import CAL_REF_S

HERE = Path(__file__).resolve().parent
WORK_DIR = Path(".perfbench_work")
SETUP_PROBES = 6
MIN_PASSES = 2
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def git_sha(root: Path):
    """HEAD commit of the checkout, or None when it is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_reference(workload: str, seed: int) -> dict:
    """Reference rows recorded at the program's parent commit.

    ``verify`` holds suite -> check -> [pass, measured]; ``mc`` holds
    "learner|env|T" -> [mean_regret, stderr] for this seed, or None.
    """
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    key = workloads.REFERENCE_KEY.get(workload, workload)
    return {"verify": ref["verify-exact"], "mc": ref.get(key, {}).get(str(seed))}


class Bench:
    """One benchmark run: its inputs, worker processes and output checks."""

    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload = workload
        self.kind, self.threads = workloads.WORKLOADS[workload]
        self.reference = load_reference(workload, seed)
        self.run_dir = run_dir
        self.spec = {"kind": self.kind, "threads": self.threads}
        self.config = None
        if self.kind == "mc":
            self.config = workloads.mc_config(workload, seed)
            self.spec["config"] = str(run_dir / "config.json")
            with open(self.spec["config"], "w", encoding="utf-8") as fh:
                json.dump(self.config, fh, indent=1)
        else:
            self.spec["suites"] = list(workloads.VERIFY_SUITES)
        self.env = dict(os.environ)
        src = str(Path("src").resolve())
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        self.workers = 0
        self.attempted = 0
        self.failures: list = []
        self.meta: dict = {}

    def start(self, mode: str):
        """Run one worker process to its end; its result dict, or None."""
        self.workers += 1
        prefix = self.run_dir / f"{mode}-{self.workers}"
        spec = dict(
            self.spec,
            mode=mode,
            result=f"{prefix}.result.json",
            csv=f"{prefix}.csv",
            reports=str(prefix),
            spans=str((WORK_DIR / f"spans-{self.workload}.jsonl").resolve()),
        )
        prefix.mkdir()
        spec_path = f"{prefix}.spec.json"
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), spec_path],
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        result = None
        if proc.returncode == 0:
            with open(spec["result"], encoding="utf-8") as fh:
                result = json.load(fh)
            result["setup_s"] = result["ready"] - t0
        else:
            print(f"worker {mode} exited {proc.returncode}: {proc.stderr[-2000:]}", file=sys.stderr)
        if mode != "setup":
            self._check(spec, result)
        return result

    def _check(self, spec: dict, result) -> None:
        codes = result["exit_codes"] if result else None
        if self.kind == "mc":
            n, failures = workloads.check_mc_rows(self.config, spec["csv"], self.reference["mc"])
            if codes != [0]:
                failures.append(f"fairtrade run exit codes {codes}")
        else:
            n, failures = 0, []
            for i, suite in enumerate(spec["suites"]):
                k, f = workloads.check_verify_rows(
                    suite,
                    f"{spec['reports']}/{suite}.json",
                    codes[i] if codes else None,
                    self.reference["verify"],
                )
                n, failures = n + k, failures + f
        self.attempted += n
        self.failures += failures
        if result is not None:
            self.meta.update(result["meta"])

    def verify_runtimes(self, plain_spec_reports) -> dict:
        """verify.<check>.s of every reference check (zero when not run)."""
        out = {}
        for suite, checks in self.reference["verify"].items():
            rows = {}
            if self.kind == "verify":
                with open(f"{plain_spec_reports}/{suite}.json", encoding="utf-8") as fh:
                    rows = {r["check"]: r["runtime_ms"] for r in json.load(fh)}
            for check in checks:
                out[f"verify.{check}.s"] = {"value": rows.get(check, 0.0) / 1e3, "unit": "s"}
        return out

    def measure(self, seconds: float) -> dict:
        """Set-up probes, then passes for ``seconds``; median end-to-end metrics."""
        start = time.monotonic()
        self.start("setup")  # writes the bytecode caches, which a user pays for once
        starts = [r for r in (self.start("setup") for _ in range(SETUP_PROBES)) if r]
        passes = []
        while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
            result = self.start("pass")
            if result is None:
                break
            passes.append(result)
        starts += passes
        if not passes or not starts:
            return {}
        samples = {
            "wall_s": [p["wall_ref_s"] for p in passes],
            "cpu_s": [p["cpu_ref_s"] for p in passes],
            "setup_s": [r["setup_s"] * CAL_REF_S / r["ready_cal_s"] for r in starts],
            "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        }
        raw = {
            "wall_s": [p["wall_s"] for p in passes],
            "cpu_s": [p["cpu_s"] for p in passes],
            "setup_s": [r["setup_s"] for r in starts],
            "cal_s": [c for r in starts for c in r.get("cal_s", [r["ready_cal_s"]])],
        }
        self.meta.update(
            passes=len(passes),
            raw={name: statistics.median(values) for name, values in raw.items()},
            raw_samples=raw,
        )
        return {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }

    def trace(self) -> dict:
        """One plain and one traced pass; the per-module metrics."""
        plain = self.start("pass")
        plain_reports = str(self.run_dir / f"pass-{self.workers}")
        traced = self.start("trace")
        if plain is None or traced is None:
            return {}
        metrics = dict(traced["per_layer"])
        metrics.update(self.verify_runtimes(plain_reports))
        metrics["trace.overhead_s"] = {"value": traced["wall_s"] - plain["wall_s"], "unit": "s"}
        self.meta.update(plain_wall_s=plain["wall_s"], traced_wall_s=traced["wall_s"])
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the fairtrade CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fairtrade" / "__init__.py").is_file():
        print("error: run from the repository root; src/fairtrade is missing", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)).resolve()
    try:
        bench = Bench(args.workload, args.seed, run_dir)
        metrics = bench.trace() if args.trace else bench.measure(args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if not metrics:
        bench.failures.append("a worker process failed")
    bench.meta.update(
        workload=args.workload,
        seed=args.seed,
        threads=bench.threads,
        nproc=os.cpu_count(),
        git_sha=git_sha(root),
        reference="recorded" if bench.reference["mc"] is not None or bench.kind == "verify"
        else "invariants only",
    )
    for message in bench.failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"meta": bench.meta}, sort_keys=True))
    correct = not bench.failures
    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": min(len(bench.failures), max(bench.attempted, 1)),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
