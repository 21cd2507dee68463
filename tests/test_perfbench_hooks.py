"""The names perfbench/tracer.py patches still exist and are still reached.

The traced benchmark run replaces module globals of fairtrade with timing
wrappers by name.  A renamed global would only surface as a broken
``--trace 1``, so this test installs the tracer in a child process (the
patches must not leak into the other tests) and drives the CLI through it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, sys
import tracer
from fairtrade import cli

t = tracer.Tracer()
tracer.install(t)
assert cli.main(["sweep", "--learner", "dbs", "--horizon", "64", "--points", "5"]) == 0
assert cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print(json.dumps({name: m["value"] for name, m in t.metrics().items()}))
"""


def test_tracer_hooks_reach_the_harness(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"runs": [{"learner": "dbs", "env": "lb-mu", "horizons": [8, 16]}]}),
        encoding="utf-8",
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(config), str(tmp_path / "out.csv")],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    # the sweep scores its 5 points in one batch and builds no environment
    assert metrics["harness.profile_regret.calls"] == 1
    assert metrics["environments.deterministic.calls"] == 0
    # one for the sweep, one for the whole run: its horizons bisect together
    assert metrics["kernels.dbs_explore.calls"] == 2
    assert metrics["harness.cells"] == 2  # one per horizon of the run
