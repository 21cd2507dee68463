"""The benchmark's own checks: its correctness gate fails on a wrong value,
its tracer's self time handles overlapping children, and its generated
inputs reach the program exactly.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import copy
import json
from pathlib import Path

import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)

    def make(workload, name):
        run_dir = tmp_path / name
        run_dir.mkdir()
        return run.Bench(workload, 1, run_dir)

    return make


def _perturbed(value):
    return value * (1 + 1e-6) + 1e-6


def test_mc_pass_matches_reference_and_perturbed_reference_fails(bench):
    good = bench("mc-two-bit", "good")
    assert good.reference["mc"] is not None
    assert good.start("pass") is not None
    assert good.attempted == 48 and good.failures == []

    bad = bench("mc-two-bit", "bad")
    bad.reference = copy.deepcopy(bad.reference)
    key = "conv-pricing|lb-mu|10000"
    bad.reference["mc"][key][0] = _perturbed(bad.reference["mc"][key][0])
    bad.start("pass")
    assert len(bad.failures) == 1 and key.split("|")[0] in bad.failures[0]


def test_verify_pass_with_perturbed_reference_fails(bench):
    b = bench("verify-exact", "verify")
    b.spec["suites"] = ["gft-trap", "epsilon-family"]
    b.start("pass")
    assert b.attempted == 3 and b.failures == []
    b.reference = copy.deepcopy(b.reference)
    row = b.reference["verify"]["epsilon-family"]["epsilon-family-argmax"]
    row[1] = _perturbed(row[1])
    b.start("pass")
    assert b.attempted == 6 and len(b.failures) == 1


def test_self_time_subtracts_union_of_overlapping_children():
    t = tracer.Tracer()
    # parent 1 spans [0, 10] with 2 s of leaves; children overlap on [2, 6]
    t.spans = [
        (1, "harness.cell", None, 1, 0, 0.0, 10.0, 2.0),
        (2, "kernels.k", 1, 1, 1, 2.0, 5.0, 0.0),
        (3, "kernels.k", 1, 1, 2, 4.0, 6.0, 0.0),
        (4, "kernels.k", 1, 1, 1, 9.0, 12.0, 0.0),
    ]
    assert t.self_times() == {1: 10.0 - 4.0 - 1.0 - 2.0, 2: 3.0, 3: 2.0, 4: 3.0}


def test_generated_envs_round_trip_exactly_through_the_config():
    from fairtrade.environments import env_from_config

    config = workloads.mc_config("mc-full-feedback", 7)
    entry = json.loads(json.dumps(config))["runs"][-1]["env"]
    env = env_from_config(entry)
    assert env.joint.sellers.tolist() == [s for s, _, _ in config["runs"][-1]["env"]["joint"]]
    assert env.joint.weights.tolist() == [w for _, _, w in config["runs"][-1]["env"]["joint"]]
    assert workloads.mc_config("mc-full-feedback", 7) == config
    assert workloads.mc_config("mc-full-feedback", 8) != config
