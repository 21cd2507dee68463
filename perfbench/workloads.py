"""Workload inputs generated from a seed, and the checks on their outputs.

The program under test only ever sees what this module writes: an
experiment config for ``fairtrade run`` (with inline environments whose
floats are written by ``repr`` and so round-trip exactly) or a list of
suites for ``fairtrade verify``.  The same seed always gives the same
inputs.  Generated environments have a fixed atom count, so the amount of
work in a pass does not depend on the seed; only the values do.  The
verify suites take no seed, so verify-exact's inputs are the same for
every seed.
"""

from __future__ import annotations

import csv
import json
import math
import random

import numpy as np

# Relative tolerance on reference values, with an absolute floor for values
# below 1: price paths are bit-identical by invariant, so only the summation
# grouping of the regret sums may differ between versions of the program.
REL_TOL = 1e-9

TWO_BIT_LEARNERS = ("conv-pricing", "dbs", "fixed:p=0.5", "gft-oracle")
TWO_BIT_HORIZONS = (10**3, 10**4, 10**5, 10**6)
TWO_BIT_EPISODES = 5

FULL_LEARNERS = ("fbep", "uniform")
FULL_HORIZONS = (10**3, 10**4, 10**5)
FULL_EPISODES = 1
# Atom counts of the two generated joints: 5 and 4 distinct atoms give
# 2 + 3n = 17 and 14 candidate prices for the full-feedback learner.
FULL_JOINT_ATOMS = (5, 4)

VERIFY_SUITES = (
    "convolution-lemma",
    "sandwich",
    "indistinguishability",
    "gft-trap",
    "dbs-bound",
    "dbs-log-growth",
    "epsilon-family",
    "oracle-equivalence",
)

# name -> (kind, threads); mc-threaded runs the mc-two-bit cells on two
# workers, so its outputs are checked against the mc-two-bit reference.
WORKLOADS = {
    "mc-two-bit": ("mc", 1),
    "mc-full-feedback": ("mc", 1),
    "verify-exact": ("verify", 1),
    "mc-threaded": ("mc", 2),
}
REFERENCE_KEY = {"mc-threaded": "mc-two-bit"}


def _weights(rng: random.Random, n: int) -> list:
    raw = [0.5 + rng.random() for _ in range(n)]
    total = sum(raw)
    return [w / total for w in raw]


def _distinct(rng: random.Random, n: int, lo: float, hi: float) -> list:
    values: list = []
    while len(values) < n:
        v = rng.uniform(lo, hi)
        if v not in values:
            values.append(v)
    return values


def independent_env(rng: random.Random, env_id: str) -> dict:
    """3 x 3 independent pair, seller support below buyer support."""
    sellers = _distinct(rng, 3, 0.05, 0.45)
    buyers = _distinct(rng, 3, 0.55, 0.95)
    return {
        "id": env_id,
        "independent": {
            "seller": [[v, w] for v, w in zip(sellers, _weights(rng, 3))],
            "buyer": [[v, w] for v, w in zip(buyers, _weights(rng, 3))],
        },
    }


def joint_env(rng: random.Random, n_atoms: int, env_id: str) -> dict:
    """Joint with n_atoms atoms whose coordinates and midpoints are distinct.

    Every atom has buyer above seller, so the optimal reward is positive.
    """
    while True:
        pairs = []
        for _ in range(n_atoms):
            s = rng.uniform(0.0, 0.6)
            pairs.append((s, rng.uniform(s + 0.1, 1.0)))
        coords = [c for p in pairs for c in p] + [(s + b) / 2.0 for s, b in pairs]
        if len(set(coords)) == len(coords) and not {0.0, 1.0} & set(coords):
            break
    return {
        "id": env_id,
        "joint": [[s, b, w] for (s, b), w in zip(pairs, _weights(rng, n_atoms))],
    }


def mc_config(workload: str, seed: int) -> dict:
    """Experiment config of an mc-* workload for one seed."""
    rng = random.Random(f"{REFERENCE_KEY.get(workload, workload)}:{seed}")
    if workload == "mc-full-feedback":
        envs = ["lb-mu", "lb-nu"] + [
            joint_env(rng, n, f"gen-joint-{i}") for i, n in enumerate(FULL_JOINT_ATOMS)
        ]
        learners, horizons, episodes = FULL_LEARNERS, FULL_HORIZONS, FULL_EPISODES
    else:
        envs = ["eps-family:eps=0.2", "lb-mu", independent_env(rng, "gen-ind")]
        learners, horizons, episodes = TWO_BIT_LEARNERS, TWO_BIT_HORIZONS, TWO_BIT_EPISODES
    runs = [
        {
            "learner": learner,
            "env": env,
            "horizons": list(horizons),
            "n_episodes": episodes,
            "base_seed": rng.getrandbits(32),
        }
        for learner in learners
        for env in envs
    ]
    return {"runs": runs}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * max(abs(want), 1.0)


def _env_arrays(env) -> tuple:
    """(sellers, buyers, weights) of an inline env entry, None for an id."""
    if isinstance(env, str):
        return None
    if "joint" in env:
        s, b, w = zip(*env["joint"])
        return np.array(s), np.array(b), np.array(w)
    seller, buyer = env["independent"]["seller"], env["independent"]["buyer"]
    s = [v for v, _ in seller for _ in buyer]
    b = [v for _ in seller for v, _ in buyer]
    w = [ws * wb for _, ws in seller for _, wb in buyer]
    return np.array(s), np.array(b), np.array(w)


def _mean_fgft(prices, s, b, w):
    prices = np.asarray(prices, dtype=np.float64)[:, None]
    return (np.minimum(np.maximum(prices - s, 0.0), np.maximum(b - prices, 0.0)) * w).sum(1)


def fixed_price_regret(env, price: float, T: int):
    """Closed-form regret of a fixed price, from the benchmark's own oracle.

    The expected fair gain is piecewise linear with breakpoints at 0, 1,
    the atom coordinates and their midpoints, so its maximum is attained
    on that set.
    """
    arrays = _env_arrays(env)
    if arrays is None:
        return None
    s, b, w = arrays
    cands = np.concatenate([[0.0, 1.0], s, b, (s + b) / 2.0])
    v_star = float(_mean_fgft(cands, s, b, w).max())
    return T * (v_star - float(_mean_fgft([price], s, b, w)[0]))


def check_mc_rows(config: dict, csv_path: str, reference) -> tuple:
    """(rows attempted, list of failure messages) for one ``run`` CSV.

    Each expected (learner, env, T) row must appear once with finite,
    non-negative regret and stderr.  With a reference, mean_regret and
    stderr must match it within REL_TOL; fixed-price rows on inline
    environments are also checked against a closed form for every seed.
    """
    expected = {}
    for entry in config["runs"]:
        env = entry["env"]
        env_id = env if isinstance(env, str) else env["id"]
        for T in entry["horizons"]:
            expected[(entry["learner"], env_id, str(T))] = (entry, T)
    failures = []
    try:
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return len(expected), [f"no CSV output: {exc}"] * len(expected)
    seen = {}
    for row in rows:
        key = (row.get("algorithm"), row.get("env"), row.get("T"))
        if key in seen or key not in expected:
            failures.append(f"unexpected or duplicate row {key}")
        seen[key] = row
    for key, (entry, T) in expected.items():
        row = seen.get(key)
        if row is None:
            failures.append(f"missing row {key}")
            continue
        try:
            mean, stderr = float(row["mean_regret"]), float(row["stderr"])
            episodes = int(row["n_episodes"])
        except (KeyError, TypeError, ValueError):
            failures.append(f"malformed row {key}: {row}")
            continue
        if not (math.isfinite(mean) and math.isfinite(stderr)):
            failures.append(f"non-finite values in row {key}")
        elif mean < -REL_TOL * T or stderr < 0.0 or episodes != entry["n_episodes"]:
            failures.append(f"impossible values in row {key}: {row}")
        elif reference is not None and "|".join(key) not in reference:
            failures.append(f"row {key} missing from the reference")
        elif reference is not None and not (
            close(mean, reference["|".join(key)][0]) and close(stderr, reference["|".join(key)][1])
        ):
            failures.append(f"row {key} = ({mean}, {stderr}), reference {reference['|'.join(key)]}")
        elif entry["learner"].startswith("fixed:p="):
            want = fixed_price_regret(entry["env"], float(entry["learner"][8:]), T)
            if want is not None and not close(mean, want):
                failures.append(f"row {key}: regret {mean}, closed form {want}")
    return len(expected), failures


def check_verify_rows(suite: str, report_path: str, exit_code: int, reference: dict) -> tuple:
    """(rows attempted, failures) for one ``verify --suite`` JSON report.

    Every reference row of the suite must be present, pass, and reproduce
    its reference ``measured`` value within REL_TOL.
    """
    want = reference[suite]
    try:
        with open(report_path, encoding="utf-8") as fh:
            rows = {r["check"]: r for r in json.load(fh)}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return len(want), [f"{suite}: no readable report ({exc}), exit code {exit_code}"] * len(want)
    failures = []
    if exit_code != 0:
        failures.append(f"{suite}: exit code {exit_code}")
    for check, (passed, measured) in want.items():
        row = rows.get(check)
        if row is None:
            failures.append(f"{suite}: missing row {check}")
        elif row.get("pass") is not True or not passed:
            failures.append(f"{check}: pass={row.get('pass')}, reference {passed}")
        elif not close(float(row["measured"]), measured):
            failures.append(f"{check}: measured {row['measured']}, reference {measured}")
    extra = set(rows) - set(want)
    failures.extend(f"{suite}: unexpected row {c}" for c in sorted(extra))
    return len(want), failures
