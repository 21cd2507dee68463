"""Command-line front end.

Subcommands:

* ``run``            execute an experiment config (JSON), write regret CSV
* ``sweep``          worst-case deterministic sweep over seller values
* ``verify``         run the empirical verification suites, write JSON
* ``list-envs``      registered environment id patterns
* ``list-learners``  registered learner id patterns

Exit codes: 0 success, 1 failed verify check, 2 config/parse error (also
unknown suite, and a run too large for memory), 3 unresolvable environment
or learner id.  An id takes only the keys that ``list-envs``/``list-learners``
show, each once.

Config format (run): ``{"output": "curves.csv", "runs": [{"learner":
"conv-pricing", "env": "lb-mu", "horizons": [1000, 10000], "n_episodes":
50, "base_seed": 1, "feedback": "two-bit"}, ...]}``; ``output`` is a
non-empty string, and a run gives ``horizon`` or ``horizons``, not both,
and no other field.  Every run is checked before any runs.  The env field
takes an id string or an inline object (environments.env_from_config).
Identical config and seeds produce byte-identical CSV.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

import numpy as np

from .algorithms import LEARNER_ID_PATTERNS, parse_learner
from .environments import ENVIRONMENT_ID_PATTERNS, FeedbackModel, UnknownIdError, env_from_config
from .harness import RunConfig, adversarial_deterministic_sweep, fit_exponent, run_monte_carlo
from .verify import resolve_suite_names, run_suites

_CSV_HEADER = ("algorithm", "env", "T", "n_episodes", "mean_regret", "stderr", "slope")


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _check_threads(args) -> None:
    if args.threads < 1:
        raise ValueError(f"thread count must be >= 1, got {args.threads}")


def _check_fields(obj, fields: tuple, what: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    for name in obj:
        if name not in fields:
            raise ValueError(f"unknown {what} field {name!r}; known fields: {', '.join(fields)}")


def cmd_run(args) -> int:
    _check_threads(args)
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    _check_fields(config, ("output", "runs"), "config")
    output = config.get("output")
    if "output" in config and not (isinstance(output, str) and output):
        raise ValueError(f"output must be a non-empty string, got {output!r}")
    out_path = args.out or output
    if not out_path:
        raise ValueError("no output path: pass --out or set 'output' in the config")
    runs = config.get("runs")
    if not isinstance(runs, list) or not runs:
        raise ValueError("config needs a non-empty 'runs' list")
    configs = []  # every run is checked before any of them runs
    for entry in runs:
        _check_fields(entry, ("learner", "env", "horizon", "horizons", "n_episodes", "base_seed", "feedback"), "run")
        for names in (("learner",), ("env",), ("horizon", "horizons")):
            if not any(name in entry for name in names):
                raise ValueError(f"a run needs a {' or '.join(map(repr, names))} field")
        if "horizon" in entry and "horizons" in entry:
            raise ValueError("a run gives both 'horizon' and 'horizons'; give one")
        spec = parse_learner(entry["learner"])
        env = env_from_config(entry["env"])
        feedback = FeedbackModel.parse(entry["feedback"]) if "feedback" in entry else None
        cfg = RunConfig(
            env=env,
            learner=spec,
            horizons=entry["horizons"] if "horizons" in entry else [entry["horizon"]],
            n_episodes=entry.get("n_episodes", 1),
            base_seed=entry.get("base_seed", args.seed if args.seed is not None else 0),
            feedback=feedback,
            strict_feedback=args.strict_feedback,
        )
        configs.append(cfg)
    rows = []
    for cfg in configs:
        curve = run_monte_carlo(cfg)
        slope = ""
        if len(curve.horizons) >= 3 and all(m > 0.0 for m in curve.means):
            slope = _fmt(fit_exponent(curve.horizons, curve.means).slope)
        for T, mean, stderr in zip(curve.horizons, curve.means, curve.stderrs):
            rows.append((curve.learner_id, curve.env_id, T, curve.n_episodes, _fmt(mean), _fmt(stderr), slope))
        print(
            f"{curve.learner_id} on {curve.env_id}: "
            + ", ".join(f"T={t} regret={_fmt(m)}" for t, m in zip(curve.horizons, curve.means))
        )
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {out_path}")
    return 0


def cmd_sweep(args) -> int:
    spec = parse_learner(args.learner)
    for flag, value in (("--s-min", args.s_min), ("--s-max", args.s_max), ("--buyer", args.buyer)):
        if not 0.0 <= value <= 1.0:  # NaN and inf fail too
            raise ValueError(f"{flag} must be a finite value in [0, 1], got {value!r}")
    # a count below 1 gives the empty grid, which the sweep rejects by name
    s_values = np.linspace(args.s_min, args.s_max, max(args.points, 0))
    report = adversarial_deterministic_sweep(
        spec, args.horizon, s_values=s_values, buyer=args.buyer
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("s", "regret"))
            for s, r in zip(report.s_values, report.regrets):
                writer.writerow((_fmt(s), _fmt(r)))
    print(
        f"sweep {spec.learner_id} T={report.horizon} b={_fmt(report.buyer)}: "
        f"max regret {_fmt(report.max_regret)} at s={_fmt(report.argmax_s)}"
    )
    return 0


def cmd_verify(args) -> int:
    _check_threads(args)
    names = resolve_suite_names(args.suite)
    rows = run_suites(names)
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{status} {r.check}: measured={r.measured:.6g} "
            f"tolerance={r.tolerance:.6g} ({r.runtime_ms:.0f} ms)"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump([r.as_dict() for r in rows], fh, indent=2)
            fh.write("\n")
        print(f"wrote {len(rows)} checks to {args.out}")
    return 0 if all(r.passed for r in rows) else 1


def cmd_list_envs(args) -> int:
    for pattern in ENVIRONMENT_ID_PATTERNS:
        print(pattern)
    print('inline: {"joint": [[s, b, w], ...]} or {"independent": {"seller": [[v, w], ...], "buyer": [[v, w], ...]}}')
    return 0


def cmd_list_learners(args) -> int:
    for pattern in LEARNER_ID_PATTERNS:
        print(pattern)
    return 0


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairtrade",
        description="Posted-price bilateral trade simulations: regret curves, "
        "worst-case sweeps, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment config, write regret CSV")
    run_p.add_argument("--config", required=True, help="JSON experiment file")
    run_p.add_argument("--out", help="output CSV path (overrides the config's 'output')")
    run_p.add_argument(
        "--threads", type=int, default=1, help="ignored, must be >= 1 (episodes run sequentially)"
    )
    run_p.add_argument("--seed", type=int, default=None, help="default base_seed for runs lacking one")
    run_p.add_argument("--strict-feedback", action="store_true", help="forbid deriving two bits from full feedback")
    run_p.set_defaults(handler=cmd_run)

    sweep_p = sub.add_parser("sweep", help="worst-case deterministic sweep over seller values")
    sweep_p.add_argument("--learner", required=True, help="deterministic two-bit learner id")
    sweep_p.add_argument("--horizon", type=int, required=True)
    sweep_p.add_argument("--points", type=int, default=4097, help="grid points (default 4097)")
    sweep_p.add_argument("--s-min", type=float, default=0.0)
    sweep_p.add_argument("--s-max", type=float, default=0.25)
    sweep_p.add_argument("--buyer", type=float, default=1.0)
    sweep_p.add_argument("--out", help="per-point CSV path")
    sweep_p.set_defaults(handler=cmd_sweep)

    verify_p = sub.add_parser("verify", help="run verification suites, write JSON report")
    verify_p.add_argument("--suite", default="all", help="suite name or 'all'")
    verify_p.add_argument("--out", help="JSON report path")
    verify_p.add_argument(
        "--threads", type=int, default=1, help="ignored, must be >= 1 (episodes run sequentially)"
    )
    verify_p.set_defaults(handler=cmd_verify)

    sub.add_parser("list-envs", help="registered environment ids").set_defaults(
        handler=cmd_list_envs
    )
    sub.add_parser("list-learners", help="registered learner ids").set_defaults(
        handler=cmd_list_learners
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except UnknownIdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
