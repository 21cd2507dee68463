"""Command-line behavior: exit codes, CSV output, and reproducibility."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fairtrade import cli
from fairtrade.environments import random_independent_env
from fairtrade.algorithms import parse_learner
from fairtrade.harness import RunConfig, run_monte_carlo
from fairtrade.verify import CheckResult


# a child process imports fairtrade from this checkout's src/, installed or not
SRC = str(Path(__file__).resolve().parents[1] / "src")
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "fairtrade.cli", *args], capture_output=True, text=True, env=CHILD_ENV
    )


def write_config(tmp_path, payload, name="config.json"):
    """Write a config: a dict is dumped as JSON, a str is written verbatim."""
    path = tmp_path / name
    text = payload if isinstance(payload, str) else json.dumps(payload)
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# listings
# ---------------------------------------------------------------------------


def test_list_envs(capsys):
    assert cli.main(["list-envs"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "lb-mu",
        "lb-nu",
        "gft-trap:h=<h in (0, 1/2)>",
        "eps-family:eps=<eps in [-1, 1]>",
        "det:s=<seller>,b=<buyer>",
        "random-ind:seed=<u64>",
        "random-joint:seed=<u64>",
        'inline: {"joint": [[s, b, w], ...]} or {"independent": {"seller": [[v, w], ...], "buyer": [[v, w], ...]}}',
    ]


def test_list_learners(capsys):
    assert cli.main(["list-learners"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "conv-pricing",
        "conv-pricing:K=<grid size>",
        "dbs",
        "fbep",
        "fixed:p=<price>",
        "gft-oracle",
        "uniform:seed=<u64>",
    ]


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


BASIC_CONFIG = {
    "runs": [
        {
            "learner": "conv-pricing",
            "env": "lb-mu",
            "horizons": [100, 1000],
            "n_episodes": 3,
            "base_seed": 1,
        },
        {
            "learner": "fixed:p=0.5",
            "env": {"joint": [[0.1, 0.9, 1.0]], "id": "one-atom"},
            "horizon": 50,
        },
    ]
}


def test_run_writes_curve_csv(tmp_path, capsys):
    config = write_config(tmp_path, BASIC_CONFIG)
    out = tmp_path / "curves.csv"
    assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "algorithm,env,T,n_episodes,mean_regret,stderr,slope"
    assert len(lines) == 4  # two horizons + one horizon
    assert lines[1].startswith("conv-pricing,lb-mu,100,3,")
    assert lines[3].startswith("fixed:p=0.5,one-atom,50,1,")
    stdout = capsys.readouterr().out
    assert "conv-pricing on lb-mu" in stdout
    assert "wrote 3 rows" in stdout


def test_run_reruns_are_byte_identical(tmp_path):
    config = write_config(tmp_path, BASIC_CONFIG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["run", "--config", config, "--out", str(a)]) == 0
    # --threads is accepted and ignored, but must still be >= 1
    assert cli.main(["run", "--config", config, "--out", str(b), "--threads", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert cli.main(["run", "--config", config, "--out", str(b), "--threads", "0"]) == 2


def test_run_rows_name_the_canonical_learner_id(tmp_path):
    # two spellings of one learner write one file, under the id that reruns it
    outs = []
    for learner in ("uniform:seed=1_0", "uniform:seed=10"):
        config = write_config(tmp_path, {"runs": [{"learner": learner, "env": "lb-mu", "horizon": 50}]})
        outs.append(tmp_path / f"{len(outs)}.csv")
        assert cli.main(["run", "--config", config, "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].read_text(encoding="utf-8").splitlines()[1].startswith("uniform:seed=10,lb-mu,50,")


def test_calls_in_one_process_match_separate_processes(tmp_path):
    # the parser is built once per process; no argument of one call reaches the next
    payload = {"runs": [{"learner": "conv-pricing", "env": "lb-mu", "horizons": [100, 1000], "n_episodes": 3}]}
    config = write_config(tmp_path, payload)
    argvs = [["run", "--config", config, "--seed", "5"], ["run", "--config", config]]
    for i, argv in enumerate(argvs):
        assert cli.main([*argv, "--out", str(tmp_path / f"in{i}.csv")]) == 0
        assert run_cli(*argv, "--out", str(tmp_path / f"apart{i}.csv")).returncode == 0
    assert cli._build_parser() is cli._build_parser()
    same = [(tmp_path / f"in{i}.csv").read_bytes() == (tmp_path / f"apart{i}.csv").read_bytes() for i in (0, 1)]
    assert same == [True, True]
    assert (tmp_path / "in0.csv").read_bytes() != (tmp_path / "in1.csv").read_bytes()


def test_run_fits_slope_with_three_horizons(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "output": str(tmp_path / "slope.csv"),
            "runs": [
                {"learner": "fixed:p=0.9", "env": "lb-mu", "horizons": [10, 100, 1000]}
            ],
        },
    )
    assert cli.main(["run", "--config", config]) == 0
    capsys.readouterr()
    rows = (tmp_path / "slope.csv").read_text(encoding="utf-8").strip().splitlines()[1:]
    slopes = {row.split(",")[-1] for row in rows}
    assert slopes == {"1"}  # constant per-round gap: regret exactly linear in T


@pytest.mark.parametrize(
    "payload,code",
    [
        ({"runs": [{"learner": "nope", "env": "lb-mu", "horizon": 5}]}, 3),
        ({"runs": [{"learner": "dbs", "env": "nope", "horizon": 5}]}, 3),
        ({"runs": [{"learner": "dbs", "env": "lb-mu", "horizons": [100, 10]}]}, 2),
        ({"runs": [{"learner": "fbep", "env": "lb-mu", "horizon": 5, "feedback": "two-bit"}]}, 2),
        ({"runs": []}, 2),
        ({}, 2),
        ({"runs": [{"learner": "dbs", "env": "det:s=nan,b=0.5", "horizon": 5}]}, 3),
        ({"runs": [{"learner": "dbs", "env": {"joint": [[0.1, 0.9, float("nan")]]}, "horizon": 5}]}, 2),
        ({"runs": [{"learner": "fixed:p=0.5", "env": "lb-mu", "horizons": [10, 10, 10]}]}, 2),
        ({"runs": [{"learner": "uniform:sed=5", "env": "lb-mu", "horizon": 5}]}, 3),
        # config numbers must be whole, finite and of the right type
        ({"runs": [{"learner": "dbs", "env": "lb-mu", "horizons": [float("inf")]}]}, 2),
        pytest.param(
            '{"runs": [{"learner": "dbs", "env": "lb-mu", "horizon": 5, "n_episodes": 1e400}]}',
            2,
            id="n_episodes=1e400-2",
        ),
        ({"runs": [{"learner": "dbs", "env": "lb-mu", "horizon": True}]}, 2),
        ({"runs": [{"learner": "dbs", "env": "lb-mu", "horizon": 5, "n_episodes": "3"}]}, 2),
        ({"runs": [{"learner": "dbs", "env": "lb-mu", "horizons": [10.9, 20.5, 30.2]}]}, 2),
        ({"runs": [{"learner": "dbs", "env": "lb-mu", "horizon": 5, "base_seed": -1}]}, 2),
        ({"runs": [{"learner": "dbs", "env": "lb-mu", "horizon": 5, "base_seed": 2**64}]}, 2),
        # every field is a known one, given in one form, inside an object
        ({"runs": [{"learner": "dbs", "env": "lb-mu", "horizon": 5, "n_epsiodes": 50}]}, 2),
        ({"runs": [{"learner": "dbs", "env": "lb-mu", "horizon": 5, "base_sed": 7}]}, 2),
        ({"runs": [{"learner": "dbs", "env": "lb-mu", "horizon": 5, "feedbak": "full"}]}, 2),
        ({"runs": [{"learner": "dbs", "env": "lb-mu", "horizon": 5}], "ouptut": "y.csv"}, 2),
        ({"runs": [{"learner": "dbs", "env": "lb-mu", "horizon": 5, "horizons": [5, 10]}]}, 2),
        ([1], 2),
        ({"runs": [1]}, 2),
        ({"runs": [{"learner": 5, "env": "lb-mu", "horizon": 5}]}, 3),
        ({"runs": [{"learner": "dbs", "horizon": 5, "env": {
            "independent": {"seller": [[0.0, 1.0]], "buyer": [[1.0, 1.0]], "sellr": 5}}}]}, 3),
        # inline environment values are JSON numbers, in rows of the right length
        ({"runs": [{"learner": "dbs", "env": {"joint": [["0.1", "0.9", True]]}, "horizon": 5}]}, 3),
        ({"runs": [{"learner": "dbs", "env": {"joint": [[0.1, 0.9]]}, "horizon": 5}]}, 3),
        ({"runs": [{"learner": "dbs", "horizon": 5, "env": {
            "independent": {"seller": [[0.1, True]], "buyer": [[0.9, 1.0]]}}}]}, 3),
        # T = 0 and negative T, also for the path-free learners
        ({"runs": [{"learner": "fbep", "env": "lb-mu", "horizons": [0, 5]}]}, 2),
        ({"runs": [{"learner": "uniform", "env": "lb-mu", "horizons": [-5, 5]}]}, 2),
        # an inline environment may not take the id of a registered one
        ({"runs": [{"learner": "dbs", "env": {"joint": [[0.1, 0.9, 1.0]], "id": "det:s=0.2,b=0.8"}, "horizon": 5}]}, 3),
        ({"runs": [{"learner": "dbs", "env": {"joint": [[0.1, 0.9, 1.0]], "id": "lb-mu"}, "horizon": 5}]}, 3),
        # a grid size is a whole number of at least 1
        ({"runs": [{"learner": "conv-pricing:K=2.5", "env": "lb-mu", "horizon": 5}]}, 3),
        ({"runs": [{"learner": "conv-pricing:K=0", "env": "lb-mu", "horizon": 5}]}, 3),
    ],
)
def test_run_error_exit_codes(tmp_path, capsys, payload, code):
    config = write_config(tmp_path, payload)
    assert cli.main(["run", "--config", config, "--out", str(tmp_path / "x.csv")]) == code
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "missing,named",
    [("learner", "'learner'"), ("env", "'env'"), ("horizons", "'horizon' or 'horizons'")],
)
def test_run_names_a_missing_field(tmp_path, capsys, missing, named):
    entry = {"learner": "dbs", "env": "lb-mu", "horizons": [5, 10]}
    del entry[missing]
    config = write_config(tmp_path, {"runs": [entry]})
    assert cli.main(["run", "--config", config, "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: a run needs a {named} field"]


@pytest.mark.parametrize("horizons", [5, "1000"])
def test_run_rejects_horizons_that_are_not_a_list(tmp_path, capsys, horizons):
    config = write_config(tmp_path, {"runs": [{"learner": "dbs", "env": "lb-mu", "horizons": horizons}]})
    assert cli.main(["run", "--config", config, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: horizons must be a list of whole numbers")


def test_run_rejects_an_integer_too_large_for_a_float(tmp_path):
    # a joint weight written as 1 followed by 400 zeros
    payload = {"runs": [{"learner": "dbs", "env": {"joint": [[0.1, 0.9, 10**400]]}, "horizon": 5}]}
    proc = run_cli("run", "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "x.csv"))
    assert proc.returncode == 3
    assert any(line.startswith("error:") for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr


def test_run_reports_a_failed_allocation_as_an_error(tmp_path, capsys, monkeypatch):
    # a horizon too large for memory, such as fbep at 1e12, fails in NumPy's
    # allocator; the stub raises that error without allocating anything
    def out_of_memory(config):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

    monkeypatch.setattr(cli, "run_monte_carlo", out_of_memory)
    payload = {"runs": [{"learner": "fbep", "env": "lb-mu", "horizon": 1e12}]}
    out = tmp_path / "x.csv"
    assert cli.main(["run", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate")
    assert not out.exists()


def test_run_names_unknown_field(tmp_path, capsys):
    payload = {"runs": [{"learner": "dbs", "env": "lb-mu", "horizon": 5, "n_epsiodes": 50}]}
    assert cli.main(["run", "--config", write_config(tmp_path, payload), "--out", str(tmp_path / "x.csv")]) == 2
    assert "'n_epsiodes'" in capsys.readouterr().err


@pytest.mark.parametrize("learner,feedback", [("fbep", "two-bit"), ("conv-pricing", "full")])
def test_run_rejects_a_feedback_field_by_name(tmp_path, capsys, learner, feedback):
    # a run's feedback model is its learner's, so an old config's request fails loudly
    payload = {"runs": [{"learner": learner, "env": "lb-mu", "horizon": 5, "feedback": feedback}]}
    out = tmp_path / "x.csv"
    assert cli.main(["run", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: unknown run field 'feedback'; known fields: ")
    assert not out.exists()


def test_run_has_no_strict_feedback_flag(tmp_path, capsys):
    config = write_config(tmp_path, BASIC_CONFIG)
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", config, "--out", str(tmp_path / "x.csv"), "--strict-feedback"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --strict-feedback" in capsys.readouterr().err


@pytest.mark.parametrize(
    "where,out,errno",
    [("--out", "no/such/x.csv", 2), ("output", "no/such/x.csv", 2), ("--out", ".", 21)],
)
def test_run_fails_on_an_unwritable_output_before_any_run(tmp_path, capsys, where, out, errno):
    out = str(tmp_path / out)
    if where == "output":
        config, flags = write_config(tmp_path, {**BASIC_CONFIG, "output": out}), []
    else:
        config, flags = write_config(tmp_path, BASIC_CONFIG), ["--out", out]
    assert cli.main(["run", "--config", config, *flags]) == 2
    captured = capsys.readouterr()
    assert "regret=" not in captured.out
    assert captured.err.startswith(f"error: [Errno {errno}] ")


@pytest.mark.parametrize("failure", ["config", "run"])
def test_run_failure_keeps_an_earlier_output_file(tmp_path, capsys, monkeypatch, failure):
    # the output is opened without truncating, so a failed run leaves an earlier CSV as it was
    def out_of_memory(config):
        raise MemoryError("Unable to allocate")

    out = tmp_path / "x.csv"
    out.write_text("earlier\n", encoding="utf-8")
    payload = BASIC_CONFIG
    if failure == "config":
        payload = {"runs": [{"learner": "dbs", "env": "lb-mu", "horizon": 5, "n_epsiodes": 50}]}
    else:
        monkeypatch.setattr(cli, "run_monte_carlo", out_of_memory)
    assert cli.main(["run", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_text(encoding="utf-8") == "earlier\n"


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_run_rejects_seed_flag_outside_u64(tmp_path, capsys, seed):
    config = write_config(tmp_path, {"runs": [{"learner": "dbs", "env": "lb-mu", "horizon": 5}]})
    argv = ["run", "--config", config, "--out", str(tmp_path / "x.csv"), "--seed", seed]
    assert cli.main(argv) == 2
    assert "base_seed" in capsys.readouterr().err


def test_run_reruns_a_rate_row_by_its_env_id(tmp_path, capsys):
    # verify's stochastic-rate rows name their environment random-ind:seed=101
    horizons = [10**3, 10**4]
    payload = {"runs": [{"learner": "conv-pricing", "env": "random-ind:seed=101",
                         "horizons": horizons, "n_episodes": 50, "base_seed": 7}]}
    out = tmp_path / "x.csv"
    assert cli.main(["run", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    capsys.readouterr()
    cfg = RunConfig(env=random_independent_env(101), learner=parse_learner("conv-pricing"),
                    horizons=horizons, n_episodes=50, base_seed=7)
    want = [cli._fmt(m) for m in run_monte_carlo(cfg).means]
    rows = out.read_text(encoding="utf-8").strip().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["random-ind:seed=101"] * 2
    assert [row.split(",")[4] for row in rows] == want


def test_run_accepts_integral_floats(tmp_path, capsys):
    payload = {"runs": [{"learner": "fixed:p=0.5", "env": "lb-mu", "horizons": [1e1, 1e2],
                         "n_episodes": 2.0, "base_seed": 3.0}]}
    out = tmp_path / "x.csv"
    assert cli.main(["run", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = out.read_text(encoding="utf-8").strip().splitlines()[1:]
    assert [row.split(",")[2:4] for row in rows] == [["10", "2"], ["100", "2"]]


def test_run_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("out_flag", [False, True], ids=["config-only", "with-out"])
@pytest.mark.parametrize("output", [1, 2, True])
def test_run_rejects_an_output_that_is_not_a_string(tmp_path, output, out_flag):
    # open() takes an int as a file descriptor: 1 and 2 would write the CSV to
    # stdout or stderr and close it, so this runs in its own process
    out = tmp_path / "x.csv"
    config = write_config(tmp_path, {**BASIC_CONFIG, "output": output})
    proc = run_cli("run", "--config", config, *(["--out", str(out)] if out_flag else []))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: output must be a non-empty string, got {output!r}"]
    assert proc.stdout == ""
    assert not out.exists()


def test_run_checks_every_run_before_running_any(tmp_path, capsys):
    payload = {"runs": [
        {"learner": "dbs", "env": "lb-mu", "horizon": 64},
        {"learner": "conv-pricing:K=500", "env": "lb-mu", "horizons": [100, 1000]},
    ]}
    out = tmp_path / "x.csv"
    assert cli.main(["run", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: grid size 500 exceeds horizon 100"]
    assert not out.exists()


def test_run_requires_an_output_path(tmp_path, capsys):
    config = write_config(tmp_path, BASIC_CONFIG)  # no "output" key
    assert cli.main(["run", "--config", config]) == 2
    assert "output" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_writes_per_point_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli.main(
        ["sweep", "--learner", "dbs", "--horizon", "64", "--points", "9", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "s,regret"
    assert len(lines) == 10
    assert "sweep dbs T=64" in capsys.readouterr().out


@pytest.mark.parametrize("learner", ["uniform", "fbep"])
def test_sweep_rejects_a_learner_without_a_price_profile(capsys, learner):
    assert cli.main(["sweep", "--learner", learner, "--horizon", "64"]) == 2
    want = f"error: no price profile for '{learner}': it is randomized or needs full feedback\n"
    assert capsys.readouterr().err == want


def test_sweep_unknown_learner(capsys):
    assert cli.main(["sweep", "--learner", "foo", "--horizon", "64"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("learner,horizon", [("fixed:p=0.5", "-5"), ("gft-oracle", "0")])
def test_sweep_rejects_horizon_below_one(capsys, learner, horizon):
    assert cli.main(["sweep", "--learner", learner, "--horizon", horizon]) == 2
    assert "horizon must be >= 1" in capsys.readouterr().err


def test_sweep_rejects_an_empty_grid(capsys):
    assert cli.main(["sweep", "--learner", "dbs", "--horizon", "64", "--points", "0"]) == 2
    assert "seller grid of a sweep is empty" in capsys.readouterr().err


def test_sweep_rejects_a_negative_point_count(capsys):
    assert cli.main(["sweep", "--learner", "dbs", "--horizon", "64", "--points", "-1"]) == 2
    assert "seller grid of a sweep is empty" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--s-min", "--s-max", "--buyer"])
@pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "1.5"])
def test_sweep_rejects_values_outside_the_unit_interval(capsys, flag, value):
    # checked before the grid is built, so NumPy never warns about them
    argv = ["sweep", "--learner", "dbs", "--horizon", "64", "--points", "5", flag, value]
    assert cli.main(argv) == 2
    assert f"{flag} must be a finite value in [0, 1]" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_suite_with_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert cli.main(["verify", "--suite", "gft-trap", "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "PASS gft-trap-regret:" in out
    rows = json.loads(report.read_text(encoding="utf-8"))
    assert [row["check"] for row in rows] == ["gft-trap-regret"]
    assert rows[0]["pass"] is True
    assert set(rows[0]) == {"check", "pass", "measured", "tolerance", "runtime_ms"}


def test_verify_unknown_suite(capsys):
    assert cli.main(["verify", "--suite", "nope"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_exit_one_when_a_check_fails(monkeypatch, capsys):
    failing = [CheckResult(check="x", passed=False, measured=1.0, tolerance=0.0, runtime_ms=0.1)]
    monkeypatch.setattr(cli, "run_suites", lambda names: failing)
    assert cli.main(["verify", "--suite", "gft-trap"]) == 1
    assert "FAIL x:" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# sweep and verify outputs, opened before the work as run's is
# ---------------------------------------------------------------------------

# command -> (argv before --out, the cli global that does its work)
_WORK = {
    "sweep": (["sweep", "--learner", "dbs", "--horizon", "64", "--points", "5"], "adversarial_deterministic_sweep"),
    "verify": (["verify", "--suite", "gft-trap"], "run_suites"),
}


@pytest.mark.parametrize("command", list(_WORK))
def test_unwritable_output_fails_before_the_work(tmp_path, capsys, monkeypatch, command):
    argv, work = _WORK[command]
    calls = []
    monkeypatch.setattr(cli, work, lambda *a, **k: calls.append(a))
    assert cli.main([*argv, "--out", str(tmp_path / "no" / "such" / "x.out")]) == 2
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] ")


@pytest.mark.parametrize("earlier", [True, False])
@pytest.mark.parametrize("command", list(_WORK))
def test_failed_work_keeps_an_earlier_output_and_leaves_no_new_one(tmp_path, capsys, monkeypatch, command, earlier):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    argv, work = _WORK[command]
    monkeypatch.setattr(cli, work, out_of_memory)
    out = tmp_path / "x.out"
    if earlier:
        out.write_text("earlier\n", encoding="utf-8")
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: out of memory: ")
    if earlier:
        assert out.read_text(encoding="utf-8") == "earlier\n"
    else:
        assert not out.exists()


# ---------------------------------------------------------------------------
# README
# ---------------------------------------------------------------------------


def test_readme_cli_flags_are_the_parsers():
    # every --flag README's CLI part names exists, and every option is documented
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    cli_part = readme[readme.index("\n## CLI\n") : readme.index("\n## Library\n")]
    subparsers = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        flag
        for sub in subparsers.choices.values()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
    }
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", cli_part)) == options


# ---------------------------------------------------------------------------
# real process entry point
# ---------------------------------------------------------------------------


def test_module_entry_point_round_trip(tmp_path):
    proc = run_cli("list-learners")
    assert proc.returncode == 0
    assert "conv-pricing" in proc.stdout
    bad = run_cli("run", "--config", str(tmp_path / "missing.json"), "--out", "x.csv")
    assert bad.returncode == 2
    unknown = run_cli("verify", "--suite", "wat")
    assert unknown.returncode == 2


_NUMPY_MA_PROBE = """
import sys
import numpy as np
from fairtrade import cli
assert cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
assert cli.main(["verify", "--suite", "oracle-equivalence", "--out", sys.argv[3]]) == 0
loaded = "numpy.ma" in sys.modules
np.unique(np.zeros(2))  # the probe itself sees the import it guards against
print(loaded, "numpy.ma" in sys.modules)
"""


def test_run_and_verify_leave_numpy_ma_unloaded(tmp_path):
    # NumPy 2.4's np.unique imports numpy.ma; the candidate sets sort without it
    joint = {"id": "probe", "joint": [[0.1, 0.7, 0.5], [0.3, 0.9, 0.25], [0.2, 0.4, 0.25]]}
    config = write_config(
        tmp_path,
        {"runs": [{"learner": learner, "env": joint, "horizons": [10, 100, 1000]}
                  for learner in ("fbep", "uniform", "conv-pricing", "dbs", "gft-oracle")]},
    )
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_MA_PROBE, config, str(tmp_path / "out.csv"),
         str(tmp_path / "report.json")],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["False", "True"]
