"""Per-module timing of a fairtrade process, for the traced benchmark run.

``install`` replaces names in the fairtrade modules with timing wrappers,
each patched where its caller looks it up: kernels are resolved through
the ``kernels`` module at call time, harness and verify import the other
modules' functions by name, and learner methods are wrapped on their
classes.  Nothing in ``src/fairtrade`` is edited; the wrappers exist only
in the traced process.

Two kinds of wrapper:

* a span records name, start, end, parent span, cell and thread.  Spans
  stay in memory and are written once, by ``write_spans``, at the end;
* a leaf wraps a call made once per simulated round (a random draw, a
  learner step, a feedback render).  Leaves are too many to keep one by
  one, so each adds its calls and time to per-thread counters and its
  time to the enclosing span, which excludes it from that span's self
  time.

A cell is one (learner, env, T) evaluation, a call to the harness's
``_episode_regrets``.  Episode workers of the harness thread pool start
with an empty span stack, so their top spans take the active cell as
parent.  Self time is a span's duration minus the union of its children's
intervals (children in pool threads overlap) minus its leaves.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

KERNELS = (
    "conv_pricing_commit",
    "incomplete_convolution",
    "dbs_explore",
    "fbep_prices",
    "uniform_prices",
    "expected_fgft_at",
    "convolution_approx_batch",
)

WORK_UNITS = {
    "conv_pricing_commit": "rounds",
    "incomplete_convolution": "madds",
    "dbs_explore": "rounds",
    "fbep_prices": "rounds",
    "uniform_prices": "rounds",
    "expected_fgft_at": "price-atoms",
    "convolution_approx_batch": "triple-steps",
}

# Learners whose price path does not depend on the horizon: simulating
# them once at a run's largest T would give every nested horizon.
T_FREE_LEARNERS = ("fbep", "uniform", "fixed", "gft-oracle")


def _size(x) -> int:
    return int(getattr(x, "size", None) or len(x))


def _incomplete_convolution_madds(K: int) -> int:
    # sum over i = 1..K of min(i, K - 1) + 1
    return (K - 1) * (K + 2) // 2 + K


def _kernel_work(name: str, a: dict) -> dict:
    """Counters a kernel call adds, computed from its arguments."""
    if name == "conv_pricing_commit":
        rounds = int(a["grid_size"])
    elif name == "dbs_explore":
        rounds = 2 * int(a["n_rounds"])
    elif name in ("fbep_prices", "uniform_prices"):
        rounds = int(a["horizon"])
    elif name == "incomplete_convolution":
        return {"work": _incomplete_convolution_madds(int(a["grid_size"]))}
    elif name == "expected_fgft_at":
        return {"work": _size(a["prices"]) * _size(a["sellers"])}
    else:  # convolution_approx_batch
        return {"work": _size(a["prices"]) * int(a["grid_size"])}
    out = {"work": rounds, "rounds": rounds}
    if name == "fbep_prices":
        out["bytes"] = rounds * _size(a["cands"]) * 8
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, parent, cell, thread, start, end, leaf_s)
        self.cells = {}  # cell span id -> (parent span id, learner kind, T, episodes)
        self.cell = None  # the cell being evaluated; cells run one at a time
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counts = []
        self._lock = threading.Lock()

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []  # [span id, leaf seconds] of the open spans
            loc.counts = defaultdict(float)
            loc.leaf_depth = None  # stack depth at which a leaf is running
            loc.nested_s = 0.0  # span time spent inside leaves
            with self._lock:
                self._thread_counts.append(loc.counts)
        return loc

    def counts(self) -> dict:
        merged = defaultdict(float)
        with self._lock:
            for counts in self._thread_counts:
                for key, value in counts.items():
                    merged[key] += value
        return merged

    def span(self, name: str, fn, work=None, cell=None):
        """Wrap fn in a span; work(args) and cell(args) read its arguments."""
        tracer = self
        sig = inspect.signature(fn) if work or cell else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            loc = tracer._state()
            stack = loc.stack
            parent = stack[-1][0] if stack else tracer.cell
            sid = next(tracer._ids)
            frame = [sid, 0.0]
            bound = sig.bind(*args, **kwargs).arguments if sig else None
            outer_cell = tracer.cell
            if cell:
                tracer.cells[sid] = (parent,) + cell(bound)
                tracer.cell = sid
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if cell:
                    tracer.cell = outer_cell
                if loc.leaf_depth == len(stack):
                    loc.nested_s += t1 - t0
                tracer.spans.append(
                    (sid, name, parent, sid if cell else outer_cell,
                     threading.get_ident(), t0, t1, frame[1])
                )
                counts = loc.counts
                counts[name + ".calls"] += 1
                counts[name + ".s"] += t1 - t0
                if work:
                    for key, value in work(bound).items():
                        if key == "rounds":
                            counts["rng.draws"] += value
                            counts[("rounds", outer_cell)] += value
                        else:
                            counts[f"{name}.{key}"] += value

        return wrapper

    def leaf(self, name: str, fn):
        """Wrap a per-round call: counted and timed, no span of its own."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            loc = tracer._state()
            if loc.leaf_depth is not None:  # inside another leaf, which keeps the time
                loc.counts[name + ".calls"] += 1
                return fn(*args, **kwargs)
            loc.leaf_depth = len(loc.stack)
            nested0 = loc.nested_s
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                own = perf_counter() - t0 - (loc.nested_s - nested0)
                loc.leaf_depth = None
                if loc.stack:
                    loc.stack[-1][1] += own
                loc.counts[name + ".calls"] += 1
                loc.counts[name + ".s"] += own

        return wrapper

    # -----------------------------------------------------------------
    # results
    # -----------------------------------------------------------------

    def self_times(self) -> dict:
        """Span id -> duration minus the union of its children, minus leaves."""
        children = defaultdict(list)
        for sid, _, parent, _, _, t0, t1, _ in self.spans:
            children[parent].append((t0, t1))
        out = {}
        for sid, _, _, _, _, t0, t1, leaf_s in self.spans:
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[sid] = (t1 - t0) - covered - leaf_s
        return out

    def metrics(self) -> dict:
        """Per-module metrics: name -> {"value", "unit"}."""
        c = self.counts()
        self_s = self.self_times()
        m = {
            "rng.draws": (c["rng.draws"], "count"),
            "rng.s": (c["rng.s"], "s"),
        }
        for k in KERNELS:
            m[f"kernels.{k}.calls"] = (c[f"kernels.{k}.calls"], "count")
            m[f"kernels.{k}.s"] = (c[f"kernels.{k}.s"], "s")
            m[f"kernels.{k}.work"] = (c[f"kernels.{k}.work"], WORK_UNITS[k])
        m["kernels.fbep_prices.bytes"] = (c["kernels.fbep_prices.bytes"], "B-computed")
        for name in (
            "core.best_fixed_price_fgft",
            "core.FiniteJointDistribution",
            "environments.deterministic",
            "environments.render_feedback",
            "environments.feedback_distribution",
        ):
            m[name + ".calls"] = (c[name + ".calls"], "count")
            m[name + ".s"] = (c[name + ".s"], "s")
        m["algorithms.learner_rounds"] = (c["algorithms.propose.calls"], "count")
        m["algorithms.s"] = (c["algorithms.propose.s"] + c["algorithms.update.s"], "s")
        m["harness.cells"] = (len(self.cells), "count")
        m["harness.episodes"] = (sum(cell[3] for cell in self.cells.values()), "count")
        m["harness.reference_episodes"] = (c["harness.run_episode.calls"], "count")
        m["harness.useful_round_share"] = (self._useful_round_share(c), "ratio")
        m["harness.profile_regret.calls"] = (c["harness.profile_regret.calls"], "count")
        m["harness.self_s"] = (
            sum(self_s[s[0]] for s in self.spans if s[1].startswith("harness.")), "s"
        )
        m["cli.self_s"] = (sum(self_s[s[0]] for s in self.spans if s[1] == "cli.main"), "s")
        return {
            name: {"value": value if unit in ("s", "ratio") else int(value), "unit": unit}
            for name, (value, unit) in m.items()
        }

    def _useful_round_share(self, counts) -> float:
        """Rounds a single simulation at each run's largest T would still
        need, over all simulated rounds (1.0 when nothing is simulated)."""
        largest = defaultdict(int)
        for run, _, T, _ in self.cells.values():
            largest[run] = max(largest[run], T)
        total = useful = 0.0
        for cell, (run, kind, T, _) in self.cells.items():
            rounds = counts[("rounds", cell)]
            total += rounds
            if kind not in T_FREE_LEARNERS or T == largest[run]:
                useful += rounds
        return useful / total if total else 1.0

    def write_spans(self, path: str) -> None:
        """JSON lines: the field names, then one list per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "name", "parent", "cell", "thread", "start", "end", "leaf_s"]))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _cell_label(a: dict) -> tuple:
    config = a["config"]
    return (config.learner.kind, int(a["horizon"]), int(config.n_episodes))


def install(tracer: Tracer) -> None:
    """Patch every traced name in the imported fairtrade modules."""
    from fairtrade import algorithms, cli, core, harness, kernels, verify

    for k in KERNELS:
        work = functools.partial(_kernel_work, k)
        # conv_pricing_commit_numpy calls incomplete_convolution_numpy by name
        for attr in (k, k + "_numpy"):
            if callable(getattr(kernels, attr, None)):
                setattr(kernels, attr, tracer.span(f"kernels.{k}", getattr(kernels, attr), work=work))

    base = kernels.SplitMix64
    kernels.SplitMix64 = type(
        "TimedSplitMix64", (base,), {"__slots__": (), "next_unit": tracer.leaf("rng", base.next_unit)}
    )

    for module in (harness, verify):
        module.best_fixed_price_fgft = tracer.span(
            "core.best_fixed_price_fgft", module.best_fixed_price_fgft
        )
        module.profile_regret = tracer.span("harness.profile_regret", module.profile_regret)
    fjd = core.FiniteJointDistribution
    fjd.__init__ = tracer.span("core.FiniteJointDistribution", fjd.__init__)

    harness.deterministic = tracer.span("environments.deterministic", harness.deterministic)
    harness.render_feedback = tracer.leaf("environments.render_feedback", harness.render_feedback)
    harness.feedback_distribution = tracer.span(
        "environments.feedback_distribution", harness.feedback_distribution
    )
    harness.run_episode = tracer.span("harness.run_episode", harness.run_episode)
    harness._episode_regrets = tracer.span(
        "harness.cell", harness._episode_regrets, cell=_cell_label
    )
    for module in (cli, verify):
        module.run_monte_carlo = tracer.span("harness.run_monte_carlo", module.run_monte_carlo)
    for name in ("adversarial_deterministic_sweep", "indistinguishability_check"):
        setattr(verify, name, tracer.span(f"harness.{name}", getattr(verify, name)))
    verify._check = tracer.span("verify.check", verify._check)

    pending = [algorithms.Learner]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for method in ("propose", "update"):
            if method in cls.__dict__:
                setattr(cls, method, tracer.leaf(f"algorithms.{method}", cls.__dict__[method]))
