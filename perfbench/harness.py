"""Run loop of the benchmark: set-up, timed ops, checks, metrics.

An untraced run (``trace=False``) reports the end-to-end metrics; a
traced run (``trace=True``) interleaves traced and untraced ops on the
same inputs and reports the per-layer metrics, including the tracing
overhead measured between the two.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from typing import Callable

import probes
from checks import load_golden
from workloads import DEFAULT_SEED, WORKLOADS, Op

from repro.obs import Observability

SETUP_REPEATS = 3

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load_spec() -> dict:
    """Metric names and units come from BENCHMARK.json, so the harness and
    the declaration cannot drift apart."""
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """Bookkeeping of one benchmark invocation."""

    def __init__(self, workload, seed: int, scale: float, mutate: Callable | None):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.mutate = mutate
        golden_applies = seed == DEFAULT_SEED and scale == workload.scale
        self.golden = load_golden()[workload.name] if golden_applies else None
        self.attempted = 0
        self.failed = 0
        self.counts: Counter = Counter()

    def setup(self) -> tuple[object, float]:
        """Set up ``SETUP_REPEATS`` times; the last state is used."""
        seconds = []
        state = None
        for _ in range(SETUP_REPEATS):
            state = None
            gc.collect()
            t0 = time.perf_counter()
            state = self.workload.setup(self.seed, self.scale)
            seconds.append(time.perf_counter() - t0)
        return state, _median(seconds)

    def op(self, state, index: int, budget: float, obs=None) -> tuple[Op | None, float]:
        """One call of the workload's op plus its (untimed) check.  Every
        timed op inside the call counts as attempted; a raised error or a
        failed check fails all of them."""
        gc.collect()
        root = obs.tracer.span("bench.op") if obs is not None else nullcontext()
        t0 = time.perf_counter()
        try:
            with root:
                op = self.workload.op(state, index, obs, budget)
        except Exception:  # the run goes on; the failure is counted
            self.attempted += 1
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None, time.perf_counter() - t0
        wall = time.perf_counter() - t0
        self.attempted += len(op.samples)
        print(
            f"op {index}{' (traced)' if obs is not None else ''}: {wall:.3f} s, "
            f"{len(op.samples)} timed op(s), median {_median(op.samples):.3f} s",
            file=sys.stderr,
        )
        try:
            if self.mutate is not None:
                self.mutate(op)
            self.workload.check(op, self.golden)
        except Exception:
            self.failed += len(op.samples)
            traceback.print_exc(file=sys.stderr)
        self.counts.update(op.counts)
        return op, wall


def _keep_going(start: float, seconds: float, durations: list[float]) -> bool:
    """Make at least one call, then another only while it is expected to
    end within the budget."""
    if not durations:
        return True
    return time.perf_counter() - start + _median(durations) <= seconds


def run_untraced(run: Run, state, seconds: float) -> dict[str, float]:
    """Whole passes over the workload's inputs; ``op_s`` is the mean over
    the inputs of each input's mean op time, so a faster host that fits
    more passes still weighs every input the same."""
    passes: list[float] = []
    per_input: dict[int, list[float]] = {}
    start = time.perf_counter()
    while _keep_going(start, seconds, passes):
        t0 = time.perf_counter()
        for index in range(run.workload.inputs):
            op, wall = run.op(state, index, seconds)
            per_input.setdefault(index, []).extend(op.samples if op is not None else [wall])
        passes.append(time.perf_counter() - t0)
    # The host's speed switches between regimes lasting seconds, so a
    # median over a handful of ops snaps to one regime; the mean over all
    # timed work of the run averages them and is the steadier figure.
    return {"op_s": statistics.fmean(statistics.fmean(v) for v in per_input.values())}


def run_traced(run: Run, state, seconds: float) -> dict[str, float]:
    """Traced calls, each followed by an untraced call on the same input;
    one more untraced call comes first, so every traced call sits between
    two untraced ones and warm-up does not pass for tracing overhead.
    Calls get a third of the budget, so that at least three fit."""
    budget = seconds / 3
    plain: dict[int, list[float]] = {}  # untraced call times per input
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    steps: dict[str, list[float]] = {}  # named step times of untraced calls

    def untraced(index: int) -> None:
        op, wall = run.op(state, index, budget)
        plain.setdefault(index, []).append(wall)
        for step, value in (op.steps if op is not None else {}).items():
            steps.setdefault(f"{run.workload.name}.{step}", []).append(value)

    untraced(0)
    start = time.perf_counter()
    rounds: list[float] = []
    while _keep_going(start, seconds, rounds):
        t0 = time.perf_counter()
        index = len(rounds)
        obs = Observability.tracing("perfbench")
        counts: Counter = Counter()
        with probes.installed(obs.tracer, counts):
            op, wall = run.op(state, index, budget, obs)
        traced.append(wall)
        events = obs.tracer.events
        layer = probes.layer_metrics(events, obs.metrics.snapshot(), counts)
        if op is not None:
            layer.update(op.counts)
        layers.append(layer)
        print(probes.format_self_time_table(events, wall), file=sys.stderr)
        untraced(index)
        rounds.append(time.perf_counter() - t0)

    metrics = {
        metric["name"]: statistics.fmean(layer.get(metric["name"], 0.0) for layer in layers)
        for metric in load_spec()["per_layer"]
    }
    metrics.update({name: _median(values) for name, values in steps.items() if name in metrics})
    untraced_time = sum(statistics.fmean(plain[index]) for index in range(len(traced)))
    metrics["obs.trace_overhead_frac"] = sum(traced) / untraced_time - 1.0
    metrics["core.slack_payload_order_mismatch"] = run.counts[
        "core.slack_payload_order_mismatch"
    ]
    metrics["ops_failed_frac"] = run.failed / run.attempted
    return metrics


def execute(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    import_seconds: float,
    scale: float | None = None,
    mutate: Callable | None = None,
) -> dict:
    """One benchmark run; returns the result object the CLI prints."""
    workload = WORKLOADS[workload_name]
    run = Run(workload, seed, workload.scale if scale is None else scale, mutate)
    state, setup_seconds = run.setup()
    if trace:
        values = run_traced(run, state, seconds)
        declared = load_spec()["per_layer"]
    else:
        values = run_untraced(run, state, seconds)
        values["setup_s"] = import_seconds + setup_seconds
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        declared = load_spec()["end_to_end"]
    print(
        f"{workload_name}: {run.attempted} ops, {run.failed} failed "
        f"(ops_failed_frac {run.failed / run.attempted:.3f}), "
        f"slack-payload order mismatches {run.counts['core.slack_payload_order_mismatch']}",
        file=sys.stderr,
    )
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
