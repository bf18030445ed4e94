"""Harness-side instrumentation for the traced run.

The program already emits ``sta.*``/``phase.*``/``service.request``
spans and a metrics registry.  The layout front end, net-load building,
edit application and session restore emit nothing, so for the traced run
only this module wraps public callables at their import sites in spans
of the same tracer, and counts calls to the router's and solver's inner
entry points.  Everything is restored when the traced op ends, so the
untraced runs execute the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute path, span name).  A function is wrapped at every
# module that imported it by name, because that is where callers look
# it up.
SPAN_SITES = (
    ("repro.flow", "prepare_design", "flow.prepare_design"),
    ("repro.flow.design", "prepare_design", "flow.prepare_design"),
    ("repro.flow.design", "place", "layout.place"),
    ("repro.flow.design", "route", "layout.route"),
    ("repro.flow.design", "extract", "layout.extract"),
    ("repro.flow.repair", "reroute_nets", "layout.route"),
    ("repro.flow.repair", "extract", "layout.extract"),
    ("repro.service.session", "prepare_design", "flow.prepare_design"),
    ("repro.service.session", "apply_edit", "flow.apply_edit"),
    ("repro.service.session", "SessionManager.restore", "service.restore"),
)

# (module, attribute path, counter name).
COUNT_SITES = (
    ("repro.layout.geometry", "TrackOccupancy.fits", "layout.fits_probes"),
    ("repro.layout.geometry", "TrackOccupancy.add", "layout.claims"),
    ("repro.waveform.batchstage", "BatchStageSolver.solve_many", "waveform.lockstep_calls"),
    (
        "repro.waveform.batchstage",
        "BatchStageSolver.solve_many_compact",
        "waveform.lockstep_calls",
    ),
    ("repro.waveform.batchstage", "solve_newton_many", "devices.newton_calls"),
)

ANALYSIS_SPANS = ("sta.run", "sta.compile_design", "sta.slack")
INNER_SPANS = ("flow.apply_edit", "flow.prepare_design", *ANALYSIS_SPANS)
PHASES = ("gather", "base_waveforms", "coupling_decisions", "final_waveforms", "merge")


def _resolve(module_name: str, path: str):
    """``(owner, attribute)`` of a site, or ``None`` when the program no
    longer has it (the site's metric then reads 0 instead of the traced
    run failing)."""
    try:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
    except (ImportError, AttributeError):
        return None
    return (owner, attr) if attr in vars(owner) else None


@contextmanager
def installed(tracer, counts: Counter):
    """Wrap every site for the duration of the block."""
    undo = []

    def patch(module_name: str, path: str, make) -> None:
        site = _resolve(module_name, path)
        if site is None:
            print(f"perfbench: probe site {module_name}.{path} is gone", file=sys.stderr)
            return
        owner, attr = site
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        undo.append((owner, attr, original))

    def spanned(name):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return fn(*args, **kwargs)

            return wrapper

        return make

    def counted(name):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    try:
        for module_name, path, name in SPAN_SITES:
            patch(module_name, path, spanned(name))
        for module_name, path, name in COUNT_SITES:
            patch(module_name, path, counted(name))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _spans(events: list[dict]) -> list[dict]:
    return [e for e in events if e.get("ph") == "X"]


def self_times(events: list[dict]) -> dict[str, float]:
    """Seconds of self time per span name (duration minus the part its
    child spans cover)."""
    spans = _spans(events)
    child_us: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent_id"] is not None:
            child_us[span["parent_id"]] += span["dur"]
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += (span["dur"] - child_us[span["span_id"]]) / 1e6
    return dict(totals)


def _ancestors(spans: list[dict]):
    by_id = {s["span_id"]: s for s in spans}

    def chain(span):
        parent = by_id.get(span["parent_id"])
        while parent is not None:
            yield parent
            parent = by_id.get(parent["parent_id"])

    return chain


def layer_metrics(events: list[dict], metrics: dict, counts: Counter) -> dict[str, float]:
    """Per-layer numbers of one traced op, from its spans, its metrics
    registry snapshot and the harness call counts."""
    spans = _spans(events)
    chain = _ancestors(spans)
    total: dict[str, float] = defaultdict(float)
    in_restore: dict[str, float] = defaultdict(float)
    rpc_inner = 0.0  # edit, prepare and analysis time inside RPCs
    whatif_analysis = 0.0
    for span in spans:
        seconds = span["dur"] / 1e6
        name = span["name"]
        total[name] += seconds
        above = list(chain(span))
        above_names = {a["name"] for a in above}
        if "service.restore" in above_names:
            in_restore[name] += seconds
        # Counted once, at the outermost such span inside an RPC.
        if (
            name in INNER_SPANS
            and "service.request" in above_names
            and not above_names.intersection(INNER_SPANS)
        ):
            rpc_inner += seconds
            if name in ANALYSIS_SPANS and any(
                a["args"].get("method") == "whatif"
                for a in above
                if a["name"] == "service.request"
            ):
                whatif_analysis += seconds

    selfs = self_times(events)
    counters = metrics.get("counters", {})
    phase = {p: counters.get(f"propagation.phase_seconds{{phase={p}}}", 0.0) for p in PHASES}
    evaluations = counters.get("propagation.waveform_evaluations", 0)
    fresh = counters.get("arc_cache.evaluations", 0)
    dirty = counters.get("propagation.dirty_arcs", 0)
    reused = counters.get("propagation.reused_arcs", 0)
    newton = metrics.get("histograms", {}).get("newton.iterations_per_arc")
    probes = counts["layout.fits_probes"]
    claims = counts["layout.claims"]
    return {
        "layout.place_s": total["layout.place"],
        "layout.route_s": total["layout.route"],
        "layout.extract_s": total["layout.extract"],
        "flow.netload_s": selfs.get("flow.prepare_design", 0.0),
        "layout.fits_probes": probes,
        "layout.claims": claims,
        "layout.probes_per_claim": probes / claims if claims else 0.0,
        "core.compile_s": total["sta.compile_design"],
        **{f"core.{p}_s": phase[p] for p in PHASES},
        "core.slack_s": total["sta.slack"],
        "core.report_s": total["core.report"],
        "core.unattributed_s": total["sta.run"] - sum(phase.values()),
        "waveform.evaluations": evaluations,
        "waveform.fresh_solves": fresh,
        "waveform.fresh_ratio": fresh / evaluations if evaluations else 0.0,
        "waveform.lockstep_calls": counts["waveform.lockstep_calls"],
        "devices.newton_calls": counts["devices.newton_calls"],
        "devices.newton_iterations": newton["sum"] if newton else 0,
        "core.passes": counters.get("propagation.passes", 0),
        "core.dirty_arcs": dirty,
        "core.reused_arcs": reused,
        "core.reuse_ratio": reused / (dirty + reused) if dirty + reused else 0.0,
        "flow.apply_edit_s": total["flow.apply_edit"] - in_restore["flow.apply_edit"],
        "service.whatif_analyze_s": whatif_analysis,
        "service.reply_s": total["service.request"] - rpc_inner,
        "service.restore_prepare_s": in_restore["flow.prepare_design"],
        "service.restore_replay_s": in_restore["flow.apply_edit"],
    }


def format_self_time_table(events: list[dict], wall: float) -> str:
    """Self time per span name over a traced op, with the op time no
    span covers as the ``unattributed`` row."""
    selfs = self_times(events)
    # The harness's root span covers the whole op; its self time is the
    # part of the op that no program or harness span claims.
    unattributed = selfs.pop("bench.op", 0.0)
    rows = sorted(selfs.items(), key=lambda kv: -kv[1])
    rows.append(("unattributed", unattributed))
    lines = [f"{'layer (span self time)':<28} {'seconds':>9} {'share':>7}"]
    for name, seconds in rows:
        share = seconds / wall if wall else 0.0
        lines.append(f"{name:<28} {seconds:>9.3f} {share:>7.1%}")
    lines.append(f"{'traced op wall':<28} {wall:>9.3f}")
    return "\n".join(lines)
