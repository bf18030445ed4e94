#!/usr/bin/env python3
"""Perf-trajectory guard: fresh bench vs the committed baseline.

Runs one fresh tiny-scale analysis (the same circuit, scale and mode as
the committed ``BENCH_sta_runtime.json`` headline row) and diffs it
against that mode's ``engines.batch`` row -- the batched solver over the
columnar core, the one path the analysis has -- on two numbers that
should survive machine changes:

* ``arcs_per_second`` -- absolute throughput varies wildly between
  runners, so the guard only insists the fresh figure stays above a
  generous floor (``--aps-floor``, default 20%) of the committed one.
  What this actually catches is an accidental algorithmic cliff (a
  quadratic sneaking into the pass loop), not machine drift.
* pass-2 reuse fraction -- the share of arcs the delta-driven engine
  reuses on its second iterative pass.  This is a property of the
  algorithm, not the machine, so it must stay within ``--reuse-tol``
  (default 0.15 absolute) of the committed figure.
* router exact probes per claim -- the ``TrackOccupancy.fits`` checks the
  occupancy filter leaves per claimed interval when the fresh run's
  design is routed, against the committed ``core_sweep`` row at the same
  scale.  Deterministic, so its ceiling is a fixed 10% above the
  committed figure rather than an option: a return to the quadratic
  outward scan fails here on any machine.

Exit status 0 when all hold, 1 otherwise.  Run from the repo root:

    python benchmarks/check_perf_trajectory.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

DEFAULT_BASELINE = REPO / "BENCH_sta_runtime.json"
DEFAULT_APS_FLOOR = 0.2
DEFAULT_REUSE_TOLERANCE = 0.15
PROBE_TOLERANCE = 0.10


def _pass2_reuse(engine_row: dict) -> float | None:
    """Reused-arc fraction of the second pass, None when the run
    converged in a single pass or recorded no arcs."""
    series = engine_row.get("pass_series", [])
    if len(series) < 2:
        return None
    p2 = series[1]
    total = p2.get("dirty_arcs", 0) + p2.get("reused_arcs", 0)
    if not total:
        return None
    return p2["reused_arcs"] / total


def _committed_probes_per_claim(baseline: dict, scale: float) -> float | None:
    """Exact probes per claim of the committed core-sweep row at
    ``scale``, None when the baseline has no such row."""
    for row in baseline.get("core_sweep", {}).get("scales", []):
        layout = row.get("layout")
        if row.get("scale") == scale and layout and layout.get("route_claims"):
            return layout["route_exact_probes"] / layout["route_claims"]
    return None


def _fresh_measurement(scale: float, mode: str) -> dict:
    from repro.circuit import s35932_like
    from repro.core.analyzer import CrosstalkSTA
    from repro.core.modes import AnalysisMode, StaConfig
    from repro.flow import prepare_design

    design = prepare_design(s35932_like(scale=scale))
    sta = CrosstalkSTA(design, StaConfig(mode=AnalysisMode(mode)))
    t0 = time.perf_counter()
    result = sta.run()
    seconds = time.perf_counter() - t0
    return {
        "probes_per_claim": design.routing.exact_probes / design.routing.claims,
        "seconds": seconds,
        "arcs_processed": result.arcs_processed,
        "arcs_per_second": result.arcs_processed / seconds,
        "pass_series": [
            {"dirty_arcs": r.dirty_arcs, "reused_arcs": r.reused_arcs}
            for r in result.history
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="committed BENCH_sta_runtime.json to diff against",
    )
    parser.add_argument("--mode", default="iterative")
    parser.add_argument(
        "--aps-floor",
        type=float,
        default=DEFAULT_APS_FLOOR,
        help="fresh arcs/s must stay above this fraction of committed",
    )
    parser.add_argument(
        "--reuse-tol",
        type=float,
        default=DEFAULT_REUSE_TOLERANCE,
        help="allowed absolute drift of the pass-2 reuse fraction",
    )
    args = parser.parse_args(argv)

    if not args.baseline.exists():
        print(f"baseline {args.baseline} not found", file=sys.stderr)
        return 1
    baseline = json.loads(args.baseline.read_text())
    try:
        committed = next(
            row for row in baseline["modes"] if row["mode"] == args.mode
        )["engines"]["batch"]
    except (KeyError, StopIteration):
        print(
            f"baseline has no {args.mode}/batch row; re-run "
            "benchmarks/bench_perf_baseline.py to regenerate it",
            file=sys.stderr,
        )
        return 1

    scale = baseline.get("scale", 0.05)
    print(
        f"fresh run: {baseline.get('circuit', 's35932_like')} at scale "
        f"{scale}, mode={args.mode} ..."
    )
    fresh = _fresh_measurement(scale, args.mode)

    committed_aps = committed["arcs_per_second"]
    fresh_aps = fresh["arcs_per_second"]
    committed_reuse = _pass2_reuse(committed)
    fresh_reuse = _pass2_reuse(fresh)

    failures: list[str] = []
    aps_floor = committed_aps * args.aps_floor
    print(
        f"arcs_per_second: committed {committed_aps:,.0f}, fresh "
        f"{fresh_aps:,.0f} (floor {aps_floor:,.0f} = "
        f"{args.aps_floor:.0%} of committed)"
    )
    if fresh_aps < aps_floor:
        failures.append(
            f"throughput collapsed: {fresh_aps:,.0f} arcs/s is below "
            f"{args.aps_floor:.0%} of the committed {committed_aps:,.0f}"
        )

    if committed_reuse is None:
        print("pass-2 reuse: no committed multi-pass series; skipping")
    elif fresh_reuse is None:
        failures.append(
            "pass-2 reuse: committed baseline has a multi-pass series but "
            "the fresh run converged without one"
        )
    else:
        print(
            f"pass-2 reuse fraction: committed {committed_reuse:.3f}, "
            f"fresh {fresh_reuse:.3f} (tolerance +/-{args.reuse_tol})"
        )
        if abs(fresh_reuse - committed_reuse) > args.reuse_tol:
            failures.append(
                f"pass-2 reuse fraction drifted: {fresh_reuse:.3f} vs "
                f"committed {committed_reuse:.3f} "
                f"(tolerance +/-{args.reuse_tol})"
            )

    committed_probes = _committed_probes_per_claim(baseline, scale)
    fresh_probes = fresh["probes_per_claim"]
    if committed_probes is None:
        failures.append(
            f"baseline has no core_sweep layout row at scale {scale}; re-run "
            "benchmarks/bench_perf_baseline.py to regenerate it"
        )
    else:
        probe_ceiling = committed_probes * (1.0 + PROBE_TOLERANCE)
        print(
            f"router exact probes per claim: committed {committed_probes:.3f}, "
            f"fresh {fresh_probes:.3f} (ceiling {probe_ceiling:.3f})"
        )
        if fresh_probes > probe_ceiling:
            failures.append(
                f"router probes per claim rose: {fresh_probes:.3f} vs "
                f"committed {committed_probes:.3f} (+{PROBE_TOLERANCE:.0%} allowed)"
            )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf trajectory OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
