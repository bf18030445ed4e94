"""Runtime baselines of the batched solver over the columnar core.

Runs every analysis mode on the s35932-like circuit and records
wall-clock, arcs/second, per-pass work and per-run metrics, plus the
two-tier screened solver against exact Newton.

A second section sweeps the circuit scale (0.05 / 0.2 / 1.0 -- the last
is the paper's full-size s35932) and times the one-step analysis,
recording compile time and peak RSS per run, plus the physical front
end: ``prepare_design``, a second, separately timed ``route`` on the same
placement, and the design's claim and exact-probe counts and route
digest, which must equal the one frozen in ``tests/golden/routes.json``.
``REPRO_SWEEP_MAX=<float>`` caps the sweep's largest scale for quick
local runs.

Besides the human-readable results block, the numbers are written
machine-readable to ``BENCH_sta_runtime.json`` at the repo root so CI and
future sessions can track regressions.  Rows keep the ``engines.batch``
and ``cores.columnar`` nesting of the files written while a scalar engine
and an object core were still measured beside them, so committed history
and fresh runs read the same way.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import pytest

from repro.circuit import s35932_like
from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode, SolverTier, StaConfig
from repro.flow import prepare_design
from repro.layout.routing import route

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))  # tests.golden: the route fixtures

from tests.golden.make_routes import FIXTURE_PATH as ROUTES_JSON  # noqa: E402
from tests.golden.make_routes import route_digest  # noqa: E402

BENCH_JSON = REPO / "BENCH_sta_runtime.json"

SCREEN_TOLERANCE = 100e-12

# The core sweep's scales; 1.0 is the paper's full-size s35932, the
# smaller points keep the curve's shape visible.
SWEEP_SCALES = (0.05, 0.2, 1.0)
SWEEP_MODE = AnalysisMode.ONE_STEP

# The committed batch-engine baseline the columnar core was measured
# against when it landed (one_step/batch over the since-deleted object
# core): the acceptance target is >= 5x this throughput at scale 1.0.
OBJECT_BASELINE_APS = 1385.0
COLUMNAR_TARGET_SPEEDUP = 5.0

# Full-size ``prepare_design`` with the plain outward ``fits`` scan, before
# the router's occupancy filter (ROADMAP "Measured baseline"); the
# filtered router must make it at least 3x faster.
PREPARE_BASELINE_SECONDS = 148.9
PREPARE_TARGET_SPEEDUP = 3.0


def _peak_rss_mb() -> float:
    """Process-lifetime peak resident set in MiB (ru_maxrss is KiB on
    Linux).  Monotone over the process, so the sweep runs smallest scale
    first and each row's figure is the high-water mark up to that run."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@pytest.fixture(scope="module")
def mode_runs(scale, record_result):
    design = prepare_design(s35932_like(scale=scale))
    guard = StaConfig().guard
    rows = []
    for mode in AnalysisMode:
        # A fresh analyzer per run: no cross-mode cache sharing.
        sta = CrosstalkSTA(design, StaConfig(mode=mode))
        t0 = time.perf_counter()
        result = sta.run()
        seconds = time.perf_counter() - t0
        batch = {
            "seconds": seconds,
            "longest_delay": result.longest_delay,
            "arcs_processed": result.arcs_processed,
            "waveform_evaluations": result.waveform_evaluations,
            "arcs_per_second": result.arcs_processed / seconds,
            "passes": result.passes,
            # Per-pass series: how the delta-driven engine's work decays
            # over the iterative passes (pass 1 pays in full, later
            # passes only re-solve dirty arcs).
            "pass_series": [
                {
                    "index": record.index,
                    "seconds": record.seconds,
                    "waveform_evaluations": record.waveform_evaluations,
                    "cache_evaluations": record.cache_evaluations,
                    "dedup_hits": record.cache_dedup_hits,
                    "persisted_hits": record.cache_persisted_hits,
                    "dirty_arcs": record.dirty_arcs,
                    "reused_arcs": record.reused_arcs,
                }
                for record in result.history
            ],
            # Per-run metrics delta (counters/gauges/histograms) so CI
            # can track solver behaviour, not just wall-clock.
            "metrics": result.telemetry.metrics if result.telemetry else {},
        }
        rows.append({"mode": mode.value, "engines": {"batch": batch}})

    lines = [
        f"Batched solver, columnar core (s35932-like at scale {scale})",
        "",
        f"{'mode':<16} {'seconds':>9} {'arcs/s':>9} {'passes':>7} {'delay ns':>10}",
        "-" * 55,
    ]
    for row in rows:
        batch = row["engines"]["batch"]
        lines.append(
            f"{row['mode']:<16} {batch['seconds']:>9.2f} "
            f"{batch['arcs_per_second']:>9.0f} {batch['passes']:>7} "
            f"{batch['longest_delay'] * 1e9:>10.4f}"
        )
    record_result("perf_baseline", "\n".join(lines))

    BENCH_JSON.write_text(
        json.dumps(
            {
                "benchmark": "sta_runtime",
                "circuit": "s35932_like",
                "scale": scale,
                "guard": guard,
                "python": platform.python_version(),
                "modes": rows,
            },
            indent=2,
        )
        + "\n"
    )
    return {"rows": rows, "guard": guard}


def _timed_run(design, config):
    sta = CrosstalkSTA(design, config)
    t0 = time.perf_counter()
    result = sta.run()
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def screened_comparison(scale, record_result, mode_runs):
    """Two-tier solver vs exact Newton, per analysis mode.

    Three runs per mode: exact, screened with refinement disabled (the
    pure pass-1 screening numbers the ISSUE budgets), and screened with
    the default slack refinement (the shipping configuration, whose
    longest-path delta must sit inside the tolerance).  Coupled modes
    (worst_case, one_step, iterative) escalate every actively coupled
    arc by design -- slew is non-monotone in active coupling -- so only
    the uncoupled-screenable modes are expected to beat the 20% / 3x
    pass-1 budgets."""
    design = prepare_design(s35932_like(scale=scale))
    rows = []
    for mode in AnalysisMode:
        exact, exact_seconds = _timed_run(design, StaConfig(mode=mode))
        pass1, pass1_seconds = _timed_run(
            design,
            StaConfig(
                mode=mode,
                solver_tier=SolverTier.SCREENED,
                screen_tolerance=SCREEN_TOLERANCE,
                screen_slack_margin=0.0,
            ),
        )
        refined, refined_seconds = _timed_run(
            design,
            StaConfig(
                mode=mode,
                solver_tier=SolverTier.SCREENED,
                screen_tolerance=SCREEN_TOLERANCE,
            ),
        )
        stats = pass1.cache_stats
        tiers = stats["tier_counts"]
        total_queries = sum(tiers.values())
        rows.append(
            {
                "mode": mode.value,
                "tolerance": SCREEN_TOLERANCE,
                "exact": {
                    "seconds": exact_seconds,
                    "pass1_seconds": exact.history[0].seconds,
                    "solves": exact.cache_stats["evaluations"],
                    "longest_delay": exact.longest_delay,
                },
                "screened_pass1": {
                    "seconds": pass1_seconds,
                    "pass1_seconds": pass1.history[0].seconds,
                    "solves": stats["evaluations"],
                    "longest_delay": pass1.longest_delay,
                    "tier_counts": dict(tiers),
                    "escalations": dict(stats["escalations"]),
                    "escalation_fraction": (
                        tiers["newton"] / total_queries if total_queries else 0.0
                    ),
                    "anchor_solves": stats["anchor_solves"],
                    "coarse_solves": stats["coarse_solves"],
                },
                "solve_fraction": (
                    stats["evaluations"] / exact.cache_stats["evaluations"]
                ),
                "pass1_speedup": (
                    exact.history[0].seconds / pass1.history[0].seconds
                ),
                "screened_refined": {
                    "seconds": refined_seconds,
                    "solves": refined.cache_stats["evaluations"],
                    "longest_delay": refined.longest_delay,
                },
                "longest_path_delta_pass1": (
                    pass1.longest_delay - exact.longest_delay
                ),
                "longest_path_delta": (
                    refined.longest_delay - exact.longest_delay
                ),
            }
        )

    lines = [
        f"Two-tier screened solver vs exact (s35932-like at scale {scale}, "
        f"tolerance {SCREEN_TOLERANCE * 1e12:.0f} ps)",
        "",
        f"{'mode':<16} {'solves':>13} {'esc frac':>9} {'p1 speedup':>11} "
        f"{'d(p1)':>10} {'d(refined)':>11}",
        "-" * 76,
    ]
    for row in rows:
        solves = (
            f"{row['screened_pass1']['solves']}/{row['exact']['solves']}"
        )
        lines.append(
            f"{row['mode']:<16} {solves:>13} "
            f"{row['screened_pass1']['escalation_fraction']:>8.1%} "
            f"{row['pass1_speedup']:>10.2f}x "
            f"{row['longest_path_delta_pass1'] * 1e12:>9.1f}ps "
            f"{row['longest_path_delta'] * 1e12:>10.2f}ps"
        )
    record_result("perf_screened", "\n".join(lines))

    # mode_runs already wrote the base payload; graft the
    # screened section on so both live in one machine-readable file.
    payload = json.loads(BENCH_JSON.read_text())
    payload["screened"] = {"tolerance": SCREEN_TOLERANCE, "modes": rows}
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    return rows


def test_iterative_pass_work_decays(mode_runs, benchmark):
    """Delta-driven reuse: from the second pass on, at most 30% of the
    first pass's waveform evaluations are issued."""
    row = next(
        r for r in mode_runs["rows"] if r["mode"] == AnalysisMode.ITERATIVE.value
    )
    series = row["engines"]["batch"]["pass_series"]
    assert len(series) >= 2, "iterative converged in one pass"
    first = series[0]["waveform_evaluations"]
    for later in series[1:]:
        assert later["waveform_evaluations"] <= 0.30 * first, (
            f"pass {later['index']} issued "
            f"{later['waveform_evaluations']} of {first} evaluations"
        )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_screened_pass1_meets_issue_budget(screened_comparison, benchmark):
    """Headline criterion: on uncoupled-screenable modes the screened
    pass issues at most 20% of the exact solve count (>= 5x reduction)
    and the pass-1 wall-clock improves by at least 3x."""
    for mode in ("best_case", "static_doubled"):
        row = next(r for r in screened_comparison if r["mode"] == mode)
        assert row["solve_fraction"] <= 0.20, (
            f"{mode}: screened issued {row['solve_fraction']:.1%} of the "
            f"exact solves (> 20% budget)"
        )
        assert row["pass1_speedup"] >= 3.0, (
            f"{mode}: pass-1 speedup only {row['pass1_speedup']:.2f}x"
        )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_screened_conservative_in_every_mode(screened_comparison, benchmark):
    """The screened bound never undercuts exact, and with the default
    slack refinement the reported delay lands inside the tolerance."""
    for row in screened_comparison:
        assert row["longest_path_delta_pass1"] >= -1e-15, row["mode"]
        assert row["longest_path_delta"] >= -1e-15, row["mode"]
        assert row["longest_path_delta"] <= row["tolerance"] + 1e-15, row["mode"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_batch_never_changes_the_bound_semantics(mode_runs, benchmark):
    """Mode ordering (best <= one-step <= worst) holds for the reported
    delays."""
    delays = {
        row["mode"]: row["engines"]["batch"]["longest_delay"]
        for row in mode_runs["rows"]
    }
    guard = mode_runs["guard"]
    assert delays["best_case"] <= delays["one_step"] + guard
    assert delays["one_step"] <= delays["worst_case"] + guard
    assert delays["iterative"] <= delays["one_step"] + guard
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.fixture(scope="module")
def core_sweep(record_result, screened_comparison):
    """The columnar core across circuit scales, one-step mode.

    Ordered smallest scale first so the peak-RSS column (a process-wide
    high-water mark) is dominated by each row's own run.  Depends on
    ``screened_comparison`` only to serialize the BENCH_JSON grafts."""
    sweep_max = float(os.environ.get("REPRO_SWEEP_MAX", "1.0"))
    rows = []
    for sweep_scale in SWEEP_SCALES:
        if sweep_scale > sweep_max:
            continue
        t0 = time.perf_counter()
        design = prepare_design(s35932_like(scale=sweep_scale))
        prepare_seconds = time.perf_counter() - t0
        # prepare_design does not time its stages, so the router runs once
        # more on the same placement for route_seconds alone; the counts
        # and the digest come from the design's own routing.
        t0 = time.perf_counter()
        route(design.circuit, design.placement, design.technology)
        route_seconds = time.perf_counter() - t0
        layout = {
            "prepare_seconds": prepare_seconds,
            "route_seconds": route_seconds,
            "route_claims": design.routing.claims,
            "route_exact_probes": design.routing.exact_probes,
            "route_sha256": route_digest(design.routing)["route_sha256"],
        }
        sta = CrosstalkSTA(design, StaConfig(mode=SWEEP_MODE))
        t0 = time.perf_counter()
        result = sta.run()
        seconds = time.perf_counter() - t0
        columnar = {
            "seconds": seconds,
            "compile_seconds": result.compile_seconds,
            "arcs_processed": result.arcs_processed,
            "arcs_per_second": result.arcs_processed / seconds,
            "longest_delay": result.longest_delay,
            "peak_rss_mb": _peak_rss_mb(),
        }
        rows.append(
            {
                "scale": sweep_scale,
                "mode": SWEEP_MODE.value,
                "layout": layout,
                "cores": {"columnar": columnar},
            }
        )

    lines = [
        "Columnar core across scales (s35932-like, one-step)",
        "",
        f"{'scale':>6} {'arcs':>7} {'seconds':>9} {'arcs/s':>9} "
        f"{'compile s':>10} {'rss MB':>8} {'prepare s':>10} {'route s':>8} "
        f"{'probes/claim':>13}",
        "-" * 88,
    ]
    for row in rows:
        col = row["cores"]["columnar"]
        lay = row["layout"]
        lines.append(
            f"{row['scale']:>6.2f} {col['arcs_processed']:>7} "
            f"{col['seconds']:>9.2f} {col['arcs_per_second']:>9.0f} "
            f"{col['compile_seconds']:>10.3f} {col['peak_rss_mb']:>8.0f} "
            f"{lay['prepare_seconds']:>10.2f} {lay['route_seconds']:>8.2f} "
            f"{lay['route_exact_probes'] / lay['route_claims']:>13.3f}"
        )
    record_result("perf_core_sweep", "\n".join(lines))

    payload = json.loads(BENCH_JSON.read_text())
    payload["core_sweep"] = {
        "mode": SWEEP_MODE.value,
        "object_baseline_arcs_per_second": OBJECT_BASELINE_APS,
        "prepare_baseline_seconds": PREPARE_BASELINE_SECONDS,
        "scales": rows,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    return rows


def test_columnar_meets_issue_target_at_full_scale(core_sweep, benchmark):
    """Acceptance criterion: full-size s35932 (scale 1.0) one-step
    completes under the columnar core at >= 5x the committed
    batch-engine baseline's arcs/s."""
    full = [row for row in core_sweep if row["scale"] >= 1.0]
    if not full:
        pytest.skip("sweep capped below scale 1.0 (REPRO_SWEEP_MAX)")
    aps = full[0]["cores"]["columnar"]["arcs_per_second"]
    floor = COLUMNAR_TARGET_SPEEDUP * OBJECT_BASELINE_APS
    assert aps >= floor, (
        f"columnar scale-1.0 throughput {aps:,.0f} arcs/s is below the "
        f"{COLUMNAR_TARGET_SPEEDUP:.0f}x target over the committed "
        f"{OBJECT_BASELINE_APS:,.0f} arcs/s baseline"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_compile_amortizes_at_bench_scale(core_sweep, benchmark):
    """The one-time columnar compile must stay a small fraction of even
    the smallest sweep point's solve time (<= 10% at scale 0.05)."""
    row = core_sweep[0]
    col = row["cores"]["columnar"]
    assert col["compile_seconds"] <= 0.10 * col["seconds"], (
        f"compile {col['compile_seconds']:.3f}s exceeds 10% of the "
        f"{col['seconds']:.3f}s solve at scale {row['scale']}"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_routes_match_golden_fixtures(core_sweep, benchmark):
    """Every sweep scale routes to the digest frozen in
    ``tests/golden/routes.json`` -- scale 1.0 is checked only here."""
    golden = json.loads(Path(ROUTES_JSON).read_text())["cases"]
    for row in core_sweep:
        frozen = golden[f"gen:s35932@{row['scale']}"]
        assert row["layout"]["route_sha256"] == frozen["route_sha256"], row["scale"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_full_scale_prepare_meets_target(core_sweep, benchmark):
    """Full-size ``prepare_design`` is at least 3x faster than the
    committed pre-filter baseline."""
    full = [row for row in core_sweep if row["scale"] >= 1.0]
    if not full:
        pytest.skip("sweep capped below scale 1.0 (REPRO_SWEEP_MAX)")
    seconds = full[0]["layout"]["prepare_seconds"]
    ceiling = PREPARE_BASELINE_SECONDS / PREPARE_TARGET_SPEEDUP
    assert seconds <= ceiling, (
        f"scale-1.0 prepare_design took {seconds:.1f}s, above the "
        f"{ceiling:.1f}s target ({PREPARE_TARGET_SPEEDUP:.0f}x under the "
        f"committed {PREPARE_BASELINE_SECONDS:.1f}s)"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
