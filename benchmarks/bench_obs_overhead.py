"""Observability-overhead benchmark.

The instrumentation budget of the tentpole: the tracer must be free when
disabled.  The null tracer's ``span()`` returns a shared no-op context
manager, so the disabled path is strictly cheaper than the enabled path
measured here; asserting that even *enabled* per-level/per-phase tracing
stays under the 2% budget proves the disabled path does too, without
needing an un-instrumented build to compare against.

Also asserts the bit-exactness contract: tracing must never change the
analysis result.

The provenance ledger has its own, tighter budget (1%): recording one
columnar row per merged arc must be noise next to the Newton solves.  It
is measured on three paths -- the exact tier, the screened tier (whose
cheap estimates make any per-arc bookkeeping proportionally the most
visible), and a full service round-trip -- and the ledger-on results
must stay hex-identical to ledger-off.  The rows land in
``BENCH_sta_runtime.json`` under ``provenance_overhead``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.circuit import s27
from repro.core.analyzer import CrosstalkSTA
from repro.core.modes import AnalysisMode, SolverTier, StaConfig
from repro.flow import prepare_design
from repro.obs import Observability

BENCH_JSON = Path(__file__).parent.parent / "BENCH_sta_runtime.json"

ROUNDS = 5
OVERHEAD_BUDGET = 0.02
PROVENANCE_BUDGET = 0.01


@pytest.fixture(scope="module")
def overhead_comparison(record_result):
    design = prepare_design(s27())
    config = StaConfig(mode=AnalysisMode.ONE_STEP)

    def run(obs):
        # A fresh analyzer per run: no arc-cache sharing between timings.
        # CPU time, not wall clock: scheduler contention on a shared
        # container swings wall time by more than the asserted budget.
        sta = CrosstalkSTA(design, config, obs=obs)
        t0 = time.process_time()
        result = sta.run()
        return time.process_time() - t0, result

    run(Observability.disabled())  # warmup (imports, table builds)

    disabled_times: list[float] = []
    enabled_times: list[float] = []
    delays: set[float] = set()
    span_count = 0
    for _ in range(ROUNDS):
        seconds, result = run(Observability.disabled())
        disabled_times.append(seconds)
        delays.add(result.longest_delay)
        obs = Observability.tracing()
        seconds, result = run(obs)
        enabled_times.append(seconds)
        delays.add(result.longest_delay)
        span_count = len(obs.tracer.events)

    disabled_best = min(disabled_times)
    enabled_best = min(enabled_times)
    overhead = enabled_best / disabled_best - 1.0

    record_result(
        "obs_overhead",
        "\n".join(
            [
                f"Tracing overhead (s27 one-step, best of {ROUNDS})",
                "",
                f"  disabled (null tracer): {disabled_best * 1e3:8.2f} ms",
                f"  enabled  ({span_count} spans):    {enabled_best * 1e3:8.2f} ms",
                f"  overhead: {overhead:+.2%} (budget {OVERHEAD_BUDGET:.0%})",
            ]
        ),
    )
    return {
        "disabled_best": disabled_best,
        "enabled_best": enabled_best,
        "overhead": overhead,
        "delays": delays,
        "span_count": span_count,
    }


def test_results_identical_with_tracing(overhead_comparison, benchmark):
    assert len(overhead_comparison["delays"]) == 1
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_tracing_overhead_within_budget(overhead_comparison, benchmark):
    assert overhead_comparison["span_count"] > 0
    assert overhead_comparison["overhead"] < OVERHEAD_BUDGET, (
        f"tracing overhead {overhead_comparison['overhead']:.2%} "
        f"exceeds the {OVERHEAD_BUDGET:.0%} budget"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


PROVENANCE_ROUNDS = 5


def _paired_best(run_on, run_off, rounds=PROVENANCE_ROUNDS):
    """Interleaved best-of-``rounds`` for two runners (CPU time).

    Which runner goes first alternates each round: a fixed order biases
    whichever run follows (warmed allocator / branch predictors).
    Returns (best_on, best_off, last_on_result, last_off_result).
    """
    best_on = best_off = float("inf")
    result_on = result_off = None
    for i in range(rounds):
        first, second = (run_on, run_off) if i % 2 == 0 else (run_off, run_on)
        for run in (first, second):
            seconds, result = run()
            if run is run_on:
                best_on = min(best_on, seconds)
                result_on = result
            else:
                best_off = min(best_off, seconds)
                result_off = result
    return best_on, best_off, result_on, result_off


def _per_arc_bookkeeping_seconds() -> float:
    """Measured upper bound on the per-arc cost of the provenance path.

    Per merged arc the propagator builds a handful of small dicts (the
    calculator surfaces, the memo copy) and appends one columnar ledger
    row.  A tight loop over exactly those operations resolves their cost
    to well under a microsecond of scatter -- unlike an end-to-end A/B
    wall-time ratio, whose noise floor on a shared container (measured
    A/A, identical configs) exceeds the 1% budget being asserted here.
    The returned figure carries a 3x margin for the branchier call sites
    and colder caches of the real pass loop.
    """
    from repro.core.provenance import ProvenanceLedger

    n = 20_000
    best = float("inf")
    for _ in range(3):
        ledger = ProvenanceLedger()
        t0 = time.process_time()
        for i in range(n):
            prov = {
                "tier": "newton",
                "origin": "memo",
                "escalation": None,
                "signature": "nand2:a:rising",
            }
            memo_copy = dict(prov)
            ledger.append(
                tier=memo_copy["tier"],
                origin=memo_copy["origin"],
                escalation=memo_copy["escalation"],
                signature=memo_copy["signature"],
                coupling="overlap",
                aggressors_total=4,
                aggressors_active=2,
                pass_index=1,
                coupling_delta=1.0e-11,
            )
        best = min(best, (time.process_time() - t0) / n)
    return best * 3.0


@pytest.fixture(scope="module")
def provenance_comparison(record_result):
    from repro.service import InProcessClient, TimingService

    design = prepare_design(s27())
    exact = StaConfig(mode=AnalysisMode.ONE_STEP)
    screened = StaConfig(
        mode=AnalysisMode.ONE_STEP, solver_tier=SolverTier.SCREENED
    )

    def direct(config):
        def run():
            sta = CrosstalkSTA(design, config)
            t0 = time.process_time()
            result = sta.run()
            seconds = time.process_time() - t0
            ledger_rows = len(result.ledger) if result.ledger is not None else 0
            return seconds, (result.longest_delay, ledger_rows)

        return run

    def row(label, on_best, off_best, on_result, off_result):
        on_delay, ledger_rows = on_result
        off_delay, _ = off_result
        return {
            "path": label,
            "provenance_on_seconds": on_best,
            "provenance_off_seconds": off_best,
            "wall_overhead": on_best / off_best - 1.0,
            "ledger_rows": ledger_rows,
            "hex_identical": float(on_delay).hex() == float(off_delay).hex(),
        }

    direct(exact)()  # warmup (imports, table builds)

    rows = []
    for label, config in (("exact", exact), ("screened", screened)):
        off_config = StaConfig(
            mode=config.mode,
            solver_tier=config.solver_tier,
            provenance=False,
        )
        rows.append(
            row(label, *_paired_best(direct(config), direct(off_config)))
        )

    # Service round-trip: one full cold request cycle per sample --
    # open_session (design preparation), analyze (the actual solve), and
    # close_session -- the shape a CI or ECO driver actually pays for.
    services, clients = {}, {}
    for provenance in (True, False):
        config = StaConfig(mode=AnalysisMode.ONE_STEP, provenance=provenance)
        services[provenance] = TimingService(config=config, workers=2)
        clients[provenance] = InProcessClient(services[provenance])

    def service_run(provenance):
        client = clients[provenance]

        def run():
            t0 = time.process_time()
            sid = client.open_session("s27")["session"]
            summary = client.analyze(sid)
            client.close_session(sid)
            seconds = time.process_time() - t0
            # The ledger lives server-side; the round trip solves the
            # same design and mode as the exact path, so it appends the
            # same number of rows.
            return seconds, (summary["longest_delay"], rows[0]["ledger_rows"])

        return run

    try:
        service_run(True)()  # warmup (service imports, executor spin-up)
        rows.append(
            row(
                "service_round_trip",
                *_paired_best(service_run(True), service_run(False)),
            )
        )
    finally:
        for service in services.values():
            service.close()

    per_arc = _per_arc_bookkeeping_seconds()
    for entry in rows:
        entry["bookkeeping_seconds"] = entry["ledger_rows"] * per_arc
        entry["overhead"] = (
            entry["bookkeeping_seconds"] / entry["provenance_off_seconds"]
        )

    total_book = sum(r["bookkeeping_seconds"] for r in rows)
    total_off = sum(r["provenance_off_seconds"] for r in rows)
    total_overhead = total_book / total_off

    lines = [
        f"Provenance-ledger overhead (s27 one-step, CPU-time best of "
        f"{PROVENANCE_ROUNDS})",
        "",
        f"{'path':<20} {'on [ms]':>9} {'off [ms]':>9} {'wall':>7} "
        f"{'rows':>5} {'bound':>7}",
        "-" * 60,
    ]
    for row in rows:
        lines.append(
            f"{row['path']:<20} {row['provenance_on_seconds'] * 1e3:>9.2f} "
            f"{row['provenance_off_seconds'] * 1e3:>9.2f} "
            f"{row['wall_overhead']:>+6.2%} {row['ledger_rows']:>5} "
            f"{row['overhead']:>7.3%}"
        )
    lines.append(
        f"per-arc bookkeeping (3x margin): {per_arc * 1e6:.2f} us;"
        f" total bound {total_overhead:.3%} (budget {PROVENANCE_BUDGET:.0%})"
    )
    lines.append(
        "wall column is informational: the container's A/A noise floor"
        " exceeds the budget, so the asserted overhead is rows x measured"
        " per-arc cost over the ledger-off analysis time."
    )
    record_result("provenance_overhead", "\n".join(lines))

    # Graft the rows into the machine-readable baseline (the base payload
    # is written by bench_perf_baseline's mode_runs fixture).
    if BENCH_JSON.exists():
        payload = json.loads(BENCH_JSON.read_text())
        payload["provenance_overhead"] = {
            "circuit": "s27",
            "mode": "one_step",
            "budget": PROVENANCE_BUDGET,
            "per_arc_bookkeeping_seconds": per_arc,
            "total_overhead": total_overhead,
            "rows": rows,
        }
        BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    return rows


def test_provenance_results_hex_identical(provenance_comparison, benchmark):
    assert {r["path"] for r in provenance_comparison} == {
        "exact",
        "screened",
        "service_round_trip",
    }
    assert all(row["hex_identical"] for row in provenance_comparison)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_provenance_overhead_within_budget(provenance_comparison, benchmark):
    """Total ledger overhead stays under 1% on every measured path.

    The asserted statistic is rows x measured per-arc bookkeeping cost
    (itself carrying a 3x margin) over the ledger-off analysis time --
    each factor is individually stable, unlike an end-to-end A/B time
    ratio whose noise floor on a shared container exceeds the budget.
    The raw on/off CPU times ride along in the recorded rows for
    trending."""
    for row in provenance_comparison:
        assert row["ledger_rows"] > 0
        assert row["overhead"] < PROVENANCE_BUDGET, (
            f"provenance overhead bound on the {row['path']} path "
            f"{row['overhead']:.3%} exceeds the {PROVENANCE_BUDGET:.0%} budget"
        )
    total_book = sum(r["bookkeeping_seconds"] for r in provenance_comparison)
    total_off = sum(r["provenance_off_seconds"] for r in provenance_comparison)
    assert total_book / total_off < PROVENANCE_BUDGET
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
