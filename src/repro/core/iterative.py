"""The iterative refinement algorithm (paper, Section 5.2).

The one-step pass is repeated; after every pass the per-net quiescent
times are stored and fed to the next pass, so no worst-case "uncalculated
neighbour" assumptions remain from the second pass on.  Iteration stops
when the longest-path delay no longer decreases::

    delay := default
    do
        delay_old := delay
        delay := do one-step sta
        store quiescent times for each wire
    while (delay < delay_old)

Every pass individually guarantees an upper bound, so the smallest pass
result is the reported bound.  The optional *Esperance* speed-up
(Benkoski et al. [11]) recomputes only nets on long paths from the second
pass on.

Robustness: a stop is classified as *convergence* (the final pass
matches the best bound) or *oscillation* (the delay bounced back above
an earlier bound -- coupling decisions flipping between passes); an
oscillating stop is logged with the full pass history and counted under
``iterative.oscillation_stops``, and the reported result is still the
smallest pass, so the bound stays valid either way.  An optional
checkpoint store (see :mod:`repro.core.checkpoint`) persists the state
after every pass so an interrupted run resumes bit-identically.
"""

from __future__ import annotations

import logging
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Protocol

from repro.core.propagation import PassResult, Propagator
from repro.flow.design import Design
from repro.waveform.pwl import FALLING, RISING, opposite

logger = logging.getLogger("repro.core.iterative")


@dataclass
class IterationRecord:
    """Bookkeeping for one pass of the iterative algorithm."""

    index: int
    longest_delay: float
    waveform_evaluations: int
    seconds: float
    recalculated_cells: int
    total_cells: int
    cache_evaluations: int = 0
    cache_hits: int = 0
    # Hit taxonomy (distinct, not conflated): in-run deduplication --
    # the same canonical arc situation requested again -- versus reuse
    # of entries loaded from a persistent cache file.
    cache_dedup_hits: int = 0
    cache_persisted_hits: int = 0
    # Delta-driven accounting: arcs that needed at least one waveform
    # solve this pass versus arcs served entirely from the previous
    # pass's memo (unchanged fingerprints).
    dirty_arcs: int = 0
    reused_arcs: int = 0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    # Provenance-ledger rows appended during this pass (0 when disabled).
    provenance_rows: int = 0

    @property
    def recalc_fraction(self) -> float:
        if self.total_cells == 0:
            return 0.0
        return self.recalculated_cells / self.total_cells

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.cache_evaluations + self.cache_hits
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def dedup_ratio(self) -> float:
        """Fraction of cache lookups served by in-run deduplication
        (excludes persistent-cache loads, which are not this run's work)."""
        lookups = self.cache_evaluations + self.cache_hits
        return self.cache_dedup_hits / lookups if lookups else 0.0

    @property
    def dirty_fraction(self) -> float:
        """Fraction of this pass's arcs that actually required solving."""
        arcs = self.dirty_arcs + self.reused_arcs
        return self.dirty_arcs / arcs if arcs else 0.0

    def to_dict(self) -> dict:
        """JSON-safe summary for telemetry artifacts."""
        return {
            "index": self.index,
            "longest_delay_ns": self.longest_delay * 1e9,
            "waveform_evaluations": self.waveform_evaluations,
            "seconds": self.seconds,
            "recalculated_cells": self.recalculated_cells,
            "total_cells": self.total_cells,
            "recalc_fraction": self.recalc_fraction,
            "cache_evaluations": self.cache_evaluations,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "cache_dedup_hits": self.cache_dedup_hits,
            "cache_persisted_hits": self.cache_persisted_hits,
            "dedup_ratio": self.dedup_ratio,
            "dirty_arcs": self.dirty_arcs,
            "reused_arcs": self.reused_arcs,
            "dirty_fraction": self.dirty_fraction,
            "provenance_rows": self.provenance_rows,
            "phase_seconds": dict(self.phase_seconds),
        }


@dataclass
class IterativeResult:
    """Final pass (the converged bound) plus the per-pass history."""

    final: PassResult
    history: list[IterationRecord] = field(default_factory=list)

    @property
    def passes(self) -> int:
        return len(self.history)


class CheckpointStore(Protocol):
    """What :func:`run_iterative` needs from a checkpoint backend
    (satisfied by :class:`repro.core.checkpoint.CheckpointManager`)."""

    def save(
        self,
        current: PassResult,
        best: PassResult,
        history: list[IterationRecord],
        converged: bool,
    ) -> None: ...

    def load(
        self,
    ) -> tuple[PassResult, PassResult, list[IterationRecord], bool] | None: ...


def run_iterative(
    propagator: Propagator,
    checkpoint: CheckpointStore | None = None,
    after_pass: Callable[[int, PassResult], None] | None = None,
) -> IterativeResult:
    """Run the iterative algorithm to convergence.

    ``checkpoint`` persists the state after every pass and, when it
    already holds passes for this configuration, resumes from them
    (bit-identical to an uninterrupted run).  ``after_pass(index,
    result)`` is invoked after each pass is recorded and checkpointed --
    the fault-injection harness uses it to interrupt mid-run.
    """
    config = propagator.config
    total_cells = len(propagator.order)
    history: list[IterationRecord] = []
    obs = propagator.obs
    tracer = obs.tracer
    metrics = obs.metrics
    g_passes = metrics.gauge("iterative.passes")
    g_recalc = metrics.gauge("iterative.recalc_fraction")
    g_dirty = metrics.gauge("iterative.dirty_fraction")
    g_waves = metrics.gauge("iterative.coupling_waves")
    c_waves = metrics.counter("propagation.coupling_waves")
    c_osc = metrics.counter("iterative.oscillation_stops")
    waves_before = c_waves.value

    current: PassResult | None = None
    best: PassResult | None = None
    if checkpoint is not None:
        restored = checkpoint.load()
        if restored is not None:
            current, best, history, converged = restored
            if converged:
                g_passes.set(len(history))
                g_waves.set(c_waves.value - waves_before)
                return IterativeResult(final=best, history=history)

    if current is None:
        with tracer.span("iterative.pass", index=1, full=True):
            t0 = time.perf_counter()
            current = propagator.run_pass(prev_windows=None)
            history.append(
                IterationRecord(
                    index=1,
                    longest_delay=current.longest_delay,
                    waveform_evaluations=current.waveform_evaluations,
                    seconds=time.perf_counter() - t0,
                    recalculated_cells=total_cells,
                    total_cells=total_cells,
                    cache_evaluations=current.cache_evaluations,
                    cache_hits=current.cache_hits,
                    cache_dedup_hits=current.cache_dedup_hits,
                    cache_persisted_hits=current.cache_persisted_hits,
                    dirty_arcs=current.dirty_arcs,
                    reused_arcs=current.reused_arcs,
                    phase_seconds=dict(current.phase_seconds),
                    provenance_rows=current.provenance_rows,
                )
            )
        best = current
        if checkpoint is not None:
            checkpoint.save(current, best, history, converged=False)
        if after_pass is not None:
            after_pass(1, current)

    while len(history) < config.max_iterations:
        windows = current.state.window_snapshot()
        recalc = None
        if config.esperance and len(history) >= 1:
            recalc = esperance_recalc_cells(
                propagator.design, propagator, current, config.esperance_slack
            )
        with tracer.span(
            "iterative.pass",
            index=len(history) + 1,
            full=recalc is None,
            recalc_cells=len(recalc) if recalc is not None else total_cells,
        ):
            t0 = time.perf_counter()
            next_pass = propagator.run_pass(
                prev_windows=windows,
                recalc_cells=recalc,
                prev_state=current.state if recalc is not None else None,
            )
            record = IterationRecord(
                index=len(history) + 1,
                longest_delay=next_pass.longest_delay,
                waveform_evaluations=next_pass.waveform_evaluations,
                seconds=time.perf_counter() - t0,
                recalculated_cells=len(recalc) if recalc is not None else total_cells,
                total_cells=total_cells,
                cache_evaluations=next_pass.cache_evaluations,
                cache_hits=next_pass.cache_hits,
                cache_dedup_hits=next_pass.cache_dedup_hits,
                cache_persisted_hits=next_pass.cache_persisted_hits,
                dirty_arcs=next_pass.dirty_arcs,
                reused_arcs=next_pass.reused_arcs,
                phase_seconds=dict(next_pass.phase_seconds),
                provenance_rows=next_pass.provenance_rows,
            )
            history.append(record)
            g_recalc.set(record.recalc_fraction)
            g_dirty.set(record.dirty_fraction)
        improved = next_pass.longest_delay < best.longest_delay - config.convergence_tolerance
        # Each pass is individually a valid upper bound, so a delay that
        # climbs back *above* the best bound means the coupling decisions
        # are cycling between passes, not converging.  The loop stops
        # either way (best = min is still correct); the distinction only
        # matters for diagnosis.
        oscillating = (
            not improved
            and next_pass.longest_delay
            > best.longest_delay + config.convergence_tolerance
        )
        if next_pass.longest_delay < best.longest_delay:
            best = next_pass
        current = next_pass
        if checkpoint is not None:
            checkpoint.save(current, best, history, converged=not improved)
        if after_pass is not None:
            after_pass(len(history), current)
        if oscillating:
            c_osc.inc()
            logger.warning(
                "iteration stopped on oscillation, not convergence: pass %d "
                "delay %.6e s is above the best bound %.6e s; reporting the "
                "best bound (history: %s)",
                len(history),
                next_pass.longest_delay,
                best.longest_delay,
                ", ".join(f"{r.longest_delay:.6e}" for r in history),
            )
        if not improved:
            break
    g_passes.set(len(history))
    g_waves.set(c_waves.value - waves_before)
    return IterativeResult(final=best, history=history)


def esperance_recalc_cells(
    design: Design,
    propagator: Propagator,
    pass_result: PassResult,
    slack_fraction: float,
) -> set[str]:
    """Nets on long paths, per the Esperance idea: a backward required-time
    sweep over the *stored events* (pure arithmetic, no waveform work)
    marks every net whose slack is within ``slack_fraction`` of the
    longest-path delay; only their driver cells are recomputed."""
    state = pass_result.state
    horizon = pass_result.longest_delay
    threshold = slack_fraction * horizon
    required: dict[tuple[str, str], float] = defaultdict(lambda: float("inf"))

    circuit = design.circuit
    for endpoint in circuit.timing_endpoints():
        net = endpoint.net
        if net is None:
            continue
        for direction in (RISING, FALLING):
            if state.event(net.name, direction) is not None:
                key = (net.name, direction)
                required[key] = min(required[key], horizon)

    for cell in reversed(propagator.order):
        out_net = cell.output_pin.net
        if out_net is None:
            continue
        for out_direction in (RISING, FALLING):
            out_event = state.event(out_net.name, out_direction)
            if out_event is None:
                continue
            req_out = required[(out_net.name, out_direction)]
            if req_out == float("inf"):
                continue
            in_pins = (
                [cell.pins["CLK"]] if cell.is_sequential else cell.input_pins
            )
            for pin in in_pins:
                in_net = pin.net
                if in_net is None:
                    continue
                in_directions = (
                    (RISING, FALLING)
                    if cell.is_sequential
                    else (opposite(out_direction),)
                )
                for in_direction in in_directions:
                    in_event = state.event(in_net.name, in_direction)
                    if in_event is None:
                        continue
                    arc_delay = out_event.t_cross - in_event.t_cross
                    key = (in_net.name, in_direction)
                    required[key] = min(required[key], req_out - arc_delay)

    recalc: set[str] = set()
    for (net_name, direction), req in required.items():
        event = state.event(net_name, direction)
        if event is None:
            continue
        slack = req - event.t_cross
        if slack <= threshold:
            net = circuit.nets.get(net_name)
            if net is None:
                continue
            driver = net.driver_cell()
            if driver is not None:
                recalc.add(driver.name)
    return recalc
