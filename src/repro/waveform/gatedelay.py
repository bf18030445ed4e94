"""Per-arc gate delay calculation with caching.

Wraps the stage solvers into the operation the STA performs on every
timing arc: given the switching input's ramp event, the cell/pin, and the
victim output's coupling situation, produce the output ramp event.

Results are cached on a *canonicalized* quantized key: instead of the
(cell, pin) name pair, the key carries the arc's **stage signature** --
an interned token of the collapsed pull-up/pull-down device parameters
the stage solver actually integrates (see :func:`_stage_params`).  Two
arcs through differently named cells or pins that collapse to the same
devices are electrically the same integration, so they share one cache
entry and one Newton solve; the token is a content hash of the device
parameters, which makes it stable across runs and safe to persist.  The
remaining key fields are the input direction and the quantized slew /
passive load / active-coupling configuration.  Quantization rounds the
load and slew *up* (slower, later -- conservative for the delay bound);
signature sharing itself is exact, not approximate: equal collapsed
devices build bit-identical stage tables, so the shared result equals
what a per-(cell, pin) solve would have produced.  The small
non-conservative error quantization leaves on the early-activity marker
is covered by the STA's comparison guard band (``StaConfig.guard``).

Two solvers fill the cache:

* the vectorized :class:`~repro.waveform.batchstage.BatchStageSolver`,
  used by :meth:`GateDelayCalculator.prime_keys` to integrate all
  distinct situations of a batch simultaneously -- optionally fanned out
  over a ``ProcessPoolExecutor`` for multi-core scaling -- and
* the serial :class:`~repro.waveform.stage.StageSolver`, one arc at a
  time, for batches too small to amortize the vectorized setup and for
  lookups that were not primed.  It is also the bitwise oracle the batch
  solver is tested against.

The cache can persist across runs (:meth:`save_cache_file` /
:meth:`load_cache_file`): a JSON file keyed by a fingerprint of the
process, the cell library's collapsed stage devices and the solver
settings, so the iterative mode's repeat passes and repeated benchmark
invocations skip Newton entirely.

Fault tolerance: because every result of the analysis is an *upper
bound* on the true last event (paper, Section 3), the correct response
to a numerical failure is a coarser-but-still-safe bound, not a crash.
When both Newton and its bisection fallback fail on an arc, the
calculator substitutes a conservative ramp bound (see
:meth:`GateDelayCalculator._conservative_arc`), counts it under
``solver.degraded_arcs`` and annotates it in
:attr:`GateDelayCalculator.degraded`; ``strict=True`` restores the
fail-fast behaviour.  The multi-core fan-out likewise survives worker
death and hangs (bounded retries with backoff, then an in-process
replay of the chunk), and persistent cache files are checksummed --
corrupt ones are quarantined to ``<path>.bad`` and rebuilt.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import os
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.circuit.library import CellType
from repro.devices.params import ProcessParams, default_process
from repro.devices.tables import StageTable
from repro.errors import CacheError, InputError, SolverError
from repro.obs.metrics import NEWTON_ITER_BUCKETS, MetricsRegistry
from repro.waveform.batchstage import BatchArcSpec, BatchStageSolver
from repro.waveform.coupling import CouplingLoad
from repro.waveform.pwl import RISING, opposite
from repro.waveform.ramp import RampEvent
from repro.waveform.screening import ArcScreen
from repro.waveform.stage import (
    MAX_EXTENSIONS,
    SETTLE_FRACTION,
    STEPS_PER_PHASE,
    InputRamp,
    StageResult,
    StageSolver,
)

logger = logging.getLogger("repro.waveform.gatedelay")

# Format 2 added the content checksum over the arc table; format 3
# replaced the (cell, pin) key prefix with the canonical stage signature.
CACHE_FORMAT = 3

# Below this many distinct situations a batched solve does not amortize
# its setup; fall through to the serial solver.
MIN_BATCH = 4


@dataclass(frozen=True)
class ArcResult:
    """Stage response in the input-ramp-start time frame (t_start = 0)."""

    direction: str
    t_cross: float
    transition: float
    t_early: float
    t_late: float
    coupled: bool

    def to_event(self, t_start: float) -> RampEvent:
        """Materialise as an absolute-time ramp event."""
        return RampEvent(
            direction=self.direction,
            t_cross=t_start + self.t_cross,
            transition=self.transition,
            t_early=t_start + self.t_early,
            t_late=t_start + self.t_late,
        )


@dataclass(frozen=True)
class ArcRequest:
    """One arc situation for batched priming (pre-quantization values)."""

    ctype: CellType
    pin: str
    input_direction: str
    input_transition: float
    load: CouplingLoad
    aiding: bool = False
    quantize_down: bool = False
    # Screened tier only: route this request to the full Newton solve
    # (slack-critical arc).  Not part of the canonical cache key.
    force_exact: bool = False


def _stage_params(ctype: CellType, pin: str, process: ProcessParams):
    """Collapsed (pull-up, pull-down) device parameter tuples for an arc,
    or ``None`` per side -- the electrical identity of a stage table."""
    pull_up, pull_down = ctype.topology.equivalent_stage(pin, process)
    pu = dataclasses.astuple(pull_up.params) if pull_up is not None else None
    pd = dataclasses.astuple(pull_down.params) if pull_down is not None else None
    return pu, pd


def _signature_token(params: tuple) -> str:
    """Stable content token of one collapsed-stage electrical identity.

    Hashing the device parameter tuples (via their JSON float reprs,
    which are round-trip exact) gives a token that is identical across
    processes and runs, so canonical cache keys survive persistence.
    """
    blob = json.dumps(params, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def library_fingerprint(
    process: ProcessParams,
    cell_types: Iterable[CellType],
    transition_grid: float,
    cap_grid: float,
    table_points: int,
) -> str:
    """Hash of everything that determines an arc result.

    Two runs with equal fingerprints may share cached arcs: the process
    constants, the collapsed stage devices of every (cell, pin), the
    quantization grids, the table resolution and the solver settings.
    """
    cells = {}
    for ctype in sorted({c.name: c for c in cell_types}.values(), key=lambda c: c.name):
        pins = {}
        for pin in dict.fromkeys(list(ctype.inputs) + ["A"]):
            try:
                pu, pd = _stage_params(ctype, pin, process)
            except (KeyError, ValueError):
                continue
            if pu is None and pd is None:
                continue
            pins[pin] = [pu, pd]
        cells[ctype.name] = pins
    payload = {
        "process": dataclasses.asdict(process),
        "transition_grid": transition_grid,
        "cap_grid": cap_grid,
        "table_points": table_points,
        "solver": {
            "steps_per_phase": STEPS_PER_PHASE,
            "settle_fraction": SETTLE_FRACTION,
            "max_extensions": MAX_EXTENSIONS,
        },
        "cells": cells,
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


# -- worker-process machinery for the opt-in multi-core fan-out ------------
#
# Stage tables are shipped to the workers ONCE per executor: the pool is
# created with an initializer that receives the process constants, the
# table resolution and the parent's currently known stage signatures, and
# prebuilds the corresponding tables into the per-process cache.  Chunk
# payloads then carry only the work items themselves; an item references
# its stage by the raw device parameter tuples, so a signature discovered
# after executor start is simply built (and cached) on first use without
# any executor rebuild.

_WORKER_TABLES: dict = {}
_WORKER_CTX: dict = {}


def _worker_table(pu, pd) -> StageTable:
    """The per-worker-process stage table for one collapsed stage."""
    from repro.devices.mosfet import Mosfet, MosfetParams

    process = _WORKER_CTX["process"]
    table_points = _WORKER_CTX["table_points"]
    cache_key = (pu, pd, table_points)
    table = _WORKER_TABLES.get(cache_key)
    if table is None:
        pull_up = Mosfet(MosfetParams(*pu), process) if pu is not None else None
        pull_down = Mosfet(MosfetParams(*pd), process) if pd is not None else None
        table = StageTable(pull_up, pull_down, process=process, points=table_points)
        _WORKER_TABLES[cache_key] = table
    return table


def _pool_init(process, table_points, warm_specs) -> None:
    """Executor initializer: prime one worker's table cache.

    Runs once per worker process at pool start-up, so the per-chunk
    payloads never repeat the (identical) table data.
    """
    _WORKER_CTX["process"] = process
    _WORKER_CTX["table_points"] = table_points
    for pu, pd in warm_specs:
        _worker_table(pu, pd)


def _apply_worker_fault(fault: dict) -> None:
    """Execute one injected worker fault (see :mod:`repro.testing.faults`).

    ``kill`` terminates the worker process without cleanup -- exactly
    what an OOM kill or segfault looks like to the parent's pool.
    ``hang`` blocks the worker past any per-chunk timeout.
    """
    action = fault.get("action")
    if action == "kill":
        os._exit(17)
    elif action == "hang":
        time.sleep(float(fault.get("seconds", 30.0)))


def _pool_solve_chunk(payload):
    """Solve one chunk of distinct arc situations in a worker process.

    ``payload``: (items, fault) where each item is ``(pu_params,
    pd_params, direction, tt, c_passive, c_active, aiding)`` and
    ``fault`` is ``None`` outside the fault-injection harness.  Tables
    come from the per-process cache primed by :func:`_pool_init` (built
    on demand for signatures discovered after pool start).  Returns one
    result tuple per item -- including the arc's Newton iteration count,
    which the parent feeds into its per-signature cost model -- plus the
    worker's metrics snapshot, which the parent merges into its registry.
    """
    items, fault = payload
    if fault is not None:
        _apply_worker_fault(fault)
    tables: list[StageTable] = []
    index_of: dict = {}
    specs = []
    for pu, pd, direction, tt, cp, ca, aiding in items:
        stage = (pu, pd)
        ti = index_of.get(stage)
        if ti is None:
            ti = len(tables)
            index_of[stage] = ti
            tables.append(_worker_table(pu, pd))
        specs.append(
            BatchArcSpec(
                table_index=ti,
                input_direction=direction,
                transition=tt,
                load=CouplingLoad(c_ground=cp, c_couple_active=ca),
                aiding=aiding,
            )
        )
    registry = MetricsRegistry()
    solver = BatchStageSolver(tables, _WORKER_CTX["process"], metrics=registry)
    rows = [
        (
            r.direction,
            r.t_cross,
            r.transition,
            r.t_early,
            r.t_late,
            r.coupled,
            r.newton_iterations,
        )
        for r in solver.solve_many(specs)
    ]
    return rows, registry.snapshot()


class GateDelayCalculator:
    """Caching transistor-level delay engine for library-cell arcs."""

    def __init__(
        self,
        process: ProcessParams | None = None,
        transition_grid: float = 2e-12,
        cap_grid: float = 0.2e-15,
        table_points: int = 121,
        workers: int = 0,
        metrics: MetricsRegistry | None = None,
        strict: bool = False,
        worker_retries: int = 2,
        worker_timeout: float | None = None,
        retry_backoff: float = 0.05,
        solver_tier: str = "exact",
        screen_tolerance: float = 100e-12,
    ):
        self.process = process if process is not None else default_process()
        self.transition_grid = transition_grid
        self.cap_grid = cap_grid
        self.table_points = table_points
        self.workers = workers
        # Fault-tolerance policy: ``strict`` restores fail-fast solves and
        # turns corrupt-cache quarantine into a CacheError; the worker
        # knobs bound how long a sick pool may stall the run.
        self.strict = strict
        self.worker_retries = max(0, worker_retries)
        self.worker_timeout = worker_timeout
        self.retry_backoff = retry_backoff
        # Per-arc degradation annotations (dicts; surfaced on StaResult).
        self.degraded: list[dict] = []
        # Fault-injection hook: a mutable spec dict consumed (parent-side,
        # hence deterministically) by :meth:`_take_pool_fault`.
        self.pool_fault: dict | None = None
        # Canonical stage signatures: (cell, pin) -> token, token -> the
        # collapsed device parameters, a representative (cell, pin) for
        # diagnostics, and the per-signature Newton cost model
        # [solves, total_iterations] that orders worker chunks.
        self._sig_of: dict[tuple[str, str], str] = {}
        self._sig_params: dict[str, tuple] = {}
        self._sig_rep: dict[str, tuple[CellType, str]] = {}
        self._sig_cost: dict[str, list] = {}
        # Stage tables / solvers are keyed by signature token, so aliased
        # (cell, pin) pairs share one table build as well as one cache row.
        self._stage_tables: dict[str, StageTable] = {}
        self._solvers: dict[str, StageSolver] = {}
        self._arc_cache: dict[tuple, ArcResult] = {}
        # Keys adopted from a persistent cache file: hits on them are
        # persisted-cache reuse, everything else is in-run deduplication.
        self._persisted_keys: set[tuple] = set()
        self._batch_solver: BatchStageSolver | None = None
        self._table_order: list[str] = []
        self._executor = None
        # All statistics live in a metrics registry (one per analysis run,
        # shared with the propagator when the analyzer constructs us); the
        # instruments are resolved once so the hot path pays one method
        # call per event.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_evaluations = self.metrics.counter("arc_cache.evaluations")
        self._c_cache_hits = self.metrics.counter("arc_cache.hits")
        # Hit taxonomy: a hit is either in-run deduplication (the same
        # canonical situation requested again, possibly through a
        # different cell/pin) or reuse of an entry loaded from disk.
        self._c_dedup_hits = self.metrics.counter("arc_cache.dedup_hits")
        self._c_persisted_hits = self.metrics.counter("arc_cache.persisted_hits")
        self._g_signatures = self.metrics.gauge("arc_cache.signatures")
        self._c_sig_aliases = self.metrics.counter("arc_cache.signature_aliases")
        self._c_batched = self.metrics.counter("arc_cache.batched_solves")
        self._c_pool = self.metrics.counter("arc_cache.pool_solves")
        self._c_persisted = self.metrics.counter("arc_cache.persisted_loads")
        self._c_stale = self.metrics.counter("arc_cache.stale_rejects")
        self._h_newton = self.metrics.histogram(
            "newton.iterations_per_arc", boundaries=NEWTON_ITER_BUCKETS
        )
        self._c_bisect = self.metrics.counter("newton.bisection_fallbacks")
        self._c_degraded = self.metrics.counter("solver.degraded_arcs")
        self._c_batch_fallbacks = self.metrics.counter("engine.batch_fallbacks")
        self._c_worker_failures = self.metrics.counter("engine.worker_failures")
        self._c_worker_retries = self.metrics.counter("engine.worker_retries")
        self._c_quarantined_chunks = self.metrics.counter("engine.quarantined_chunks")
        self._c_serial_fallbacks = self.metrics.counter("engine.serial_fallbacks")
        self._c_cache_quarantined = self.metrics.counter("arc_cache.quarantined")
        # Tiered-solver accounting: one counter per tier (distinct
        # canonical situations resolved by it), escalation reasons, and
        # wall-clock spent per tier.  All stay zero in exact mode.
        self._c_tier = {
            tier: self.metrics.counter("solver.tier", tier=tier)
            for tier in ("analytical", "surface", "newton")
        }
        self._c_tier_seconds = {
            tier: self.metrics.counter("solver.tier_seconds", tier=tier)
            for tier in ("analytical", "surface", "newton")
        }
        self._c_escalations = {
            reason: self.metrics.counter("propagation.escalations", reason=reason)
            for reason in ("outside_region", "error_tolerance", "slack")
        }
        self._c_screen_hits = self.metrics.counter("arc_cache.screen_hits")
        # The screened tier's per-signature macromodel / response-surface
        # bank.  ``last_tier`` reports which tier answered the most recent
        # compute_arc_relative call ("newton" covers exact-cache hits).
        self.solver_tier = solver_tier
        self.screen_tolerance = screen_tolerance
        self.last_tier = "newton"
        # Provenance surfaces: alongside ``last_tier``, every
        # compute_arc_relative call also reports where its result came
        # from (``last_origin``, one of repro.core.provenance.ORIGINS —
        # string literals here to keep waveform/ free of core/ imports),
        # why a screened query escalated (``last_escalation``) and the
        # signature token it resolved through (``last_signature``).
        # ``_fresh_keys`` holds keys solved by prime_arcs whose first
        # consumer has not yet claimed them as "fresh"; ``_degraded_keys``
        # marks conservative substitute bounds; ``_key_escalation``
        # remembers why a cached key once escalated to Newton.
        self.last_origin = "fresh"
        self.last_escalation: str | None = None
        self.last_signature = ""
        self._fresh_keys: set[tuple] = set()
        self._degraded_keys: set[tuple] = set()
        self._key_escalation: dict[tuple, str] = {}
        self._screen_cache: dict[tuple, tuple[ArcResult, str]] = {}
        self._screen: ArcScreen | None = None
        if solver_tier == "screened":
            self._screen = ArcScreen(
                solve=self._anchor_solve,
                q_time=self._q_time,
                q_cap=self._q_cap,
                transition_grid=self.transition_grid,
                cap_grid=self.cap_grid,
                tolerance=screen_tolerance,
            )

    # -- statistics properties (registry-backed, kept for compatibility) ----

    @property
    def evaluations(self) -> int:
        return self._c_evaluations.value

    @property
    def cache_hits(self) -> int:
        return self._c_cache_hits.value

    @property
    def dedup_hits(self) -> int:
        return self._c_dedup_hits.value

    @property
    def persisted_hits(self) -> int:
        return self._c_persisted_hits.value

    @property
    def batched_solves(self) -> int:
        return self._c_batched.value

    @property
    def pool_solves(self) -> int:
        return self._c_pool.value

    @property
    def persisted_loads(self) -> int:
        return self._c_persisted.value

    # -- stage machinery ----------------------------------------------------

    def signature(self, ctype: CellType, pin: str) -> str:
        """The canonical stage-signature token of one (cell, pin) arc.

        Interns the collapsed device parameters: the first (cell, pin)
        collapsing to a given stage registers the signature; later pairs
        that collapse to the same devices become aliases (counted under
        ``arc_cache.signature_aliases``) and share the first pair's
        table, solver and cache rows.
        """
        key = (ctype.name, pin)
        token = self._sig_of.get(key)
        if token is None:
            params = _stage_params(ctype, pin, self.process)
            if params == (None, None):
                raise InputError(
                    f"{ctype.name} has no transistor gated by pin {pin!r}"
                )
            token = _signature_token(params)
            self._sig_of[key] = token
            if token in self._sig_params:
                self._c_sig_aliases.inc()
            else:
                self._sig_params[token] = params
                self._sig_rep[token] = (ctype, pin)
                self._g_signatures.set(len(self._sig_params))
        return token

    def solver_for(self, ctype: CellType, pin: str) -> StageSolver:
        return self._solver_for_token(self.signature(ctype, pin))

    def _solver_for_token(self, token: str) -> StageSolver:
        from repro.devices.mosfet import Mosfet, MosfetParams

        solver = self._solvers.get(token)
        if solver is None:
            pu, pd = self._sig_params[token]
            pull_up = Mosfet(MosfetParams(*pu), self.process) if pu is not None else None
            pull_down = (
                Mosfet(MosfetParams(*pd), self.process) if pd is not None else None
            )
            table = StageTable(
                pull_up, pull_down, process=self.process, points=self.table_points
            )
            self._stage_tables[token] = table
            self._table_order.append(token)
            solver = StageSolver(table, self.process)
            self._solvers[token] = solver
        return solver

    def _batch_solver_current(self) -> BatchStageSolver:
        """The batch solver over all known stage tables, rebuilt when new
        tables appeared since the last build."""
        if self._batch_solver is None or len(self._batch_solver.tables) != len(
            self._table_order
        ):
            self._batch_solver = BatchStageSolver(
                [self._stage_tables[key] for key in self._table_order],
                self.process,
                metrics=self.metrics,
            )
        return self._batch_solver

    # -- quantization --------------------------------------------------------

    def _q_time(self, value: float, down: bool = False) -> float:
        rounder = math.floor if down else math.ceil
        return rounder(max(value, 1e-13) / self.transition_grid) * self.transition_grid

    def _q_cap(self, value: float, down: bool = False) -> float:
        rounder = math.floor if down else math.ceil
        return rounder(max(value, 0.0) / self.cap_grid) * self.cap_grid

    def _quantized_key(self, request: ArcRequest) -> tuple:
        """The canonical cache key of a request: the interned stage
        signature plus the quantized slew and loads.

        This is the single place canonicalization and quantization
        happen, shared by the scalar per-arc path and the batched
        priming path.
        """
        down = request.quantize_down
        tt = self._q_time(request.input_transition, down=down)
        c_passive = self._q_cap(
            request.load.c_ground + request.load.c_couple_passive, down=down
        )
        # Active coupling is a *helping* jump in min-delay contexts: round
        # it up there (more help -> faster -> safe lower bound).
        c_active = self._q_cap(
            request.load.c_couple_active, down=down and not request.aiding
        )
        if down and c_passive + c_active <= 0.0:
            c_passive = self.cap_grid  # keep the stage integrable
        return (
            self.signature(request.ctype, request.pin),
            request.input_direction,
            tt,
            c_passive,
            c_active,
            request.aiding,
        )

    # -- the arc operation ----------------------------------------------------

    def compute_arc(
        self,
        ctype: CellType,
        pin: str,
        input_event: RampEvent,
        load: CouplingLoad,
        aiding: bool = False,
    ) -> RampEvent:
        """Output ramp event at the cell's output pin (wire delay excluded).

        The cell is negative unate (static single-stage CMOS): the output
        direction is the opposite of ``input_event.direction``.
        """
        result = self.compute_arc_relative(
            ctype, pin, input_event.direction, input_event.transition, load, aiding
        )
        t_start = input_event.t_cross - 0.5 * input_event.transition
        return result.to_event(t_start)

    def compute_arc_relative(
        self,
        ctype: CellType,
        pin: str,
        input_direction: str,
        input_transition: float,
        load: CouplingLoad,
        aiding: bool = False,
        quantize_down: bool = False,
        force_exact: bool = False,
    ) -> ArcResult:
        """The cached, time-origin-free arc calculation.

        ``aiding=True`` applies the mirrored same-direction coupling model
        (helping jump) used by min-delay analysis.  ``quantize_down``
        rounds the cache key's load and slew *down* instead of up -- the
        conservative direction for a min-delay (lower) bound, where the
        modelled arc must never be slower than reality.

        Under the screened solver tier the query is first answered from
        the per-signature screening bank (:mod:`repro.waveform.screening`)
        and only escalated to the full Newton solve when the screen
        cannot produce a bound within tolerance.  ``force_exact=True``
        (slack-critical arcs) bypasses the screen; so do ``aiding`` and
        ``quantize_down`` requests, whose min-delay semantics need lower
        bounds the upper-bound screen cannot provide.  ``last_tier``
        records which tier answered.
        """
        request = ArcRequest(
            ctype, pin, input_direction, input_transition, load, aiding, quantize_down
        )
        key = self._quantized_key(request)
        if quantize_down:
            # Down-quantized keys carry min-delay semantics the screen
            # cannot serve; resolve_key's screen gate only sees the
            # aiding flag, so bypass it explicitly here.
            self.last_signature = key[0]
            cached = self._arc_cache.get(key)
            if cached is not None:
                self._record_hit(key)
                self.last_tier = "newton"
                self.last_escalation = self._key_escalation.get(key)
                return cached
            arc = self._solve_key(key)
            self._arc_cache[key] = arc
            self.last_tier = "newton"
            self.last_origin = "degraded" if key in self._degraded_keys else "fresh"
            self.last_escalation = None
            return arc
        return self.resolve_key(key, force_exact)

    def resolve_key(self, key: tuple, force_exact: bool = False) -> ArcResult:
        """Resolve one *pre-quantized* canonical key.

        The propagator computes quantized keys in bulk (vectorized
        ceil over a level slab) and resolves them here, skipping the
        per-arc :class:`ArcRequest` construction; the cache-probe /
        screen / solve logic and every counter are identical to
        :meth:`compute_arc_relative`.
        """
        self.last_signature = key[0]
        cached = self._arc_cache.get(key)
        if cached is not None:
            self._record_hit(key)
            self.last_tier = "newton"
            self.last_escalation = self._key_escalation.get(key)
            return cached
        if self._screen is not None and not key[5]:
            return self._compute_screened(key, force_exact)
        arc = self._solve_key(key)
        self._arc_cache[key] = arc
        self.last_tier = "newton"
        self.last_origin = "degraded" if key in self._degraded_keys else "fresh"
        self.last_escalation = None
        return arc

    def _screen_arc(self, key: tuple, fields: tuple) -> ArcResult:
        """Materialise a screened bound as an :class:`ArcResult`."""
        t_cross, transition, t_early, t_late = fields
        return ArcResult(
            direction=opposite(key[1]),
            t_cross=t_cross,
            transition=transition,
            t_early=t_early,
            t_late=t_late,
            coupled=key[4] > 0.0,
        )

    def _compute_screened(self, key: tuple, force_exact: bool) -> ArcResult:
        """Screened-tier resolution of one cache miss (scalar path)."""
        if not force_exact:
            screened = self._screen_cache.get(key)
            if screened is not None:
                arc, tier = screened
                self._c_screen_hits.inc()
                self.last_tier = tier
                self.last_origin = (
                    "screen_surface" if tier == "surface" else "screen_analytical"
                )
                self.last_escalation = None
                return arc
        t0 = time.perf_counter()
        if force_exact:
            self._c_escalations["slack"].inc()
            escalation = "slack"
        else:
            outcome = self._screen.estimate(key)
            if outcome.tier is not None:
                arc = self._screen_arc(key, outcome.fields)
                self._screen_cache[key] = (arc, outcome.tier)
                self._c_tier[outcome.tier].inc()
                self._c_tier_seconds[outcome.tier].inc(time.perf_counter() - t0)
                self.last_tier = outcome.tier
                self.last_origin = (
                    "screen_surface"
                    if outcome.tier == "surface"
                    else "screen_analytical"
                )
                self.last_escalation = None
                return arc
            self._c_escalations[outcome.reason].inc()
            escalation = outcome.reason
        arc = self._solve_key(key)
        self._arc_cache[key] = arc
        self._c_tier["newton"].inc()
        self._c_tier_seconds["newton"].inc(time.perf_counter() - t0)
        self.last_tier = "newton"
        self._key_escalation[key] = escalation
        self.last_escalation = escalation
        self.last_origin = "degraded" if key in self._degraded_keys else "fresh"
        return arc

    def _anchor_solve(self, key: tuple) -> ArcResult:
        """Exact solve of one screen-calibration anchor (cached like any
        other canonical situation; counted as a Newton-tier solve)."""
        cached = self._arc_cache.get(key)
        if cached is not None:
            return cached
        arc = self._solve_key(key)
        self._arc_cache[key] = arc
        self._c_tier["newton"].inc()
        return arc

    def _record_hit(self, key: tuple) -> None:
        self._c_cache_hits.inc()
        if key in self._persisted_keys:
            self._c_persisted_hits.inc()
            origin = "persisted"
        else:
            self._c_dedup_hits.inc()
            # The first consumer of a prime_arcs batch solve is the arc
            # that *caused* the solve: report it as fresh, not dedup.
            if key in self._fresh_keys:
                self._fresh_keys.discard(key)
                origin = "fresh"
            else:
                origin = "dedup"
        if key in self._degraded_keys:
            origin = "degraded"
        self.last_origin = origin

    def _observe_cost(self, token: str, iterations: int) -> None:
        """Feed one solved arc's Newton iteration count into the
        per-signature cost model (used to order worker chunks)."""
        stats = self._sig_cost.get(token)
        if stats is None:
            self._sig_cost[token] = [1, iterations]
        else:
            stats[0] += 1
            stats[1] += iterations

    def _solve_key(self, key: tuple) -> ArcResult:
        """Scalar (reference) solve of one canonical arc situation."""
        token, input_direction, tt, c_passive, c_active, aiding = key
        self._c_evaluations.inc()
        solver = self._solver_for_token(token)
        try:
            stage_result = solver.solve(
                InputRamp(direction=input_direction, t_start=0.0, transition=tt),
                CouplingLoad(
                    c_ground=c_passive,
                    c_couple_active=c_active,
                    c_couple_passive=0.0,
                ),
                aiding=aiding,
            )
        except SolverError as exc:
            return self._degrade_key(key, exc)
        self._h_newton.observe(stage_result.newton_iterations)
        self._observe_cost(token, stage_result.newton_iterations)
        if stage_result.newton_bisections:
            self._c_bisect.inc(stage_result.newton_bisections)
        arc = self._to_arc(stage_result)
        if self._screen is not None:
            # Every successful full solve grows the response surface.
            # The degraded path above returns without reaching this, so
            # conservative substitutes never enter the surface.
            self._screen.observe(key, arc)
        return arc

    def _degrade_key(self, key: tuple, exc: SolverError) -> ArcResult:
        """Substitute a conservative bound for an arc whose solve failed.

        Strict mode re-raises instead (the pre-degradation fail-fast
        behaviour); otherwise the substitution is counted under
        ``solver.degraded_arcs`` and annotated in :attr:`degraded`.
        """
        if self.strict:
            raise exc
        arc = self._conservative_arc(key)
        self._c_degraded.inc()
        self._degraded_keys.add(key)
        token, direction, tt, c_passive, c_active, aiding = key
        rep = self._sig_rep.get(token)
        name, pin = (rep[0].name, rep[1]) if rep is not None else (token, "?")
        self.degraded.append(
            {
                "cell": name,
                "pin": pin,
                "signature": token,
                "input_direction": direction,
                "input_transition": tt,
                "c_passive": c_passive,
                "c_active": c_active,
                "aiding": bool(aiding),
                "bound": arc.t_late,
                "reason": f"{type(exc).__name__}: {exc}",
            }
        )
        logger.warning(
            "arc %s/%s (%s) failed to solve (%s); substituting conservative "
            "ramp bound t_late=%.3e s",
            name,
            pin,
            direction,
            exc,
            arc.t_late,
        )
        return arc

    # Voltage margin beyond the rails the bound's traversal allows for
    # (coupling overshoot); matches the stage tables' grid margin.
    _BOUND_MARGIN = 0.3
    # Drive floor when even the table minimum is unusable (amperes).  At
    # femtofarad-scale loads this puts the bound around tens of
    # nanoseconds -- orders of magnitude above any real stage delay.
    _BOUND_CURRENT_FLOOR = 1e-7

    def _conservative_arc(self, key: tuple) -> ArcResult:
        """A provably conservative ramp response for one arc situation.

        Models the stage as charging its total load through the *weakest*
        drive current found anywhere along the output traversal once the
        input has settled::

            T = C_total * span / I_min

        The true output (a) starts moving no later than the assumed
        start (input fully settled at ``tt``) and (b) moves at every
        voltage at least as fast as ``I_min / C_total``, so ``tt + T``
        can only overestimate the late crossing.  Opposing active
        coupling may additionally yank the victim back by at most the
        full span once (divider drop + recovery), covered by a second
        ``T``.  The early marker is pinned to the input ramp start (time
        0): the output cannot move before its cause.  The transition
        upper bound follows from the thresholds: both slew markers lie
        inside ``[0, t_late]`` and the slew is the marker gap over 0.8.
        """
        token, input_direction, tt, c_passive, c_active, aiding = key
        vdd = self.process.vdd
        out_direction = opposite(input_direction)
        margin = self._BOUND_MARGIN
        span = vdd + margin - self.process.v_th_model
        c_total = max(c_passive + c_active, self.cap_grid)

        i_min = 0.0
        table = self._stage_tables.get(token)
        if table is not None:
            vin_final = vdd if input_direction == RISING else 0.0
            if out_direction == RISING:
                v_path = np.linspace(-margin, vdd - self.process.v_th_model, 97)
            else:
                v_path = np.linspace(self.process.v_th_model, vdd + margin, 97)
            currents = np.abs(
                table.current_array(np.full_like(v_path, vin_final), v_path)
            )
            if np.isfinite(currents).all():
                i_min = float(currents.min())
        if not i_min > 0.0:
            i_min = self._BOUND_CURRENT_FLOOR

        t_traverse = c_total * span / i_min
        recovery = t_traverse if c_active > 0.0 else 0.0
        t_late = tt + t_traverse + recovery
        return ArcResult(
            direction=out_direction,
            t_cross=t_late,
            transition=1.25 * t_late,
            t_early=0.0,
            t_late=t_late,
            coupled=c_active > 0.0,
        )

    @staticmethod
    def _to_arc(stage_result: StageResult) -> ArcResult:
        return ArcResult(
            direction=stage_result.direction,
            t_cross=stage_result.t_cross,
            transition=stage_result.transition,
            t_early=stage_result.t_early,
            t_late=stage_result.t_late,
            coupled=stage_result.coupled,
        )

    # -- batched priming ------------------------------------------------------

    def prime_arcs(self, requests: Sequence[ArcRequest]) -> int:
        """Ensure every request's quantized situation is cached: the
        request-object front end of :meth:`prime_keys`.  Returns the
        number of situations actually solved."""
        return self.prime_keys(
            [(self._quantized_key(request), request.force_exact) for request in requests]
        )

    def prime_keys(self, entries: Sequence[tuple[tuple, bool]]) -> int:
        """Ensure every *pre-quantized* ``(key, force_exact)`` situation
        is cached.

        Deduplicates the keys (first-seen order), then solves the
        distinct misses in one vectorized call -- fanned out over worker
        processes when configured -- or serially when there are fewer
        than ``MIN_BATCH`` of them.  Returns the number of situations
        actually solved.

        Under the screened solver tier each miss is screened here, on
        the parent side, and only the escalated (or ``force_exact``)
        situations reach the Newton solve.  ``quantize_down`` keys must
        not be primed: their min-delay semantics bypass the screen.
        """
        misses: list[tuple] = []
        seen: set[tuple] = set()
        screen = self._screen
        for key, force_exact in entries:
            if key in self._arc_cache or key in seen:
                continue
            if screen is not None and not key[5]:
                if force_exact:
                    self._c_escalations["slack"].inc()
                    self._key_escalation[key] = "slack"
                elif key in self._screen_cache:
                    continue
                else:
                    t0 = time.perf_counter()
                    outcome = screen.estimate(key)
                    if outcome.tier is not None:
                        arc = self._screen_arc(key, outcome.fields)
                        self._screen_cache[key] = (arc, outcome.tier)
                        self._c_tier[outcome.tier].inc()
                        self._c_tier_seconds[outcome.tier].inc(
                            time.perf_counter() - t0
                        )
                        continue
                    self._c_escalations[outcome.reason].inc()
                    self._key_escalation[key] = outcome.reason
                    self._c_tier_seconds["newton"].inc(time.perf_counter() - t0)
            seen.add(key)
            misses.append(key)
        return self._solve_misses(misses)

    def _solve_misses(self, misses: list[tuple]) -> int:
        """Solve the deduplicated cache misses (shared prime tail)."""
        if not misses:
            return 0
        t0 = time.perf_counter()
        if len(misses) < MIN_BATCH:
            for key in misses:
                self._arc_cache[key] = self._solve_key(key)
        elif self.workers >= 2 and len(misses) >= 2 * MIN_BATCH:
            self._solve_keys_pooled(misses)
        else:
            self._solve_keys_batched(misses)
        self._fresh_keys.update(misses)
        if self._screen is not None:
            self._c_tier["newton"].inc(len(misses))
            self._c_tier_seconds["newton"].inc(time.perf_counter() - t0)
        return len(misses)

    def _solve_keys_batched(self, misses: list[tuple]) -> None:
        """One vectorized integration over all missing situations."""
        # Materialise tables first so the bank covers every signature.
        for key in misses:
            self._solver_for_token(key[0])
        solver = self._batch_solver_current()
        index_of = {token: i for i, token in enumerate(self._table_order)}
        specs = [
            BatchArcSpec(
                table_index=index_of[token],
                input_direction=direction,
                transition=tt,
                load=CouplingLoad(c_ground=c_passive, c_couple_active=c_active),
                aiding=aiding,
            )
            for (token, direction, tt, c_passive, c_active, aiding) in misses
        ]
        try:
            results = solver.solve_many_compact(specs)
        except SolverError as exc:
            if self.strict:
                raise
            self._c_batch_fallbacks.inc()
            logger.warning(
                "batched solve of %d arcs failed (%s); falling back to "
                "per-arc scalar solves",
                len(misses),
                exc,
            )
            for key in misses:
                self._arc_cache[key] = self._solve_key(key)
            return
        directions = results.directions
        t_cross = results.t_cross
        transition = results.transition
        t_early = results.t_early
        t_late = results.t_late
        coupled = results.coupled
        iterations = results.newton_iterations
        for j, key in enumerate(misses):
            arc = ArcResult(
                direction=directions[j],
                t_cross=float(t_cross[j]),
                transition=float(transition[j]),
                t_early=float(t_early[j]),
                t_late=float(t_late[j]),
                coupled=bool(coupled[j]),
            )
            self._arc_cache[key] = arc
            self._observe_cost(key[0], int(iterations[j]))
            if self._screen is not None:
                self._screen.observe(key, arc)
        self._c_evaluations.inc(len(misses))
        self._c_batched.inc(len(misses))

    def _predicted_cost(self, key: tuple) -> float:
        """Predicted Newton cost of one arc situation, from the
        per-signature cost model (global histogram mean as fallback)."""
        stats = self._sig_cost.get(key[0])
        if stats is not None and stats[0]:
            return stats[1] / stats[0]
        mean = self._h_newton.mean
        return mean if mean > 0.0 else 1.0

    def _solve_keys_pooled(self, misses: list[tuple]) -> None:
        """Fan the distinct solves out over worker processes.

        Chunks are balanced by *predicted cost* (longest-processing-time
        assignment using the per-signature Newton cost model) and
        submitted heaviest-first, one future at a time, so a dead or hung
        worker is detected per chunk; see :meth:`_run_pool_chunk` for the
        retry/quarantine policy.
        """
        # LPT: sort by descending predicted cost, greedily assign each
        # arc to the currently lightest of ``workers`` buckets.
        ordered = sorted(misses, key=self._predicted_cost, reverse=True)
        buckets: list[list[tuple]] = [[] for _ in range(max(1, self.workers))]
        loads = [0.0] * len(buckets)
        for key in ordered:
            lightest = loads.index(min(loads))
            buckets[lightest].append(key)
            loads[lightest] += self._predicted_cost(key)
        # Submit heaviest chunk first so it overlaps the most other work.
        order = sorted(range(len(buckets)), key=loads.__getitem__, reverse=True)

        for index in order:
            chunk_keys = buckets[index]
            if not chunk_keys:
                continue
            items = []
            for token, direction, tt, c_passive, c_active, aiding in chunk_keys:
                pu, pd = self._sig_params[token]
                items.append((pu, pd, direction, tt, c_passive, c_active, aiding))
            rows = self._run_pool_chunk(items, index, chunk_keys)
            if rows is None:
                # The chunk was solved (and counted) one arc at a time by
                # the scalar fallback inside _run_pool_chunk.
                continue
            for key, fields in zip(chunk_keys, rows):
                (
                    direction,
                    t_cross,
                    transition,
                    t_early,
                    t_late,
                    coupled,
                    iterations,
                ) = fields
                arc = ArcResult(
                    direction, t_cross, transition, t_early, t_late, coupled
                )
                self._arc_cache[key] = arc
                self._observe_cost(key[0], iterations)
                if self._screen is not None:
                    self._screen.observe(key, arc)
            self._c_evaluations.inc(len(rows))
            self._c_batched.inc(len(rows))
            self._c_pool.inc(len(rows))

    def _ensure_executor(self):
        """The process pool, created lazily with a table-priming
        initializer: every worker prebuilds the stage tables for all
        signatures known at pool start, so chunk payloads carry only the
        work items (signatures discovered later are built on first use)."""
        from concurrent.futures import ProcessPoolExecutor

        if self._executor is None:
            warm_specs = tuple(self._sig_params[t] for t in self._table_order)
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_pool_init,
                initargs=(self.process, self.table_points, warm_specs),
            )
        return self._executor

    def _run_pool_chunk(
        self,
        items: list[tuple],
        chunk_index: int,
        chunk_keys: list[tuple],
    ) -> list | None:
        """Solve one chunk on the pool, surviving worker faults.

        Worker death (BrokenProcessPool), per-chunk timeouts and OS-level
        submission failures are retried up to ``worker_retries`` times
        with exponential backoff, rebuilding the executor each time.  A
        chunk that still fails is quarantined: replayed in-process (bit-
        identical to the pool result), and if even that raises a solver
        error, each arc is solved individually so only the sick arcs
        degrade.  Returns the chunk's result rows, or ``None`` when the
        per-arc fallback already cached (and counted) the results.
        """
        from concurrent.futures import TimeoutError as PoolTimeout
        from concurrent.futures.process import BrokenProcessPool

        attempts = self.worker_retries + 1
        for attempt in range(attempts):
            payload = (items, self._take_pool_fault(chunk_index))
            future = self._ensure_executor().submit(_pool_solve_chunk, payload)
            try:
                rows, snapshot = future.result(timeout=self.worker_timeout)
            except SolverError:
                # Deterministic numerical failure: a retry would fail
                # identically, so go straight to the in-process fallback.
                break
            except (BrokenProcessPool, PoolTimeout, TimeoutError, OSError) as exc:
                self._c_worker_failures.inc()
                self._reset_executor()
                if attempt + 1 < attempts:
                    self._c_worker_retries.inc()
                    delay = self.retry_backoff * (2**attempt)
                    logger.warning(
                        "worker chunk %d failed (%s: %s); retrying in %.0f ms",
                        chunk_index,
                        type(exc).__name__,
                        exc,
                        delay * 1e3,
                    )
                    time.sleep(delay)
                else:
                    logger.warning(
                        "worker chunk %d failed (%s: %s) after %d attempts; "
                        "quarantining and evaluating in-process",
                        chunk_index,
                        type(exc).__name__,
                        exc,
                        attempts,
                    )
            else:
                self.metrics.merge_snapshot(snapshot)
                return rows

        self._c_quarantined_chunks.inc()
        self._c_serial_fallbacks.inc()
        # The in-process replay runs in the parent, where the worker
        # context was never initialized -- prime it here (warm specs are
        # unnecessary; _worker_table builds on demand).
        _pool_init(self.process, self.table_points, ())
        try:
            rows, snapshot = _pool_solve_chunk((items, None))
        except SolverError as exc:
            if self.strict:
                raise
            logger.warning(
                "chunk %d failed in-process as well (%s); solving its arcs "
                "one at a time",
                chunk_index,
                exc,
            )
            for key in chunk_keys:
                if key not in self._arc_cache:
                    self._arc_cache[key] = self._solve_key(key)
            return None
        self.metrics.merge_snapshot(snapshot)
        return rows

    def _take_pool_fault(self, chunk_index: int) -> dict | None:
        """Consume one injected worker fault, if the harness armed any.

        The spec is decremented parent-side so a ``times=N`` injection
        fires on exactly N chunk submissions regardless of worker
        scheduling -- that is what makes pool-fault tests deterministic.
        """
        spec = self.pool_fault
        if not spec or spec.get("times", 0) <= 0:
            return None
        only = spec.get("chunks")
        if only is not None and chunk_index not in only:
            return None
        spec["times"] -= 1
        return {"action": spec["action"], "seconds": spec.get("seconds", 30.0)}

    def _reset_executor(self) -> None:
        """Tear down the pool so the next chunk starts on fresh workers."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def close(self) -> None:
        """Shut down the worker pool, if one was started."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def solve_stage_raw(
        self,
        ctype: CellType,
        pin: str,
        input_ramp: InputRamp,
        load: CouplingLoad,
    ) -> StageResult:
        """Uncached full-waveform stage solve (diagnostics, validation)."""
        return self.solver_for(ctype, pin).solve(input_ramp, load)

    # -- persistence ----------------------------------------------------------

    def fingerprint(self, cell_types: Iterable[CellType]) -> str:
        """The compatibility fingerprint of this calculator's results."""
        return library_fingerprint(
            self.process,
            cell_types,
            self.transition_grid,
            self.cap_grid,
            self.table_points,
        )

    def save_cache_file(self, path: str, cell_types: Iterable[CellType]) -> int:
        """Write the arc cache as JSON keyed by the library fingerprint.

        Returns the number of entries written.  The write is atomic
        (temp file + rename) so concurrent runs never read a torn file,
        and the arc table carries a content checksum so silent corruption
        (bit rot, partial copies) is caught at load time.
        """
        arcs = [
            [list(key), [r.direction, r.t_cross, r.transition, r.t_early, r.t_late, r.coupled]]
            for key, r in self._arc_cache.items()
        ]
        body = json.dumps(arcs, sort_keys=True)
        payload = {
            "format": CACHE_FORMAT,
            "fingerprint": self.fingerprint(cell_types),
            "checksum": hashlib.sha256(body.encode()).hexdigest(),
            "arcs": arcs,
        }
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
        return len(self._arc_cache)

    def _quarantine_cache(self, path: str, reason: str) -> int:
        """Move a corrupt cache file aside so the rebuild cannot re-read
        it; strict mode raises a :class:`CacheError` instead of rebuilding."""
        self._c_cache_quarantined.inc()
        quarantined = f"{path}.bad"
        try:
            os.replace(path, quarantined)
            where = f"quarantined to {quarantined}"
        except OSError:
            where = "could not be quarantined"
        logger.warning(
            "arc cache %s is corrupt (%s); %s, rebuilding from scratch",
            path,
            reason,
            where,
        )
        if self.strict:
            raise CacheError(f"arc cache {path} is corrupt: {reason}")
        return 0

    def load_cache_file(self, path: str, cell_types: Iterable[CellType]) -> int:
        """Load a persistent arc cache if it matches this configuration.

        Silently ignores missing, unreadable, wrong-format or
        stale-fingerprint files (a cold start is always safe).  Corrupt
        files -- unparseable, checksum mismatch, malformed or non-finite
        arc entries -- are additionally quarantined to ``<path>.bad``.
        Returns the number of entries adopted.
        """
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except OSError:
            return 0
        except ValueError:
            return self._quarantine_cache(path, "not valid JSON")
        if not isinstance(payload, dict) or payload.get("format") != CACHE_FORMAT:
            self._c_stale.inc()
            logger.warning("arc cache %s has an unknown format; ignoring", path)
            return 0
        if payload.get("fingerprint") != self.fingerprint(cell_types):
            self._c_stale.inc()
            logger.warning(
                "arc cache %s was built for a different configuration; ignoring", path
            )
            return 0
        arcs = payload.get("arcs", [])
        body = json.dumps(arcs, sort_keys=True)
        if hashlib.sha256(body.encode()).hexdigest() != payload.get("checksum"):
            return self._quarantine_cache(path, "content checksum mismatch")
        entries: list[tuple[tuple, ArcResult]] = []
        try:
            for raw_key, fields in arcs:
                token, direction, tt, c_passive, c_active, aiding = raw_key
                if not isinstance(token, str):
                    raise ValueError("non-string signature token")
                out_direction, t_cross, transition, t_early, t_late, coupled = fields
                numbers = (tt, c_passive, c_active, t_cross, transition, t_early, t_late)
                if not all(
                    isinstance(v, (int, float)) and math.isfinite(v) for v in numbers
                ):
                    raise ValueError("non-finite arc entry")
                entries.append(
                    (
                        (token, direction, tt, c_passive, c_active, bool(aiding)),
                        ArcResult(
                            out_direction,
                            t_cross,
                            transition,
                            t_early,
                            t_late,
                            bool(coupled),
                        ),
                    )
                )
        except (TypeError, ValueError):
            return self._quarantine_cache(path, "malformed arc entries")
        loaded = 0
        for key, arc in entries:
            if key in self._arc_cache:
                continue
            self._arc_cache[key] = arc
            self._persisted_keys.add(key)
            if self._screen is not None:
                # Persisted entries are successful exact solves from a
                # fingerprint-compatible run: warm the response surface
                # so screened reruns skip most calibration work.
                self._screen.observe(key, arc)
            loaded += 1
        self._c_persisted.inc(loaded)
        return loaded

    # -- statistics -----------------------------------------------------------

    def cache_stats(self) -> dict:
        lookups = self.evaluations + self.cache_hits
        return {
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "hit_rate": self.cache_hits / lookups if lookups else 0.0,
            "dedup_hits": self._c_dedup_hits.value,
            "persisted_hits": self._c_persisted_hits.value,
            "cached_arcs": len(self._arc_cache),
            "stage_tables": len(self._stage_tables),
            "signatures": len(self._sig_params),
            "signature_aliases": self._c_sig_aliases.value,
            "batched_solves": self.batched_solves,
            "pool_solves": self.pool_solves,
            "persisted_loads": self.persisted_loads,
            "stale_rejects": self._c_stale.value,
            "quarantined": self._c_cache_quarantined.value,
            "newton_iterations": self._h_newton.total,
            "newton_bisections": self._c_bisect.value,
            "degraded_arcs": self._c_degraded.value,
            "worker_failures": self._c_worker_failures.value,
            "solver_tier": self.solver_tier,
            "tier_counts": {
                tier: counter.value for tier, counter in self._c_tier.items()
            },
            "tier_seconds": {
                tier: counter.value for tier, counter in self._c_tier_seconds.items()
            },
            "escalations": {
                reason: counter.value
                for reason, counter in self._c_escalations.items()
            },
            "screen_hits": self._c_screen_hits.value,
            **(self._screen.stats() if self._screen is not None else {}),
        }

    def reset_counters(self) -> None:
        self._c_evaluations.reset()
        self._c_cache_hits.reset()
        self._c_dedup_hits.reset()
        self._c_persisted_hits.reset()
        self._c_batched.reset()
        self._c_pool.reset()
        self._c_screen_hits.reset()
        for group in (self._c_tier, self._c_tier_seconds, self._c_escalations):
            for counter in group.values():
                counter.reset()
