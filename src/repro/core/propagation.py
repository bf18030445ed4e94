"""Levelized worst-case waveform propagation (one STA pass).

Implements the breadth-first propagation of Section 4 with the per-arc
coupling decisions of Sections 2 and 5.  One :class:`Propagator` instance
serves all five analysis modes; the window-based modes (one-step,
iterative) perform the extra best-case calculation per arc described in
the paper's pseudo-code and decide each neighbour's coupling treatment by
comparing the aggressor's quiescent time with the victim's earliest
possible activity.

The pass runs over the design's columnar compilation
(:mod:`repro.core.columnar`): nets, cells and timing arcs are dense id
ranges, arrivals are gathered by one fancy-index per level slab, and the
per-pass timing data lives in numpy columns
(:class:`~repro.core.columnar.ColumnTimingState`).

The pass is *level-batched*: cells are processed one topological level
at a time (:func:`repro.core.graph.evaluation_levels`).  All waveform
calculations that do not depend on other nets' timing (the fixed loads
of the non-window modes; the best-case and, under OVERLAP, the
all-active calculation of the window-based modes) are gathered for the
whole level up front; the window-based coupling decisions then run in
*coupling waves* -- cells of a level only wait on earlier-ordered cells
of the same level whose output nets couple to theirs, so a net's window
is exactly as "calculated" as it was under the sequential walk, and
mutually coupled neighbours keep their asymmetric one-sees-the-other
treatment.  Each phase's distinct electrical situations are primed into
the arc cache by one vectorized integration
(:meth:`GateDelayCalculator.prime_keys`) before the per-arc bookkeeping
runs against a hot cache.

Between iterative passes the propagator is additionally *delta-driven*
(``StaConfig.incremental``): it keeps per-arc memo columns holding the
last pass's solve-relevant inputs -- the arrival's transition and the
decided coupling load -- together with the *origin-free relative*
results (:class:`~repro.waveform.gatedelay.ArcResult`).  An arc whose
inputs are unchanged (compared with exact float equality, not a
tolerance) re-anchors the memoized relative waveform at the current
arrival's time origin instead of re-solving.  The cheap parts of the
pass (gathering, window comparisons, merging) always run in full, so the
coupling *decisions* are re-derived every pass from current windows;
only the expensive waveform evaluations are skipped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.circuit.netlist import Cell, Pin
from repro.core.columnar import (
    DIR_INDEX,
    DIRECTIONS,
    ColumnTimingState,
    CompiledDesign,
    WindowSnapshotView,
    compile_design,
)
from repro.core.modes import (
    AnalysisMode,
    ClockAggressorModel,
    SolverTier,
    StaConfig,
    WindowCheck,
)
from repro.flow.design import Design
from repro.core.provenance import ProvenanceLedger
from repro.obs.metrics import SMALL_COUNT_BUCKETS
from repro.obs.telemetry import Observability
from repro.errors import EngineError
from repro.waveform.gatedelay import ArcResult, GateDelayCalculator
from repro.waveform.pwl import FALLING, RISING
from repro.waveform.ramp import RampEvent

# The propagation phases, in execution order (timer and metric keys).
PASS_PHASES = (
    "gather",
    "base_waveforms",
    "coupling_decisions",
    "final_waveforms",
    "merge",
)

# The delta-driven memo columns, copied arc by arc on warm start.
_MEMO_COLUMNS = (
    "_m_valid",
    "_m_tt",
    "_m_exact",
    "_m_coupled",
    "_m_has_best",
    "_m_has_worst",
    "_m_cg",
    "_m_ca",
    "_m_cp",
    "_m_best",
    "_m_worst",
    "_m_final",
    "_m_prov",
)


@dataclass
class EndpointArrival:
    """Worst arrival of one transition at a capture point."""

    endpoint: str
    direction: str
    event: RampEvent


@dataclass
class PassResult:
    """Outcome of one propagation pass."""

    state: ColumnTimingState
    arrivals: list[EndpointArrival] = field(default_factory=list)
    longest_delay: float = 0.0
    critical_endpoint: str = ""
    critical_direction: str = ""
    waveform_evaluations: int = 0
    arcs_processed: int = 0
    coupled_arcs: int = 0
    dirty_arcs: int = 0
    reused_arcs: int = 0
    cache_evaluations: int = 0
    cache_hits: int = 0
    cache_dedup_hits: int = 0
    cache_persisted_hits: int = 0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    # Rows this pass appended to the propagator's provenance ledger
    # (0 when the ledger is disabled).
    provenance_rows: int = 0

    def arrival_map(self) -> dict[tuple[str, str], float]:
        return {(a.endpoint, a.direction): a.event.t_cross for a in self.arrivals}


def ideal_ramp_event(
    direction: str,
    t_start: float,
    transition: float,
    vdd: float,
    v_th: float,
) -> RampEvent:
    """Ramp event of an ideal rail-to-rail ramp starting at ``t_start``.

    By symmetry the threshold crossings land at the same offsets for both
    directions: the near-start threshold at ``transition * v_th / vdd``
    and the near-end one at ``transition * (vdd - v_th) / vdd``.
    """
    return RampEvent(
        direction=direction,
        t_cross=t_start + 0.5 * transition,
        transition=transition,
        t_early=t_start + transition * v_th / vdd,
        t_late=t_start + transition * (vdd - v_th) / vdd,
    )


# Decided coupling treatment of the non-window modes (the window-based
# modes decide per aggressor: "quiet" / "overlap").
_FIXED_COUPLING_KIND = {
    AnalysisMode.BEST_CASE: "grounded",
    AnalysisMode.STATIC_DOUBLED: "doubled",
    AnalysisMode.WORST_CASE: "all_active",
}


def _memo_prov(prov: dict | None) -> dict | None:
    """Provenance of a memo reuse: the stored solve's record with the
    origin rewritten to "memo"."""
    if prov is None:
        return None
    return {**prov, "origin": "memo"}


class Propagator:
    """Runs single STA passes over a prepared design."""

    def __init__(
        self,
        design: Design,
        config: StaConfig,
        calculator: GateDelayCalculator | None = None,
        obs: Observability | None = None,
        compiled: CompiledDesign | None = None,
    ):
        self.design = design
        self.config = config
        if obs is not None:
            self.obs = obs
        elif calculator is not None:
            # Share the calculator's registry so arc-cache and propagation
            # metrics land in one snapshot.
            self.obs = Observability.disabled()
            self.obs.metrics = calculator.metrics
        else:
            self.obs = Observability.disabled()
        self.calculator = (
            calculator
            if calculator is not None
            else GateDelayCalculator(
                process=design.process,
                workers=config.workers,
                metrics=self.obs.metrics,
            )
        )
        self.compiled = compiled if compiled is not None else compile_design(design)
        self.levels = self.compiled.levels
        self.order = self.compiled.cells
        # Screened solver tier: driver cells forced to the exact tier
        # (the analyzer grows this set during slack refinement until the
        # near-critical cone is fully exact).
        self._screened = config.solver_tier is SolverTier.SCREENED
        self.exact_cells: set[str] = set()
        # Per-arc provenance ledger (columnar; one row per merged arc).
        # Pure annotation: delays are bit-identical with it on or off.
        self._provenance = config.provenance
        self.ledger = ProvenanceLedger()
        self._pass_count = 0
        metrics = self.obs.metrics
        self._c_phase = {
            phase: metrics.counter("propagation.phase_seconds", phase=phase)
            for phase in PASS_PHASES
        }
        self._c_passes = metrics.counter("propagation.passes")
        self._c_arcs = metrics.counter("propagation.arcs_processed")
        self._c_evals = metrics.counter("propagation.waveform_evaluations")
        self._c_coupled = metrics.counter("propagation.coupled_arcs")
        self._c_dirty = metrics.counter("propagation.dirty_arcs")
        self._c_reused = metrics.counter("propagation.reused_arcs")
        self._c_waves = metrics.counter("propagation.coupling_waves")
        self._h_waves = metrics.histogram(
            "propagation.waves_per_level", boundaries=SMALL_COUNT_BUCKETS
        )
        self._init_columns()

    # -- static columns ------------------------------------------------------

    def _init_columns(self) -> None:
        cp = self.compiled
        config = self.config
        n = cp.n_arcs
        mode = config.mode
        wb = mode.is_window_based
        cf = cp.net_c_fixed[cp.arc_out_net]
        cc = cp.net_cc_total[cp.arc_out_net]
        # The plain (decision-free) load of each arc: the grounded load of
        # the window-based modes' no-neighbour arcs, or the mode's fixed
        # coupling treatment otherwise (grounded, grounded at doubled
        # value, or all active).
        if wb or mode is AnalysisMode.BEST_CASE:
            plain_cg, plain_ca = cf + cc, np.zeros(n)
        elif mode is AnalysisMode.STATIC_DOUBLED:
            plain_cg, plain_ca = cf + 2.0 * cc, np.zeros(n)
        elif mode is AnalysisMode.WORST_CASE:
            plain_cg, plain_ca = cf.copy(), cc.copy()
        else:  # pragma: no cover - AnalysisMode is closed
            raise EngineError(f"mode {mode} has no fixed coupling treatment")
        self._s_windowed = wb & (cp.arc_n_coup > 0)
        self._s_plain_cg = plain_cg
        self._s_plain_ca = plain_ca
        self._s_plain_coupled = (plain_ca > 0.0).tolist()
        # Pre-quantized cache-key loads (python floats: the keys are
        # JSON-serialized by the persistent cache).  The vectorized ceil
        # is bit-identical to the scalar math.ceil path: the quotients
        # are small enough that the ceiling integer is exact in float64.
        grid = self.calculator.cap_grid

        def qcap(values: np.ndarray) -> list[float]:
            return (np.ceil(np.maximum(values, 0.0) / grid) * grid).tolist()

        self._qp_plain_p = qcap(plain_cg)
        self._qp_plain_a = qcap(plain_ca)
        self._qp_best_p = qcap(cf + cc)
        self._qp_worst_p = qcap(cf)
        self._qp_worst_a = qcap(cc)

        # Per-arc object/str columns the hot loops index by id.
        self._s_cell = [cp.cells[i] for i in cp.arc_cell.tolist()]
        self._s_pin = cp.arc_pin
        self._s_dir = [DIRECTIONS[i] for i in cp.arc_in_dir.tolist()]
        self._s_indir = cp.arc_in_dir.tolist()
        self._s_outd = (1 - cp.arc_in_dir).tolist()
        self._s_out = cp.arc_out_net.tolist()
        self._s_outname = [cp.net_names[i] for i in self._s_out]
        self._s_windowed_l = self._s_windowed.tolist()
        self._tokens: list[str | None] = [None] * n
        self._s_cfix = cp.net_c_fixed.tolist()
        self._coup_indptr = cp.coup_indptr.tolist()
        self._coup_net = cp.coup_net.tolist()
        self._coup_cap = cp.coup_cap.tolist()
        self._net_is_clock = cp.net_is_clock.tolist()

        # Ledger annotation columns.  Unwindowed arcs keep their static
        # values; the decision phase rewrites windowed entries each pass.
        plain_kind = _FIXED_COUPLING_KIND.get(mode, "none")
        self._a_kind = [plain_kind] * n
        self._s_aggt = cp.arc_n_coup.tolist()
        self._a_agga = (
            list(self._s_aggt)
            if mode is AnalysisMode.WORST_CASE
            else [0] * n
        )

        # Delta-driven memo columns: the last pass's inputs and origin-free
        # outputs of each arc.
        #
        # The arc calculation consumes the input event only through its
        # direction and transition (the ramp the stage solver integrates)
        # and its crossing time -- and the latter enters *only* as the
        # time origin the relative result is shifted by
        # (:meth:`~repro.waveform.gatedelay.ArcResult.to_event`).  The
        # window markers ``t_early``/``t_late`` never enter at all; they
        # only feed *other* arcs' coupling decisions, which are re-derived
        # every pass anyway.  The direction is part of the arc's identity,
        # so the arrival fingerprint is just ``_m_tt``, the transition,
        # compared with exact float equality: an arc whose arrival merely
        # shifted in time (the common case between iterative passes)
        # re-anchors the memoized relative waveform at the new origin --
        # bit-identical to a fresh solve, because the unchanged quantized
        # cache key maps to the same cached :class:`ArcResult`.
        #
        # The decided final load is a (c_ground, c_couple_active,
        # c_couple_passive) triple; NaN encodes "no load" (the windowed
        # quiet short-circuit), which never compares equal to a real load.
        # ``_m_exact`` records whether every component came from the exact
        # (Newton) tier: screened memos are refused once slack refinement
        # forces the arc's driver cell exact.  ``_m_prov`` is the final
        # solve's calculator provenance (None when the ledger was off).
        self._m_valid = np.zeros(n, dtype=bool)
        self._m_tt = np.zeros(n, dtype=np.float64)
        self._m_exact = np.zeros(n, dtype=bool)
        self._m_coupled = np.zeros(n, dtype=bool)
        self._m_has_best = np.zeros(n, dtype=bool)
        self._m_has_worst = np.zeros(n, dtype=bool)
        self._m_cg = np.full(n, np.nan)
        self._m_ca = np.full(n, np.nan)
        self._m_cp = np.full(n, np.nan)
        self._m_best: list[ArcResult | None] = [None] * n
        self._m_worst: list[ArcResult | None] = [None] * n
        self._m_final: list[ArcResult | None] = [None] * n
        self._m_prov: list[dict | None] = [None] * n

        # Per-level cell records: (cell, out net id, arc slab range, is_ff).
        self._lvl_cells: list[list[tuple[Cell, int, int, int, bool]]] = []
        for level in self.levels:
            records = []
            for cell in level:
                ci = cp.cell_id[cell.name]
                oi = int(cp.cell_out_net[ci])
                if oi < 0:
                    continue
                records.append(
                    (
                        cell,
                        oi,
                        int(cp.cell_arc_begin[ci]),
                        int(cp.cell_arc_end[ci]),
                        bool(cp.cell_is_ff[ci]),
                    )
                )
            self._lvl_cells.append(records)

    def _token(self, a: int) -> str:
        """The arc's interned stage-signature token, resolved lazily on
        first use so signature/alias metrics track actual demand."""
        token = self._tokens[a]
        if token is None:
            token = self.calculator.signature(self._s_cell[a].ctype, self._s_pin[a])
            self._tokens[a] = token
        return token

    # -- session reuse -------------------------------------------------------

    @property
    def memo_arcs(self) -> int:
        """Number of arcs with a live delta-driven memo entry."""
        return int(self._m_valid.sum())

    def warm_start_from(self, source: "Propagator") -> None:
        """Adopt another propagator's delta-driven pass memo (the what-if
        path of a persistent design session).

        Within one design the memo fingerprints only what a solve consumes
        beyond the arc's identity -- the arrival shape and the decided
        load -- because a cell's type and its output net's electrical view
        cannot change between passes.  Across designs they can, so an
        entry migrates only when its arc still exists, the driving cell
        kept its cell type, and the output net's :class:`NetLoad` (fixed
        load, coupling neighbours, sink Elmore delays) is exactly equal.
        Everything else starts dirty and is re-solved.  Changes upstream
        of a surviving arc are caught by the arrival fingerprint itself
        (a moved transition misses the memo), so migration preserves the
        incremental engine's guarantee: a reused arc is bit-identical to
        a fresh solve.
        """
        if not self.config.incremental:
            return
        cells = self.design.circuit.cells
        old_cells = source.design.circuit.cells
        loads = self.design.loads
        old_loads = source.design.loads
        index = self.compiled.arc_key_index
        for b in np.nonzero(source._m_valid)[0].tolist():
            name = source._s_cell[b].name
            cell = cells.get(name)
            old_cell = old_cells.get(name)
            if cell is None or old_cell is None:
                continue
            if cell.ctype.name != old_cell.ctype.name:
                continue
            out_net = cell.output_pin.net
            old_net = old_cell.output_pin.net
            if out_net is None or old_net is None:
                continue
            if loads.get(out_net.name) != old_loads.get(old_net.name):
                continue
            a = index.get((name, source._s_pin[b], source._s_dir[b]))
            if a is None:
                continue
            for column in _MEMO_COLUMNS:
                getattr(self, column)[a] = getattr(source, column)[b]

    # -- pass driver ---------------------------------------------------------

    def run_pass(
        self,
        prev_windows: WindowSnapshotView | None = None,
        recalc_cells: set[str] | None = None,
        prev_state: ColumnTimingState | None = None,
    ) -> PassResult:
        """One full level-synchronous propagation.

        ``prev_windows`` supplies the previous iterative pass's per-net
        activity windows (``state.window_snapshot()``); ``recalc_cells``
        (Esperance, screened refinement) restricts waveform recalculation
        to the given cells, all others copy their previous events from
        ``prev_state``.  Both must come from a pass over this
        propagator's compiled design: they are read by id.
        """
        cp = self.compiled
        calc = self.calculator
        config = self.config
        n = cp.n_arcs
        state = ColumnTimingState(cp)
        result = PassResult(state=state)
        eval_before = calc.evaluations
        hits_before = calc.cache_hits
        dedup_before = calc.dedup_hits
        persisted_before = calc.persisted_hits
        ledger_before = len(self.ledger)
        self._pass_count += 1
        timers = {phase: 0.0 for phase in PASS_PHASES}
        tracer = self.obs.tracer

        overlap = config.window_check is WindowCheck.OVERLAP
        incremental = config.incremental
        prov_on = self._provenance
        screened_tier = self._screened
        mode = config.mode
        guard = config.guard
        clock_always = config.clock_model is ClockAggressorModel.ALWAYS
        k_slew = config.slew_degradation_factor
        tgrid = calc.transition_grid

        win_prev = prev_windows.state if prev_windows is not None else None
        for prev in (win_prev, prev_state):
            if prev is not None and prev.compiled is not cp:
                raise EngineError(
                    "previous pass belongs to a different compiled design"
                )

        # Slack refinement: arcs whose driver cell is forced exact.
        in_exact = np.zeros(n, dtype=bool)
        if self.exact_cells:
            for name in self.exact_cells:
                ci = cp.cell_id.get(name)
                if ci is not None:
                    in_exact[cp.cell_arc_begin[ci] : cp.cell_arc_end[ci]] = True
        fx_l = (in_exact if screened_tier else np.zeros(n, dtype=bool)).tolist()

        # Per-pass arc columns.
        a_live = np.zeros(n, dtype=bool)
        a_tt = np.zeros(n, dtype=np.float64)
        a_ts = np.zeros(n, dtype=np.float64)
        a_prov_dir = cp.arc_in_dir.astype(np.int8)
        a_eval = np.zeros(n, dtype=bool)
        a_screened = np.zeros(n, dtype=bool)
        a_coupled = np.zeros(n, dtype=bool)
        a_attach = np.zeros(n, dtype=bool)
        a_flhas = np.zeros(n, dtype=bool)
        a_flcg = np.zeros(n, dtype=np.float64)
        a_flca = np.zeros(n, dtype=np.float64)
        a_flcp = np.zeros(n, dtype=np.float64)
        a_best: list[ArcResult | None] = [None] * n
        a_worst: list[ArcResult | None] = [None] * n
        a_final: list[ArcResult | None] = [None] * n
        a_prov: list[dict | None] = [None] * n
        a_key: dict[int, tuple] = {}
        a_bkey: dict[int, tuple] = {}
        a_wkey: dict[int, tuple] = {}
        qtt_l: list[float] = [0.0] * n
        ts_l: list[float] = [0.0] * n

        with tracer.span(
            "sta.pass",
            mode=mode.value,
            incremental=recalc_cells is not None,
        ) as pass_span:
            self._init_sources(state)
            for level_index, level in enumerate(self.levels):
                with tracer.span(
                    "sta.level", index=level_index, cells=len(level)
                ) as level_span:
                    t0 = time.perf_counter()
                    records = self._lvl_cells[level_index]
                    lo = int(cp.level_indptr[level_index])
                    hi = int(cp.level_indptr[level_index + 1])
                    active_records = []
                    gate_any = False
                    for record in records:
                        cell, oi, b, e, is_ff = record
                        if (
                            recalc_cells is not None
                            and cell.name not in recalc_cells
                            and prev_state is not None
                            and prev_state.processed_mask[oi]
                        ):
                            state.copy_net_from(prev_state, oi)
                            continue
                        state.present[oi] = True
                        active_records.append(record)
                        if is_ff:
                            self._gather_flip_flop(
                                record, state, a_live, a_tt, a_ts, a_prov_dir, ts_l
                            )
                        elif b < e:
                            a_live[b:e] = True  # candidate; pruned below
                            gate_any = True
                    if gate_any:
                        idx = np.nonzero(a_live[lo:hi] & ~cp.arc_is_ff[lo:hi])[0] + lo
                        innet = cp.arc_in_net[idx]
                        indir = cp.arc_in_dir[idx]
                        ok = state.valid[indir, innet]
                        a_live[idx[~ok]] = False
                        live_idx = idx[ok]
                        innet = innet[ok]
                        indir = indir[ok]
                        tc = state.ev_tc[indir, innet]
                        tr = state.ev_tr[indir, innet]
                        el = cp.arc_elmore[live_idx]
                        shift = el > 0.0
                        tc = np.where(shift, tc + el, tc)
                        tr = np.where(shift, tr + k_slew * el, tr)
                        a_tt[live_idx] = tr
                        ts = tc - 0.5 * tr
                        a_ts[live_idx] = ts
                        for a, value in zip(live_idx.tolist(), ts.tolist()):
                            ts_l[a] = value
                    computed_cells: list[Cell] = []
                    tasks_of_ranges: dict[str, tuple[int, int]] = {}
                    for cell, oi, b, e, is_ff in active_records:
                        if is_ff or bool(a_live[b:e].any()):
                            computed_cells.append(cell)
                            tasks_of_ranges[cell.name] = (b, e)
                        else:
                            # No launch events reach this cell: its output
                            # stays quiet this pass.
                            state.processed_mask[oi] = True
                    timers["gather"] += time.perf_counter() - t0

                    live_slab = a_live[lo:hi]
                    n_live = int(live_slab.sum())
                    if n_live == 0:
                        continue

                    t0 = time.perf_counter()
                    with tracer.span("phase.base_waveforms", tasks=n_live):
                        result.arcs_processed += n_live
                        sl = slice(lo, hi)
                        qtt = (
                            np.ceil(np.maximum(a_tt[sl], 1e-13) / tgrid) * tgrid
                        )
                        qtt_l[lo:hi] = qtt.tolist()
                        if incremental:
                            attach = (
                                live_slab
                                & self._m_valid[sl]
                                & (self._m_tt[sl] == a_tt[sl])
                                & (self._m_exact[sl] | ~in_exact[sl])
                            )
                            a_attach[sl] = attach
                        else:
                            attach = np.zeros(hi - lo, dtype=bool)
                        windowed = self._s_windowed[sl]
                        uw = live_slab & ~windowed
                        reuse_uw = (
                            attach
                            & uw
                            & (self._m_cg[sl] == self._s_plain_cg[sl])
                            & (self._m_ca[sl] == self._s_plain_ca[sl])
                            & (self._m_cp[sl] == 0.0)
                        )
                        idx = np.nonzero(reuse_uw)[0] + lo
                        a_coupled[idx] = self._m_coupled[idx]
                        a_screened[idx] |= ~self._m_exact[idx]
                        for a in idx.tolist():
                            a_final[a] = self._m_final[a]
                            if prov_on:
                                a_prov[a] = _memo_prov(self._m_prov[a])
                        w = live_slab & windowed
                        reuse_w = attach & w & self._m_has_best[sl]
                        if overlap:
                            reuse_w &= self._m_has_worst[sl]
                        idx = np.nonzero(reuse_w)[0] + lo
                        a_screened[idx] |= ~self._m_exact[idx]
                        for a in idx.tolist():
                            a_best[a] = self._m_best[a]
                            a_worst[a] = self._m_worst[a]
                            if prov_on:
                                # Tentative: overwritten if the coupling
                                # decision forces a fresh final solve.
                                a_prov[a] = _memo_prov(self._m_prov[a])
                        miss = np.nonzero(
                            (uw & ~reuse_uw) | (w & ~reuse_w)
                        )[0] + lo
                        miss_l = miss.tolist()
                        if miss_l:
                            entries = []
                            for a in miss_l:
                                token = self._token(a)
                                fxa = fx_l[a]
                                if self._s_windowed_l[a]:
                                    key = (
                                        token,
                                        self._s_dir[a],
                                        qtt_l[a],
                                        self._qp_best_p[a],
                                        0.0,
                                        False,
                                    )
                                    a_bkey[a] = key
                                    entries.append((key, fxa))
                                    if overlap:
                                        key = (
                                            token,
                                            self._s_dir[a],
                                            qtt_l[a],
                                            self._qp_worst_p[a],
                                            self._qp_worst_a[a],
                                            False,
                                        )
                                        a_wkey[a] = key
                                        entries.append((key, fxa))
                                else:
                                    key = (
                                        token,
                                        self._s_dir[a],
                                        qtt_l[a],
                                        self._qp_plain_p[a],
                                        self._qp_plain_a[a],
                                        False,
                                    )
                                    a_key[a] = key
                                    entries.append((key, fxa))
                            calc.prime_keys(entries)
                            for a in miss_l:
                                fxa = fx_l[a]
                                if self._s_windowed_l[a]:
                                    result.waveform_evaluations += 1
                                    a_eval[a] = True
                                    rel = calc.resolve_key(a_bkey[a], fxa)
                                    if screened_tier and calc.last_tier != "newton":
                                        a_screened[a] = True
                                    a_best[a] = rel
                                    if prov_on:
                                        a_prov[a] = self._last_prov()
                                    if overlap:
                                        result.waveform_evaluations += 1
                                        rel = calc.resolve_key(a_wkey[a], fxa)
                                        if (
                                            screened_tier
                                            and calc.last_tier != "newton"
                                        ):
                                            a_screened[a] = True
                                        a_worst[a] = rel
                                else:
                                    result.waveform_evaluations += 1
                                    a_eval[a] = True
                                    rel = calc.resolve_key(a_key[a], fxa)
                                    if screened_tier and calc.last_tier != "newton":
                                        a_screened[a] = True
                                    a_final[a] = rel
                                    a_coupled[a] = self._s_plain_coupled[a]
                                    if prov_on:
                                        a_prov[a] = self._last_prov()
                    timers["base_waveforms"] += time.perf_counter() - t0

                    waves = self._coupling_waves(computed_cells)
                    self._c_waves.inc(len(waves))
                    self._h_waves.observe(len(waves))
                    level_span.set(tasks=n_live, waves=len(waves))
                    for wave_index, wave in enumerate(waves):
                        wave_arcs = [
                            a
                            for cell in wave
                            for a in range(*tasks_of_ranges[cell.name])
                            if a_live[a]
                        ]
                        t0 = time.perf_counter()
                        with tracer.span(
                            "phase.coupling_decisions",
                            wave=wave_index,
                            tasks=len(wave_arcs),
                        ):
                            for a in wave_arcs:
                                if not self._s_windowed_l[a]:
                                    continue
                                best = a_best[a]
                                ts = ts_l[a]
                                tb_g = (ts + best.t_early) - guard
                                worst = a_worst[a]
                                tvl_g = (
                                    (ts + worst.t_late) + guard
                                    if worst is not None
                                    else float("inf")
                                )
                                agg_d = self._s_indir[a]
                                out = self._s_out[a]
                                c_lo = self._coup_indptr[out]
                                c_hi = self._coup_indptr[out + 1]
                                active_sum = 0.0
                                passive_sum = 0.0
                                n_active = 0
                                # Each aggressor's possible activity window
                                # (te, tq) for the opposite transition:
                                # (-inf, +inf) is "unknown -- must assume
                                # coupling", (+inf, -inf) the empty window
                                # (the net never makes that transition).
                                for j in range(c_lo, c_hi):
                                    other = self._coup_net[j]
                                    cap = self._coup_cap[j]
                                    if other >= 0 and (
                                        clock_always and self._net_is_clock[other]
                                    ):
                                        te, tq = float("-inf"), float("inf")
                                    elif other >= 0 and state.processed_mask[other]:
                                        if state.valid[agg_d, other]:
                                            te = state.ev_te[agg_d, other]
                                            tq = state.ev_tl[agg_d, other]
                                        else:
                                            te, tq = float("inf"), float("-inf")
                                    elif win_prev is not None:
                                        if (
                                            other >= 0
                                            and win_prev.present[other]
                                            and win_prev.valid[agg_d, other]
                                        ):
                                            te = win_prev.ev_te[agg_d, other]
                                            tq = win_prev.ev_tl[agg_d, other]
                                        else:
                                            te, tq = float("inf"), float("-inf")
                                    else:
                                        te, tq = float("-inf"), float("inf")
                                    may_couple = tq > tb_g
                                    if may_couple and te >= tvl_g:
                                        may_couple = False
                                    if may_couple:
                                        active_sum += cap
                                        n_active += 1
                                    else:
                                        passive_sum += cap
                                self._a_kind[a] = "overlap" if n_active else "quiet"
                                self._a_agga[a] = n_active
                                if n_active:
                                    a_flhas[a] = True
                                    a_flcg[a] = self._s_cfix[out]
                                    a_flca[a] = active_sum
                                    a_flcp[a] = passive_sum
                                else:
                                    a_final[a] = best
                                    a_coupled[a] = False
                        timers["coupling_decisions"] += time.perf_counter() - t0

                        t0 = time.perf_counter()
                        with tracer.span("phase.final_waveforms", wave=wave_index):
                            pending: list[int] = []
                            for a in wave_arcs:
                                if not a_flhas[a]:
                                    continue
                                result.coupled_arcs += 1
                                if (
                                    a_attach[a]
                                    and self._m_cg[a] == a_flcg[a]
                                    and self._m_ca[a] == a_flca[a]
                                    and self._m_cp[a] == a_flcp[a]
                                ):
                                    a_final[a] = self._m_final[a]
                                    a_coupled[a] = True
                                    if not self._m_exact[a]:
                                        a_screened[a] = True
                                    if prov_on:
                                        a_prov[a] = _memo_prov(self._m_prov[a])
                                    continue
                                pending.append(a)
                            if pending:
                                entries = []
                                for a in pending:
                                    key = (
                                        self._token(a),
                                        self._s_dir[a],
                                        qtt_l[a],
                                        calc._q_cap(a_flcg[a] + a_flcp[a]),
                                        calc._q_cap(a_flca[a]),
                                        False,
                                    )
                                    a_key[a] = key
                                    entries.append((key, fx_l[a]))
                                calc.prime_keys(entries)
                                for a in pending:
                                    result.waveform_evaluations += 1
                                    a_eval[a] = True
                                    rel = calc.resolve_key(a_key[a], fx_l[a])
                                    if screened_tier and calc.last_tier != "newton":
                                        a_screened[a] = True
                                    a_final[a] = rel
                                    a_coupled[a] = True
                                    if prov_on:
                                        a_prov[a] = self._last_prov()
                        timers["final_waveforms"] += time.perf_counter() - t0

                        t0 = time.perf_counter()
                        for a in wave_arcs:
                            rel = a_final[a]
                            if prov_on:
                                prov = a_prov[a] or {}
                                if self._s_windowed_l[a]:
                                    if (
                                        a_coupled[a]
                                        and a_best[a] is not None
                                        and rel is not None
                                    ):
                                        delta = rel.t_cross - a_best[a].t_cross
                                    else:
                                        delta = 0.0
                                elif mode is AnalysisMode.BEST_CASE:
                                    delta = 0.0
                                else:
                                    delta = None
                                row = self.ledger.append(
                                    tier=prov.get("tier", "newton"),
                                    origin=prov.get("origin", "fresh"),
                                    escalation=prov.get("escalation"),
                                    signature=prov.get("signature", ""),
                                    coupling=self._a_kind[a],
                                    aggressors_total=self._s_aggt[a],
                                    aggressors_active=self._a_agga[a],
                                    pass_index=self._pass_count,
                                    coupling_delta=delta,
                                )
                            else:
                                row = None
                            ts = ts_l[a]
                            tc = ts + rel.t_cross
                            tr = rel.transition
                            te = ts + rel.t_early
                            tl = ts + rel.t_late
                            d = self._s_outd[a]
                            out = self._s_out[a]
                            if state.valid[d, out]:
                                cur_tc = state.ev_tc[d, out]
                                winner = tc > cur_tc
                                # Pointwise-worst merge (merge_worst):
                                # each component keeps the current value
                                # on ties, like python max/min.
                                if not cur_tc >= tc:
                                    state.ev_tc[d, out] = tc
                                if not state.ev_tr[d, out] >= tr:
                                    state.ev_tr[d, out] = tr
                                if not state.ev_te[d, out] <= te:
                                    state.ev_te[d, out] = te
                                if not state.ev_tl[d, out] >= tl:
                                    state.ev_tl[d, out] = tl
                                state._ev_cache.pop((d, out), None)
                            else:
                                state.valid[d, out] = True
                                state.ev_tc[d, out] = tc
                                state.ev_tr[d, out] = tr
                                state.ev_te[d, out] = te
                                state.ev_tl[d, out] = tl
                                winner = True
                            if winner:
                                state.win_arc[d, out] = a
                                state.win_coupled[d, out] = a_coupled[a]
                                state.win_prov_dir[d, out] = a_prov_dir[a]
                                if row is not None:
                                    state.aprov_row[d, out] = row
                            if a_eval[a]:
                                result.dirty_arcs += 1
                            else:
                                result.reused_arcs += 1
                            if incremental:
                                self._m_valid[a] = True
                                self._m_tt[a] = a_tt[a]
                                self._m_exact[a] = not a_screened[a]
                                self._m_coupled[a] = a_coupled[a]
                                best = a_best[a]
                                self._m_best[a] = best
                                self._m_has_best[a] = best is not None
                                worst = a_worst[a]
                                self._m_worst[a] = worst
                                self._m_has_worst[a] = worst is not None
                                self._m_final[a] = rel
                                self._m_prov[a] = a_prov[a]
                                if a_flhas[a]:
                                    self._m_cg[a] = a_flcg[a]
                                    self._m_ca[a] = a_flca[a]
                                    self._m_cp[a] = a_flcp[a]
                                elif not self._s_windowed_l[a]:
                                    self._m_cg[a] = self._s_plain_cg[a]
                                    self._m_ca[a] = self._s_plain_ca[a]
                                    self._m_cp[a] = 0.0
                                else:
                                    self._m_cg[a] = np.nan
                                    self._m_ca[a] = np.nan
                                    self._m_cp[a] = np.nan
                        # Wave barrier: these events now count as calculated
                        # for the later waves' and levels' decisions.
                        for cell in wave:
                            state.processed_mask[
                                cp.net_id[cell.output_pin.net.name]
                            ] = True
                        timers["merge"] += time.perf_counter() - t0

            self._collect_arrivals(state, result)
            pass_span.set(
                arcs=result.arcs_processed,
                evaluations=result.waveform_evaluations,
                coupled_arcs=result.coupled_arcs,
                longest_delay_ns=result.longest_delay * 1e9,
            )

        result.cache_evaluations = calc.evaluations - eval_before
        result.cache_hits = calc.cache_hits - hits_before
        result.cache_dedup_hits = calc.dedup_hits - dedup_before
        result.cache_persisted_hits = calc.persisted_hits - persisted_before
        result.provenance_rows = len(self.ledger) - ledger_before
        result.phase_seconds = timers
        self._c_passes.inc()
        self._c_arcs.inc(result.arcs_processed)
        self._c_evals.inc(result.waveform_evaluations)
        self._c_coupled.inc(result.coupled_arcs)
        self._c_dirty.inc(result.dirty_arcs)
        self._c_reused.inc(result.reused_arcs)
        for phase, seconds in timers.items():
            self._c_phase[phase].inc(seconds)
        return result

    def _gather_flip_flop(
        self, record, state, a_live, a_tt, a_ts, a_prov_dir, ts_l
    ) -> None:
        """Launch both Q transitions off the clock arrival at this
        flip-flop (the ideal rising launch edge when no clock arrives)."""
        cell, oi, b, e, _ = record
        cp = self.compiled
        process = self.design.process
        ci = cp.cell_id[cell.name]
        clk_net_id = int(cp.cell_clk_net[ci])
        clk_event = None
        if clk_net_id >= 0:
            clk_name = cp.net_names[clk_net_id]
            clk_event = state.event(clk_name, RISING) or state.event(
                clk_name, FALLING
            )
        if clk_event is not None and clk_net_id >= 0:
            clk_arrival = self._arrival_at_pin(
                clk_event, clk_name, cp.cell_clk_terminal[ci]
            )
        else:
            clk_arrival = ideal_ramp_event(
                RISING,
                0.0,
                self.config.input_transition,
                process.vdd,
                process.v_th_model,
            )
        launch_cross = clk_arrival.t_cross + cell.ctype.clk_to_q
        tt = clk_arrival.transition
        # The internal arrival is an ideal ramp starting at
        # launch_cross - tt/2 whose time origin is recovered from its
        # crossing time, t_cross - tt/2; the round trip is kept verbatim
        # because it is not exact in floating point.
        ts = ((launch_cross - 0.5 * tt) + 0.5 * tt) - 0.5 * tt
        a_live[b:e] = True
        a_tt[b:e] = tt
        a_ts[b:e] = ts
        a_prov_dir[b:e] = DIR_INDEX[clk_arrival.direction]
        for a in range(b, e):
            ts_l[a] = ts

    # -- sources ---------------------------------------------------------------

    def _init_sources(self, state: ColumnTimingState) -> None:
        process = self.design.process
        tt = self.config.input_transition
        circuit = self.design.circuit
        for port in circuit.inputs.values():
            net = port.net
            if net is None:
                continue
            slot = state.ensure_net(net.name)
            if net.is_clock:
                # Launch edge only: the clock rises at t = 0.
                slot[RISING] = ideal_ramp_event(
                    RISING, 0.0, tt, process.vdd, process.v_th_model
                )
            else:
                # Data inputs may make either transition at t = 0.
                for direction in (RISING, FALLING):
                    slot[direction] = ideal_ramp_event(
                        direction, 0.0, tt, process.vdd, process.v_th_model
                    )
            state.processed.add(net.name)

    # -- coupling waves ----------------------------------------------------------

    def _coupling_waves(self, cells: list[Cell]) -> list[list[Cell]]:
        """Split one level's cells into decision waves.

        A cell must wait for an earlier-ordered cell of the same level
        only when that cell drives a net coupled to its own output --
        otherwise the two share no timing information at all and can be
        decided together.  Processing the waves in order reproduces the
        sequential walk's asymmetric visibility (for every coupled pair
        driven in one level, exactly one side sees the other's freshly
        calculated window) while keeping each wave batchable.  The
        non-window modes never read windows: everything is one wave.
        """
        if not self.config.mode.is_window_based or len(cells) <= 1:
            return [cells] if cells else []
        driver_wave: dict[str, int] = {}
        waves: list[list[Cell]] = []
        for cell in cells:
            out_net = cell.output_pin.net
            load = self.design.loads.get(out_net.name)
            wave = 0
            if load is not None:
                for other in load.couplings:
                    earlier = driver_wave.get(other)
                    if earlier is not None:
                        wave = max(wave, earlier + 1)
            driver_wave[out_net.name] = wave
            if wave == len(waves):
                waves.append([])
            waves[wave].append(cell)
        return waves

    def _last_prov(self) -> dict:
        """The calculator's provenance surfaces for the solve it just
        answered (captured immediately after a ``resolve_key``)."""
        calc = self.calculator
        return {
            "tier": calc.last_tier,
            "origin": calc.last_origin,
            "escalation": calc.last_escalation,
            "signature": calc.last_signature,
        }

    # -- helpers -------------------------------------------------------------------

    def _arrival_at_pin(self, event: RampEvent, net_name: str, terminal: str) -> RampEvent:
        """Shift a driver-output event to a sink terminal: Elmore wire
        delay plus slew degradation.

        The transition degrades by linear addition of the wire's own
        transition scale (``k * T_elmore``), not the popular quadrature
        (PERI) form: linear addition upper-bounds the RC-filtered sink
        slew, which the worst-case analysis needs -- quadrature measurably
        under-estimates the slow exponential tail on long stretched wires
        and can let the simulation beat the bound.
        """
        elmore = self.design.loads[net_name].sink_elmore.get(terminal, 0.0)
        if elmore <= 0.0:
            return event
        shifted = event.shifted(elmore)
        k = self.config.slew_degradation_factor
        degraded = event.transition + k * elmore
        return shifted.with_transition(degraded)

    def _collect_arrivals(self, state: ColumnTimingState, result: PassResult) -> None:
        for endpoint in self.design.circuit.timing_endpoints():
            net = endpoint.net
            if net is None:
                continue
            terminal = endpoint.full_name if isinstance(endpoint, Pin) else endpoint.name
            for direction in (RISING, FALLING):
                event = state.event(net.name, direction)
                if event is None:
                    continue
                arrival = self._arrival_at_pin(event, net.name, terminal)
                result.arrivals.append(
                    EndpointArrival(endpoint=terminal, direction=direction, event=arrival)
                )
                if arrival.t_cross > result.longest_delay:
                    result.longest_delay = arrival.t_cross
                    result.critical_endpoint = terminal
                    result.critical_direction = direction
